open Query

(* Fast UCQ minimisation. Same contract as the naive pairwise loop
   (drop every disjunct contained in a surviving one) — the survivor
   set, survivor order and tie-breaking are replicated exactly, so the
   two paths return byte-identical UCQs — but the quadratic
   containment phase runs behind three layers of pruning:

   - per-disjunct minimisation skips atoms whose predicate occurs only
     once in the body (a homomorphism from the original CQ needs a
     same-predicate target among the remaining atoms);
   - disjuncts are indexed by predicate mask, so disjunct [i] only
     visits the candidate containers whose predicates are a subset of
     its own, and of those only the ones whose body constants and head
     constants are compatible (each a necessary condition for a
     homomorphism) are containment-checked;
   - results are memoised per pair of union-find equivalence-class
     roots: once two disjuncts are discovered mutually contained their
     classes merge, and any containment already decided for the class
     representative answers in O(1). *)

let m_dedup_hits =
  Obs.Metrics.counter
    ~help:"syntactic duplicate CQs removed by canonical-form hashing"
    "reform.dedup_hits"

let m_checks =
  Obs.Metrics.counter
    ~help:"CQ containment checks actually run (homomorphism searches)"
    "reform.containment.checks"

let m_skipped =
  Obs.Metrics.counter
    ~help:"CQ containment checks skipped by predicate/constant/head prefilters"
    "reform.containment.skipped"

let m_memo_hits =
  Obs.Metrics.counter
    ~help:"CQ containment checks answered by the class-root memo"
    "reform.containment.memo_hits"

let m_minimize_ms =
  Obs.Metrics.histogram ~help:"UCQ minimisation latency (ms)"
    "reform.minimize_ms"

let dedup_atoms body =
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest ->
      if List.exists (Atom.equal a) acc then go acc rest else go (a :: acc) rest
  in
  go [] body

let body_vars body =
  List.fold_left (fun acc a -> Term.Set.union acc (Atom.vars a)) Term.Set.empty body

let remake q body =
  Cq.make ~name:q.Cq.name ~head:q.Cq.head ~body ()

let rec distinct_predicates = function
  | [] -> true
  | a :: rest ->
    let p = Atom.pred_name a in
    (not (List.exists (fun b -> String.equal p (Atom.pred_name b)) rest))
    && distinct_predicates rest

(* Greedy core computation with one extra (exact) skip: dropping atom
   [i] keeps the query equivalent only if a homomorphism maps the
   dropped atom onto a remaining atom of the same predicate, so
   predicates occurring once in the body are never droppable. When
   every predicate occurs once nothing is droppable and the body has no
   duplicate, so [q] itself is the result. *)
let minimize_cq q =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let rec shrink q =
    let body = Cq.atoms q in
    let n = List.length body in
    if n <= 1 then q
    else begin
      let mult = Hashtbl.create 8 in
      List.iter
        (fun a ->
          let p = Atom.pred_name a in
          Hashtbl.replace mult p
            (1 + Option.value ~default:0 (Hashtbl.find_opt mult p)))
        body;
      let arr = Array.of_list body in
      let rec try_drop i =
        if i >= n then q
        else if Hashtbl.find mult (Atom.pred_name arr.(i)) < 2 then
          try_drop (i + 1)
        else
          let body' = drop_nth body i in
          let bv = body_vars body' in
          let head_safe =
            List.for_all
              (fun t -> Term.is_cst t || Term.Set.mem t bv)
              q.Cq.head
          in
          if head_safe then begin
            let q' = remake q body' in
            if Cq.exists_hom ~from_q:q ~to_q:q' then shrink q'
            else try_drop (i + 1)
          end
          else try_drop (i + 1)
      in
      try_drop 0
    end
  in
  if distinct_predicates (Cq.atoms q) then q
  else shrink (remake q (dedup_atoms (Cq.atoms q)))

(* Kind-aware rendering for hash keys: variables and constants carry
   distinct sigils, so a [Var "x"] never collides with a [Cst "x"], and
   string hashing (unlike the generic [Hashtbl.hash] on a whole CQ,
   which samples only a few nodes) stays uniform over thousands of
   structurally similar disjuncts. *)
let add_term_key buf t =
  (match t with
  | Term.Var v ->
    Buffer.add_char buf '?';
    Buffer.add_string buf v
  | Term.Cst c ->
    Buffer.add_char buf '!';
    Buffer.add_string buf c);
  Buffer.add_char buf ','

let add_key buf (cq : Cq.t) =
  List.iter (add_term_key buf) cq.Cq.head;
  Buffer.add_char buf '|';
  List.iter
    (fun a ->
      Buffer.add_string buf (Atom.pred_name a);
      Buffer.add_char buf '(';
      (match a with
      | Atom.Ca (_, t) -> add_term_key buf t
      | Atom.Ra (_, t1, t2) ->
        add_term_key buf t1;
        add_term_key buf t2);
      Buffer.add_char buf ')')
    (Cq.atoms cq)

(* Intern the names [iter_names] yields per disjunct as bitmasks over
   the names actually occurring in this union: one reformulation
   touches few distinct predicates (and usually no constants), so
   subset tests collapse to word ANDs. Masks are arrays of 63-bit
   words to stay total in the (rare) >63-name case. *)
let masks_of ds iter_names =
  let ids = Hashtbl.create 32 in
  let bit_of name =
    match Hashtbl.find_opt ids name with
    | Some b -> b
    | None ->
      let b = Hashtbl.length ids in
      Hashtbl.add ids name b;
      b
  in
  Array.iter (fun d -> iter_names (fun n -> ignore (bit_of n)) d) ds;
  let words = max 1 ((Hashtbl.length ids + 62) / 63) in
  Array.map
    (fun d ->
      let m = Array.make words 0 in
      iter_names
        (fun n ->
          let b = bit_of n in
          m.(b / 63) <- m.(b / 63) lor (1 lsl (b mod 63)))
        d;
      m)
    ds

let iter_preds f cq = List.iter (fun a -> f (Atom.pred_name a)) (Cq.atoms cq)

let iter_csts f cq =
  let term = function Term.Cst c -> f c | Term.Var _ -> () in
  List.iter
    (function
      | Atom.Ca (_, t) -> term t
      | Atom.Ra (_, t1, t2) ->
        term t1;
        term t2)
    (Cq.atoms cq)

(* mask_sub a b = the set of [a] is included in the set of [b] *)
let mask_sub a b =
  let ok = ref true in
  for w = 0 to Array.length a - 1 do
    if a.(w) land lnot b.(w) <> 0 then ok := false
  done;
  !ok

(* For each disjunct, the ascending indexes of the disjuncts whose
   predicates are a subset of its own, as a bitset over [0, n):
   disjuncts sharing a predicate mask share one bitset, built from
   subset tests between the distinct masks only. *)
let containers_by_mask pmask =
  let n = Array.length pmask in
  let words = (n + 62) / 63 in
  let group_of = Hashtbl.create 64 and masks = ref [] in
  let group =
    Array.map
      (fun m ->
        match Hashtbl.find_opt group_of m with
        | Some g -> g
        | None ->
          let g = Hashtbl.length group_of in
          Hashtbl.add group_of m g;
          masks := m :: !masks;
          g)
      pmask
  in
  let masks = Array.of_list (List.rev !masks) in
  let g = Array.length masks in
  let members = Array.make g [] in
  for j = n - 1 downto 0 do
    members.(group.(j)) <- j :: members.(group.(j))
  done;
  let candidates =
    Array.init g (fun a ->
        let bits = Array.make words 0 in
        for b = 0 to g - 1 do
          if mask_sub masks.(b) masks.(a) then
            List.iter
              (fun j -> bits.(j / 63) <- bits.(j / 63) lor (1 lsl (j mod 63)))
              members.(b)
        done;
        bits)
  in
  Array.map (fun gi -> candidates.(gi)) group

(* Index of the lowest set bit of [x] (a non-zero power of two). *)
let bit_index x =
  let rec go x i = if x = 1 then i else go (x lsr 1) (i + 1) in
  go x 0

(* Necessary conditions, besides the predicate subset the index already
   guarantees, for a homomorphism d_j -> d_i (i.e. for
   [contained_in ds.(i) ds.(j)] to possibly hold): body constants of
   d_j within d_i's, head constants positionally equal. [head_free.(j)]
   short-circuits the common all-variable head. *)
let hom_possible ~cmask ~heads ~head_free i j =
  mask_sub cmask.(j) cmask.(i)
  && (head_free.(j)
     || List.for_all2
          (fun tj ti -> Term.is_var tj || Term.equal tj ti)
          heads.(j) heads.(i))

let minimize (u : Ucq.t) =
  Obs.Metrics.time m_minimize_ms @@ fun () ->
  let minimized = List.map minimize_cq (Ucq.disjuncts u) in
  (* O(1) dedup of syntactic duplicates, keyed by the kind-aware
     rendering of the canonical form (no conflation of same-named
     variables and constants). First occurrence wins, as in
     {!Query.Ucq.dedup}. *)
  let seen = Hashtbl.create 64 in
  let buf = Buffer.create 128 in
  let dedup_hits = ref 0 in
  let deduped =
    List.filter
      (fun cq ->
        Buffer.clear buf;
        add_key buf (Cq.canonicalize cq);
        let key = Buffer.contents buf in
        if Hashtbl.mem seen key then begin
          incr dedup_hits;
          false
        end
        else begin
          Hashtbl.add seen key ();
          true
        end)
      minimized
  in
  Obs.Metrics.add m_dedup_hits !dedup_hits;
  let ds = Array.of_list deduped in
  let n = Array.length ds in
  let containers = containers_by_mask (masks_of ds iter_preds) in
  let cmask = masks_of ds iter_csts in
  let heads = Array.map (fun cq -> cq.Cq.head) ds in
  let head_free = Array.map (List.for_all Term.is_var) heads in
  let classes = Unionfind.create ~capacity:(max n 1) () in
  for _ = 1 to n do
    ignore (Unionfind.make classes)
  done;
  let memo : (int * int, bool) Hashtbl.t = Hashtbl.create 256 in
  let checks = ref 0 and memo_hits = ref 0 and tested = ref 0 in
  (* [contained i j] = [Cq.contained_in ds.(i) ds.(j)], memoised per
     (class root, class root): containment is invariant under mutual
     containment, so once i and j are discovered equivalent any verdict
     for their class transfers. Same class = contained, both ways. *)
  let contained i j =
    let ri = Unionfind.find classes i and rj = Unionfind.find classes j in
    if ri = rj then true
    else
      match Hashtbl.find_opt memo (ri, rj) with
      | Some b ->
        incr memo_hits;
        b
      | None ->
        incr checks;
        let b = Cq.contained_in ds.(i) ds.(j) in
        Hashtbl.replace memo (ri, rj) b;
        b
  in
  let dead = Array.make n false in
  (* [alive_before.(k)] = survivors among [0, k); final for k <= i at
     step i, since only [dead.(i)] changes during step i *)
  let alive_before = Array.make (n + 1) 0 in
  let visited = ref 0 in
  (* Same tie-break as the naive minimisation: d.(i) dies when
     contained in a surviving d.(j); among mutual equivalents the
     smallest index survives. The candidates are visited in ascending
     order, as the naive loop visits every j, so the same pairs are
     checked in the same order; the pairs the index skips are counted
     as the naive loop's prefilter would have counted them. *)
  for i = 0 to n - 1 do
    let bits = containers.(i) in
    let last = ref (n - 1) and w = ref 0 in
    while (not dead.(i)) && !w < Array.length bits do
      let word = ref bits.(!w) in
      while (not dead.(i)) && !word <> 0 do
        let low = !word land - !word in
        word := !word lxor low;
        let j = (!w * 63) + bit_index low in
        if j <> i && not dead.(j) then
          if hom_possible ~cmask ~heads ~head_free i j then begin
            incr tested;
            if contained i j then begin
              if contained j i then begin
                ignore (Unionfind.union classes i j);
                if j < i then dead.(i) <- true
              end
              else dead.(i) <- true;
              if dead.(i) then last := j
            end
          end
      done;
      incr w
    done;
    (* the naive loop visits every surviving j <> i up to [last] *)
    visited :=
      !visited
      + (if !last < i then alive_before.(!last + 1)
         else alive_before.(i) + (!last - i));
    alive_before.(i + 1) <- (alive_before.(i) + if dead.(i) then 0 else 1)
  done;
  Obs.Metrics.add m_checks !checks;
  Obs.Metrics.add m_memo_hits !memo_hits;
  Obs.Metrics.add m_skipped (!visited - !tested);
  let survivors = ref [] in
  for i = n - 1 downto 0 do
    if not dead.(i) then survivors := ds.(i) :: !survivors
  done;
  Ucq.make !survivors
