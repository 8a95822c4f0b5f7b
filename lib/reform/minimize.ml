open Query

(* Fast UCQ minimisation. Same contract as the naive pairwise loop
   (drop every disjunct contained in a surviving one) — the survivor
   set, survivor order and tie-breaking are replicated exactly, so the
   two paths return byte-identical UCQs — but the quadratic
   containment phase runs behind three layers of pruning:

   - per-disjunct minimisation skips atoms whose predicate occurs only
     once in the body (a homomorphism from the original CQ needs a
     same-predicate target among the remaining atoms);
   - a pair is only containment-checked when the candidate container's
     predicates, body constants and head constants are compatible
     (each a necessary condition for a homomorphism);
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

(* {!Query.Cq.minimize} with one extra (exact) skip: dropping atom [i]
   keeps the query equivalent only if a homomorphism maps the dropped
   atom onto a remaining atom of the same predicate, so predicates
   occurring once in the body are never droppable. *)
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
  shrink (remake q (dedup_atoms (Cq.atoms q)))

(* Kind-aware rendering for hash keys: variables and constants carry
   distinct sigils, so a [Var "x"] never collides with a [Cst "x"], and
   string hashing (unlike the generic [Hashtbl.hash] on a whole CQ,
   which samples only a few nodes) stays uniform over thousands of
   structurally similar disjuncts. *)
let add_term_key buf t =
  match t with
  | Term.Var v ->
    Buffer.add_char buf '?';
    Buffer.add_string buf v
  | Term.Cst c ->
    Buffer.add_char buf '!';
    Buffer.add_string buf c

let rendered_key (cq : Cq.t) =
  let buf = Buffer.create 64 in
  List.iter
    (fun t ->
      add_term_key buf t;
      Buffer.add_char buf ',')
    cq.Cq.head;
  Buffer.add_char buf '|';
  List.iter
    (fun a ->
      Buffer.add_string buf (Atom.pred_name a);
      Buffer.add_char buf '(';
      List.iter
        (fun t ->
          add_term_key buf t;
          Buffer.add_char buf ',')
        (Atom.terms a);
      Buffer.add_char buf ')')
    (Cq.atoms cq);
  Buffer.contents buf

let canonical_key cq = rendered_key (Cq.canonicalize cq)

module SS = Set.Make (String)

let pred_set cq =
  List.fold_left (fun acc a -> SS.add (Atom.pred_name a) acc) SS.empty (Cq.atoms cq)

let cst_set cq =
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc t -> match t with Term.Cst c -> SS.add c acc | Term.Var _ -> acc)
        acc (Atom.terms a))
    SS.empty (Cq.atoms cq)

(* Intern the string sets as bitmasks over the names actually occurring
   in this union: one reformulation touches few distinct predicates (and
   usually no constants), so the subset test of the O(n^2) pair loop
   collapses to word ANDs instead of balanced-tree traversals. Masks are
   arrays of 63-bit words to stay total in the (rare) >63-name case. *)
let masks_of (sets : SS.t array) =
  let ids = Hashtbl.create 32 in
  let bit_of name =
    match Hashtbl.find_opt ids name with
    | Some b -> b
    | None ->
      let b = Hashtbl.length ids in
      Hashtbl.add ids name b;
      b
  in
  Array.iter (fun s -> SS.iter (fun n -> ignore (bit_of n)) s) sets;
  let words = (Hashtbl.length ids + 62) / 63 in
  Array.map
    (fun s ->
      let m = Array.make (max words 1) 0 in
      SS.iter
        (fun n ->
          let b = bit_of n in
          m.(b / 63) <- m.(b / 63) lor (1 lsl (b mod 63)))
        s;
      m)
    sets

(* mask_sub a b = the set of [a] is included in the set of [b] *)
let mask_sub a b =
  let ok = ref true in
  for w = 0 to Array.length a - 1 do
    if a.(w) land lnot b.(w) <> 0 then ok := false
  done;
  !ok

(* Necessary conditions for a homomorphism d_j -> d_i (i.e. for
   [contained_in ds.(i) ds.(j)] to possibly hold): predicates and body
   constants of d_j within d_i's, head constants positionally equal.
   [head_free.(j)] short-circuits the common all-variable head. *)
let hom_possible ~pmask ~cmask ~heads ~head_free i j =
  mask_sub pmask.(j) pmask.(i)
  && mask_sub cmask.(j) cmask.(i)
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
  let deduped =
    List.filter
      (fun cq ->
        let key = canonical_key cq in
        if Hashtbl.mem seen key then begin
          Obs.Metrics.incr m_dedup_hits;
          false
        end
        else begin
          Hashtbl.add seen key ();
          true
        end)
      minimized
  in
  let ds = Array.of_list deduped in
  let n = Array.length ds in
  let pmask = masks_of (Array.map pred_set ds) in
  let cmask = masks_of (Array.map cst_set ds) in
  let heads = Array.map (fun cq -> cq.Cq.head) ds in
  let head_free = Array.map (List.for_all Term.is_var) heads in
  let classes = Unionfind.create ~capacity:(max n 1) () in
  for _ = 1 to n do
    ignore (Unionfind.make classes)
  done;
  let memo : (int * int, bool) Hashtbl.t = Hashtbl.create 256 in
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
        Obs.Metrics.incr m_memo_hits;
        b
      | None ->
        Obs.Metrics.incr m_checks;
        let b = Cq.contained_in ds.(i) ds.(j) in
        Hashtbl.replace memo (ri, rj) b;
        b
  in
  let dead = Array.make n false in
  (* Same loop and tie-break as the naive minimisation: d.(i) dies when
     contained in a surviving d.(j); among mutual equivalents the
     smallest index survives. *)
  for i = 0 to n - 1 do
    let j = ref 0 in
    while (not dead.(i)) && !j < n do
      if !j <> i && not dead.(!j) then
        if hom_possible ~pmask ~cmask ~heads ~head_free i !j then begin
          if contained i !j then
            if contained !j i then begin
              ignore (Unionfind.union classes i !j);
              if !j > i then () else dead.(i) <- true
            end
            else dead.(i) <- true
        end
        else Obs.Metrics.incr m_skipped;
      incr j
    done
  done;
  let survivors = ref [] in
  for i = n - 1 downto 0 do
    if not dead.(i) then survivors := ds.(i) :: !survivors
  done;
  Ucq.make !survivors
