(* The unoptimised reformulation pipeline: PerfectRef's exhaustive
   fixpoint followed by pairwise containment minimisation, with no
   index, no canonical-form hash-consing and no pruning, keyed on the
   frozen canonical form of {!Canon_reference}. Tests compare
   {!Reform.Perfectref.reformulate}, {!Reform.Perfectref.fixpoint} and
   {!Reform.Minimize.minimize} against it byte for byte; nothing in
   [lib/] uses it. *)

open Query

module SS = Set.Make (String)

let pred_set cq =
  List.fold_left (fun acc a -> SS.add (Atom.pred_name a) acc) SS.empty (Cq.atoms cq)

(* The textbook fixpoint: apply every specialisation and every reduce
   step to each new CQ until no CQ is new modulo canonical renaming
   (duplicates are detected on the rendering of the canonical form).
   The input CQ is always the first disjunct. *)
let reformulate_raw tbox q =
  let seen = Hashtbl.create 256 in
  let canonical_key cq = Cq.to_string (Canon_reference.canonicalize cq) in
  Hashtbl.add seen (canonical_key q) ();
  let results = ref [ q ] in
  let frontier = Queue.create () in
  Queue.add q frontier;
  let push cq =
    let key = canonical_key cq in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let cq = Canon_reference.canonicalize cq in
      results := cq :: !results;
      Queue.add cq frontier
    end
  in
  while not (Queue.is_empty frontier) do
    let cur = Queue.pop frontier in
    let n = Cq.atom_count cur in
    (* atom specialisation steps *)
    for i = 0 to n - 1 do
      List.iter push (Reform.Perfectref.specializations tbox cur i)
    done;
    (* reduce steps: unify two atoms by their mgu *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match Cq.reduce cur i j with
        | Some cq -> push cq
        | None -> ()
      done
    done
  done;
  Ucq.make (List.rev !results)

(* Computes a core-like minimal equivalent CQ by greedily dropping
   redundant atoms. *)
let minimize_cq q =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let body_vars body =
    List.fold_left (fun acc a -> Term.Set.union acc (Atom.vars a)) Term.Set.empty body
  in
  let rec shrink q =
    let n = List.length q.Cq.body in
    if n <= 1 then q
    else
      let rec try_drop i =
        if i >= n then q
        else
          let body' = drop_nth q.Cq.body i in
          (* Dropping an atom relaxes the query: q ⊑ q' always holds.
             The drop preserves equivalence iff q' ⊑ q, i.e. there is a
             homomorphism from q into q'. *)
          let bv = body_vars body' in
          let head_safe =
            List.for_all (fun t -> Term.is_cst t || Term.Set.mem t bv) q.Cq.head
          in
          if head_safe then begin
            let q' = Cq.make ~name:q.Cq.name ~head:q.Cq.head ~body:body' () in
            if Cq.exists_hom ~from_q:q ~to_q:q' then shrink q' else try_drop (i + 1)
          end
          else try_drop (i + 1)
      in
      try_drop 0
  in
  shrink
    (Cq.make ~name:q.Cq.name ~head:q.Cq.head ~body:(Canon_reference.dedup_atoms q.Cq.body) ())

(* Syntactic duplicates modulo canonical renaming removed, first
   occurrence kept. *)
let dedup u =
  let seen = Hashtbl.create 64 in
  Ucq.make
    (List.filter
       (fun cq ->
         let key = Cq.to_string (Canon_reference.canonicalize cq) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)
       (Ucq.disjuncts u))

(* Containment-based minimisation: drops every disjunct contained in
   another one, keeping a single representative per equivalence class.
   The result is equivalent to the input. *)
let minimize_ucq u =
  let u = Ucq.make (List.map minimize_cq (Ucq.disjuncts u)) in
  let ds = Array.of_list (Ucq.disjuncts (dedup u)) in
  let n = Array.length ds in
  let preds = Array.map pred_set ds in
  let dead = Array.make n false in
  (* d.(i) is dropped when it is contained in a surviving d.(j); among
     mutually equivalent disjuncts the smallest index survives. A
     homomorphism d.(j) → d.(i) requires the predicates of d.(j) to be
     a subset of those of d.(i), which prunes most pairs cheaply. *)
  for i = 0 to n - 1 do
    let j = ref 0 in
    while (not dead.(i)) && !j < n do
      if !j <> i && (not dead.(!j)) && SS.subset preds.(!j) preds.(i) then
        if Cq.contained_in ds.(i) ds.(!j) then
          if Cq.contained_in ds.(!j) ds.(i) && !j > i then () else dead.(i) <- true;
      incr j
    done
  done;
  let survivors = ref [] in
  for i = n - 1 downto 0 do
    if not dead.(i) then survivors := ds.(i) :: !survivors
  done;
  Ucq.make !survivors

(* [reformulate_raw] followed by {!minimize_ucq}: the original
   PerfectRef pipeline. *)
let reformulate_naive tbox q = minimize_ucq (reformulate_raw tbox q)

(* The disjuncts of [u] with no atom over an empty predicate, in
   order. *)
let live_disjuncts data u =
  List.filter
    (fun cq ->
      not
        (List.exists
           (fun a -> Reform.Emptiness.is_empty data (Atom.pred_name a))
           (Cq.atoms cq)))
    (Ucq.disjuncts u)

(* The data-aware reformulation's specification (DESIGN §15.4): the
   unpruned UCQ [u] of [q] with every disjunct that has an atom over an
   empty predicate removed; the minimised input CQ alone when none is
   left. *)
let prune data q u =
  match live_disjuncts data u with
  | [] -> minimize_ucq (Ucq.of_cq q)
  | live -> Ucq.make live
