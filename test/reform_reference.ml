(* The unoptimised reformulation pipeline: PerfectRef's exhaustive
   fixpoint followed by pairwise containment minimisation, with no
   index, no canonical-form hash-consing and no pruning. Tests compare
   {!Reform.Perfectref.reformulate} and {!Reform.Minimize.minimize}
   against it byte for byte; nothing in [lib/] uses it. *)

open Query

module SS = Set.Make (String)

let pred_set cq =
  List.fold_left (fun acc a -> SS.add (Atom.pred_name a) acc) SS.empty (Cq.atoms cq)

(* Containment-based minimisation: drops every disjunct contained in
   another one, keeping a single representative per equivalence class.
   The result is equivalent to the input. *)
let minimize_ucq u =
  let u = Ucq.make (List.map Cq.minimize (Ucq.disjuncts u)) in
  let ds = Array.of_list (Ucq.disjuncts (Ucq.dedup u)) in
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
let reformulate_naive tbox q = minimize_ucq (Reform.Perfectref.reformulate_raw tbox q)
