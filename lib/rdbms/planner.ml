open Query

let project_head head plan =
  let out =
    List.map
      (function
        | Term.Var v -> `Col v
        | Term.Cst c -> `Const c)
      head
  in
  Plan.Project { input = plan; out }

(* Whether a role atom can be index-probed from the accumulated prefix:
   the join is on exactly one of its variable positions. *)
let index_probe_col acc_cols atom =
  match atom with
  | Atom.Ra (_, Term.Var v1, Term.Var v2) when v1 <> v2 -> (
    match List.mem v1 acc_cols, List.mem v2 acc_cols with
    | true, false -> Some v1
    | false, true -> Some v2
    | _ -> None)
  | Atom.Ra (_, Term.Var v, Term.Cst _) when List.mem v acc_cols -> Some v
  | Atom.Ra (_, Term.Cst _, Term.Var v) when List.mem v acc_cols -> Some v
  | Atom.Ra _ | Atom.Ca _ -> None

let body_plan layout atoms =
  let estimated = List.map (fun a -> a, Estimate.atom layout a) atoms in
  match Estimate.order_by ~atom:fst ~est:snd estimated with
  | [] -> invalid_arg "Planner: empty body"
  | (first, first_est) :: rest ->
    (* fold joins, choosing the operator per step: an index nested loop
       when the prefix is much smaller than the role table it joins
       into (the layouts index both role attributes), a hash join
       otherwise *)
    List.fold_left
      (fun (acc, acc_est) (atom, atom_est) ->
        let acc_cols = Plan.out_cols acc in
        let joined = Estimate.join acc_est atom_est in
        let plan =
          match index_probe_col acc_cols atom with
          | Some probe_col
            when acc_est.Estimate.rows *. 3. < atom_est.Estimate.rows ->
            Plan.Index_join { left = acc; atom; probe_col }
          | _ ->
            let on =
              List.filter (fun c -> List.mem c acc_cols) (Plan.scan_cols atom)
            in
            Plan.Hash_join { left = acc; right = Plan.Scan atom; on }
        in
        plan, joined)
      (Plan.Scan first, first_est)
      rest
    |> fst

(* A CQ plan *without* the outer Distinct, for use under a union that
   deduplicates globally. *)
let cq_arm layout (cq : Cq.t) = project_head cq.Cq.head (body_plan layout (Cq.atoms cq))

let of_cq layout cq = Plan.Distinct (cq_arm layout cq)

let union_cols out = List.map Term.to_string out

let rec of_fol layout fol =
  match fol with
  | Fol.Leaf { out; ucq } -> (
    let cols = union_cols out in
    match Ucq.disjuncts ucq with
    | [ single ] -> Plan.Distinct (cq_arm layout single)
    | disjuncts ->
      Plan.Distinct
        (Plan.Union { cols; inputs = List.map (cq_arm layout) disjuncts }))
  | Fol.Union { out; branches } ->
    let cols = union_cols out in
    Plan.Distinct (Plan.Union { cols; inputs = List.map (of_fol layout) branches })
  | Fol.Join { out; parts } ->
    (* materialised fragments in the shared greedy order; the prefix
       keeps the rows of its smallest fragment *)
    let sized =
      List.map
        (fun part -> Plan.Materialize (of_fol layout part), Estimate.reformulation_rows layout part)
        parts
    in
    let joined, _ =
      Estimate.fold_fragments
        ~cols:(fun (plan, _) -> Plan.out_cols plan)
        ~rows:snd ~first:Fun.id
        ~next:(fun (acc, acc_rows) (next_plan, next_rows) ~connected:_ ->
          let acc_cols = Plan.out_cols acc in
          let on = List.filter (fun c -> List.mem c acc_cols) (Plan.out_cols next_plan) in
          (* two big materialised fragments on a single key: a
             sort-merge join avoids one oversized hash table *)
          let join =
            if List.length on = 1 && acc_rows > 10_000. && next_rows > 10_000. then
              Plan.Merge_join { left = acc; right = next_plan; on }
            else Plan.Hash_join { left = acc; right = next_plan; on }
          in
          join, Float.min acc_rows next_rows)
        sized
    in
    Plan.Distinct (project_head out joined)
