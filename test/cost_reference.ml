(* A frozen copy of the "ext" cost model as it stood before the
   one-pass estimator: [fol_rows]/[fol_cost] recurse over the FOL tree
   and re-estimate every part and atom wherever a formula needs it.
   Tests compare the one-pass {!Cost.Cost_model.node} and the cover
   searches' memoised scores against it bit for bit; nothing in [lib/]
   uses it. *)

open Query
open Rdbms
module Feedback = Cost.Feedback

let access_rows layout atom =
  let card p = float_of_int (Layout.role_card layout p) in
  match atom with
  | Atom.Ca (_, Term.Cst _) -> 1.
  | Atom.Ca (p, _) -> float_of_int (Layout.concept_card layout p)
  | Atom.Ra (_, Term.Cst _, Term.Cst _) -> 1.
  | Atom.Ra (p, Term.Cst _, Term.Var _) ->
    let s, _ = Layout.role_ndv layout p in
    card p /. Float.max 1. (float_of_int s)
  | Atom.Ra (p, Term.Var _, Term.Cst _) ->
    let _, o = Layout.role_ndv layout p in
    card p /. Float.max 1. (float_of_int o)
  | Atom.Ra (p, _, _) -> card p

let shares_col e a =
  List.exists (fun v -> List.mem_assoc (Term.to_string v) e.Estimate.ndv)
    (Term.Set.elements (Atom.vars a))

let order_atoms layout atoms =
  match atoms with
  | [] | [ _ ] -> atoms
  | _ ->
    let with_est = List.map (fun a -> a, Estimate.atom layout a) atoms in
    let smallest =
      List.fold_left
        (fun best (a, e) ->
          match best with
          | None -> Some (a, e)
          | Some (_, e') ->
            if e.Estimate.rows < e'.Estimate.rows then Some (a, e) else best)
        None with_est
    in
    let first, e0 = Option.get smallest in
    let rec go acc cur remaining =
      match remaining with
      | [] -> List.rev acc
      | _ ->
        let candidates =
          let conn = List.filter (fun (a, _) -> shares_col cur a) remaining in
          if conn = [] then remaining else conn
        in
        let best =
          List.fold_left
            (fun best (a, e) ->
              let j = Estimate.join cur e in
              match best with
              | None -> Some (a, e, j)
              | Some (_, _, j') ->
                if j.Estimate.rows < j'.Estimate.rows then Some (a, e, j) else best)
            None candidates
        in
        let a, _, j = Option.get best in
        let remaining = List.filter (fun (a', _) -> a' != a) remaining in
        go (a :: acc) j remaining
    in
    let remaining = List.filter (fun (a, _) -> a != first) with_est in
    go [ first ] e0 remaining

let cq_cost ?feedback model layout cq =
  match order_atoms layout (Cq.atoms cq) with
  | [] -> 0.
  | first :: rest ->
    let e0 = Feedback.atom_est ?feedback layout first in
    let raw0 = Estimate.atom layout first in
    let cost0 = model.Cost.Cost_model.c_access *. access_rows layout first in
    let _, _, _, total =
      List.fold_left
        (fun (prefix, cur, cur_raw, cost) atom ->
          let e = Feedback.atom_est ?feedback layout atom in
          let raw = Estimate.atom layout atom in
          let prefix = atom :: prefix in
          let raw_joined = Estimate.join cur_raw raw in
          let joined =
            match Feedback.lookup_atoms feedback ~tag:"j" prefix with
            | Some f -> Feedback.scale raw_joined f
            | None -> Estimate.join cur e
          in
          let access = model.Cost.Cost_model.c_access *. access_rows layout atom in
          let join_cost = model.Cost.Cost_model.c_join *. (cur.Estimate.rows +. e.Estimate.rows) in
          let out_cost = model.Cost.Cost_model.c_out *. joined.Estimate.rows in
          prefix, joined, raw_joined, cost +. access +. join_cost +. out_cost)
        ([ first ], e0, raw0, cost0)
        rest
    in
    total

let cq_rows ?feedback layout atoms =
  match atoms with
  | [] -> 0.
  | [ a ] -> (Feedback.atom_est ?feedback layout a).Estimate.rows
  | _ -> (
    match Feedback.lookup_atoms feedback ~tag:"j" atoms with
    | Some f -> Estimate.cq_rows layout atoms *. f
    | None -> (
      match List.map (Feedback.atom_est ?feedback layout) atoms with
      | [] -> 0.
      | first :: rest -> (List.fold_left Estimate.join first rest).Estimate.rows))

let rec fol_rows ?feedback layout fol =
  (* A correction for the node's whole output shape wins (applied to
     the raw structural estimate it was learned against); otherwise
     the recursion corrects the pieces independently. *)
  match Feedback.lookup_fol feedback fol with
  | Some f -> fol_rows layout fol *. f
  | None -> (
    match fol with
    | Fol.Leaf { ucq; _ } ->
      List.fold_left
        (fun acc d -> acc +. cq_rows ?feedback layout (Cq.atoms d))
        0. (Ucq.disjuncts ucq)
    | Fol.Union { branches; _ } ->
      List.fold_left (fun acc b -> acc +. fol_rows ?feedback layout b) 0. branches
    | Fol.Join { parts; _ } ->
      (* independence across fragments, bounded by the smallest part *)
      List.fold_left
        (fun acc p -> Float.min acc (fol_rows ?feedback layout p))
        infinity parts)

let rec fol_cost ?feedback model layout fol =
  match fol with
  | Fol.Leaf { ucq; _ } ->
    let rows = fol_rows ?feedback layout fol in
    let arms =
      List.fold_left
        (fun acc d -> acc +. cq_cost ?feedback model layout d)
        0. (Ucq.disjuncts ucq)
    in
    arms +. (model.Cost.Cost_model.c_distinct *. rows)
  | Fol.Union { branches; _ } ->
    let rows = fol_rows ?feedback layout fol in
    List.fold_left
      (fun acc b -> acc +. fol_cost ?feedback model layout b)
      0. branches
    +. (model.Cost.Cost_model.c_distinct *. rows)
  | Fol.Join { parts; _ } ->
    let part_costs =
      List.fold_left
        (fun acc p ->
          acc
          +. fol_cost ?feedback model layout p
          +. (model.Cost.Cost_model.c_mat *. fol_rows ?feedback layout p))
        0. parts
    in
    (* greedy connected ordering mirroring the planner: joining two
       fragments sharing output variables shrinks the intermediate
       (containment assumption); a cross product multiplies it *)
    let vars p =
      List.filter_map
        (fun t -> match t with Query.Term.Var v -> Some v | Query.Term.Cst _ -> None)
        (Fol.out p)
    in
    let sized = List.map (fun p -> vars p, fol_rows ?feedback layout p) parts in
    let join_cost =
      match List.stable_sort (fun (_, r1) (_, r2) -> Float.compare r1 r2) sized with
      | [] -> 0.
      | (v0, r0) :: rest ->
        let rec grow cur_vars cur_rows cost remaining =
          match remaining with
          | [] -> cost
          | _ ->
            let connected, isolated =
              List.partition
                (fun (vs, _) -> List.exists (fun c -> List.mem c cur_vars) vs)
                remaining
            in
            let pool = if connected = [] then isolated else connected in
            let (vs, r), rest' =
              match pool with
              | first :: _ ->
                first, List.filter (fun x -> x != first) remaining
              | [] -> assert false
            in
            let out_rows =
              if connected = [] then cur_rows *. r
              else Float.min cur_rows r
            in
            grow
              (cur_vars @ vs)
              out_rows
              (cost +. (model.Cost.Cost_model.c_join *. (cur_rows +. r)) +. (model.Cost.Cost_model.c_out *. out_rows))
              rest'
        in
        grow v0 r0 0. rest
    in
    let out = fol_rows ?feedback layout fol in
    part_costs +. join_cost +. (model.Cost.Cost_model.c_distinct *. out)
