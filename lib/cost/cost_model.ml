open Query
open Rdbms

type t = {
  c_access : float;
  c_join : float;
  c_out : float;
  c_distinct : float;
  c_mat : float;
}

(* Per-row output/distinct/materialisation constants recalibrated for
   the columnar batch engine (BENCH_PR4.json): outputs are column
   writes, not boxed row allocations. *)
let default =
  { c_access = 1.0; c_join = 1.0; c_out = 0.3; c_distinct = 0.8; c_mat = 1.1 }

(* Calibration: DB2's runtime support for repeated scans ([21]) makes
   the marginal access cheaper; Postgres pays full price per access. *)
let calibrated = function
  | `Pglite -> default
  | `Db2lite -> { default with c_access = 0.6; c_mat = 0.9 }

(* Access cost of one atom: full scan, or index access when a constant
   restricts a column (the model "compares all applicable indexes"). *)
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

type node = {
  rows : float;
  raw_rows : float;
  cost : float;
}

(* One atom of an arm, estimated once: [raw] is the static estimate,
   [est] the corrected one, [access] the rows its access retrieves. *)
type atom_info = {
  atom : Atom.t;
  raw : Estimate.est;
  est : Estimate.est;
  access : float;
}

(* A feedback store only matters once some key is trained; dropping an
   untrained one up front lets every node skip its raw estimate, which
   then equals the corrected one. *)
let active feedback = if Feedback.trained feedback then feedback else None

let atom_info feedback layout a =
  let raw = Estimate.atom layout a in
  let est =
    match feedback with
    | None -> raw
    | Some _ -> (
      match Feedback.lookup feedback (Feedback.atom_key a) with
      | Some f -> Feedback.scale raw f
      | None -> raw)
  in
  { atom = a; raw; est; access = access_rows layout a }

(* One arm (a CQ): rows fold the atoms in body order; cost folds them
   in the planner's {!Estimate.order_by} order, so the fold's prefix
   shapes are exactly the join subtrees EXPLAIN ANALYZE observed. A
   corrected prefix replaces the textbook intermediate with (raw static
   estimate of the prefix) x (its learned factor); an uncorrected step
   composes the containment-assumption join of the corrected inputs. *)
let arm feedback model layout cq =
  let atoms = Cq.atoms cq in
  let infos = List.map (atom_info feedback layout) atoms in
  let raw_rows, rows =
    match infos with
    | [] -> 0., 0.
    | [ i ] -> i.raw.Estimate.rows, i.est.Estimate.rows
    | _ ->
      let raw_rows = Estimate.body_rows (fun i -> i.raw) infos in
      ( raw_rows,
        match feedback with
        | None -> raw_rows
        | Some _ -> (
          match Feedback.lookup_atoms feedback ~tag:"j" atoms with
          | Some f -> raw_rows *. f
          | None -> Estimate.body_rows (fun i -> i.est) infos) )
  in
  let cost =
    match Estimate.order_by ~atom:(fun i -> i.atom) ~est:(fun i -> i.raw) infos with
    | [] -> 0.
    | first :: rest ->
      let _, _, _, total =
        List.fold_left
          (fun (prefix, cur, cur_raw, cost) i ->
            let prefix = i.atom :: prefix in
            let joined, cur_raw =
              match feedback with
              | None -> Estimate.join cur i.est, cur_raw
              | Some _ -> (
                let raw_joined = Estimate.join cur_raw i.raw in
                match Feedback.lookup_atoms feedback ~tag:"j" prefix with
                | Some f -> Feedback.scale raw_joined f, raw_joined
                | None -> Estimate.join cur i.est, raw_joined)
            in
            let access = model.c_access *. i.access in
            let join_cost =
              model.c_join *. (cur.Estimate.rows +. i.est.Estimate.rows)
            in
            let out_cost = model.c_out *. joined.Estimate.rows in
            prefix, joined, cur_raw, cost +. access +. join_cost +. out_cost)
          ([ first.atom ], first.est, first.raw, model.c_access *. first.access)
          rest
      in
      total
  in
  { rows; raw_rows; cost }

(* A correction for the node's whole output shape wins, applied to the
   raw structural estimate it was learned against; otherwise the node's
   rows are composed from its corrected pieces. *)
let corrected feedback fol ~raw_rows ~rows =
  match Feedback.lookup_fol feedback fol with
  | Some f -> raw_rows *. f
  | None -> rows

let union_node feedback model fol arms =
  let raw_rows = Estimate.union_rows (fun a -> a.raw_rows) arms
  and rows = Estimate.union_rows (fun a -> a.rows) arms
  and cost = List.fold_left (fun acc a -> acc +. a.cost) 0. arms in
  let rows = corrected feedback fol ~raw_rows ~rows in
  { rows; raw_rows; cost = cost +. (model.c_distinct *. rows) }

let join_node feedback model fol parts nodes =
  let part_costs =
    List.fold_left (fun acc n -> acc +. n.cost +. (model.c_mat *. n.rows)) 0. nodes
  in
  (* the planner's fragment order over the parts' output variables:
     joining two fragments sharing output variables shrinks the
     intermediate (containment assumption); a cross product multiplies
     it *)
  let vars p =
    List.filter_map
      (function Term.Var v -> Some v | Term.Cst _ -> None)
      (Fol.out p)
  in
  let _, join_cost =
    Estimate.fold_fragments ~cols:fst ~rows:snd
      ~first:(fun (_, r) -> r, 0.)
      ~next:(fun (cur_rows, cost) (_, r) ~connected ->
        let out_rows = if connected then Float.min cur_rows r else cur_rows *. r in
        out_rows, cost +. (model.c_join *. (cur_rows +. r)) +. (model.c_out *. out_rows))
      (List.map2 (fun p n -> vars p, n.rows) parts nodes)
  in
  let raw_rows = Estimate.fragments_rows (fun n -> n.raw_rows) nodes
  and rows = Estimate.fragments_rows (fun n -> n.rows) nodes in
  let rows = corrected feedback fol ~raw_rows ~rows in
  { rows; raw_rows; cost = part_costs +. join_cost +. (model.c_distinct *. rows) }

let rec node_in feedback model layout fol =
  match fol with
  | Fol.Leaf { ucq; _ } ->
    (* a leaf is the union of its arms *)
    union_node feedback model fol (List.map (arm feedback model layout) (Ucq.disjuncts ucq))
  | Fol.Union { branches; _ } ->
    union_node feedback model fol (List.map (node_in feedback model layout) branches)
  | Fol.Join { parts; _ } ->
    join_node feedback model fol parts (List.map (node_in feedback model layout) parts)

let m_leaves_estimated =
  Obs.Metrics.counter
    ~help:"distinct cover fragments reformulated and estimated by a search"
    "cost.leaves.estimated"

let m_leaves_reused =
  Obs.Metrics.counter
    ~help:"cover fragments a search served from its memo instead"
    "cost.leaves.reused"

let note_leaf ~reused =
  Obs.Metrics.incr (if reused then m_leaves_reused else m_leaves_estimated)

let node ?feedback model layout fol = node_in (active feedback) model layout fol

let join ?feedback model fol nodes =
  match fol with
  | Fol.Join { parts; _ } -> join_node (active feedback) model fol parts nodes
  | Fol.Leaf _ | Fol.Union _ -> invalid_arg "Cost_model.join: not a join node"
