module P = Rdbms.Plan
module E = Rdbms.Estimate
module L = Rdbms.Layout

(* Minimum estimated gain (in cost-model work units) before a join is
   annotated: reducers on tiny joins cost more to build than they
   save. *)
let threshold = 16.0

(* Estimated net gain of each reducer direction on a single-column
   equijoin. The kept fraction of the target side is approximated by
   the distinct-count ratio ndv(source)/ndv(target) under the uniform
   / containment assumptions of {!Rdbms.Estimate}. Building a reducer
   costs ~0.1 units per source row (one hash + one bit write);
   [Probe_to_build] additionally forces the probe side to materialise
   before the build side compiles. *)
let hash_gains (model : Cost_model.t) ~le ~re ~ndv_l ~ndv_r =
  let f_bp = Float.min 1. (ndv_r /. Float.max 1. ndv_l) in
  let f_pb = Float.min 1. (ndv_l /. Float.max 1. ndv_r) in
  let gain_bp = (model.c_join *. le.E.rows *. (1. -. f_bp)) -. (0.1 *. re.E.rows) in
  let gain_pb =
    (model.c_join *. re.E.rows *. (1. -. f_pb))
    -. ((model.c_mat +. 0.1) *. le.E.rows)
  in
  gain_bp, gain_pb

(* Row and distinct counts come from {!Feedback.plan_est}: with a
   correction store threaded in, subtree estimates are EXPLAIN
   ANALYZE's observed cardinalities, so the gain threshold compares
   reducer build cost against real row counts. *)
let annotate ?(model = Cost_model.default) ?feedback layout plan =
  let est p = Feedback.plan_est ?feedback layout p in
  let decide_join join left right c =
    let le = est left and re = est right in
    let ndv_l = E.ndv_of le c and ndv_r = E.ndv_of re c in
    let gain_bp, gain_pb = hash_gains model ~le ~re ~ndv_l ~ndv_r in
    if gain_pb > threshold && gain_pb >= gain_bp then
      P.Sip { join; dir = P.Probe_to_build }
    else if gain_bp > threshold then P.Sip { join; dir = P.Build_to_probe }
    else join
  in
  let rec go = function
    | P.Scan _ as p -> p
    | P.Hash_join { left; right; on } -> (
      let left = go left and right = go right in
      let join = P.Hash_join { left; right; on } in
      match on with
      | [ c ] -> decide_join join left right c
      | _ -> join)
    | P.Merge_join { left; right; on } -> (
      let left = go left and right = go right in
      let join = P.Merge_join { left; right; on } in
      match on with
      | [ c ] -> decide_join join left right c
      | _ -> join)
    | P.Index_join { left; atom; probe_col } -> (
      let left = go left in
      let join = P.Index_join { left; atom; probe_col } in
      match layout with
      | L.Rdf _ ->
        (* the executor cannot build an index-side reducer without
           extracting the wide table it is trying to avoid *)
        join
      | L.Simple _ ->
        let le = est left
        and ae = Feedback.atom_est ?feedback layout atom in
        let frac =
          Float.min 1.
            (E.ndv_of ae probe_col /. Float.max 1. (E.ndv_of le probe_col))
        in
        let gain =
          (model.c_join *. le.E.rows *. (1. -. frac)) -. (0.2 *. ae.E.rows)
        in
        if gain > threshold then P.Sip { join; dir = P.Build_to_probe } else join)
    | P.Project { input; out } -> P.Project { input = go input; out }
    | P.Distinct p -> P.Distinct (go p)
    | P.Materialize p -> P.Materialize (go p)
    | P.Union { cols; inputs } -> P.Union { cols; inputs = List.map go inputs }
    | P.Sip _ as p ->
      (* already annotated: the pass is idempotent *)
      p
  in
  go plan
