type profile = {
  name : string;
  c_scan : float;
  c_build : float;
  c_probe : float;
  c_out : float;
  c_distinct : float;
  c_mat : float;
  union_sample : int option;
  default_arm_rows : float;
  repeated_scan_discount : float;
  exec_config : Exec.config;
  max_sql_bytes : int option;
}

(* Per-row constants recalibrated for the columnar batch engine
   (BENCH_PR4.json): emitting an output row is a column write instead
   of a boxed array allocation (c_out), Distinct dedupes incrementally over
   selection vectors (c_distinct), and Materialize stores columns with
   one blit per column (c_mat). Scan/build/probe stay put — the
   per-row hash work is representation-independent. *)
let pglite =
  {
    name = "pglite";
    c_scan = 1.0;
    c_build = 2.0;
    c_probe = 1.0;
    c_out = 0.3;
    c_distinct = 0.8;
    c_mat = 1.1;
    union_sample = Some 64;
    default_arm_rows = 1000.;
    repeated_scan_discount = 1.0;
    exec_config = Exec.postgres_like;
    max_sql_bytes = None;
  }

let db2lite =
  {
    name = "db2lite";
    c_scan = 1.0;
    c_build = 2.0;
    c_probe = 1.0;
    c_out = 0.3;
    c_distinct = 0.8;
    c_mat = 1.1;
    union_sample = None;
    default_arm_rows = 1000.;
    repeated_scan_discount = 0.15;
    exec_config = Exec.db2_like;
    max_sql_bytes = Some 2_000_000;
  }

type estimate = {
  total_cost : float;
  est_rows : float;
}

type state = {
  seen_scans : (string, int) Hashtbl.t;
  seen_builds : (string, int) Hashtbl.t;
}

let scan_discount profile state signature =
  let n = Option.value ~default:0 (Hashtbl.find_opt state.seen_scans signature) in
  Hashtbl.replace state.seen_scans signature (n + 1);
  if n = 0 then 1.0 else profile.repeated_scan_discount

let build_discount profile state signature =
  let n = Option.value ~default:0 (Hashtbl.find_opt state.seen_builds signature) in
  Hashtbl.replace state.seen_builds signature (n + 1);
  if n = 0 then 1.0
  else if profile.exec_config.Exec.build_cache then profile.repeated_scan_discount
  else 1.0

let pred_of_atom = function
  | Query.Atom.Ca (p, _) -> `Concept p
  | Query.Atom.Ra (p, _, _) -> `Role p

(* The cost pass returns both the cardinality estimate (with per-column
   distinct counts, for join selectivities) and the cumulated cost;
   every operator carries a fixed startup overhead of one work unit. *)
let rec cost_plan profile state layout plan =
  let est, c = cost_plan_raw profile state layout plan in
  est, c +. 1.0

and cost_plan_raw profile state layout plan =
  match plan with
  | Plan.Scan atom ->
    let est = Estimate.atom layout atom in
    let work = float_of_int (Layout.scan_work layout (pred_of_atom atom)) in
    (* buffer locality does not save the per-row column probing an RDF
       role scan performs on every repetition *)
    let discount =
      match layout with
      | Layout.Rdf _ when Query.Atom.is_role atom -> 1.0
      | Layout.Rdf _ | Layout.Simple _ ->
        scan_discount profile state (Exec.scan_signature atom)
    in
    est, profile.c_scan *. work *. discount
  | Plan.Hash_join { left; right; on } ->
    let le, lc = cost_plan profile state layout left in
    let re, rc = cost_plan profile state layout right in
    let out = Estimate.join le re in
    let build_cost =
      let base = profile.c_build *. re.Estimate.rows in
      match right with
      | Plan.Scan atom ->
        let signature =
          Exec.scan_signature atom ^ ":on:" ^ String.concat "," on
        in
        base *. build_discount profile state signature
      | _ -> base
    in
    ( out,
      lc +. rc +. build_cost
      +. (profile.c_probe *. le.Estimate.rows)
      +. (profile.c_out *. out.Estimate.rows) )
  | Plan.Merge_join { left; right; on } ->
    let le, lc = cost_plan profile state layout left in
    let re, rc = cost_plan profile state layout right in
    ignore on;
    let out = Estimate.join le re in
    (* both sides sorted (n log n, approximated linearly with a higher
       constant), then merged *)
    let sort_cost r = 1.5 *. profile.c_build *. r in
    ( out,
      lc +. rc
      +. sort_cost le.Estimate.rows
      +. sort_cost re.Estimate.rows
      +. (profile.c_probe *. (le.Estimate.rows +. re.Estimate.rows))
      +. (profile.c_out *. out.Estimate.rows) )
  | Plan.Index_join { left; atom; _ } ->
    let le, lc = cost_plan profile state layout left in
    let ae = Estimate.atom layout atom in
    let out = Estimate.join le ae in
    (* one index probe per left row, plus the produced rows *)
    ( out,
      lc
      +. (3.0 *. profile.c_probe *. le.Estimate.rows)
      +. (profile.c_out *. out.Estimate.rows) )
  | Plan.Project { input; _ } -> cost_plan profile state layout input
  | Plan.Distinct p ->
    let e, c = cost_plan profile state layout p
    in
    e, c +. (profile.c_distinct *. e.Estimate.rows)
  | Plan.Materialize p ->
    let e, c = cost_plan profile state layout p in
    e, c +. (profile.c_mat *. e.Estimate.rows)
  | Plan.Union { inputs; _ } -> (
    let n = List.length inputs in
    match profile.union_sample with
    | Some sample when n > sample ->
      (* the PgLite shortcut: only the first [sample] arms are
         estimated; the rest are assumed to have a fixed default
         cardinality and cost, regardless of the tables they touch *)
      let sampled = List.filteri (fun i _ -> i < sample) inputs in
      let rows, cost =
        List.fold_left
          (fun (r, c) arm ->
            let e, ac = cost_plan profile state layout arm in
            r +. e.Estimate.rows, c +. ac)
          (0., 0.) sampled
      in
      let extra = float_of_int (n - sample) in
      let rows = rows +. (extra *. profile.default_arm_rows) in
      let cost = cost +. (extra *. profile.default_arm_rows *. profile.c_scan) in
      { Estimate.rows; ndv = [] }, cost
    | _ ->
      let rows, cost =
        List.fold_left
          (fun (r, c) arm ->
            let e, ac = cost_plan profile state layout arm in
            r +. e.Estimate.rows, c +. ac)
          (0., 0.) inputs
      in
      { Estimate.rows; ndv = [] }, cost)
  | Plan.Sip { join; _ } ->
    (* the annotation is costed transparently: the reducer's benefit is
       the optimizer pass's ({!Cost.Sip_pass}) concern, not the base
       model's, and keeping cost parity with the bare join means
       annotating never reorders plan choices *)
    cost_plan_raw profile state layout join

let cost profile layout plan =
  let state = { seen_scans = Hashtbl.create 64; seen_builds = Hashtbl.create 64 } in
  let est, total = cost_plan profile state layout plan in
  { total_cost = total; est_rows = est.Estimate.rows }

(* Per-node estimate in isolation of sibling discount state — how
   engines display per-operator numbers, and the estimate EXPLAIN
   ANALYZE confronts with the actual cardinality. *)
let node_estimate profile layout plan =
  let state = { seen_scans = Hashtbl.create 16; seen_builds = Hashtbl.create 16 } in
  let est, c = cost_plan profile state layout plan in
  { total_cost = c; est_rows = est.Estimate.rows }

(* The q-error of a cardinality estimate: the multiplicative distance
   max(est/act, act/est), both sides clamped below at one row so empty
   results don't yield infinities. 1.0 is a perfect estimate. *)
let q_error ~est ~actual =
  let e = Float.max 1. est and a = Float.max 1. (float_of_int actual) in
  Float.max (e /. a) (a /. e)

(* {2 Rendering}

   EXPLAIN-style rendering. Each node is costed in isolation of its
   siblings' discount state, which matches how engines display
   per-operator estimates. Large unions are elided after a few arms in
   the text renderings (never in JSON). *)

let rec node_label p =
  match p with
  | Plan.Scan atom -> Fmt.str "Scan %a" Query.Atom.pp atom
  | Plan.Hash_join { on; _ } ->
    Printf.sprintf "Hash Join on [%s]" (String.concat "," on)
  | Plan.Merge_join { on; _ } ->
    Printf.sprintf "Merge Join on [%s]" (String.concat "," on)
  | Plan.Index_join { atom; probe_col; _ } ->
    Fmt.str "Index Join probe %s into %a" probe_col Query.Atom.pp atom
  | Plan.Project { out; _ } ->
    let cols =
      List.map (function `Col cname -> cname | `Const k -> "'" ^ k ^ "'") out
    in
    Printf.sprintf "Project [%s]" (String.concat "," cols)
  | Plan.Distinct _ -> "Distinct"
  | Plan.Materialize _ -> "Materialize"
  | Plan.Union { inputs; _ } ->
    Printf.sprintf "Union of %d arms" (List.length inputs)
  | Plan.Sip { join; dir } ->
    node_label join
    ^ (match dir with
      | Plan.Build_to_probe -> " [sip: build->probe]"
      | Plan.Probe_to_build -> " [sip: probe->build]")

let rec node_op = function
  | Plan.Scan _ -> "scan"
  | Plan.Hash_join _ -> "hash_join"
  | Plan.Merge_join _ -> "merge_join"
  | Plan.Index_join _ -> "index_join"
  | Plan.Project _ -> "project"
  | Plan.Distinct _ -> "distinct"
  | Plan.Union _ -> "union"
  | Plan.Materialize _ -> "materialize"
  | Plan.Sip { join; _ } -> node_op join

let shown_union_arms = 4

let render profile layout plan =
  let buf = Buffer.create 1024 in
  let line depth text =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf text;
    Buffer.add_char buf '\n'
  in
  let node_cost p =
    let e = node_estimate profile layout p in
    Printf.sprintf "(cost=%.0f rows=%.0f)" e.total_cost e.est_rows
  in
  let with_cost p =
    match p with
    | Plan.Project _ -> node_label p
    | _ -> node_label p ^ "  " ^ node_cost p
  in
  let rec go depth p =
    line depth (with_cost p);
    match p with
    | Plan.Scan _ -> ()
    | Plan.Hash_join { left; right; _ } | Plan.Merge_join { left; right; _ } ->
      go (depth + 1) left;
      go (depth + 1) right
    | Plan.Index_join { left; _ } -> go (depth + 1) left
    | Plan.Project { input; _ } -> go (depth + 1) input
    | Plan.Distinct inner | Plan.Materialize inner -> go (depth + 1) inner
    | Plan.Union { inputs; _ } ->
      List.iteri (fun i arm -> if i < shown_union_arms then go (depth + 1) arm) inputs;
      if List.length inputs > shown_union_arms then
        line (depth + 1)
          (Printf.sprintf "... (%d more arms)" (List.length inputs - shown_union_arms))
    | Plan.Sip { join; _ } ->
      (* the annotated join already rendered (label + [sip] marker);
         recurse into its operands only *)
      (match join with
      | Plan.Hash_join { left; right; _ } | Plan.Merge_join { left; right; _ } ->
        go (depth + 1) left;
        go (depth + 1) right
      | Plan.Index_join { left; _ } -> go (depth + 1) left
      | other -> go (depth + 1) other)
  in
  go 0 plan;
  Buffer.contents buf

let json_escape = Printf.sprintf "%S"

let rec render_json_node profile layout p =
  let e = node_estimate profile layout p in
  let rec children_of = function
    | Plan.Scan _ -> []
    | Plan.Hash_join { left; right; _ } | Plan.Merge_join { left; right; _ } ->
      [ left; right ]
    | Plan.Index_join { left; _ } -> [ left ]
    | Plan.Project { input; _ } -> [ input ]
    | Plan.Distinct inner | Plan.Materialize inner -> [ inner ]
    | Plan.Union { inputs; _ } -> inputs
    | Plan.Sip { join; _ } -> children_of join
  in
  let children = children_of p in
  Printf.sprintf
    "{\"op\":%s,\"label\":%s,\"est_cost\":%.1f,\"est_rows\":%.1f,\"children\":[%s]}"
    (json_escape (node_op p))
    (json_escape (node_label p))
    e.total_cost e.est_rows
    (String.concat "," (List.map (render_json_node profile layout) children))

let render_json profile layout plan = render_json_node profile layout plan

(* {2 EXPLAIN ANALYZE rendering: estimates vs actuals} *)

let cache_note stats =
  let rec subject = function
    | Plan.Scan _ -> "scan"
    | Plan.Hash_join _ -> "build"
    | Plan.Materialize _ -> "view"
    | Plan.Sip { join; _ } -> subject join
    | _ -> "cache"
  in
  let subject = subject stats.Exec.plan in
  match stats.Exec.cache with
  | Exec.Uncached -> ""
  | Exec.Hit -> Printf.sprintf ", %s hit" subject
  | Exec.Miss -> Printf.sprintf ", %s miss" subject

(* Sideways-passing actuals, shown only when the node did something —
   plans without [Sip] annotations render byte-identically to before
   the SIP layer existed. *)
let sip_note (s : Exec.node_stats) =
  let parts =
    (match s.Exec.sip_reducer with
    | Some k -> [ "reducer=" ^ k ]
    | None -> [])
    @ (if s.Exec.sip_pruned > 0 then
         [ Printf.sprintf "pruned=%d" s.Exec.sip_pruned ]
       else [])
    @
    if s.Exec.sip_elided > 0 then
      [ Printf.sprintf "elided=%d" s.Exec.sip_elided ]
    else []
  in
  match parts with
  | [] -> ""
  | _ -> ", sip: " ^ String.concat " " parts

let cache_json stats =
  match stats.Exec.cache with
  | Exec.Uncached -> "\"none\""
  | Exec.Hit -> "\"hit\""
  | Exec.Miss -> "\"miss\""

let render_analyze profile layout stats =
  let buf = Buffer.create 2048 in
  let line depth text =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf text;
    Buffer.add_char buf '\n'
  in
  let rec go depth (s : Exec.node_stats) =
    let e = node_estimate profile layout s.Exec.plan in
    line depth
      (Printf.sprintf "%s  est(cost=%.0f rows=%.0f)  act(rows=%d time=%.3fms%s%s)  q-err=%.2f"
         (node_label s.Exec.plan) e.total_cost e.est_rows s.Exec.actual_rows
         (Obs.Mclock.ns_to_ms s.Exec.elapsed_ns)
         (cache_note s) (sip_note s)
         (q_error ~est:e.est_rows ~actual:s.Exec.actual_rows));
    match s.Exec.plan with
    | Plan.Union _ when List.length s.Exec.children > shown_union_arms ->
      List.iteri
        (fun i arm -> if i < shown_union_arms then go (depth + 1) arm)
        s.Exec.children;
      let rest = List.filteri (fun i _ -> i >= shown_union_arms) s.Exec.children in
      let rows = List.fold_left (fun acc a -> acc + a.Exec.actual_rows) 0 rest in
      let ns =
        List.fold_left (fun acc a -> Int64.add acc a.Exec.elapsed_ns) 0L rest
      in
      line (depth + 1)
        (Printf.sprintf "... (%d more arms: rows=%d time=%.3fms)" (List.length rest)
           rows (Obs.Mclock.ns_to_ms ns))
    | _ -> List.iter (go (depth + 1)) s.Exec.children
  in
  go 0 stats;
  Buffer.contents buf

let sip_json (s : Exec.node_stats) =
  (match s.Exec.sip_reducer with
  | Some k -> Printf.sprintf ",\"sip_reducer\":%s" (json_escape k)
  | None -> "")
  ^ (if s.Exec.sip_pruned > 0 then
       Printf.sprintf ",\"sip_pruned\":%d" s.Exec.sip_pruned
     else "")
  ^
  if s.Exec.sip_elided > 0 then
    Printf.sprintf ",\"sip_elided\":%d" s.Exec.sip_elided
  else ""

let rec render_analyze_json profile layout (s : Exec.node_stats) =
  let e = node_estimate profile layout s.Exec.plan in
  Printf.sprintf
    "{\"op\":%s,\"label\":%s,\"est_cost\":%.1f,\"est_rows\":%.1f,\"actual_rows\":%d,\
     \"time_ms\":%.6f,\"q_error\":%.3f,\"cache\":%s%s,\"children\":[%s]}"
    (json_escape (node_op s.Exec.plan))
    (json_escape (node_label s.Exec.plan))
    e.total_cost e.est_rows s.Exec.actual_rows
    (Obs.Mclock.ns_to_ms s.Exec.elapsed_ns)
    (q_error ~est:e.est_rows ~actual:s.Exec.actual_rows)
    (cache_json s) (sip_json s)
    (String.concat "," (List.map (render_analyze_json profile layout) s.Exec.children))
