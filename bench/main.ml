(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6), on the OCaml substrate, plus three
   extensions of it (E10-E12) and a cost-model calibration (E13). The
   experiments and their --exp ids are the [experiments] list at the
   end of this file; --help prints them.

   Usage: main.exe [--exp ID]... [--small N] [--large N] [--seed S]
                   [--json FILE] [--metrics FILE]
   With no --exp, every experiment runs. --json FILE dumps
   per-experiment and per-cell timings. --metrics FILE dumps the
   process-wide Obs metrics registry as JSON after the run. The run
   exits 1 when, in E3-E6, a strategy returns other answers than the
   UCQ column on the same engine. *)

let small_facts = ref 30_000

let large_facts = ref 120_000

let seed = ref 42

let selected : string list ref = ref []

let json_file : string option ref = ref None

let metrics_file : string option ref = ref None

let write_metrics () =
  match !metrics_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (Obs.Metrics.to_json ());
    output_char oc '\n';
    close_out oc;
    Fmt.pr "[metrics] wrote the metrics registry to %s@." file

let tbox = Lubm.Ontology.tbox

(* {1 JSON emission}

   Records accumulate as serialised objects and are written in one
   piece at exit, so a crashed experiment loses the file rather than
   truncating it. *)

let json_records : string list ref = ref []

let record_json fields =
  if !json_file <> None then
    json_records :=
      ("{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
      ^ "}")
      :: !json_records

let json_cell ~exp ~query ~strategy ~search_ms ~cqs outcome =
  let tail =
    match outcome with
    | Ok (ms, _) -> [ "eval_ms", Printf.sprintf "%.3f" ms ]
    | Error e -> [ "error", Printf.sprintf "%S" e ]
  in
  record_json
    ([ "exp", Printf.sprintf "%S" exp;
       "query", Printf.sprintf "%S" query;
       "strategy", Printf.sprintf "%S" strategy;
       "search_ms", Printf.sprintf "%.3f" search_ms;
       "cqs", string_of_int cqs ]
    @ tail)

let write_json () =
  match !json_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    Printf.fprintf oc
      "{\n\
      \  \"bench\": \"obda-cover-reformulation\",\n\
      \  \"seed\": %d,\n\
      \  \"small_facts\": %d,\n\
      \  \"large_facts\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"ocaml_version\": %S,\n\
      \  \"word_size\": %d,\n\
      \  \"records\": [\n\
      \    %s\n\
      \  ]\n\
       }\n"
      !seed !small_facts !large_facts
      (Domain.recommended_domain_count ())
      Sys.ocaml_version Sys.word_size
      (String.concat ",\n    " (List.rev !json_records));
    close_out oc;
    Fmt.pr "[json] wrote %d records to %s@." (List.length !json_records) file

(* {1 Dataset and engine caches} *)

let abox_cache : (int, Dllite.Abox.t) Hashtbl.t = Hashtbl.create 4

let abox_for facts =
  match Hashtbl.find_opt abox_cache facts with
  | Some a -> a
  | None ->
    Fmt.pr "[data] generating %s (seed %d)...@." (Lubm.Generator.scale_name facts) !seed;
    let a = Lubm.Generator.generate ~seed:!seed ~target_facts:facts () in
    Hashtbl.add abox_cache facts a;
    a

let engine_cache : (string, Obda.engine) Hashtbl.t = Hashtbl.create 8

let engine_for kind layout facts =
  let key =
    Printf.sprintf "%s/%s/%d"
      (match kind with `Pglite -> "pg" | `Db2lite -> "db2")
      (match layout with `Simple -> "simple" | `Rdf -> "rdf")
      facts
  in
  match Hashtbl.find_opt engine_cache key with
  | Some e -> e
  | None ->
    let e = Obda.make_engine kind layout (abox_for facts) in
    Hashtbl.add engine_cache key e;
    e

(* {1 Timing helpers} *)

(* Size in characters of the SQL statement — the quantity DB2's
   statement limit applies to (§6.3 reports failures above ~2.2M
   characters). *)
let sql_length layout fol = String.length (Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol layout fol))

(* Evaluate a reformulation through an engine: median of three runs for
   fast queries, a single run once evaluation exceeds a second. *)
let timed_eval engine fol =
  let layout = Obda.layout engine in
  let profile = Obda.profile engine in
  let sql_bytes = lazy (sql_length layout fol) in
  match profile.Rdbms.Explain.max_sql_bytes with
  | Some limit when Lazy.force sql_bytes > limit ->
    Error (Printf.sprintf "statement too long (%d chars)" (Lazy.force sql_bytes))
  | _ ->
    let plan = Rdbms.Planner.of_fol layout fol in
    let once () =
      let t0 = Unix.gettimeofday () in
      let answers =
        Rdbms.Exec.answers ~config:profile.Rdbms.Explain.exec_config layout plan
      in
      Unix.gettimeofday () -. t0, answers
    in
    let t1, answers = once () in
    let time =
      if t1 > 1.0 then t1
      else begin
        let t2, _ = once () in
        let t3, _ = once () in
        List.nth (List.sort Float.compare [ t1; t2; t3 ]) 1
      end
    in
    Ok (time *. 1000., answers)

let strategy_columns =
  [ "UCQ", Obda.Ucq; "Croot", Obda.Croot; "GDL/RDBMS", Obda.Gdl Obda.Rdbms_cost;
    "GDL/ext", Obda.Gdl Obda.Ext_cost ]

(* One figure cell: reformulate, evaluate, record. *)
let run_cell ~exp ~query engine (strategy_name, strategy) q =
  let t0 = Unix.gettimeofday () in
  let fol = Obda.reformulate engine tbox strategy q in
  let search_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let cqs = Query.Fol.cq_count fol in
  let shown = timed_eval engine fol in
  json_cell ~exp ~query ~strategy:strategy_name ~search_ms ~cqs shown;
  search_ms, cqs, shown

(* {1 The answer gate of E3-E6}

   Every strategy of a figure must return the UCQ column's answers for
   the same query on the same engine: the cost-based strategies prune
   arms over empty predicates, and this makes the figures a soundness
   check of that pruning. Cells the engine rejected as too long are
   skipped. A mismatch is recorded here and fails the run at exit. *)

let answer_mismatches : string list ref = ref []

let check_answers ~exp ~query ~column ~reference shown =
  match reference, shown with
  | Ok (_, expected), Ok (_, got) when got <> expected ->
    answer_mismatches :=
      Printf.sprintf "%s %s: %s returned %d answers, UCQ %d" exp query column
        (List.length got) (List.length expected)
      :: !answer_mismatches
  | _ -> ()

(* {1 E1 — Table 6: search-space sizes} *)

let exp_table6 () =
  Fmt.pr "@.== E1 (Table 6): search-space sizes and GDL exploration, A3-A6 ==@.";
  Fmt.pr "   (paper: |Lq| = 2/7/71/93; |Gq| = 4/67/5674/>20000;@.";
  Fmt.pr "    GDL explored Lq = 2/5/11/18, Gq = 4/12/27/59)@.@.";
  let engine = engine_for `Pglite `Simple !small_facts in
  let est = Obda.estimator engine Obda.Ext_cost in
  Fmt.pr "%-5s %10s %10s %14s %14s@." "query" "|Lq|" "|Gq|" "GDL-explored" "(simple)";
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      let lq = Covers.Safety.safe_cover_count ~max_count:20_000 tbox q in
      let gq, capped = Covers.Generalized.gq_count ~max_count:20_000 tbox q in
      let r = Optimizer.Gdl.search tbox est q in
      Fmt.pr "%-5s %10d %9d%s %14d %14d@." e.Lubm.Workload.name lq gq
        (if capped then "+" else " ")
        r.Optimizer.Gdl.explored_total r.Optimizer.Gdl.explored_simple)
    Lubm.Workload.star_queries

(* {1 E2 — EDL vs GDL agreement} *)

let exp_edl_vs_gdl () =
  Fmt.pr "@.== E2 (§6.2): EDL (cap 20000) vs GDL, A3-A6 ==@.";
  Fmt.pr "   (paper: the eval times of the best EDL and GDL covers coincided)@.@.";
  let engine = engine_for `Pglite `Simple !small_facts in
  let est = Obda.estimator engine Obda.Ext_cost in
  Fmt.pr "%-5s %12s %12s %12s %12s %9s@." "query" "EDL cost" "GDL cost" "EDL eval"
    "GDL eval" "agree?";
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      let edl = Optimizer.Edl.search ~max_covers:20_000 tbox est q in
      let gdl = Optimizer.Gdl.search tbox est q in
      let eval fol =
        match timed_eval engine fol with Ok (ms, _) -> ms | Error _ -> nan
      in
      let edl_ms = eval edl.Optimizer.Edl.reformulation in
      let gdl_ms = eval gdl.Optimizer.Gdl.reformulation in
      let agree =
        Covers.Generalized.equal edl.Optimizer.Edl.cover gdl.Optimizer.Gdl.cover
        || Float.abs (edl_ms -. gdl_ms) <= 0.25 *. Float.max 0.5 (Float.max edl_ms gdl_ms)
      in
      Fmt.pr "%-5s %12.0f %12.0f %10.1fms %10.1fms %9b@." e.Lubm.Workload.name
        edl.Optimizer.Edl.est_cost gdl.Optimizer.Gdl.est_cost edl_ms gdl_ms agree)
    Lubm.Workload.star_queries

(* {1 E3/E4 — Figure 2: evaluation time on the Postgres-like engine} *)

let figure2 ~exp facts =
  let engine = engine_for `Pglite `Simple facts in
  Fmt.pr "@.== Figure 2: evaluation time (ms) on pglite/simple, %s ==@."
    (Lubm.Generator.scale_name facts);
  Fmt.pr "   (paper: UCQ poor, Croot sometimes worse, GDL best;@.";
  Fmt.pr "    GDL/RDBMS misled on the largest reformulations, GDL/ext not)@.@.";
  Fmt.pr "%-4s" "qry";
  List.iter (fun (n, _) -> Fmt.pr " %14s" n) strategy_columns;
  Fmt.pr "@.";
  List.iter
    (fun e ->
      let query = e.Lubm.Workload.name in
      Fmt.pr "%-4s" query;
      let ucq = ref (Error "") in
      List.iter
        (fun ((column, strategy) as col) ->
          let _, cqs, shown =
            run_cell ~exp ~query engine col e.Lubm.Workload.query
          in
          if strategy = Obda.Ucq then ucq := shown
          else check_answers ~exp ~query ~column ~reference:!ucq shown;
          match shown with
          | Ok (ms, _) -> Fmt.pr " %8.1f (%3d)" ms cqs
          | Error _ -> Fmt.pr " %14s" "FAILED")
        strategy_columns;
      Fmt.pr "@.")
    Lubm.Workload.queries

(* {1 E5/E6 — Figure 3: DB2-like engine, simple and RDF layouts} *)

let figure3 ~exp facts ~with_rdf_gdl =
  Fmt.pr "@.== Figure 3: evaluation time (ms) on db2lite, %s ==@."
    (Lubm.Generator.scale_name facts);
  Fmt.pr "   (paper: RDF-layout reformulations perform very poorly or fail@.";
  Fmt.pr "    with 'statement too long'; simple layout + GDL is best)@.@.";
  let simple = engine_for `Db2lite `Simple facts in
  let rdf = engine_for `Db2lite `Rdf facts in
  let columns =
    [ "UCQ/simple", simple, Obda.Ucq; "UCQ/rdf", rdf, Obda.Ucq;
      "Croot/simple", simple, Obda.Croot; "Croot/rdf", rdf, Obda.Croot;
      "GDL-R/simple", simple, Obda.Gdl Obda.Rdbms_cost;
      "GDL-e/simple", simple, Obda.Gdl Obda.Ext_cost ]
    @ (if with_rdf_gdl then [ "GDL-R/rdf", rdf, Obda.Gdl Obda.Rdbms_cost ] else [])
  in
  Fmt.pr "%-4s" "qry";
  List.iter (fun (n, _, _) -> Fmt.pr " %13s" n) columns;
  Fmt.pr "@.";
  List.iter
    (fun e ->
      let query = e.Lubm.Workload.name in
      Fmt.pr "%-4s" query;
      (* the UCQ cell of each engine, keyed by the engine itself *)
      let ucq = ref [] in
      List.iter
        (fun (name, engine, strategy) ->
          let _, _, shown =
            run_cell ~exp ~query engine (name, strategy) e.Lubm.Workload.query
          in
          if strategy = Obda.Ucq then ucq := (engine, shown) :: !ucq
          else
            check_answers ~exp ~query ~column:name
              ~reference:(List.assq engine !ucq) shown;
          match shown with
          | Ok (ms, _) -> Fmt.pr " %13.1f" ms
          | Error _ -> Fmt.pr " %13s" "TOO-LONG")
        columns;
      Fmt.pr "@.")
    Lubm.Workload.queries

(* {1 E7 — §6.4: GDL running time and time-limited GDL} *)

let exp_gdl_time () =
  Fmt.pr "@.== E7 (§6.4): GDL running time and the 20 ms time-limited GDL ==@.";
  Fmt.pr "   (paper: GDL spends 85-99%% of its time in cost estimation; 20 ms@.";
  Fmt.pr "    GDL finds covers whose eval time is close to full GDL's)@.@.";
  let engine = engine_for `Pglite `Simple !small_facts in
  let est = Obda.estimator engine Obda.Ext_cost in
  Fmt.pr "   (cold: first search, PerfectRef runs; warm: the same search again@.";
  Fmt.pr "    over a warm reformulation cache, as after an insert)@.@.";
  Fmt.pr "   (fixp/min: the cold reform time spent in the PerfectRef fixpoint@.";
  Fmt.pr "    and in UCQ minimisation)@.@.";
  Fmt.pr "   (atoms: the query's atoms -> those left once the TBox-redundant ones@.";
  Fmt.pr "    are dropped; every search runs on the reduced query, as Obda's do)@.@.";
  Fmt.pr "%-4s %6s %11s %11s %9s %9s %11s %7s %10s %9s %12s %12s %7s %8s@." "qry"
    "atoms" "search(ms)" "reform(ms)" "fixp(ms)" "min(ms)" "eps(ms)" "eps%" "warm(ms)"
    "warm eps%" "eval full" "eval 20ms" "covers" "covers20";
  let hist_ms name =
    Option.fold ~none:0. ~some:Obs.Metrics.histogram_sum (Obs.Metrics.find_histogram name)
  in
  List.iter
    (fun e ->
      let q, _ = Reform.Reduce.reduce tbox e.Lubm.Workload.query in
      let atoms = Query.Cq.atom_count e.Lubm.Workload.query
      and reduced_atoms = Query.Cq.atom_count q in
      let fix0 = hist_ms "reform.fixpoint_ms" and min0 = hist_ms "reform.minimize_ms" in
      let full = Optimizer.Gdl.search tbox est q in
      let fixpoint_ms = hist_ms "reform.fixpoint_ms" -. fix0
      and minimize_ms = hist_ms "reform.minimize_ms" -. min0 in
      let warm = Optimizer.Gdl.search tbox est q in
      let limited = Optimizer.Gdl.search ~time_budget:0.02 tbox est q in
      let eval fol =
        match timed_eval engine fol with Ok (ms, _) -> ms | Error _ -> nan
      in
      let search_ms = full.Optimizer.Gdl.search_time *. 1000.
      and reform_ms = full.Optimizer.Gdl.reform_time *. 1000.
      and eps_ms = full.Optimizer.Gdl.cost_time *. 1000.
      and warm_ms = warm.Optimizer.Gdl.search_time *. 1000.
      and warm_eps_ms = warm.Optimizer.Gdl.cost_time *. 1000. in
      let share part whole = 100. *. part /. Float.max 1e-9 whole in
      let eval_full = eval full.Optimizer.Gdl.reformulation
      and eval_limited = eval limited.Optimizer.Gdl.reformulation in
      let same_cover =
        Covers.Generalized.equal full.Optimizer.Gdl.cover limited.Optimizer.Gdl.cover
      in
      Fmt.pr
        "%-4s %6s %11.2f %11.2f %9.2f %9.2f %11.2f %6.0f%% %10.2f %8.0f%% %10.1fms %10.1fms %7d %7d%s@."
        e.Lubm.Workload.name
        (Printf.sprintf "%d->%d" atoms reduced_atoms)
        search_ms reform_ms fixpoint_ms minimize_ms eps_ms
        (share eps_ms search_ms)
        warm_ms (share warm_eps_ms warm_ms) eval_full eval_limited full.Optimizer.Gdl.explored_total
        limited.Optimizer.Gdl.explored_total
        (if same_cover then "" else " *");
      record_json
        [ "exp", "\"gdl-time\"";
          "query", Printf.sprintf "%S" e.Lubm.Workload.name;
          "atoms", string_of_int atoms;
          "reduced_atoms", string_of_int reduced_atoms;
          "search_ms", Printf.sprintf "%.3f" search_ms;
          "reform_ms", Printf.sprintf "%.3f" reform_ms;
          "fixpoint_ms", Printf.sprintf "%.3f" fixpoint_ms;
          "minimize_ms", Printf.sprintf "%.3f" minimize_ms;
          "estimate_ms", Printf.sprintf "%.3f" eps_ms;
          "warm_search_ms", Printf.sprintf "%.3f" warm_ms;
          "warm_estimate_ms", Printf.sprintf "%.3f" warm_eps_ms;
          "covers", string_of_int full.Optimizer.Gdl.explored_total;
          "limited_covers", string_of_int limited.Optimizer.Gdl.explored_total;
          "limited_same_cover", string_of_bool same_cover;
          "eval_full_ms", Printf.sprintf "%.3f" eval_full;
          "eval_limited_ms", Printf.sprintf "%.3f" eval_limited ])
    Lubm.Workload.queries;
  Fmt.pr "   (* the 20 ms search chose a different cover than full GDL)@."

(* {1 E8 — §2.3: reformulation anatomy and SQL sizes} *)

let exp_anatomy () =
  Fmt.pr "@.== E8 (§2.3): reformulation sizes and SQL statement sizes ==@.";
  Fmt.pr "   (paper: 35-667 CQs per minimal UCQ; SQL beyond 2,000,000 chars@.";
  Fmt.pr "    on the RDF layout is rejected by DB2)@.@.";
  let simple = Obda.layout (engine_for `Db2lite `Simple !small_facts) in
  let rdf = Obda.layout (engine_for `Db2lite `Rdf !small_facts) in
  (* pruned: the minimal UCQ without the arms over predicates empty in
     this dataset, as the cost-based searches reformulate it *)
  let data = Optimizer.Estimator.emptiness tbox simple in
  Fmt.pr "   (pruned: %d of the TBox's names are empty in this dataset, %d hopeless)@.@."
    (Reform.Emptiness.empty_count data) (Reform.Emptiness.hopeless_count data);
  Fmt.pr "   (dropped: the TBox-redundant atoms the cost-based searches drop first)@.@.";
  Fmt.pr "%-4s %6s %8s %9s %9s %9s %14s %14s %9s@." "qry" "atoms" "dropped" "raw-UCQ"
    "min-UCQ" "pruned" "SQL simple" "SQL rdf" "over-2M?";
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      let raw = Reform.Perfectref.fixpoint tbox q in
      let min_u = Reform.Perfectref.reformulate_cached tbox q in
      let pruned = Reform.Perfectref.reformulate_cached ~data tbox q in
      let fol = Query.Fol.leaf ~out:q.Query.Cq.head min_u in
      let s1 = sql_length simple fol in
      let s2 = sql_length rdf fol in
      Fmt.pr "%-4s %6d %8d %9d %9d %9d %14d %14d %9b@." e.Lubm.Workload.name
        (Query.Cq.atom_count q)
        (List.length (snd (Reform.Reduce.reduce tbox q)))
        (Query.Ucq.size raw) (Query.Ucq.size min_u)
        (Query.Ucq.size pruned) s1 s2 (s2 > 2_000_000))
    Lubm.Workload.queries

(* {1 E9 — ablation: generalized covers on/off} *)

let exp_ablation () =
  Fmt.pr "@.== E9 (ablation): restricting GDL to simple covers (no semijoin@.";
  Fmt.pr "   reducers)  (paper §6.3: GDL picked a generalized cover always@.";
  Fmt.pr "   with the ext model, about half the time with the RDBMS model)@.@.";
  let engine = engine_for `Pglite `Simple !small_facts in
  Fmt.pr "%-4s %-7s %12s %12s %12s %12s %12s@." "qry" "eps" "cost Lq" "cost Gq"
    "eval Lq" "eval Gq" "generalized?";
  let generalized_picked = ref 0 and total = ref 0 in
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      List.iter
        (fun (eps_name, src) ->
          let est = Obda.estimator engine src in
          let lq = Optimizer.Gdl.search ~space:`Lq tbox est q in
          let gq = Optimizer.Gdl.search ~space:`Gq tbox est q in
          let eval fol =
            match timed_eval engine fol with Ok (ms, _) -> ms | Error _ -> nan
          in
          let generalized = not (Covers.Generalized.is_simple gq.Optimizer.Gdl.cover) in
          if src = Obda.Ext_cost then begin
            incr total;
            if generalized then incr generalized_picked
          end;
          Fmt.pr "%-4s %-7s %12.0f %12.0f %10.1fms %10.1fms %12b@."
            e.Lubm.Workload.name eps_name lq.Optimizer.Gdl.est_cost
            gq.Optimizer.Gdl.est_cost
            (eval lq.Optimizer.Gdl.reformulation)
            (eval gq.Optimizer.Gdl.reformulation)
            generalized)
        [ "ext", Obda.Ext_cost; "rdbms", Obda.Rdbms_cost ])
    Lubm.Workload.queries;
  Fmt.pr "@.GDL/ext picked a generalized cover on %d/%d queries@."
    !generalized_picked !total

(* {1 E10 — USCQ vs UCQ (the [33] comparison of §7)} *)

let exp_uscq () =
  Fmt.pr "@.== E10 (§7 / [33]): USCQ vs UCQ reformulations ==@.";
  Fmt.pr "   ([33] reports USCQs behave overall better than UCQs in an RDBMS)@.@.";
  let engine = engine_for `Pglite `Simple !small_facts in
  Fmt.pr "%-4s %10s %10s %12s %12s@." "qry" "UCQ cqs" "USCQ cqs" "UCQ eval" "USCQ eval";
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      let ucq = Obda.reformulate engine tbox Obda.Ucq q in
      let uscq = Obda.reformulate engine tbox Obda.Uscq q in
      let eval fol =
        match timed_eval engine fol with Ok (ms, _) -> ms | Error _ -> nan
      in
      Fmt.pr "%-4s %10d %10d %10.1fms %10.1fms@." e.Lubm.Workload.name
        (Query.Fol.cq_count ucq) (Query.Fol.cq_count uscq) (eval ucq) (eval uscq))
    Lubm.Workload.queries

(* {1 E11 — materialised fragment views (§7 future work)} *)

let exp_views () =
  Fmt.pr "@.== E11 (§7 future work): materialised fragment views ==@.";
  Fmt.pr "   (fragments shared across the workload are materialised once@.";
  Fmt.pr "    and reused by later queries)@.@.";
  let run_workload engine =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun e ->
        ignore (Obda.answers_exn engine tbox Obda.Croot e.Lubm.Workload.query);
        ignore
          (Obda.answers_exn engine tbox (Obda.Gdl Obda.Ext_cost) e.Lubm.Workload.query))
      Lubm.Workload.queries;
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let abox = abox_for !small_facts in
  let cold = Obda.make_engine `Pglite `Simple abox in
  let warm = Obda.make_engine `Pglite `Simple abox in
  Obda.enable_fragment_views warm;
  let t_cold = run_workload cold in
  let t_first = run_workload warm in
  let t_second = run_workload warm in
  Fmt.pr "no views        : %8.1f ms per workload pass@." t_cold;
  Fmt.pr "views, 1st pass : %8.1f ms (%d fragments materialised)@." t_first
    (Obda.fragment_view_count warm);
  Fmt.pr "views, 2nd pass : %8.1f ms (%.1fx vs no views)@." t_second
    (t_cold /. Float.max 0.1 t_second)

(* {1 E12 — reformulation vs materialisation (ABox saturation)} *)

let exp_saturation () =
  Fmt.pr "@.== E12: reformulation vs ABox saturation (materialisation) ==@.";
  Fmt.pr "   (the classical alternative: saturate once, evaluate plainly.@.";
  Fmt.pr "    Sound but incomplete for DL-LiteR existential witnesses)@.@.";
  let abox = abox_for !small_facts in
  let t0 = Unix.gettimeofday () in
  let saturated = Dllite.Saturate.abox tbox abox in
  let saturation_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Fmt.pr "saturation: %d -> %d facts in %.0f ms@.@." (Dllite.Abox.size abox)
    (Dllite.Abox.size saturated) saturation_ms;
  let reform_engine = engine_for `Pglite `Simple !small_facts in
  let sat_engine = Obda.make_engine `Pglite `Simple saturated in
  Fmt.pr "%-4s %12s %12s %12s %12s %11s@." "qry" "certain" "saturated" "reform(ms)"
    "sat(ms)" "complete?";
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      let fol = Obda.reformulate reform_engine tbox (Obda.Gdl Obda.Ext_cost) q in
      let reform_ms, certain =
        match timed_eval reform_engine fol with
        | Ok (ms, a) -> ms, a
        | Error m -> failwith m
      in
      let plain = Query.Fol.of_cq q in
      let sat_ms, sat_answers =
        match timed_eval sat_engine plain with
        | Ok (ms, a) -> ms, a
        | Error m -> failwith m
      in
      Fmt.pr "%-4s %12d %12d %12.1f %12.1f %11b@." e.Lubm.Workload.name
        (List.length certain) (List.length sat_answers) reform_ms sat_ms
        (List.length sat_answers = List.length certain))
    Lubm.Workload.queries

(* {1 E13 — cost-model calibration: cardinality q-errors} *)

let exp_calibration () =
  Fmt.pr "@.== E13 (§6.3): cost-model calibration — cardinality q-errors ==@.";
  Fmt.pr "   (q-error = max(est/act, act/est) per operator, via EXPLAIN ANALYZE;@.";
  Fmt.pr "    the quality of ε(\"ext\") vs ε(explain) in §6.3 rests on these)@.@.";
  let engine = engine_for `Pglite `Simple !small_facts in
  let profile = Obda.profile engine and layout = Obda.layout engine in
  Fmt.pr "%-4s %12s %12s %12s %12s %12s %10s@." "qry" "est rows" "act rows"
    "q-err root" "q-err max" "est cost" "eval(ms)";
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      let fol = Obda.reformulate engine tbox (Obda.Gdl Obda.Ext_cost) q in
      let plan = Rdbms.Planner.of_fol layout fol in
      let t0 = Unix.gettimeofday () in
      let _, stats =
        Rdbms.Exec.run_analyzed ~config:profile.Rdbms.Explain.exec_config layout
          plan
      in
      let eval_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      let node_q (s : Rdbms.Exec.node_stats) =
        let est = Rdbms.Explain.cost profile layout s.Rdbms.Exec.plan in
        Rdbms.Explain.q_error ~est:est.Rdbms.Explain.est_rows
          ~actual:s.Rdbms.Exec.actual_rows
      in
      let rec max_q acc (s : Rdbms.Exec.node_stats) =
        List.fold_left max_q (Float.max acc (node_q s)) s.Rdbms.Exec.children
      in
      let root_est = Rdbms.Explain.cost profile layout stats.Rdbms.Exec.plan in
      record_json
        [ "exp", "\"calibration\"";
          "query", Printf.sprintf "%S" e.Lubm.Workload.name;
          "est_rows", Printf.sprintf "%.1f" root_est.Rdbms.Explain.est_rows;
          "actual_rows", string_of_int stats.Rdbms.Exec.actual_rows;
          "q_error_root", Printf.sprintf "%.3f" (node_q stats);
          "q_error_max", Printf.sprintf "%.3f" (max_q 1.0 stats);
          "est_cost", Printf.sprintf "%.1f" root_est.Rdbms.Explain.total_cost;
          "eval_ms", Printf.sprintf "%.3f" eval_ms ];
      Fmt.pr "%-4s %12.0f %12d %12.2f %12.2f %12.0f %10.2f@." e.Lubm.Workload.name
        root_est.Rdbms.Explain.est_rows stats.Rdbms.Exec.actual_rows (node_q stats)
        (max_q 1.0 stats) root_est.Rdbms.Explain.total_cost eval_ms)
    Lubm.Workload.queries

(* {1 Driver} *)

let experiments =
  [
    "table6", "E1 Table 6: |Lq|, |Gq|, covers explored by GDL (A3-A6)", exp_table6;
    "edl-vs-gdl", "E2 §6.2: EDL vs GDL best covers (A3-A6)", exp_edl_vs_gdl;
    "fig2-small", "E3 Figure 2: Postgres-like engine, small dataset",
      (fun () -> figure2 ~exp:"fig2-small" !small_facts);
    "fig2-large", "E4 Figure 2: Postgres-like engine, large dataset",
      (fun () -> figure2 ~exp:"fig2-large" !large_facts);
    "fig3-small", "E5 Figure 3: DB2-like engine (simple + RDF), small dataset",
      (fun () -> figure3 ~exp:"fig3-small" !small_facts ~with_rdf_gdl:true);
    "fig3-large", "E6 Figure 3: DB2-like engine (simple + RDF), large dataset",
      (fun () -> figure3 ~exp:"fig3-large" !large_facts ~with_rdf_gdl:false);
    "gdl-time", "E7 §6.4: GDL running time, time-limited GDL", exp_gdl_time;
    "anatomy", "E8 §2.3: reformulation and SQL statement sizes", exp_anatomy;
    "ablation-gq", "E9 §6.3: generalized covers on/off", exp_ablation;
    "uscq", "E10 §7: USCQ vs UCQ reformulations", exp_uscq;
    "views", "E11 §7: materialised fragment views", exp_views;
    "saturation", "E12: reformulation vs ABox saturation", exp_saturation;
    "calibration", "E13 §6.3: cardinality q-errors via EXPLAIN ANALYZE",
      exp_calibration;
  ]

let () =
  let usage =
    "main.exe [--exp ID]... [--small N] [--large N] [--seed S] \
     [--json FILE] [--metrics FILE]"
  in
  let exp_help =
    String.concat ""
      (List.map (fun (id, what, _) -> Printf.sprintf "\n      %-12s %s" id what)
         experiments)
  in
  let spec =
    [
      "--exp", Arg.String (fun s -> selected := s :: !selected),
        " run one experiment (repeatable; default: all):" ^ exp_help;
      "--small", Arg.Set_int small_facts, " facts in the small dataset (default 30000)";
      "--large", Arg.Set_int large_facts, " facts in the large dataset (default 120000)";
      "--seed", Arg.Set_int seed, " generator seed (default 42)";
      "--json", Arg.String (fun f -> json_file := Some f),
        " dump per-cell and per-experiment timings to FILE";
      "--metrics", Arg.String (fun f -> metrics_file := Some f),
        " dump the process-wide metrics registry to FILE as JSON";
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) usage;
  (* fail on an unwritable --json target now, not after the full run *)
  (match !json_file with
  | Some file -> (
    match open_out file with
    | oc -> close_out oc
    | exception Sys_error msg ->
      Fmt.epr "cannot write --json file: %s@." msg;
      exit 2)
  | None -> ());
  let to_run =
    match !selected with
    | [] -> List.map (fun (id, _, f) -> id, f) experiments
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun (id, _, _) -> id = n) experiments with
          | Some (_, _, f) -> n, f
          | None ->
            Fmt.epr "unknown experiment %s@." n;
            exit 2)
        (List.rev names)
  in
  Fmt.pr "OBDA cover-reformulation benchmarks (paper: Bursztyn et al., VLDB 2016)@.";
  Fmt.pr "TBox: %d concepts, %d roles, %d constraints; workload: Q1-Q13, A3-A6@."
    Lubm.Ontology.concept_count Lubm.Ontology.role_count Lubm.Ontology.axiom_count;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let te = Unix.gettimeofday () in
      f ();
      record_json
        [ "exp", Printf.sprintf "%S" name;
          "total_ms", Printf.sprintf "%.3f" ((Unix.gettimeofday () -. te) *. 1000.) ])
    to_run;
  write_json ();
  write_metrics ();
  Fmt.pr "@.total bench time: %.1fs@." (Unix.gettimeofday () -. t0);
  if !answer_mismatches <> [] then begin
    Fmt.epr "@.answer gate: strategies disagree with the UCQ column:@.";
    List.iter (Fmt.epr "  %s@.") (List.rev !answer_mismatches);
    exit 1
  end
