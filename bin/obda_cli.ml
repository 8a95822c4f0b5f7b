(* obda-cli: command-line front end for the cover-based OBDA library.

   Subcommands:
     generate   produce a LUBMe ABox file
     store      build/inspect a binary column store (mmap-reopenable)
     workload   list the benchmark queries
     answer     answer a workload query end to end
     explain    show the chosen reformulation, cover and SQL
     covers     explore the safe / generalized cover spaces
     check      consistency-check an ABox against the LUBMe TBox
     feedback   train/save/load/clear EXPLAIN ANALYZE cost corrections *)

open Cmdliner
open Common

(* {1 Common arguments} *)

let store_arg =
  store_arg
    ~doc:"Open the ABox from a binary column store written by \
          $(b,store save) (mmap, O(segments) open; implies the simple \
          layout). Overrides --data/--facts/--rdf."

let tbox_arg =
  tbox_arg
    ~doc:"Load the TBox from $(docv) (DL-LiteR text syntax) instead of the \
          built-in LUBMe ontology."

let query_arg =
  Arg.(value & opt string "Q1" & info [ "query"; "q" ] ~docv:"NAME" ~doc:"Workload query name (Q1..Q13, A3..A6).")

let strategy_arg =
  let strategies =
    List.map (fun n -> n, Option.get (Obda.strategy_of_name n)) Obda.strategy_names
  in
  Arg.(value & opt (enum strategies) (Obda.Gdl Obda.Ext_cost)
       & info [ "strategy"; "s" ] ~docv:"STRATEGY"
           ~doc:("Reformulation strategy: " ^ strategy_list ^ "."))

let limit_arg =
  Arg.(value & opt int 20 & info [ "limit" ] ~docv:"K" ~doc:"Print at most $(docv) answers.")

let cache_stats_arg =
  Arg.(value & flag
       & info [ "cache-stats" ]
           ~doc:"Print plan- and reformulation-cache statistics after the run.")

let print_cache_stats () =
  Fmt.pr "%a@." Cache.Lru.pp_stats (Obda.plan_cache_stats ());
  Fmt.pr "%a@." Cache.Lru.pp_stats (Reform.Perfectref.cache_stats ())

let query_string_arg =
  Arg.(value & opt (some string) None
       & info [ "query-string" ] ~docv:"CQ"
           ~doc:"An inline conjunctive query, e.g. \
                 'q(?x) <- PhDStudent(?x), worksWith(?y, ?x)'. Overrides --query.")

let feedback_arg =
  Arg.(value & opt (some string) None
       & info [ "feedback" ] ~docv:"FILE"
           ~doc:"Load cardinality corrections written by $(b,feedback save); \
                 the cost-based strategies then rank covers with the corrected \
                 estimates instead of the static ones.")

let apply_feedback engine = function
  | None -> ()
  | Some file -> (
    match Cost.Feedback.load file with
    | Ok fb -> Obda.set_feedback_store engine (Some fb)
    | Error msg -> fail "%s" msg)

let find_query ~inline name =
  match inline with
  | Some text -> Syntax.Query_text.parse text
  | None -> (
    match Lubm.Workload.find name with
    | e -> e.Lubm.Workload.query
    | exception Not_found ->
      Fmt.failwith "unknown query %s (try Q1..Q13, A3..A6, or --query-string)" name)

(* {1 generate} *)

let generate_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run facts seed out =
    let abox = Lubm.Generator.generate ~seed ~target_facts:facts () in
    Dllite.Abox.save abox out;
    Fmt.pr "wrote %a to %s@." Dllite.Abox.pp_stats abox out
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a LUBMe ABox file.")
    Term.(const run $ facts_arg $ seed_arg $ out_arg)

(* {1 store} *)

let pp_storage_stats ppf s =
  let enc = Rdbms.Storage.column_bytes s and flat = Rdbms.Storage.flat_bytes s in
  Fmt.pf ppf
    "%d facts, %d individuals, %d concepts, %d roles; %d bytes encoded \
     (%.2f bytes/fact, %.0f%% of flat arrays)"
    (Rdbms.Storage.total_facts s)
    (Rdbms.Storage.individual_count s)
    (List.length (Rdbms.Storage.concept_names s))
    (List.length (Rdbms.Storage.role_names s))
    enc
    (float_of_int enc /. float_of_int (max 1 (Rdbms.Storage.total_facts s)))
    (100. *. float_of_int enc /. float_of_int (max 1 flat))

let store_save_cmd =
  let out_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Output store file.")
  in
  let run facts seed data out =
    let storage =
      match data with
      | Some file -> (
        match Dllite.Abox.load file with
        | Ok abox -> Rdbms.Storage.of_abox abox
        | Error e -> fail "%s: %a" file Dllite.Abox.pp_parse_error e)
      | None ->
        (* stream the generator straight into the column builder: no
           intermediate row-form ABox, so --facts can go to tens of
           millions without exhausting memory *)
        let b = Rdbms.Storage.Builder.create () in
        ignore
          (Lubm.Generator.generate_into ~seed ~target_facts:facts
             ~add_concept:(fun ~concept ~ind ->
               Rdbms.Storage.Builder.add_concept b ~concept ~ind)
             ~add_role:(fun ~role ~subj ~obj ->
               Rdbms.Storage.Builder.add_role b ~role ~subj ~obj)
             ());
        Rdbms.Storage.Builder.finish b
    in
    Rdbms.Storage.save storage out;
    Fmt.pr "wrote %a to %s@." pp_storage_stats storage out
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Build a binary column store (from --data or the generator) and \
             write it to $(i,FILE) for later $(b,--store) reuse.")
    Term.(const run $ facts_arg $ seed_arg $ data_arg $ out_arg)

let store_info_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Store file.")
  in
  let run file = Fmt.pr "%s: %a@." file pp_storage_stats (load_storage file) in
  Cmd.v
    (Cmd.info "info" ~doc:"Open a store (mmap) and print its statistics.")
    Term.(const run $ file_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Build or inspect binary column stores (compressed segments + zone \
             maps, reopened by mmap in O(segments)).")
    [ store_save_cmd; store_info_cmd ]

(* {1 workload} *)

let workload_cmd =
  let run () =
    List.iter
      (fun e ->
        Fmt.pr "%-4s (%d atoms)  %s@.      %a@." e.Lubm.Workload.name
          (Query.Cq.atom_count e.Lubm.Workload.query)
          e.Lubm.Workload.description Query.Cq.pp e.Lubm.Workload.query)
      (Lubm.Workload.queries @ Lubm.Workload.star_queries)
  in
  Cmd.v (Cmd.info "workload" ~doc:"List the benchmark queries.") Term.(const run $ const ())

(* {1 answer} *)

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"After the run, write the process-wide metrics registry to $(docv) \
                 as JSON ($(b,-) for stdout as text).")

let write_metrics = function
  | None -> ()
  | Some "-" -> print_string (Obs.Metrics.to_text ())
  | Some file ->
    let oc = open_out file in
    output_string oc (Obs.Metrics.to_json ());
    output_char oc '\n';
    close_out oc

let warm_arg =
  Arg.(value & flag
       & info [ "warm" ]
           ~doc:"With $(b,--store): pre-touch every segment — decode the column \
                 arrays and build the hash indexes — before answering, so the \
                 reported times measure the query, not first-touch decoding. A \
                 reopened store is otherwise cold: mmap defers all decoding to \
                 the first scan that needs each table.")

let answer_cmd =
  let run facts seed data rdf store tbox_file inline qname engine_kind layout strategy
      limit metrics plan_cap reform_cap cache_stats warm feedback =
    apply_caches plan_cap reform_cap;
    let tbox, engine =
      match store with
      | Some file ->
        let storage = load_storage file in
        if warm then begin
          let t0 = Unix.gettimeofday () in
          let tables = Rdbms.Storage.warm storage in
          Fmt.pr "warmed     : %d tables in %.1f ms@." tables
            ((Unix.gettimeofday () -. t0) *. 1000.)
        end;
        ( tbox_of tbox_file,
          Obda.make_engine_of_layout engine_kind (Rdbms.Layout.of_storage storage) )
      | None ->
        if warm then
          Fmt.epr "%s: --warm only affects --store runs (generated/loaded \
                   ABoxes are already decoded)@." prog;
        let tbox, abox = load_kb rdf tbox_file data facts seed in
        tbox, Obda.make_engine engine_kind layout abox
    in
    apply_feedback engine feedback;
    let q = find_query ~inline qname in
    let o = Obda.answer engine tbox strategy q in
    write_metrics metrics;
    Fmt.pr "query      : %a@." Query.Cq.pp q;
    Fmt.pr "engine     : %s@." (Obda.engine_name engine);
    Fmt.pr "strategy   : %s@." (Obda.strategy_name o.Obda.strategy);
    Fmt.pr "cq count   : %d@." o.Obda.cq_count;
    Fmt.pr "sql bytes  : %d@." (String.length (Lazy.force o.Obda.sql));
    Fmt.pr "search time: %.1f ms%s@." (o.Obda.search_time *. 1000.)
      (if o.Obda.plan_cached then " (cached plan)" else "");
    Fmt.pr "eval time  : %.1f ms@." (o.Obda.eval_time *. 1000.);
    if cache_stats then print_cache_stats ();
    match o.Obda.answers with
    | Error msg -> Fmt.pr "ERROR      : %s@." msg; exit 1
    | Ok answers ->
      Fmt.pr "answers    : %d@." (List.length answers);
      List.iteri
        (fun i row ->
          if i < limit then Fmt.pr "  %a@." (Fmt.list ~sep:Fmt.comma Fmt.string) row)
        answers;
      if List.length answers > limit then Fmt.pr "  ... (%d more)@." (List.length answers - limit)
  in
  Cmd.v
    (Cmd.info "answer" ~doc:"Answer a workload query end to end.")
    Term.(const run $ facts_arg $ seed_arg $ data_arg $ rdf_arg $ store_arg
          $ tbox_arg $ query_string_arg $ query_arg $ engine_arg $ layout_arg
          $ strategy_arg $ limit_arg $ metrics_arg $ plan_cache_arg
          $ reform_cache_arg $ cache_stats_arg $ warm_arg $ feedback_arg)

(* {1 explain} *)

let explain_cmd =
  let plan_arg =
    Arg.(value & flag & info [ "plan" ] ~doc:"Print the annotated physical plan.")
  in
  let datalog_arg =
    Arg.(value & flag
         & info [ "datalog" ] ~doc:"Print the reformulation as a non-recursive Datalog program.")
  in
  let sql_flag_arg =
    Arg.(value & flag & info [ "sql" ] ~doc:"Print the full SQL statement.")
  in
  let analyze_arg =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Execute the plan and show, per operator, the actual cardinality, \
                   wall-clock time and cache outcome next to the cost-model estimate, \
                   with the cardinality q-error.")
  in
  let format_arg =
    let formats = [ "text", `Text; "json", `Json ] in
    Arg.(value & opt (enum formats) `Text
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Record and print the optimizer's cover-search trace (one \
                   candidate/accepted/rejected/chosen event per cover considered).")
  in
  let run facts seed data rdf store tbox_file inline qname engine_kind layout strategy
      show_plan show_datalog show_sql analyze format trace feedback =
    let tbox, engine = load_engine store rdf tbox_file data facts seed engine_kind layout in
    apply_feedback engine feedback;
    let fb = Obda.feedback_store engine in
    let q = find_query ~inline qname in
    (* explain what the engine will actually run: the same pipeline as
       [answer], SIP reducer annotations included; --analyze runs it
       through the instrumented executor *)
    let prepare () = Obda.prepare engine tbox strategy q in
    let p, events = if trace then Obs.Trace.record prepare else prepare (), [] in
    let fol = p.Obda.reformulation in
    let stats = if analyze then (Obda.analyze engine tbox strategy q).Obda.a_stats else None in
    let est = Obda.estimator engine Obda.Rdbms_cost in
    let ext = Obda.estimator engine Obda.Ext_cost in
    let profile = Obda.profile engine and lay = Obda.layout engine in
    let sql_bytes = String.length (Lazy.force p.Obda.sql) in
    let dialect = Query.Fol.dialect fol in
    match format with
    | `Json ->
      let plan_json =
        match stats, p.Obda.physical with
        | Some s, _ -> Rdbms.Explain.render_analyze_json profile lay s
        | None, Ok plan -> Rdbms.Explain.render_json profile lay plan
        | None, Error msg -> Fmt.str "{\"error\":%S}" msg
      in
      Fmt.pr
        "{\"query\":%S,\"strategy\":%S,\"dialect\":%S,\"cq_disjuncts\":%d,\
         \"join_width\":%d,\"rdbms_cost\":%.1f,\"ext_cost\":%.1f,\"sql_bytes\":%d,\
         \"analyze\":%b,\"plan\":%s,\"trace\":[%s]}@."
        (Fmt.str "%a" Query.Cq.pp q)
        (Obda.strategy_name strategy) dialect (Query.Fol.cq_count fol)
        (Query.Fol.join_width fol)
        (est.Optimizer.Estimator.estimate fol)
        (ext.Optimizer.Estimator.estimate fol)
        sql_bytes analyze plan_json
        (String.concat "," (List.map Obs.Trace.event_to_json events))
    | `Text ->
      Fmt.pr "query        : %a@." Query.Cq.pp q;
      Fmt.pr "strategy     : %s@." (Obda.strategy_name strategy);
      (* the cost-based strategies cover the query without its
         TBox-redundant atoms *)
      if p.Obda.dropped <> [] then begin
        Fmt.pr "reduced query: %a@." Query.Cq.pp p.Obda.covered;
        Fmt.pr "dropped atoms: %s@."
          (String.concat " " (List.map Query.Atom.to_string p.Obda.dropped))
      end;
      Fmt.pr "dialect      : %s@." dialect;
      Fmt.pr "cq disjuncts : %d@." (Query.Fol.cq_count fol);
      Fmt.pr "join width   : %d@." (Query.Fol.join_width fol);
      Fmt.pr "rdbms cost   : %.0f@." (est.Optimizer.Estimator.estimate fol);
      Fmt.pr "ext cost     : %.0f@." (ext.Optimizer.Estimator.estimate fol);
      Fmt.pr "sql bytes    : %d@." sql_bytes;
      let root = Covers.Safety.root_cover tbox p.Obda.covered in
      Fmt.pr "root cover   : %a@." Covers.Cover.pp root;
      if trace then begin
        Fmt.pr "@.== cover-search trace (%d events) ==@." (List.length events);
        List.iter (fun e -> Fmt.pr "%a@." Obs.Trace.pp_event e) events;
        Fmt.pr "@.== reformulation metrics (reform.*) ==@.";
        List.iter
          (fun name ->
            Option.iter
              (fun c -> Fmt.pr "%-32s %d@." name (Obs.Metrics.counter_value c))
              (Obs.Metrics.find_counter name))
          [
            "reform.dedup_hits"; "reform.containment.checks";
            "reform.containment.skipped"; "reform.containment.memo_hits";
            "reform.fixpoint.iterations"; "reform.cq.generated";
            "reform.cq.pruned"; "reform.cache.requests"; "reform.cache.hits";
            "reform.atoms.dropped";
          ];
        (* the emptiness snapshot the cost-based searches prune with *)
        let data = Optimizer.Estimator.emptiness tbox lay in
        Fmt.pr "%-32s %d@.%-32s %d@." "empty predicates"
          (Reform.Emptiness.empty_count data) "hopeless predicates"
          (Reform.Emptiness.hopeless_count data);
        List.iter
          (fun name ->
            Option.iter
              (fun h ->
                Fmt.pr "%-32s %d runs, %.2f ms@." name (Obs.Metrics.histogram_count h)
                  (Obs.Metrics.histogram_sum h))
              (Obs.Metrics.find_histogram name))
          [ "reform.reduce_ms"; "reform.fixpoint_ms"; "reform.minimize_ms" ];
        (* each distinct fragment is estimated once per search; the
           rest of the scored fragments come from the search's memo *)
        Fmt.pr "@.== cover-search estimation (cost.leaves.*) ==@.";
        let leaves name =
          Option.fold ~none:0 ~some:Obs.Metrics.counter_value
            (Obs.Metrics.find_counter name)
        in
        let estimated = leaves "cost.leaves.estimated"
        and reused = leaves "cost.leaves.reused" in
        Fmt.pr "%-32s %d@.%-32s %d@." "cost.leaves.estimated" estimated
          "cost.leaves.reused" reused;
        if estimated + reused > 0 then
          Fmt.pr "%-32s %.2f@." "reuse ratio"
            (float_of_int reused /. float_of_int (estimated + reused));
        Fmt.pr "@.== feedback metrics (feedback.*) ==@.";
        List.iter
          (fun name ->
            Option.iter
              (fun c -> Fmt.pr "%-32s %d@." name (Obs.Metrics.counter_value c))
              (Obs.Metrics.find_counter name))
          [
            "feedback.observations"; "feedback.corrections.applied";
            "feedback.plan.reranks";
          ];
        (match fb with
         | Some store ->
           Fmt.pr "%-32s %d@." "feedback.epoch" (Cost.Feedback.epoch store);
           Fmt.pr "%a@." Cost.Feedback.pp_stats (Cost.Feedback.stats store)
         | None -> Fmt.pr "%-32s (store detached)@." "feedback.epoch")
      end;
      (match stats, p.Obda.physical with
       | Some s, _ ->
         Fmt.pr "@.== explain analyze ==@.%s"
           (Rdbms.Explain.render_analyze profile lay s)
       | None, Ok plan when show_plan ->
         Fmt.pr "@.== physical plan ==@.%s" (Rdbms.Explain.render profile lay plan)
       | None, Ok _ -> ()
       | None, Error msg -> Fmt.pr "@.engine error : %s@." msg);
      if show_datalog then
        Fmt.pr "@.== datalog program (%d rules) ==@.%s@."
          (Syntax.Datalog.rule_count fol) (Syntax.Datalog.of_fol fol);
      if show_sql then Fmt.pr "@.== sql ==@.%s@." (Lazy.force p.Obda.sql)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the reformulation a strategy chooses, with cost estimates; \
             $(b,--analyze) also executes it and confronts estimates with actuals.")
    Term.(const run $ facts_arg $ seed_arg $ data_arg $ rdf_arg $ store_arg
          $ tbox_arg $ query_string_arg $ query_arg $ engine_arg $ layout_arg
          $ strategy_arg $ plan_arg $ datalog_arg $ sql_flag_arg $ analyze_arg
          $ format_arg $ trace_arg $ feedback_arg)

(* {1 covers} *)

let covers_cmd =
  let run facts seed data rdf tbox_file inline qname =
    let tbox, abox = load_kb rdf tbox_file data facts seed in
    let engine = Obda.make_engine `Pglite `Simple abox in
    let q = find_query ~inline qname in
    let root = Covers.Safety.root_cover tbox q in
    Fmt.pr "root cover           : %a@." Covers.Cover.pp root;
    let lq = Covers.Safety.safe_cover_count ~max_count:20_000 tbox q in
    Fmt.pr "|Lq| (cap 20000)     : %d@." lq;
    let gq, capped = Covers.Generalized.gq_count ~max_count:20_000 tbox q in
    Fmt.pr "|Gq| (cap 20000)     : %d%s@." gq (if capped then "+" else "");
    let r = Optimizer.Gdl.search tbox (Obda.estimator engine Obda.Ext_cost) q in
    Fmt.pr "GDL best cover       : %a@." Covers.Generalized.pp r.Optimizer.Gdl.cover;
    Fmt.pr "GDL covers estimated : %d (%d simple)@." r.Optimizer.Gdl.explored_total
      r.Optimizer.Gdl.explored_simple;
    Fmt.pr "GDL moves / time     : %d / %.1f ms@." r.Optimizer.Gdl.moves
      (r.Optimizer.Gdl.search_time *. 1000.)
  in
  Cmd.v
    (Cmd.info "covers" ~doc:"Explore the safe and generalized cover spaces of a query.")
    Term.(const run $ facts_arg $ seed_arg $ data_arg $ rdf_arg $ tbox_arg
          $ query_string_arg $ query_arg)

(* {1 check} *)

let check_cmd =
  let run facts seed data rdf tbox_file =
    let tbox, abox = load_kb rdf tbox_file data facts seed in
    let kb = Dllite.Kb.make tbox abox in
    match Dllite.Kb.check_consistency kb with
    | None -> Fmt.pr "consistent (%a)@." Dllite.Abox.pp_stats abox
    | Some v ->
      Fmt.pr "INCONSISTENT: %a@." Dllite.Kb.pp_violation v;
      exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Consistency-check an ABox against its TBox.")
    Term.(const run $ facts_arg $ seed_arg $ data_arg $ rdf_arg $ tbox_arg)

let saturate_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run facts seed data rdf tbox_file out =
    let tbox, abox = load_kb rdf tbox_file data facts seed in
    let t0 = Unix.gettimeofday () in
    let saturated = Dllite.Saturate.abox tbox abox in
    Fmt.pr "saturated %d -> %d facts in %.0f ms@." (Dllite.Abox.size abox)
      (Dllite.Abox.size saturated)
      ((Unix.gettimeofday () -. t0) *. 1000.);
    Dllite.Abox.save saturated out;
    Fmt.pr "wrote %s@." out
  in
  Cmd.v
    (Cmd.info "saturate"
       ~doc:"Materialise all entailed facts over named individuals (sound but \
             incomplete w.r.t. existential witnesses).")
    Term.(const run $ facts_arg $ seed_arg $ data_arg $ rdf_arg $ tbox_arg $ out_arg)

(* {1 feedback} *)

let feedback_save_cmd =
  let out_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Output corrections file (OBDAFBK1).")
  in
  let passes_arg =
    Arg.(value & opt int 2
         & info [ "passes" ] ~docv:"N"
             ~doc:"EXPLAIN ANALYZE training passes over the workload queries.")
  in
  let run facts seed data rdf tbox_file engine_kind layout strategy passes out =
    let tbox, abox = load_kb rdf tbox_file data facts seed in
    let engine = Obda.make_engine engine_kind layout abox in
    let t0 = Unix.gettimeofday () in
    let harvested = ref 0 in
    for _ = 1 to passes do
      List.iter
        (fun e ->
          let a = Obda.analyze engine tbox strategy e.Lubm.Workload.query in
          harvested := !harvested + a.Obda.a_harvested)
        Lubm.Workload.queries
    done;
    match Obda.feedback_store engine with
    | None -> assert false (* engines are born with a store attached *)
    | Some fb ->
      Cost.Feedback.save fb out;
      Fmt.pr "trained    : %d observations in %.0f ms (%d passes, %d queries)@."
        !harvested
        ((Unix.gettimeofday () -. t0) *. 1000.)
        passes
        (List.length Lubm.Workload.queries);
      Fmt.pr "wrote      : %a@.  to %s@." Cost.Feedback.pp_stats
        (Cost.Feedback.stats fb) out
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Run EXPLAIN ANALYZE training passes over the workload queries and \
             write the harvested correction store to $(i,FILE) for later \
             $(b,--feedback) reuse.")
    Term.(const run $ facts_arg $ seed_arg $ data_arg $ rdf_arg $ tbox_arg
          $ engine_arg $ layout_arg $ strategy_arg $ passes_arg $ out_arg)

let feedback_load_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Corrections file.")
  in
  let entries_arg =
    Arg.(value & flag
         & info [ "entries" ] ~doc:"Also list every correction key with its factor.")
  in
  let run file show_entries =
    match Cost.Feedback.load file with
    | Error msg -> fail "%s" msg
    | Ok fb ->
      Fmt.pr "%s: %a@." file Cost.Feedback.pp_stats (Cost.Feedback.stats fb);
      if show_entries then
        List.iter
          (fun (key, factor, count) -> Fmt.pr "  %10.4f x%-5d %s@." factor count key)
          (Cost.Feedback.entries fb)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Open and fully validate a corrections file, printing its \
             statistics (a corrupt file reports an error, never a crash).")
    Term.(const run $ file_arg $ entries_arg)

let feedback_clear_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Corrections file.")
  in
  let run file =
    Cost.Feedback.save (Cost.Feedback.create ()) file;
    Fmt.pr "reset %s to an empty correction store@." file
  in
  Cmd.v
    (Cmd.info "clear" ~doc:"Reset a corrections file to an empty store.")
    Term.(const run $ file_arg)

let feedback_cmd =
  Cmd.group
    (Cmd.info "feedback"
       ~doc:"Train, inspect and reset the EXPLAIN ANALYZE correction store the \
             cost-based strategies consult ($(b,--feedback)).")
    [ feedback_save_cmd; feedback_load_cmd; feedback_clear_cmd ]

let () =
  let info =
    Cmd.info "obda-cli" ~version:"1.0.0"
      ~doc:"Cost-based cover reformulation for DL-LiteR query answering."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; store_cmd; workload_cmd; answer_cmd; explain_cmd; covers_cmd;
            check_cmd; saturate_cmd; feedback_cmd ]))
