(* Observability layer: metrics registry, trace events, EXPLAIN
   ANALYZE instrumentation, and the request counters the bench
   acceptance relies on. *)

open Query

let v = Fixtures.v

let ra = Fixtures.ra

let ca = Fixtures.ca

(* {1 A minimal JSON well-formedness checker}

   The exporters build JSON by hand (no JSON library in the tree), so
   the tests validate the grammar with a tiny recursive-descent
   parser: objects, arrays, strings with escapes, numbers, literals. *)

let check_json label s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "%s: invalid JSON at %d: %s" label !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal lit =
    String.iter expect lit
  in
  let string_value () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number"
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_value ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some _ -> number ()
    | None -> fail "expected a value");
    skip_ws ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let rec members () =
        skip_ws ();
        string_value ();
        skip_ws ();
        expect ':';
        value ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | _ -> expect '}'
      in
      members ()
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let rec elements () =
        value ();
        match peek () with
        | Some ',' ->
          advance ();
          elements ()
        | _ -> expect ']'
      in
      elements ()
    end
  in
  value ();
  if !pos <> n then fail "trailing characters"

(* {1 Metrics registry} *)

let test_counter () =
  let c = Obs.Metrics.counter ~help:"test" "test.obs.counter" in
  let v0 = Obs.Metrics.counter_value c in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "incr + add" (v0 + 5) (Obs.Metrics.counter_value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.add test.obs.counter: negative delta -1")
    (fun () -> Obs.Metrics.add c (-1))

let test_registration () =
  let a = Obs.Metrics.counter "test.obs.same" in
  let b = Obs.Metrics.counter "test.obs.same" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr b;
  Alcotest.(check int) "one instrument behind the name" 2
    (Obs.Metrics.counter_value a);
  (match Obs.Metrics.gauge "test.obs.same" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  match Obs.Metrics.find_counter "test.obs.same" with
  | Some c ->
    Alcotest.(check int) "find_counter sees it" 2 (Obs.Metrics.counter_value c)
  | None -> Alcotest.fail "find_counter missed a registered counter"

let test_gauge () =
  let g = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.set g 3.5;
  Obs.Metrics.set g 1.25;
  Alcotest.(check (float 0.)) "last set wins" 1.25 (Obs.Metrics.gauge_value g)

let test_histogram () =
  let h = Obs.Metrics.histogram ~buckets:[ 1.; 10. ] "test.obs.histo" in
  Obs.Metrics.observe h 0.5;
  Obs.Metrics.observe h 5.;
  Obs.Metrics.observe h 100.;
  Alcotest.(check int) "count" 3 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 105.5 (Obs.Metrics.histogram_sum h);
  (match Obs.Metrics.histogram_buckets h with
  | [ (b1, c1); (b2, c2); (binf, cinf) ] ->
    Alcotest.(check (float 0.)) "bound 1" 1. b1;
    Alcotest.(check (float 0.)) "bound 2" 10. b2;
    Alcotest.(check bool) "overflow bound" true (binf = infinity);
    Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1 ] [ c1; c2; cinf ]
  | l -> Alcotest.failf "expected 3 buckets, got %d" (List.length l));
  ignore (Obs.Metrics.time h (fun () -> 42));
  Alcotest.(check int) "time observes" 4 (Obs.Metrics.histogram_count h);
  match Obs.Metrics.histogram ~buckets:[ 5.; 5. ] "test.obs.histo.bad" with
  | _ -> Alcotest.fail "non-increasing buckets accepted"
  | exception Invalid_argument _ -> ()

let test_reset () =
  let c = Obs.Metrics.counter "test.obs.reset" in
  Obs.Metrics.add c 7;
  Obs.Metrics.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "instrument still live" 1 (Obs.Metrics.counter_value c)

let test_export () =
  let json = Obs.Metrics.to_json () in
  check_json "Metrics.to_json" json;
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json names a known counter" true
    (contains json "exec.scan.requests");
  let text = Obs.Metrics.to_text () in
  Alcotest.(check bool) "text names a known counter" true
    (contains text "exec.scan.requests")

(* {1 Trace events} *)

let test_trace_record () =
  Alcotest.(check bool) "disabled outside record" false (Obs.Trace.enabled ());
  let result, events =
    Obs.Trace.record (fun () ->
        Alcotest.(check bool) "enabled inside record" true (Obs.Trace.enabled ());
        Obs.Trace.emit ~source:"t" ~step:1 ~verdict:Obs.Trace.Candidate ~cost:10.
          "c1";
        Obs.Trace.emit ~source:"t" ~step:1 ~verdict:Obs.Trace.Accepted ~cost:5.
          "c2";
        Obs.Trace.emit ~source:"t" ~step:2 ~verdict:Obs.Trace.Chosen "c3";
        "done")
  in
  Alcotest.(check string) "result passes through" "done" result;
  Alcotest.(check int) "three events" 3 (List.length events);
  let seqs = List.map (fun e -> e.Obs.Trace.seq) events in
  Alcotest.(check bool) "sequence-ordered" true (List.sort compare seqs = seqs);
  (match events with
  | [ e1; e2; e3 ] ->
    Alcotest.(check string) "labels in order" "c1,c2,c3"
      (String.concat "," [ e1.Obs.Trace.label; e2.Obs.Trace.label; e3.Obs.Trace.label ]);
    Alcotest.(check bool) "nan cost on bare emit" true
      (Float.is_nan e3.Obs.Trace.cost);
    check_json "event_to_json" (Obs.Trace.event_to_json e1);
    check_json "event_to_json (nan cost)" (Obs.Trace.event_to_json e3)
  | _ -> Alcotest.fail "expected exactly the three emitted events");
  Alcotest.(check bool) "disabled again after record" false (Obs.Trace.enabled ())

let test_trace_restores_on_exn () =
  (match
     Obs.Trace.with_sink
       (fun _ -> ())
       (fun () -> raise Exit)
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Exit -> ());
  Alcotest.(check bool) "sink uninstalled after exception" false
    (Obs.Trace.enabled ())

let test_gdl_emits_trace () =
  let tbox = Fixtures.example1_tbox in
  let abox = Fixtures.example1_abox () in
  let layout = Rdbms.Layout.simple_of_abox abox in
  let est = Optimizer.Estimator.rdbms Rdbms.Explain.pglite layout in
  let _, events =
    Obs.Trace.record (fun () ->
        ignore (Optimizer.Gdl.search tbox est Fixtures.example7_query))
  in
  Alcotest.(check bool) "gdl emitted events" true (events <> []);
  Alcotest.(check bool) "all events from gdl" true
    (List.for_all (fun e -> e.Obs.Trace.source = "gdl") events);
  let chosen =
    List.filter (fun e -> e.Obs.Trace.verdict = Obs.Trace.Chosen) events
  in
  Alcotest.(check int) "exactly one chosen cover" 1 (List.length chosen)

(* {1 EXPLAIN ANALYZE instrumentation} *)

(* The example-1 KB reformulated: a union of several CQs, giving the
   plan scans, joins, a union and a distinct to instrument. *)
let example1_plan () =
  let tbox = Fixtures.example1_tbox in
  let abox = Fixtures.example1_abox () in
  let layout = Rdbms.Layout.simple_of_abox abox in
  let ucq = Reform.Perfectref.reformulate tbox Fixtures.example3_query in
  let fol = Fol.leaf ~out:Fixtures.example3_query.Cq.head ucq in
  layout, Rdbms.Planner.of_fol layout fol

let test_analyze_cardinalities () =
  let layout, plan = example1_plan () in
  let rel = Rdbms.Exec.run layout plan in
  let rel', stats = Rdbms.Exec.run_analyzed layout plan in
  Alcotest.(check int) "same result as run"
    (Rdbms.Relation.cardinality rel)
    (Rdbms.Relation.cardinality rel');
  Alcotest.(check int) "root actual_rows is the result cardinality"
    (Rdbms.Relation.cardinality rel')
    stats.Rdbms.Exec.actual_rows;
  let rec wellformed (s : Rdbms.Exec.node_stats) =
    Alcotest.(check bool) "non-negative rows" true (s.Rdbms.Exec.actual_rows >= 0);
    Alcotest.(check bool) "non-negative time" true (s.Rdbms.Exec.elapsed_ns >= 0L);
    List.iter wellformed s.Rdbms.Exec.children
  in
  wellformed stats

let test_analyze_matches_run () =
  let layout, plan = example1_plan () in
  let reference = Rdbms.Exec.answers layout plan in
  let rel, stats = Rdbms.Exec.run_analyzed ~config:Rdbms.Exec.db2_like layout plan in
  Alcotest.(check (list (list string)))
    "db2-like analyzed answers = postgres-like answers" reference
    (Rdbms.Exec.decode_rows layout rel);
  Alcotest.(check (list (list string)))
    "db2-like answers = postgres-like answers" reference
    (Rdbms.Exec.answers ~config:Rdbms.Exec.db2_like layout plan);
  Alcotest.(check int) "root cardinality" (List.length reference)
    stats.Rdbms.Exec.actual_rows

let counter_value name =
  match Obs.Metrics.find_counter name with
  | Some c -> Obs.Metrics.counter_value c
  | None -> Alcotest.failf "counter %s not registered" name

(* The counters the bench acceptance relies on: each cache request
   bumps exactly one of (performed, hit), and the number of requests
   and union arms is fixed by plan and data. *)
let test_metrics_requests_split () =
  let layout = Rdbms.Layout.simple_of_abox (Fixtures.example1_abox ()) in
  (* A plan that exercises every counter: four identical union arms,
     each a hash join whose build side is a base scan (so the db2-like
     build/scan caches field requests from every arm). *)
  let arm _ =
    Rdbms.Plan.Project
      {
        input =
          Rdbms.Plan.Hash_join
            {
              left = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y"));
              right = Rdbms.Plan.Scan (ra "supervisedBy" (v "z") (v "y"));
              on = [ "y" ];
            };
        out = [ `Col "x" ];
      }
  in
  let plan =
    Rdbms.Plan.Distinct
      (Rdbms.Plan.Union { cols = [ "x" ]; inputs = List.init 4 arm })
  in
  let totals () =
    Obs.Metrics.reset ();
    let c = Rdbms.Exec.fresh_counters () in
    ignore (Rdbms.Exec.run_analyzed ~config:Rdbms.Exec.db2_like ~counters:c layout plan);
    let scan_requests = counter_value "exec.scan.requests"
    and build_requests = counter_value "exec.build.requests" in
    Alcotest.(check int) "scans + scan hits = scan requests" scan_requests
      (Atomic.get c.Rdbms.Exec.scans + Atomic.get c.Rdbms.Exec.scan_hits);
    Alcotest.(check int) "builds + build hits = build requests" build_requests
      (Atomic.get c.Rdbms.Exec.builds + Atomic.get c.Rdbms.Exec.build_hits);
    [ scan_requests; build_requests; counter_value "exec.union.arms" ]
  in
  let t1 = totals () in
  Alcotest.(check bool) "the plan exercises the counters" true
    (List.for_all (fun v -> v > 0) t1);
  Alcotest.(check (list int)) "a second run requests the same" t1 (totals ())

(* {1 EXPLAIN rendering goldens}

   Hand-built plans (no reformulation), so operator order, variable
   names and estimates are fully deterministic. *)

let golden_layout () = Rdbms.Layout.simple_of_abox (Fixtures.example1_abox ())

let render p =
  Rdbms.Explain.render Rdbms.Explain.pglite (golden_layout ()) p

let test_golden_scan () =
  let plan = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y")) in
  Alcotest.(check string) "single scan"
    "Scan worksWith(x,y)  (cost=2 rows=1)\n" (render plan)

let test_golden_join () =
  let plan =
    Rdbms.Plan.Distinct
      (Rdbms.Plan.Project
         {
           input =
             Rdbms.Plan.Hash_join
               {
                 left = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y"));
                 right = Rdbms.Plan.Scan (ra "supervisedBy" (v "z") (v "y"));
                 on = [ "y" ];
               };
           out = [ `Col "x" ];
         })
  in
  Alcotest.(check string) "join under project/distinct"
    "Distinct  (cost=14 rows=1)\n\
     \  Project [x]\n\
     \    Hash Join on [y]  (cost=11 rows=1)\n\
     \      Scan worksWith(x,y)  (cost=2 rows=1)\n\
     \      Scan supervisedBy(z,y)  (cost=3 rows=2)\n"
    (render plan)

let test_golden_union_elision () =
  let arm i =
    Rdbms.Plan.Project
      {
        input = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v (Printf.sprintf "y%d" i)));
        out = [ `Col "x" ];
      }
  in
  let plan =
    Rdbms.Plan.Union { cols = [ "x" ]; inputs = List.init 6 arm }
  in
  Alcotest.(check string) "union elided after four arms"
    "Union of 6 arms  (cost=19 rows=6)\n\
     \  Project [x]\n\
     \    Scan worksWith(x,y0)  (cost=2 rows=1)\n\
     \  Project [x]\n\
     \    Scan worksWith(x,y1)  (cost=2 rows=1)\n\
     \  Project [x]\n\
     \    Scan worksWith(x,y2)  (cost=2 rows=1)\n\
     \  Project [x]\n\
     \    Scan worksWith(x,y3)  (cost=2 rows=1)\n\
     \  ... (2 more arms)\n"
    (render plan)

(* Wall-clock varies run to run; scrub [time=...ms] before comparing. *)
let scrub_times s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 5 <= n && String.sub s !i 5 = "time=" then begin
      Buffer.add_string b "time=X";
      i := !i + 5;
      while !i < n && s.[!i] <> 'm' do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_golden_analyze () =
  let layout = golden_layout () in
  let plan =
    Rdbms.Plan.Distinct
      (Rdbms.Plan.Hash_join
         {
           left = Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y"));
           right = Rdbms.Plan.Scan (ra "supervisedBy" (v "z") (v "y"));
           on = [ "y" ];
         })
  in
  let _, stats =
    Rdbms.Exec.run_analyzed ~config:Rdbms.Exec.db2_like layout plan
  in
  let rendered =
    scrub_times (Rdbms.Explain.render_analyze Rdbms.Explain.pglite layout stats)
  in
  Alcotest.(check string) "analyze rendering (times scrubbed)"
    "Distinct  est(cost=13 rows=1)  act(rows=1 time=Xms)  q-err=1.00\n\
     \  Hash Join on [y]  est(cost=11 rows=1)  act(rows=1 time=Xms, build miss)  \
     q-err=1.00\n\
     \    Scan worksWith(x,y)  est(cost=2 rows=1)  act(rows=1 time=Xms, scan \
     miss)  q-err=1.00\n"
    rendered

(* The batch engine's pipelined index join plus a Materialize fragment
   served by the view store: the first execution misses, the second is
   answered from the store (view hit, no children re-executed). *)
let test_golden_analyze_physical () =
  let layout = golden_layout () in
  let plan =
    Rdbms.Plan.Distinct
      (Rdbms.Plan.Index_join
         {
           left = Rdbms.Plan.Materialize (Rdbms.Plan.Scan (ra "worksWith" (v "x") (v "y")));
           atom = ra "supervisedBy" (v "z") (v "y");
           probe_col = "y";
         })
  in
  let views = Rdbms.Exec.fresh_view_store () in
  let render () =
    let _, stats =
      Rdbms.Exec.run_analyzed ~config:Rdbms.Exec.db2_like ~views layout plan
    in
    scrub_times (Rdbms.Explain.render_analyze Rdbms.Explain.pglite layout stats)
  in
  Alcotest.(check string) "first run misses the view store"
    "Distinct  est(cost=10 rows=1)  act(rows=1 time=Xms)  q-err=1.00\n\
     \  Index Join probe y into supervisedBy(z,y)  est(cost=8 rows=1)  \
     act(rows=1 time=Xms)  q-err=1.00\n\
     \    Materialize  est(cost=4 rows=1)  act(rows=1 time=Xms, view miss)  \
     q-err=1.00\n\
     \      Scan worksWith(x,y)  est(cost=2 rows=1)  act(rows=1 time=Xms, \
     scan miss)  q-err=1.00\n"
    (render ());
  Alcotest.(check string) "second run hits the view store"
    "Distinct  est(cost=10 rows=1)  act(rows=1 time=Xms)  q-err=1.00\n\
     \  Index Join probe y into supervisedBy(z,y)  est(cost=8 rows=1)  \
     act(rows=1 time=Xms)  q-err=1.00\n\
     \    Materialize  est(cost=4 rows=1)  act(rows=1 time=Xms, view hit)  \
     q-err=1.00\n"
    (render ())

let test_analyze_json_valid () =
  let layout, plan = example1_plan () in
  let _, stats = Rdbms.Exec.run_analyzed layout plan in
  check_json "render_analyze_json"
    (Rdbms.Explain.render_analyze_json Rdbms.Explain.pglite layout stats);
  check_json "render_json"
    (Rdbms.Explain.render_json Rdbms.Explain.pglite layout plan)

let test_q_error () =
  Alcotest.(check (float 1e-9)) "overestimate" 4.
    (Rdbms.Explain.q_error ~est:8. ~actual:2);
  Alcotest.(check (float 1e-9)) "underestimate" 4.
    (Rdbms.Explain.q_error ~est:2. ~actual:8);
  Alcotest.(check (float 1e-9)) "perfect" 1.
    (Rdbms.Explain.q_error ~est:5. ~actual:5);
  Alcotest.(check (float 1e-9)) "empty result clamps" 3.
    (Rdbms.Explain.q_error ~est:3. ~actual:0);
  (* Edge cases: both sides clamp below at one row, so a zero estimate
     or an empty result never divides by zero and never reports an
     error below 1. *)
  Alcotest.(check (float 1e-9)) "zero estimate clamps" 5.
    (Rdbms.Explain.q_error ~est:0. ~actual:5);
  Alcotest.(check (float 1e-9)) "zero on both sides is perfect" 1.
    (Rdbms.Explain.q_error ~est:0. ~actual:0);
  Alcotest.(check (float 1e-9)) "fractional estimate clamps" 1.
    (Rdbms.Explain.q_error ~est:0.25 ~actual:1);
  Alcotest.(check bool) "never below one" true
    (Rdbms.Explain.q_error ~est:7. ~actual:7 >= 1.)

(* Touch a couple of Fixtures helpers so the shared module stays
   warning-free regardless of which suites use them. *)
let _ = ca

let suite =
  [
    Alcotest.test_case "metrics: counter incr/add" `Quick test_counter;
    Alcotest.test_case "metrics: idempotent registration" `Quick test_registration;
    Alcotest.test_case "metrics: gauge" `Quick test_gauge;
    Alcotest.test_case "metrics: histogram buckets" `Quick test_histogram;
    Alcotest.test_case "metrics: reset keeps registrations" `Quick test_reset;
    Alcotest.test_case "metrics: JSON/text export" `Quick test_export;
    Alcotest.test_case "trace: record collects ordered events" `Quick
      test_trace_record;
    Alcotest.test_case "trace: sink restored on exception" `Quick
      test_trace_restores_on_exn;
    Alcotest.test_case "trace: GDL emits candidate/chosen" `Quick
      test_gdl_emits_trace;
    Alcotest.test_case "analyze: cardinalities match the result" `Quick
      test_analyze_cardinalities;
    Alcotest.test_case "analyze: identical answers to run" `Quick
      test_analyze_matches_run;
    Alcotest.test_case "metrics: requests = performed + hits" `Quick
      test_metrics_requests_split;
    Alcotest.test_case "explain golden: scan" `Quick test_golden_scan;
    Alcotest.test_case "explain golden: join" `Quick test_golden_join;
    Alcotest.test_case "explain golden: union elision" `Quick
      test_golden_union_elision;
    Alcotest.test_case "explain golden: analyze" `Quick test_golden_analyze;
    Alcotest.test_case "explain golden: analyze index join + view store" `Quick
      test_golden_analyze_physical;
    Alcotest.test_case "explain: JSON renderings are valid" `Quick
      test_analyze_json_valid;
    Alcotest.test_case "explain: q-error" `Quick test_q_error;
  ]
