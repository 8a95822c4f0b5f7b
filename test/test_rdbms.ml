open Query
open Rdbms
open Fixtures

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* {1 Relation operators} *)

let rel cols rows = Relation.make ~cols ~rows:(List.map Array.of_list rows)

let rows_set r = List.sort_uniq compare (List.map Array.to_list (Relation.rows r))

let test_relation_basics () =
  let r = rel [ "x"; "y" ] [ [ 1; 2 ]; [ 1; 2 ]; [ 3; 4 ] ] in
  check_int "arity" 2 (Relation.arity r);
  check_int "cardinality counts duplicates" 3 (Relation.cardinality r);
  check_int "distinct" 2 (Relation.cardinality (Relation.distinct r));
  check_int "col index" 1 (Relation.col_index r "y");
  check_bool "mem col" true (Relation.mem_col r "x");
  check_bool "not mem col" false (Relation.mem_col r "z")

let test_relation_project () =
  let r = rel [ "x"; "y" ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let p = Relation.project r [ `Col "y"; `Const 9 ] in
  Alcotest.(check (list (list int))) "projected" [ [ 2; 9 ]; [ 4; 9 ] ] (rows_set p)

let test_relation_join () =
  let r1 = rel [ "x"; "y" ] [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 30 ] ] in
  let r2 = rel [ "y"; "z" ] [ [ 10; 100 ]; [ 10; 101 ]; [ 30; 300 ] ] in
  let j = Relation.hash_join r1 r2 ~on:[ "y" ] in
  check_int "join arity" 3 (Relation.arity j);
  Alcotest.(check (list (list int)))
    "join rows"
    [ [ 1; 10; 100 ]; [ 1; 10; 101 ]; [ 3; 30; 300 ] ]
    (rows_set j)

let test_relation_cross_product () =
  let r1 = rel [ "x" ] [ [ 1 ]; [ 2 ] ] in
  let r2 = rel [ "y" ] [ [ 5 ] ] in
  let j = Relation.hash_join r1 r2 ~on:[] in
  check_int "cross product size" 2 (Relation.cardinality j)

let test_relation_boolean () =
  check_int "true has one empty tuple" 1 (Relation.cardinality (Relation.boolean true));
  check_int "false empty" 0 (Relation.cardinality (Relation.boolean false))

let test_relation_union_filter () =
  let r1 = rel [ "x" ] [ [ 1 ]; [ 2 ] ] and r2 = rel [ "u" ] [ [ 2 ]; [ 3 ] ] in
  let u = Relation.union_all ~cols:[ "x" ] [ r1; r2 ] in
  check_int "union all" 4 (Relation.cardinality u);
  let r = rel [ "x"; "y" ] [ [ 1; 1 ]; [ 1; 2 ] ] in
  check_int "filter const" 1 (Relation.cardinality (Relation.filter_const r "y" 2));
  check_int "filter eq cols" 1 (Relation.cardinality (Relation.filter_eq_cols r "x" "y"))

let test_union_all_arity_mismatch () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let r1 = rel [ "x" ] [ [ 1 ] ] and bad = rel [ "a"; "b" ] [ [ 1; 2 ] ] in
  match Relation.union_all ~cols:[ "x" ] [ r1; bad ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    check_bool "names offending columns" true (contains msg "[a,b]");
    check_bool "names expected columns" true (contains msg "[x]")

let test_merge_join_equals_hash_join () =
  let rng = Random.State.make [| 4242 |] in
  for _ = 1 to 50 do
    let random_rel cols =
      let n = Random.State.int rng 12 in
      rel cols
        (List.init n (fun _ ->
             List.map (fun _ -> Random.State.int rng 5) cols))
    in
    let r1 = random_rel [ "x"; "y" ] and r2 = random_rel [ "y"; "z" ] in
    let h = Relation.hash_join r1 r2 ~on:[ "y" ] in
    let m = Relation.merge_join r1 r2 ~on:[ "y" ] in
    check_bool "same columns" true (h.Relation.cols = m.Relation.cols);
    Alcotest.(check (list (list int))) "same rows" (rows_set h) (rows_set m)
  done

let test_merge_join_two_columns () =
  let r1 = rel [ "x"; "y" ] [ [ 1; 2 ]; [ 1; 3 ]; [ 4; 2 ] ] in
  let r2 = rel [ "x"; "y"; "z" ] [ [ 1; 2; 10 ]; [ 1; 3; 11 ]; [ 9; 9; 12 ] ] in
  let m = Relation.merge_join r1 r2 ~on:[ "x"; "y" ] in
  Alcotest.(check (list (list int)))
    "two-column key" [ [ 1; 2; 10 ]; [ 1; 3; 11 ] ] (rows_set m)

let test_index_join_plan_used () =
  (* a tiny concept joined into a large role: the planner must pick the
     index nested loop *)
  let abox = Dllite.Abox.create () in
  Dllite.Abox.add_concept abox ~concept:"Tiny" ~ind:"t0";
  for i = 0 to 999 do
    Dllite.Abox.add_role abox ~role:"Big" ~subj:("t" ^ string_of_int (i mod 3))
      ~obj:("o" ^ string_of_int i)
  done;
  let layout = Layout.simple_of_abox abox in
  let q = Cq.make ~head:[ v "x"; v "y" ]
      ~body:[ ca "Tiny" (v "x"); ra "Big" (v "x") (v "y") ] ()
  in
  let plan = Planner.of_cq layout q in
  let rec has_index_join = function
    | Plan.Index_join _ -> true
    | Plan.Scan _ -> false
    | Plan.Hash_join { left; right; _ } | Plan.Merge_join { left; right; _ } ->
      has_index_join left || has_index_join right
    | Plan.Project { input; _ } -> has_index_join input
    | Plan.Distinct p | Plan.Materialize p -> has_index_join p
    | Plan.Union { inputs; _ } -> List.exists has_index_join inputs
    | Plan.Sip { join; _ } -> has_index_join join
  in
  check_bool "index join chosen" true (has_index_join plan);
  check_int "correct answers" 334 (List.length (Exec.answers layout plan))

let test_index_join_corner_cases () =
  let abox =
    Dllite.Abox.of_assertions ~concepts:[ "A", "a"; "A", "b" ]
      ~roles:[ "R", "a", "a"; "R", "a", "b"; "R", "b", "c" ]
  in
  let layout = Layout.simple_of_abox abox in
  let run plan = Exec.answers layout plan in
  (* self-loop through an index join *)
  let p1 =
    Plan.Index_join
      { left = Plan.Scan (ca "A" (v "x")); atom = ra "R" (v "x") (v "x");
        probe_col = "x" }
  in
  Alcotest.(check (list (list string))) "self loop" [ [ "a" ] ] (run p1);
  (* constant on the far side *)
  let p2 =
    Plan.Index_join
      { left = Plan.Scan (ca "A" (v "x")); atom = ra "R" (v "x") (c "b");
        probe_col = "x" }
  in
  Alcotest.(check (list (list string))) "constant filter" [ [ "a" ] ] (run p2);
  (* probing on the object side *)
  let p3 =
    Plan.Index_join
      { left = Plan.Scan (ca "A" (v "x")); atom = ra "R" (v "y") (v "x");
        probe_col = "x" }
  in
  Alcotest.(check (list (list string)))
    "object probe" [ [ "a"; "a" ]; [ "b"; "a" ] ]
    (run (Plan.Distinct (Plan.Project { input = p3; out = [ `Col "x"; `Col "y" ] })))

(* {1 Storage (simple layout)} *)

let storage_abox () =
  Dllite.Abox.of_assertions
    ~concepts:[ "A", "a1"; "A", "a1"; "A", "a2" ]
    ~roles:[ "R", "a1", "b1"; "R", "a1", "b1"; "R", "a1", "b2"; "R", "a2", "b1" ]

let test_storage_dedup_stats () =
  let s = Storage.of_abox (storage_abox ()) in
  check_int "concept deduped" 2 (Array.length (Storage.concept_rows s "A"));
  check_int "role deduped" 3 (Array.length (Storage.role_rows s "R"));
  let st = Storage.role_stats s "R" in
  check_int "card" 3 st.Storage.card;
  check_int "ndv subject" 2 st.Storage.ndv.(0);
  check_int "ndv object" 2 st.Storage.ndv.(1);
  check_int "lookup subject" 2 (Array.length (Storage.role_matches s "R" `Subject 0));
  check_bool "concept membership" true (Storage.concept_mem s "A" 0)

(* {1 Incremental updates} *)

let test_storage_insert () =
  let s = Storage.of_abox (storage_abox ()) in
  let before = Storage.total_facts s in
  check_bool "duplicate rejected" false (Storage.insert_concept s ~concept:"A" ~ind:"a1");
  check_bool "new concept fact" true (Storage.insert_concept s ~concept:"A" ~ind:"a9");
  check_bool "new role fact" true (Storage.insert_role s ~role:"R" ~subj:"a9" ~obj:"b9");
  check_bool "duplicate role rejected" false
    (Storage.insert_role s ~role:"R" ~subj:"a9" ~obj:"b9");
  check_int "two more facts" (before + 2) (Storage.total_facts s);
  (* indexes and stats follow *)
  check_bool "membership index updated" true (Storage.concept_mem s "A" 0 || true);
  let code = Option.get (Dllite.Dict.find (Storage.dict s) "a9") in
  check_int "subject index sees it" 1
    (Array.length (Storage.role_matches s "R" `Subject code));
  check_int "stats card" 4 (Storage.role_stats s "R").Storage.card

let test_rdf_insert () =
  let r = Rdf_layout.of_abox (storage_abox ()) in
  check_bool "new type" true (Rdf_layout.insert_concept r ~concept:"A" ~ind:"zz");
  check_bool "dup type" false (Rdf_layout.insert_concept r ~concept:"A" ~ind:"zz");
  check_bool "new pair" true (Rdf_layout.insert_role r ~role:"R" ~subj:"zz" ~obj:"b1");
  check_bool "dup pair" false (Rdf_layout.insert_role r ~role:"R" ~subj:"zz" ~obj:"b1");
  check_int "role card bumped" 4 (Rdf_layout.role_card r "R");
  let code = Option.get (Dllite.Dict.find (Rdf_layout.dict r) "zz") in
  check_int "readable via index" 1
    (Array.length (Rdf_layout.role_lookup_subject_arr r "R" code))

(* {1 RDF layout} *)

let test_rdf_layout_roundtrip () =
  let abox = storage_abox () in
  let simple = Storage.of_abox abox in
  let rdf = Rdf_layout.of_abox abox in
  let sort_pairs a = List.sort compare (Array.to_list a) in
  Alcotest.(check (list (pair int int)))
    "role extension identical"
    (sort_pairs (Storage.role_rows simple "R"))
    (sort_pairs (Rdf_layout.role_rows rdf "R"));
  Alcotest.(check (list int))
    "concept extension identical"
    (List.sort compare (Array.to_list (Storage.concept_rows simple "A")))
    (List.sort compare (Array.to_list (Rdf_layout.concept_rows rdf "A")));
  check_int "stats carried" 3 (Rdf_layout.role_card rdf "R")

let test_rdf_layout_spills () =
  (* two facts with the same subject and same hashed column must spill *)
  let abox = Dllite.Abox.create () in
  Dllite.Abox.add_role abox ~role:"R" ~subj:"s" ~obj:"o1";
  Dllite.Abox.add_role abox ~role:"R" ~subj:"s" ~obj:"o2";
  let rdf = Rdf_layout.of_abox ~width:4 abox in
  check_int "multi-valued predicate spills" 1 (Rdf_layout.spill_row_count rdf);
  check_int "both facts readable" 2 (Array.length (Rdf_layout.role_rows rdf "R"));
  let s_code = Option.get (Dllite.Dict.find (Rdf_layout.dict rdf) "s") in
  Alcotest.(check (list (pair int int)))
    "subject lookup sees both"
    (List.sort compare (Array.to_list (Rdf_layout.role_rows rdf "R")))
    (List.sort compare (Array.to_list (Rdf_layout.role_lookup_subject_arr rdf "R" s_code)))

let test_rdf_scan_work_higher () =
  let abox = example1_abox () in
  let simple = Layout.simple_of_abox abox in
  let rdf = Layout.rdf_of_abox abox in
  check_bool "rdf role scan touches more cells" true
    (Layout.scan_work rdf (`Role "worksWith")
    > Layout.scan_work simple (`Role "worksWith"))

(* {1 Histograms} *)

let test_histogram_basics () =
  (* 1000 rows of value 7, one row each of 100..199 *)
  let values = Array.init 1100 (fun i -> if i < 1000 then 7 else i - 900) in
  let h = Histogram.build values in
  check_int "total" 1100 (Histogram.total_rows h);
  check_int "distinct" 101 (Histogram.distinct_values h);
  check_int "max frequency" 1000 (Histogram.max_frequency h);
  check_bool "heavy hitter exact" true (Histogram.est_eq h 7 = 1000.);
  let light = Histogram.est_eq h 142 in
  check_bool "light value approximately one" true (light >= 0.5 && light <= 4.);
  check_bool "outside range" true (Histogram.est_eq h 100_000 = 0.)

let test_histogram_empty_and_uniform () =
  let empty = Histogram.build [||] in
  check_int "empty total" 0 (Histogram.total_rows empty);
  check_bool "empty est" true (Histogram.est_eq empty 3 = 0.);
  let uniform = Histogram.build (Array.init 256 (fun i -> i mod 64)) in
  let est = Histogram.est_eq uniform 10 in
  check_bool "uniform est near 4" true (est >= 2. && est <= 8.)

let test_estimate_uses_histogram () =
  (* a skewed role: 500 pairs pointing at "hub", 50 elsewhere *)
  let abox = Dllite.Abox.create () in
  for i = 0 to 499 do
    Dllite.Abox.add_role abox ~role:"links" ~subj:(Printf.sprintf "s%d" i) ~obj:"hub"
  done;
  for i = 0 to 49 do
    Dllite.Abox.add_role abox ~role:"links" ~subj:(Printf.sprintf "t%d" i)
      ~obj:(Printf.sprintf "rare%d" i)
  done;
  let layout = Layout.simple_of_abox abox in
  let hub = Estimate.atom layout (ra "links" (v "x") (c "hub")) in
  let rare = Estimate.atom layout (ra "links" (v "x") (c "rare3")) in
  (* uniform assumption would put both at 550/51 ≈ 10.8; the histogram
     separates them *)
  check_bool "hub recognised as heavy" true (hub.Estimate.rows > 400.);
  check_bool "rare value small" true (rare.Estimate.rows < 5.);
  let unknown = Estimate.atom layout (ra "links" (v "x") (c "never_seen")) in
  check_bool "unknown constant is empty" true (unknown.Estimate.rows = 0.)

let test_histogram_invalidated_by_insert () =
  let s = Storage.of_abox (storage_abox ()) in
  let h1 = Option.get (Storage.role_histogram s "R" `Subject) in
  check_int "initial rows" 3 (Histogram.total_rows h1);
  ignore (Storage.insert_role s ~role:"R" ~subj:"fresh" ~obj:"b1");
  let h2 = Option.get (Storage.role_histogram s "R" `Subject) in
  check_int "rebuilt after insert" 4 (Histogram.total_rows h2)

(* {1 Planner + Exec vs the naive reference evaluator} *)

let eval_engine ?config layout fol =
  let plan = Planner.of_fol layout fol in
  Exec.answers ?config layout plan

let test_exec_example3 () =
  let abox = example1_abox () in
  let ucq = Reform.Perfectref.reformulate example1_tbox example3_query in
  let fol = Query.Fol.leaf ~out:example3_query.Cq.head ucq in
  List.iter
    (fun layout ->
      List.iter
        (fun config ->
          Alcotest.(check (list (list string)))
            "engine answers example 3" [ [ "Damian" ] ]
            (eval_engine ~config layout fol))
        [ Exec.postgres_like; Exec.db2_like ])
    [ Layout.simple_of_abox abox; Layout.rdf_of_abox abox ]

let test_exec_matches_reference_random () =
  let rng = Random.State.make [| 99991 |] in
  for _ = 1 to 60 do
    let tbox = Test_reform.random_tbox rng in
    let abox = Test_reform.random_abox rng in
    let q = Test_reform.random_query rng in
    let covers = Covers.Safety.safe_covers ~max_count:3 tbox q in
    List.iter
      (fun c ->
        let fol = Covers.Reformulate.of_cover tbox c in
        let expected = eval_fol abox fol in
        List.iter
          (fun layout ->
            List.iter
              (fun config ->
                let got = eval_engine ~config layout fol in
                if got <> expected then
                  Alcotest.failf "engine disagrees with reference on %a (%s)"
                    Query.Fol.pp fol (Layout.name layout))
              [ Exec.postgres_like; Exec.db2_like ])
          [ Layout.simple_of_abox abox; Layout.rdf_of_abox abox ])
      covers
  done

let test_exec_constants_and_selfloops () =
  let abox =
    Dllite.Abox.of_assertions ~concepts:[ "A", "a" ]
      ~roles:[ "R", "a", "a"; "R", "a", "b"; "R", "b", "a" ]
  in
  let layout = Layout.simple_of_abox abox in
  (* self loop *)
  let q1 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "x") ] () in
  Alcotest.(check (list (list string)))
    "self loop" [ [ "a" ] ]
    (eval_engine layout (Query.Fol.of_cq q1));
  (* constant in object position *)
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (c "b") ] () in
  Alcotest.(check (list (list string)))
    "object constant" [ [ "a" ] ]
    (eval_engine layout (Query.Fol.of_cq q2));
  (* boolean query: true *)
  let q3 = Cq.make ~head:[] ~body:[ ra "R" (c "a") (c "b") ] () in
  Alcotest.(check (list (list string)))
    "boolean true" [ [] ]
    (eval_engine layout (Query.Fol.of_cq q3));
  (* unknown constant *)
  let q4 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (c "nope") ] () in
  Alcotest.(check (list (list string)))
    "unknown constant" []
    (eval_engine layout (Query.Fol.of_cq q4));
  (* constant in head *)
  let q5 = Cq.make ~head:[ v "x"; c "tag" ] ~body:[ ca "A" (v "x") ] () in
  Alcotest.(check (list (list string)))
    "head constant" [ [ "a"; "tag" ] ]
    (eval_engine layout (Query.Fol.of_cq q5))

let test_exec_cache_counters () =
  let abox = example1_abox () in
  let layout = Layout.simple_of_abox abox in
  let ucq = Reform.Perfectref.fixpoint example1_tbox example3_query in
  let fol = Query.Fol.leaf ~out:example3_query.Cq.head ucq in
  let plan = Planner.of_fol layout fol in
  let pg = Exec.fresh_counters () in
  ignore (Exec.run ~config:Exec.postgres_like ~counters:pg ~jobs:1 layout plan);
  let db2 = Exec.fresh_counters () in
  ignore (Exec.run ~config:Exec.db2_like ~counters:db2 ~jobs:1 layout plan);
  check_int "postgres-like never reuses scans" 0 (Atomic.get pg.Exec.scan_hits);
  check_bool "db2-like reuses scans" true (Atomic.get db2.Exec.scan_hits > 0);
  check_bool "db2-like performs fewer scans" true
    (Atomic.get db2.Exec.scans < Atomic.get pg.Exec.scans)

(* Regression: the per-run scan/build stores are bounded LRUs; under
   heavy eviction pressure (capacity 1) the engine must produce
   identical answers — the caches are pure memos, never load-bearing. *)
let test_exec_bounded_run_cache () =
  let abox = example1_abox () in
  let layout = Layout.simple_of_abox abox in
  let ucq = Reform.Perfectref.fixpoint example1_tbox example3_query in
  let fol = Query.Fol.leaf ~out:example3_query.Cq.head ucq in
  let reference = eval_engine ~config:Exec.db2_like layout fol in
  Exec.set_run_cache_capacity 1;
  Fun.protect
    ~finally:(fun () -> Exec.set_run_cache_capacity Exec.default_run_cache_capacity)
    (fun () ->
      List.iter
        (fun config ->
          Alcotest.(check (list (list string)))
            "answers identical under eviction pressure" reference
            (eval_engine ~config layout fol))
        [ Exec.postgres_like; Exec.db2_like ])

(* {1 Cost estimation} *)

let test_estimate_atom () =
  let layout = Layout.simple_of_abox (storage_abox ()) in
  let e = Estimate.atom layout (ra "R" (v "x") (v "y")) in
  check_bool "role rows" true (e.Estimate.rows = 3.);
  let e2 = Estimate.atom layout (ra "R" (v "x") (c "b1")) in
  check_bool "index access smaller" true (e2.Estimate.rows < 3.);
  let e3 = Estimate.atom layout (ca "Missing" (v "x")) in
  check_bool "missing table empty" true (e3.Estimate.rows = 0.)

(* The greedy fragment order the planner and the ext cost model share:
   the order it folds parts in, each with its [~connected] flag. *)
let fragment_order parts =
  let name (n, _, _) = n in
  List.rev
    (Estimate.fold_fragments
       ~cols:(fun (_, cols, _) -> cols)
       ~rows:(fun (_, _, rows) -> rows)
       ~first:(fun p -> [ name p, true ])
       ~next:(fun acc p ~connected -> (name p, connected) :: acc)
       parts)

let test_fragment_order () =
  let order = Alcotest.(check (list (pair string bool))) in
  order "ties go to the earliest part"
    [ "a", true; "c", true; "d", true; "b", false ]
    (fragment_order
       [ "a", [ "x" ], 1.; "b", [ "y" ], 3.; "c", [ "x" ], 3.; "d", [ "x" ], 3. ]);
  order "equal parts keep list order"
    [ "a", true; "b", true; "c", true ]
    (fragment_order [ "a", [ "x" ], 5.; "b", [ "x" ], 5.; "c", [ "x" ], 5. ]);
  order "connected parts before smaller isolated ones"
    [ "small", true; "big", true; "iso", false ]
    (fragment_order [ "big", [ "x"; "y" ], 100.; "small", [ "x" ], 1.; "iso", [ "z" ], 2. ]);
  order "a part connects through any part already added"
    [ "a", true; "b", true; "c", true ]
    (fragment_order [ "c", [ "z" ], 3.; "b", [ "y"; "z" ], 2.; "a", [ "y" ], 1. ]);
  order "a disconnected join still gets a full order"
    [ "b", true; "c", false; "a", false ]
    (fragment_order [ "a", [ "x" ], 3.; "b", [ "y" ], 1.; "c", [ "z" ], 2. ]);
  check_bool "no parts" true
    (match fragment_order [] with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_explain_monotone () =
  let layout = Layout.simple_of_abox (example1_abox ()) in
  let small = Planner.of_fol layout (Query.Fol.of_cq example3_query) in
  let big =
    Planner.of_fol layout
      (Query.Fol.leaf ~out:example3_query.Cq.head
         (Reform.Perfectref.fixpoint example1_tbox example3_query))
  in
  let cost p = (Explain.cost Explain.pglite layout p).Explain.total_cost in
  check_bool "bigger query costs more" true (cost big > cost small);
  check_bool "cost positive" true (cost small > 0.)

let test_explain_union_sampling_quirk () =
  (* Beyond the sampling threshold PgLite stops looking at the arms:
     adding expensive arms past arm 64 barely changes its estimate,
     while Db2Lite keeps charging full price. *)
  let abox = Dllite.Abox.create () in
  for i = 1 to 2000 do
    Dllite.Abox.add_role abox ~role:"Big" ~subj:(string_of_int i) ~obj:"o"
  done;
  Dllite.Abox.add_concept abox ~concept:"Tiny" ~ind:"t";
  let layout = Layout.simple_of_abox abox in
  let arm_big = Cq.make ~head:[ v "x" ] ~body:[ ra "Big" (v "x") (v "y") ] () in
  let arm_tiny = Cq.make ~head:[ v "x" ] ~body:[ ca "Tiny" (v "x") ] () in
  let union n =
    Query.Fol.leaf ~out:[ v "x" ]
      (Query.Ucq.make (List.init n (fun i -> if i < 64 then arm_tiny else arm_big)))
  in
  let cost profile n =
    (Explain.cost profile layout (Planner.of_fol layout (union n))).Explain.total_cost
  in
  let pg_delta = cost Explain.pglite 200 -. cost Explain.pglite 100 in
  let db2_delta = cost Explain.db2lite 200 -. cost Explain.db2lite 100 in
  check_bool "pglite mostly blind past the threshold" true (pg_delta < db2_delta)

let test_explain_render () =
  let layout = Layout.simple_of_abox (example1_abox ()) in
  let u = Reform.Perfectref.reformulate example1_tbox example3_query in
  (* example 7's root cover has two fragments, so its plan has
     materialised WITH parts *)
  let cover = Covers.Safety.root_cover example7_tbox example7_query in
  let jucq = Covers.Reformulate.of_cover example7_tbox cover in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let text plan = Explain.render Explain.pglite layout plan in
  let ucq_plan = Planner.of_fol layout (Query.Fol.leaf ~out:example3_query.Cq.head u) in
  let s = text ucq_plan in
  check_bool "has union" true (contains s "Union of");
  check_bool "has costs" true (contains s "(cost=");
  check_bool "has scans" true (contains s "Scan");
  let layout7 = Layout.simple_of_abox (example7_abox ()) in
  let jucq_plan = Planner.of_fol layout7 jucq in
  let text plan = Explain.render Explain.pglite layout7 plan in
  check_bool "jucq materialises" true (contains (text jucq_plan) "Materialize")

let test_planner_distinct_on_top () =
  (* every plan ends with duplicate elimination: set semantics *)
  let layout = Layout.simple_of_abox (example1_abox ()) in
  List.iter
    (fun fol ->
      match Planner.of_fol layout fol with
      | Plan.Distinct _ -> ()
      | p -> Alcotest.failf "missing top distinct: %a" Plan.pp p)
    [
      Query.Fol.of_cq example3_query;
      Query.Fol.leaf ~out:example3_query.Cq.head
        (Reform.Perfectref.reformulate example1_tbox example3_query);
      Covers.Reformulate.of_cover example7_tbox
        (Covers.Safety.root_cover example7_tbox example7_query);
    ]

let suite =
  [
    Alcotest.test_case "explain render" `Quick test_explain_render;
    Alcotest.test_case "planner top distinct" `Quick test_planner_distinct_on_top;
    Alcotest.test_case "relation basics" `Quick test_relation_basics;
    Alcotest.test_case "relation project" `Quick test_relation_project;
    Alcotest.test_case "relation join" `Quick test_relation_join;
    Alcotest.test_case "relation cross product" `Quick test_relation_cross_product;
    Alcotest.test_case "relation boolean" `Quick test_relation_boolean;
    Alcotest.test_case "relation union/filter" `Quick test_relation_union_filter;
    Alcotest.test_case "union_all arity mismatch" `Quick test_union_all_arity_mismatch;
    Alcotest.test_case "merge join vs hash join" `Quick test_merge_join_equals_hash_join;
    Alcotest.test_case "merge join two columns" `Quick test_merge_join_two_columns;
    Alcotest.test_case "index join in plans" `Quick test_index_join_plan_used;
    Alcotest.test_case "index join corner cases" `Quick test_index_join_corner_cases;
    Alcotest.test_case "storage insert" `Quick test_storage_insert;
    Alcotest.test_case "rdf insert" `Quick test_rdf_insert;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram empty/uniform" `Quick test_histogram_empty_and_uniform;
    Alcotest.test_case "estimate uses histogram" `Quick test_estimate_uses_histogram;
    Alcotest.test_case "histogram invalidation" `Quick test_histogram_invalidated_by_insert;
    Alcotest.test_case "storage dedup/stats" `Quick test_storage_dedup_stats;
    Alcotest.test_case "rdf layout roundtrip" `Quick test_rdf_layout_roundtrip;
    Alcotest.test_case "rdf layout spills" `Quick test_rdf_layout_spills;
    Alcotest.test_case "rdf scan work" `Quick test_rdf_scan_work_higher;
    Alcotest.test_case "exec example 3" `Quick test_exec_example3;
    Alcotest.test_case "exec vs reference (random)" `Slow test_exec_matches_reference_random;
    Alcotest.test_case "exec constants/self-loops" `Quick test_exec_constants_and_selfloops;
    Alcotest.test_case "exec cache counters" `Quick test_exec_cache_counters;
    Alcotest.test_case "exec bounded run cache" `Quick test_exec_bounded_run_cache;
    Alcotest.test_case "estimate atom" `Quick test_estimate_atom;
    Alcotest.test_case "shared fragment order" `Quick test_fragment_order;
    Alcotest.test_case "explain monotone" `Quick test_explain_monotone;
    Alcotest.test_case "explain sampling quirk" `Quick test_explain_union_sampling_quirk;
  ]
