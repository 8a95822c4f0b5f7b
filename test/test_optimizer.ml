open Covers
open Fixtures

let check_bool = Alcotest.(check bool)

let pg_engine abox = Rdbms.Layout.simple_of_abox abox

let rdbms_estimator layout = Optimizer.Estimator.rdbms Rdbms.Explain.pglite layout

let ext_estimator layout =
  Optimizer.Estimator.ext (Cost.Cost_model.calibrated `Pglite) layout

(* {1 GDL} *)

let test_gdl_example7 () =
  let layout = pg_engine (example7_abox ()) in
  List.iter
    (fun est ->
      let r = Optimizer.Gdl.search example7_tbox est example7_query in
      check_bool "result in Gq" true (Generalized.in_gq example7_tbox r.Optimizer.Gdl.cover);
      (* the chosen reformulation must still be correct *)
      Alcotest.(check (list (list string)))
        "gdl reformulation answers" [ [ "Damian" ] ]
        (eval_fol (example7_abox ()) r.Optimizer.Gdl.reformulation);
      (* greedy never does worse than its starting point *)
      let root =
        Reformulate.of_generalized example7_tbox
          (Generalized.of_cover (Safety.root_cover example7_tbox example7_query))
      in
      check_bool "no worse than root cover" true
        (r.Optimizer.Gdl.est_cost <= est.Optimizer.Estimator.estimate root +. 1e-9);
      check_bool "explored at least the root" true (r.Optimizer.Gdl.explored_total >= 1))
    [ rdbms_estimator layout; ext_estimator layout ]

let test_gdl_explores_more_than_root () =
  let layout = pg_engine (example7_abox ()) in
  let r = Optimizer.Gdl.search example7_tbox (ext_estimator layout) example7_query in
  check_bool "some covers explored" true (r.Optimizer.Gdl.explored_total >= 2);
  check_bool "simple within total" true
    (r.Optimizer.Gdl.explored_simple <= r.Optimizer.Gdl.explored_total)

let test_gdl_time_limited () =
  let layout = pg_engine (example7_abox ()) in
  let r =
    Optimizer.Gdl.search ~time_budget:10.0 example7_tbox (ext_estimator layout)
      example7_query
  in
  check_bool "budget not hit on tiny query" false r.Optimizer.Gdl.timed_out;
  (* an absurdly small budget still returns a valid cover *)
  let r2 =
    Optimizer.Gdl.search ~time_budget:0.000001 example7_tbox (ext_estimator layout)
      example7_query
  in
  check_bool "valid cover under pressure" true
    (Generalized.in_gq example7_tbox r2.Optimizer.Gdl.cover);
  Alcotest.(check (list (list string)))
    "still correct answers" [ [ "Damian" ] ]
    (eval_fol (example7_abox ()) r2.Optimizer.Gdl.reformulation)

(* Regression: search deadlines and timings run on the monotonic
   clock ({!Obs.Mclock}); reported times must never be negative, and a
   zero budget must report a timeout rather than looping or going
   negative under a clock step. *)
let test_monotonic_times () =
  let layout = pg_engine (example7_abox ()) in
  let est = ext_estimator layout in
  (* at one job the estimator and reformulation timings are disjoint
     slices of the search's own wall time *)
  let g = Optimizer.Gdl.search ~jobs:1 example7_tbox est example7_query in
  check_bool "gdl search_time >= 0" true (g.Optimizer.Gdl.search_time >= 0.);
  check_bool "gdl cost_time >= 0" true (g.Optimizer.Gdl.cost_time >= 0.);
  check_bool "gdl reform_time >= 0" true (g.Optimizer.Gdl.reform_time >= 0.);
  check_bool "cost within search" true
    (g.Optimizer.Gdl.cost_time <= g.Optimizer.Gdl.search_time);
  check_bool "cost and reformulation within search" true
    (g.Optimizer.Gdl.cost_time +. g.Optimizer.Gdl.reform_time
    <= g.Optimizer.Gdl.search_time);
  let e = Optimizer.Edl.search example7_tbox est example7_query in
  check_bool "edl search_time >= 0" true (e.Optimizer.Edl.search_time >= 0.);
  let z =
    Optimizer.Gdl.search ~time_budget:0.0 example7_tbox est example7_query
  in
  check_bool "zero budget times out" true z.Optimizer.Gdl.timed_out;
  check_bool "zero budget time >= 0" true (z.Optimizer.Gdl.search_time >= 0.)

(* {1 EDL} *)

let test_edl_example7 () =
  let layout = pg_engine (example7_abox ()) in
  let est = ext_estimator layout in
  let e = Optimizer.Edl.search example7_tbox est example7_query in
  check_bool "explores several covers" true (e.Optimizer.Edl.covers_examined >= 2);
  check_bool "not capped on tiny query" false e.Optimizer.Edl.capped;
  Alcotest.(check (list (list string)))
    "edl answers" [ [ "Damian" ] ]
    (eval_fol (example7_abox ()) e.Optimizer.Edl.reformulation);
  (* exhaustive is at least as good as greedy under the same ε *)
  let g = Optimizer.Gdl.search example7_tbox est example7_query in
  check_bool "edl <= gdl" true
    (e.Optimizer.Edl.est_cost <= g.Optimizer.Gdl.est_cost +. 1e-9)

let test_edl_cap () =
  let layout = pg_engine (example7_abox ()) in
  let e =
    Optimizer.Edl.search ~max_covers:1 example7_tbox (ext_estimator layout)
      example7_query
  in
  check_bool "cap reported" true e.Optimizer.Edl.capped;
  Alcotest.(check int) "examined exactly the cap" 1 e.Optimizer.Edl.covers_examined

(* {1 GDL correctness on random KBs} *)

let test_gdl_random_correct () =
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 25 do
    let tbox = Test_reform.random_tbox rng in
    let abox = Test_reform.random_abox rng in
    let q = Test_reform.random_query rng in
    let layout = pg_engine abox in
    let expected = Dllite.Chase.certain_answers tbox abox q in
    List.iter
      (fun est ->
        let r = Optimizer.Gdl.search tbox est q in
        let got = eval_fol abox r.Optimizer.Gdl.reformulation in
        if got <> expected then
          Alcotest.failf "GDL(%s) broke correctness on %a" est.Optimizer.Estimator.name
            Query.Cq.pp q)
      [ rdbms_estimator layout; ext_estimator layout ]
  done

let test_gdl_lq_space () =
  (* the Lq-restricted search returns a simple cover and never beats
     the full Gq search under the same estimator *)
  let layout = pg_engine (example7_abox ()) in
  let est = ext_estimator layout in
  let lq = Optimizer.Gdl.search ~space:`Lq example7_tbox est example7_query in
  let gq = Optimizer.Gdl.search ~space:`Gq example7_tbox est example7_query in
  check_bool "lq result is simple" true (Generalized.is_simple lq.Optimizer.Gdl.cover);
  check_bool "gq at least as good" true
    (gq.Optimizer.Gdl.est_cost <= lq.Optimizer.Gdl.est_cost +. 1e-9);
  Alcotest.(check (list (list string)))
    "lq result still correct" [ [ "Damian" ] ]
    (eval_fol (example7_abox ()) lq.Optimizer.Gdl.reformulation)

let test_estimators_positive () =
  let layout = pg_engine (example7_abox ()) in
  let fol = Reformulate.ucq example7_tbox example7_query in
  List.iter
    (fun est ->
      check_bool
        (est.Optimizer.Estimator.name ^ " cost positive")
        true
        (est.Optimizer.Estimator.estimate fol > 0.))
    [ rdbms_estimator layout; ext_estimator layout ]

let suite =
  [
    Alcotest.test_case "gdl lq space" `Quick test_gdl_lq_space;
    Alcotest.test_case "estimators positive" `Quick test_estimators_positive;
    Alcotest.test_case "gdl example 7" `Quick test_gdl_example7;
    Alcotest.test_case "gdl exploration counts" `Quick test_gdl_explores_more_than_root;
    Alcotest.test_case "gdl time limited" `Quick test_gdl_time_limited;
    Alcotest.test_case "monotonic search times" `Quick test_monotonic_times;
    Alcotest.test_case "edl example 7" `Quick test_edl_example7;
    Alcotest.test_case "edl cap" `Quick test_edl_cap;
    Alcotest.test_case "gdl random correctness" `Slow test_gdl_random_correct;
  ]
