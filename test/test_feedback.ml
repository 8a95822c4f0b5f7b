(* The feedback loop: correction keys, EWMA aggregation, persistence,
   drift-triggered plan re-ranking, and the invariant that corrections
   move only costs — never answers. *)

open Fixtures
module F = Cost.Feedback

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let tmp_file name = Filename.concat (Filename.get_temp_dir_name ()) name

(* {1 Keys} *)

let test_atom_keys () =
  check_string "concept over a variable" "a:c*A" (F.atom_key (ca "A" (v "x")));
  check_string "concept over a constant" "a:c!A" (F.atom_key (ca "A" (c "joe")));
  check_string "role, both variables" "a:r**R" (F.atom_key (ra "R" (v "x") (v "y")));
  check_string "role, constant object" "a:r*!R" (F.atom_key (ra "R" (v "x") (c "o")));
  check_string "self-loop tagged apart" "a:r**=R" (F.atom_key (ra "R" (v "x") (v "x")));
  (* variable names are erased: renamed copies share the key *)
  check_string "alpha-renaming invariant"
    (F.atom_key (ra "R" (v "x") (v "y")))
    (F.atom_key (ra "R" (v "a") (v "b")));
  (* but distinct constants also share: corrections are per binding
     pattern, not per individual *)
  check_string "constants share a pattern key"
    (F.atom_key (ca "A" (c "joe")))
    (F.atom_key (ca "A" (c "ann")))

let test_multi_atom_keys () =
  let a1 = ca "A" (v "x") and a2 = ra "R" (v "x") (v "y") in
  check_string "join key is order-insensitive"
    (F.atoms_key ~tag:"j" [ a1; a2 ])
    (F.atoms_key ~tag:"j" [ a2; a1 ]);
  check_string "join key spells the shapes" "j:c*A,r**R"
    (F.atoms_key ~tag:"j" [ a2; a1 ]);
  check_string "distinct wraps" "d:j:c*A,r**R"
    (F.distinct_key (F.atoms_key ~tag:"j" [ a1; a2 ]));
  (* very wide shapes compress to a digest, deterministically *)
  let wide =
    List.init 40 (fun i -> ca (Printf.sprintf "Concept%d" i) (v "x"))
  in
  let k = F.atoms_key ~tag:"u" wide in
  check_bool "wide key is digested" true (String.length k < 40);
  check_string "digest keeps the tag prefix" "u:" (String.sub k 0 2);
  check_string "digest is deterministic" k (F.atoms_key ~tag:"u" wide)

(* {1 Aggregation} *)

let test_ewma_and_threshold () =
  let t = F.create ~alpha:0.5 ~min_obs:2 () in
  check_int "fresh epoch" 0 (F.epoch t);
  F.observe t ~key:"k" ~est:10. ~actual:40;
  check_bool "below min_obs: no factor" true (F.factor t "k" = None);
  check_bool "below min_obs: untrained" false (F.trained (Some t));
  F.observe t ~key:"k" ~est:10. ~actual:10;
  (* samples 4 then 1; EWMA at alpha 1/2: 0.5*4 + 0.5*1 *)
  (match F.factor t "k" with
  | Some f -> Alcotest.(check (float 1e-9)) "EWMA of the samples" 2.5 f
  | None -> Alcotest.fail "factor expected at min_obs");
  check_bool "trained now" true (F.trained (Some t));
  check_int "epoch counts observations" 2 (F.epoch t);
  (* a zero actual corrects toward one row, never toward zero *)
  let t2 = F.create ~alpha:1.0 ~min_obs:1 () in
  F.observe t2 ~key:"z" ~est:50. ~actual:0;
  (match F.factor t2 "z" with
  | Some f -> Alcotest.(check (float 1e-9)) "empty result clamps to 1/est" 0.02 f
  | None -> Alcotest.fail "factor expected");
  (* scale clamps per-column distinct counts to the corrected rows *)
  let e = { Rdbms.Estimate.rows = 100.; ndv = [ "x", 80.; "y", 3. ] } in
  let s = F.scale e 0.05 in
  Alcotest.(check (float 1e-9)) "scaled rows" 5. s.Rdbms.Estimate.rows;
  check_bool "ndv capped at rows" true
    (List.assoc "x" s.Rdbms.Estimate.ndv = 5.);
  check_bool "small ndv untouched" true (List.assoc "y" s.Rdbms.Estimate.ndv = 3.)

let test_clear_advances_epoch () =
  let t = F.create ~min_obs:1 () in
  F.observe t ~key:"k" ~est:1. ~actual:10;
  let e1 = F.epoch t in
  F.clear t;
  check_bool "clear drops the corrections" true (F.entries t = []);
  check_bool "clear advances the epoch" true (F.epoch t > e1);
  check_bool "cleared store is untrained" false (F.trained (Some t))

let qcheck_factors_clamped_monotone =
  QCheck2.Test.make
    ~name:"feedback: factors stay clamped; larger actuals never shrink them"
    ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xFBC; seed |] in
      let clamp = 2. +. Random.State.float st 100. in
      let t = F.create ~clamp ~min_obs:1 () in
      let keys = [| "k0"; "k1"; "k2" |] in
      for _ = 1 to 40 do
        F.observe t
          ~key:keys.(Random.State.int st 3)
          ~est:(Random.State.float st 1_000_000.)
          ~actual:(Random.State.int st 1_000_000)
      done;
      let clamped =
        List.for_all
          (fun (_, f, _) -> f >= (1. /. clamp) -. 1e-9 && f <= clamp +. 1e-9)
          (F.entries t)
      in
      (* monotone in the observation: from identical states, the store
         that saw the larger actual never reports the smaller factor *)
      let est = 1. +. Random.State.float st 1000. in
      let a1 = Random.State.int st 10_000 in
      let a2 = a1 + Random.State.int st 10_000 in
      let branch actual =
        let u = F.create ~clamp ~min_obs:1 () in
        F.observe u ~key:"m" ~est ~actual;
        match F.factor u "m" with Some f -> f | None -> nan
      in
      clamped && branch a1 <= branch a2 +. 1e-9)

(* {1 Persistence: the OBDAFBK1 format} *)

let test_save_load_roundtrip () =
  let t = F.create ~alpha:0.25 ~clamp:64. ~min_obs:3 () in
  F.observe t ~key:"a:c*A" ~est:10. ~actual:40;
  F.observe t ~key:"a:c*A" ~est:10. ~actual:20;
  F.observe t ~key:"d:j:c*A,r**R" ~est:1000. ~actual:2;
  let file = tmp_file "fb_roundtrip.obdafbk" in
  F.save t file;
  let u = F.load_exn file in
  Sys.remove file;
  check_bool "entries survive" true (F.entries t = F.entries u);
  let s = F.stats t and s' = F.stats u in
  check_int "epoch survives" s.F.epoch s'.F.epoch;
  check_int "observations survive" s.F.observations s'.F.observations;
  check_int "min_obs survives" s.F.min_obs s'.F.min_obs;
  Alcotest.(check (float 1e-12)) "alpha survives" s.F.alpha s'.F.alpha;
  Alcotest.(check (float 1e-12)) "clamp survives" s.F.clamp s'.F.clamp;
  check_int "ready count rebuilt" s.F.ready s'.F.ready

let test_load_rejects_corruption () =
  let write name content =
    let file = tmp_file name in
    let oc = open_out_bin file in
    output_string oc content;
    close_out oc;
    file
  in
  let expect_error label content =
    let file = write "fb_corrupt.obdafbk" content in
    (match F.load file with
    | Error msg ->
      check_bool (label ^ ": message names the file") true
        (String.length msg > 0)
    | Ok _ -> Alcotest.failf "%s: corrupt store loaded" label);
    Sys.remove file
  in
  expect_error "empty file" "";
  expect_error "bad magic" "NOTAFBK1 1\n";
  expect_error "bad version" "OBDAFBK1 9\nalpha 0.5\n";
  expect_error "missing field" "OBDAFBK1 1\nclamp 256\n";
  expect_error "alpha out of range" "OBDAFBK1 1\nalpha 7\nclamp 256\nmin_obs 2\nepoch 0\nobservations 0\nentries 0\n";
  expect_error "non-numeric field" "OBDAFBK1 1\nalpha x\nclamp 256\nmin_obs 2\nepoch 0\nobservations 0\nentries 0\n";
  expect_error "truncated entries" "OBDAFBK1 1\nalpha 0.5\nclamp 256\nmin_obs 2\nepoch 3\nobservations 3\nentries 2\n3 1.5 a:c*A\n";
  expect_error "factor outside clamp" "OBDAFBK1 1\nalpha 0.5\nclamp 256\nmin_obs 2\nepoch 1\nobservations 1\nentries 1\n1 9999 a:c*A\n";
  expect_error "non-finite factor" "OBDAFBK1 1\nalpha 0.5\nclamp 256\nmin_obs 2\nepoch 1\nobservations 1\nentries 1\n1 nan a:c*A\n";
  expect_error "zero observation count" "OBDAFBK1 1\nalpha 0.5\nclamp 256\nmin_obs 2\nepoch 1\nobservations 1\nentries 1\n0 1.5 a:c*A\n";
  expect_error "duplicate key" "OBDAFBK1 1\nalpha 0.5\nclamp 256\nmin_obs 2\nepoch 2\nobservations 2\nentries 2\n1 1.5 a:c*A\n1 2.0 a:c*A\n";
  expect_error "trailing data" "OBDAFBK1 1\nalpha 0.5\nclamp 256\nmin_obs 2\nepoch 1\nobservations 1\nentries 1\n1 1.5 a:c*A\nextra\n";
  (* a missing file is an Error too, never an exception *)
  match F.load (tmp_file "fb_definitely_missing.obdafbk") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded"

(* 1–3 random byte changes, or a truncation, of an OBDAFBK1 file
   trained on Q1–Q13: [load] returns [Error], or a store under which
   GDL/ext answers Q1–Q13 as UCQ does. A changed factor or key may move
   the estimates and the chosen covers, never the answers. *)
let qcheck_corrupt_store =
  let tbox = Lubm.Ontology.tbox and gdl = Obda.Gdl Obda.Ext_cost in
  let queries = List.map (fun e -> e.Lubm.Workload.query) Lubm.Workload.queries in
  let trained =
    lazy
      (let engine =
         Obda.make_engine `Pglite `Simple (Lubm.Generator.generate ~seed:31 ~target_facts:250 ())
       in
       for _ = 1 to 2 do
         List.iter (fun q -> ignore (Obda.analyze engine tbox gdl q)) queries
       done;
       let file = tmp_file "fb_trained.obdafbk" in
       F.save (Option.get (Obda.feedback_store engine)) file;
       let bytes = read_bytes file in
       Sys.remove file;
       engine, bytes, List.map (Obda.answers_exn engine tbox Obda.Ucq) queries)
  in
  qcheck_corruption ~name:"persistence: random corruption = Error or the same answers"
    (lazy
      (let _, bytes, _ = Lazy.force trained in
       bytes))
    (fun file ->
      match F.load file with
      | Error _ -> true
      | Ok store ->
        let engine, _, ucq = Lazy.force trained in
        Obda.set_feedback_store engine (Some store);
        (* search again under the loaded corrections *)
        Obda.clear_plan_cache ();
        List.map (Obda.answers_exn engine tbox gdl) queries = ucq)

(* {1 The loop: analyze -> harvest -> corrected estimates -> re-rank} *)

(* Two roles that never join: every R-edge ends in [a], every S-edge
   leaves [b]. One distinct value on the join column on each side
   drives the containment-assumption estimate to |R| x |S| = 400 rows
   where the actual join is empty — a 400x drift, far past the 4x
   threshold, that per-atom statistics cannot see. *)
let skewed_abox () =
  let a = Dllite.Abox.create () in
  for i = 0 to 19 do
    Dllite.Abox.add_role a ~role:"R" ~subj:(Printf.sprintf "x%d" i) ~obj:"a";
    Dllite.Abox.add_role a ~role:"S" ~subj:"b" ~obj:(Printf.sprintf "z%d" i)
  done;
  a

let rare_query =
  Query.Cq.make ~head:[ v "x"; v "z" ]
    ~body:[ ra "R" (v "x") (v "y"); ra "S" (v "y") (v "z") ] ()

let test_analyze_harvests_and_reranks () =
  let engine = Obda.make_engine `Pglite `Simple (skewed_abox ()) in
  let tbox = Dllite.Tbox.empty in
  let strategy = Obda.Gdl Obda.Ext_cost in
  Obda.clear_plan_cache ();
  let a1 = Obda.analyze engine tbox strategy rare_query in
  check_bool "static estimate drifts past the threshold" true
    (a1.Obda.a_q_error > Obda.default_drift_threshold);
  check_bool "observations harvested" true (a1.Obda.a_harvested > 0);
  check_bool "drifted plan dropped for re-ranking" true a1.Obda.a_reranked;
  (* the drop is visible: the next call re-optimises *)
  let o2 = Obda.answer engine tbox strategy rare_query in
  check_bool "re-optimised after the drop" false o2.Obda.plan_cached;
  (* one more analyzed run crosses min_obs; the corrected estimate
     then tracks the observed cardinality and the drift clears *)
  let a2 = Obda.analyze engine tbox strategy rare_query in
  let a3 = Obda.analyze engine tbox strategy rare_query in
  check_bool "corrected q-error collapses" true
    (a3.Obda.a_q_error < a1.Obda.a_q_error /. 4.);
  check_bool "no drift under corrected estimates" false a3.Obda.a_reranked;
  let o4 = Obda.answer engine tbox strategy rare_query in
  check_bool "plan cache stable once corrected" true o4.Obda.plan_cached;
  (* every run returned the same answers *)
  let rows o = match o.Obda.answers with Ok r -> r | Error e -> failwith e in
  check_bool "answers never moved" true
    (rows a1.Obda.a_outcome = rows o2
    && rows a2.Obda.a_outcome = rows o2
    && rows a3.Obda.a_outcome = rows o2
    && rows o4 = rows o2);
  (* the engine's ext estimator (what EXPLAIN prints) reads the
     trained store; detaching it restores the static estimate *)
  let fol = (Obda.prepare engine tbox strategy rare_query).Obda.reformulation in
  let ext_cost () = (Obda.estimator engine Obda.Ext_cost).Optimizer.Estimator.estimate fol in
  let trained = ext_cost () in
  Obda.set_feedback engine false;
  check_bool "ext estimate uses the engine's store" true (trained <> ext_cost ())

let test_feedback_toggle_and_metrics () =
  let engine = Obda.make_engine `Pglite `Simple (skewed_abox ()) in
  let tbox = Dllite.Tbox.empty in
  check_bool "engines are born with a store" true (Obda.feedback_enabled engine);
  let obs_of () =
    match Obs.Metrics.find_counter "feedback.observations" with
    | Some cnt -> Obs.Metrics.counter_value cnt
    | None -> Alcotest.fail "feedback.observations not registered"
  in
  (* detached store: analyze still answers but harvests nothing *)
  Obda.set_feedback engine false;
  let before = obs_of () in
  let a = Obda.analyze engine tbox (Obda.Gdl Obda.Ext_cost) rare_query in
  check_int "no harvest when disabled" 0 a.Obda.a_harvested;
  check_int "counter untouched when disabled" before (obs_of ());
  Obda.set_feedback engine true;
  let a2 = Obda.analyze engine tbox (Obda.Gdl Obda.Ext_cost) rare_query in
  check_bool "harvest resumes" true (a2.Obda.a_harvested > 0);
  check_int "counter tracks the harvest" (before + a2.Obda.a_harvested) (obs_of ())

(* The headline invariant, property-tested: reformulations are
   answer-equivalent, so corrections may move which cover wins but
   never what it returns — across random TBoxes, ABoxes, queries and
   strategies, trained on the query's own EXPLAIN ANALYZE runs. *)
let qcheck_feedback_preserves_answers =
  QCheck2.Test.make ~name:"feedback: trained answers = untrained answers"
    ~count:25
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| 0xFB0; seed |] in
      let tbox = Test_reform.random_tbox rng in
      let abox = Test_reform.random_abox rng in
      let q = Test_reform.random_query rng in
      let strategy =
        List.nth
          [
            Obda.Ucq; Obda.Croot; Obda.Gdl Obda.Ext_cost;
            Obda.Gdl Obda.Rdbms_cost; Obda.Edl Obda.Ext_cost;
          ]
          (Random.State.int rng 5)
      in
      let engine = Obda.make_engine `Pglite `Simple abox in
      Obda.set_feedback engine false;
      let off = Obda.answers_exn engine tbox strategy q in
      Obda.set_feedback engine true;
      for _ = 1 to 2 do
        ignore (Obda.analyze engine tbox strategy q)
      done;
      (* force the next search to actually run under the corrections *)
      Obda.clear_plan_cache ();
      let on = Obda.answers_exn engine tbox strategy q in
      off = on)

let suite =
  [
    Alcotest.test_case "keys: atom shapes" `Quick test_atom_keys;
    Alcotest.test_case "keys: joins, unions, digests" `Quick test_multi_atom_keys;
    Alcotest.test_case "store: EWMA and min_obs threshold" `Quick
      test_ewma_and_threshold;
    Alcotest.test_case "store: clear advances the epoch" `Quick
      test_clear_advances_epoch;
    Alcotest.test_case "persistence: OBDAFBK1 round-trip" `Quick
      test_save_load_roundtrip;
    Alcotest.test_case "persistence: corrupt files yield Error" `Quick
      test_load_rejects_corruption;
    Alcotest.test_case "loop: harvest, correct, re-rank on drift" `Quick
      test_analyze_harvests_and_reranks;
    Alcotest.test_case "loop: toggling and instruments" `Quick
      test_feedback_toggle_and_metrics;
    QCheck_alcotest.to_alcotest qcheck_factors_clamped_monotone;
    QCheck_alcotest.to_alcotest qcheck_feedback_preserves_answers;
    QCheck_alcotest.to_alcotest qcheck_corrupt_store;
  ]
