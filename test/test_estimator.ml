(* The one-pass "ext" estimator and the search-scoped cover memo. Every
   estimate, and every cost a cover search records, must be bit for bit
   what the frozen reference model ({!Cost_reference}) computes for the
   same reformulation — without feedback, under an empty store and
   under a trained one — and a scope must never leak one search's
   estimates into the next. *)

open Query

let check_bool = Alcotest.(check bool)

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A trace label ["gcover[{0,1};{2,3}||{3}]"] back into its cover:
   {!Covers.Generalized.pp} prints every fragment's [f] and [g] sets in
   full, so the label identifies the cover. *)
let cover_of_label q label =
  let inner = String.sub label 7 (String.length label - 8) in
  let set s =
    List.map int_of_string (String.split_on_char ',' (String.sub s 1 (String.length s - 2)))
  in
  let fragment s =
    match String.index_opt s '|' with
    | None -> set s, set s
    | Some i -> set (String.sub s 0 i), set (String.sub s (i + 2) (String.length s - i - 2))
  in
  Covers.Generalized.make q (List.map fragment (String.split_on_char ';' inner))

(* The reformulation a search scores for a cover: each fragment's
   unpruned UCQ with the arms over the layout's empty predicates
   filtered out ({!Reform_reference.prune}), joined as
   {!Covers.Reformulate.of_generalized} joins. *)
let reference_reformulation tbox layout cover =
  let data =
    Reform.Emptiness.make tbox ~empty:(fun n ->
        Rdbms.Layout.concept_card layout n = 0 && Rdbms.Layout.role_card layout n = 0)
  in
  Covers.Reformulate.join cover.Covers.Generalized.query
    (List.map
       (fun fq ->
         Fol.leaf ~out:fq.Cq.head
           (Reform_reference.prune data fq (Reform.Perfectref.reformulate tbox fq)))
       (Covers.Generalized.fragment_queries cover))

(* Runs GDL (and EDL unless [~edl:false]) under a trace and checks every cost they emitted
   (each candidate, move and final choice) against the reference cost
   of the cover's reformulation; the one-pass [node] of each scored
   reformulation must match the reference's rows and cost too. *)
let scores_match ?feedback ?(edl = true) ~what model layout tbox est q =
  let events f = snd (Obs.Trace.record (fun () -> ignore (f ()))) in
  let traced =
    events (fun () -> Optimizer.Gdl.search tbox est q)
    @ if edl then events (fun () -> Optimizer.Edl.search ~max_covers:200 tbox est q) else []
  in
  List.for_all
    (fun (ev : Obs.Trace.event) ->
      let fol = reference_reformulation tbox layout (cover_of_label q ev.label) in
      let ref_cost = Cost_reference.fol_cost ?feedback model layout fol in
      let ref_rows = Cost_reference.fol_rows ?feedback layout fol in
      let n = Cost.Cost_model.node ?feedback model layout fol in
      let ok =
        same ev.cost ref_cost && same n.cost ref_cost && same n.rows ref_rows
        && same (est.Optimizer.Estimator.estimate fol) ref_cost
      in
      if not ok then
        Fmt.epr "%s: %a on %s: scored %h, node %h/%h rows, reference %h/%h rows@."
          what Cq.pp q ev.label ev.cost n.cost n.rows ref_cost ref_rows;
      ok)
    traced
  && traced <> []

(* Facts over the individuals the random queries name as constants
   ([a0]–[a2]) and a few others, so constant atoms hit histograms. *)
let random_abox rng =
  let inds = [| "a0"; "a1"; "a2"; "i0"; "i1" |] in
  let pick () = inds.(Random.State.int rng (Array.length inds)) in
  let a = Dllite.Abox.create () in
  for _ = 1 to 6 + Random.State.int rng 10 do
    if Random.State.bool rng then
      Dllite.Abox.add_concept a
        ~concept:(Printf.sprintf "A%d" (Random.State.int rng 3))
        ~ind:(pick ())
    else
      Dllite.Abox.add_role a
        ~role:(Printf.sprintf "R%d" (Random.State.int rng 3))
        ~subj:(pick ()) ~obj:(pick ())
  done;
  a

let prop_scores_match_reference =
  QCheck2.Test.make ~name:"ext scores = reference, bitwise, for every scored cover"
    ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) Test_query.gen_cq)
    (fun (seed, q) ->
      QCheck2.assume (q.Cq.head <> []);
      let rng = Random.State.make [| seed; 0xC05 |] in
      let tbox = Test_reform.random_tbox rng in
      let engine = Obda.make_engine `Pglite `Simple (random_abox rng) in
      let layout = Obda.layout engine in
      let model = Cost.Cost_model.calibrated `Pglite in
      let empty = Cost.Feedback.create () in
      let static_ok =
        scores_match ~what:"no feedback" model layout tbox
          (Optimizer.Estimator.ext model layout)
          q
        && scores_match ~feedback:empty ~what:"empty store" model layout tbox
             (Optimizer.Estimator.ext ~feedback:empty model layout)
             q
      in
      (* train the engine's store on the query's own EXPLAIN ANALYZE
         runs, under both a fragment-join and a single-UCQ plan *)
      List.iter
        (fun strategy ->
          for _ = 1 to 2 do
            ignore (Obda.analyze engine tbox strategy q)
          done)
        [ Obda.Croot; Obda.Ucq ];
      let feedback = Option.get (Obda.feedback_store engine) in
      static_ok
      && scores_match ~feedback ~what:"trained store" model layout tbox
           (Obda.estimator engine Obda.Ext_cost)
           q)

let lubm_engine facts =
  Obda.make_engine `Pglite `Simple
    (Lubm.Generator.generate ~seed:11 ~target_facts:facts ())

(* GDL only: EDL's first covers of Q9 already reformulate for seconds. *)
let test_lubm_trained_matches_reference () =
  let tbox = Lubm.Ontology.tbox in
  let engine = lubm_engine 2_000 in
  Obda.clear_plan_cache ();
  List.iter
    (fun name ->
      for _ = 1 to 2 do
        ignore (Obda.analyze engine tbox Obda.Croot (Lubm.Workload.find name).query)
      done)
    [ "Q1"; "Q4"; "Q9" ];
  let feedback = Option.get (Obda.feedback_store engine) in
  check_bool "store trained" true (Cost.Feedback.trained (Some feedback));
  let est = Obda.estimator engine Obda.Ext_cost in
  let model = Cost.Cost_model.calibrated `Pglite in
  List.iter
    (fun (e : Lubm.Workload.entry) ->
      check_bool e.name true
        (scores_match ~feedback ~edl:false ~what:e.name model (Obda.layout engine)
           tbox est e.query))
    Lubm.Workload.queries

(* {1 Search scopes} *)

let gdl_costs tbox est q =
  let r, events = Obs.Trace.record (fun () -> Optimizer.Gdl.search tbox est q) in
  r, List.map (fun (ev : Obs.Trace.event) -> ev.label, Int64.bits_of_float ev.cost) events

(* One estimator value reused across searches: inserts and harvests
   between them must show, exactly as a freshly built estimator sees
   them. The data is {!Test_feedback}'s 400x join misestimate, so the
   harvest has something to correct. *)
let test_scope_sees_changes () =
  let tbox = Dllite.Tbox.empty in
  let engine = Obda.make_engine `Pglite `Simple (Test_feedback.skewed_abox ()) in
  let q = Test_feedback.rare_query in
  let est = Obda.estimator engine Obda.Ext_cost in
  let _, first = gdl_costs tbox est q in
  let after_change what =
    let reused, reused_events = gdl_costs tbox est q in
    let fresh, fresh_events = gdl_costs tbox (Obda.estimator engine Obda.Ext_cost) q in
    check_bool (what ^ ": same cover as a fresh estimator") true
      (Covers.Generalized.equal reused.Optimizer.Gdl.cover fresh.Optimizer.Gdl.cover);
    check_bool (what ^ ": same costs as a fresh estimator") true
      (reused_events = fresh_events);
    reused_events
  in
  for i = 0 to 49 do
    ignore (Obda.insert_role engine ~role:"R" ~subj:(Printf.sprintf "n%d" i) ~obj:"a")
  done;
  let second = after_change "inserts" in
  check_bool "inserts moved the estimates" true (first <> second);
  Obda.clear_plan_cache ();
  for _ = 1 to 2 do
    ignore (Obda.analyze engine tbox Obda.Croot q)
  done;
  let third = after_change "harvest" in
  check_bool "the harvest moved the estimates" true (second <> third)

(* Each distinct fragment is estimated once per search: GDL on a
   multi-atom query reuses most of its fragments, and the counters add
   up to the fragments of every scored cover. *)
let test_leaf_counters () =
  let counter name =
    match Obs.Metrics.find_counter name with
    | Some c -> Obs.Metrics.counter_value c
    | None -> Alcotest.failf "%s not registered" name
  in
  let tbox = Lubm.Ontology.tbox in
  let engine = lubm_engine 1_000 in
  let q = (Lubm.Workload.find "Q9").query in
  let est0 = counter "cost.leaves.estimated" and reu0 = counter "cost.leaves.reused" in
  let r, events = Obs.Trace.record (fun () -> Optimizer.Gdl.search tbox (Obda.estimator engine Obda.Ext_cost) q) in
  let estimated = counter "cost.leaves.estimated" - est0
  and reused = counter "cost.leaves.reused" - reu0 in
  let fragments =
    List.fold_left
      (fun acc (ev : Obs.Trace.event) ->
        if ev.verdict = Obs.Trace.Candidate then
          acc + Covers.Generalized.fragment_count (cover_of_label q ev.label)
        else acc)
      0 events
  in
  check_bool "covers scored" true (r.Optimizer.Gdl.explored_total > 1);
  Alcotest.(check int) "every scored fragment counted once" fragments (estimated + reused);
  check_bool "fragments reused" true (reused > estimated)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_scores_match_reference;
    Alcotest.test_case "LUBM: trained scores = reference" `Quick
      test_lubm_trained_matches_reference;
    Alcotest.test_case "scope: reused estimator sees inserts and harvests" `Quick
      test_scope_sees_changes;
    Alcotest.test_case "scope: leaf counters" `Quick test_leaf_counters;
  ]
