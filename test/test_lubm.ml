open Dllite

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* {1 Ontology vocabulary budget (§6.1)} *)

let test_vocabulary_counts () =
  check_int "128 concepts" 128 Lubm.Ontology.concept_count;
  check_int "34 roles" 34 Lubm.Ontology.role_count;
  check_int "212 constraints" 212 Lubm.Ontology.axiom_count

let test_ontology_satisfiable () =
  check_bool "no unsatisfiable concept" true
    (Concept.Set.is_empty (Tbox.unsatisfiable_concepts Lubm.Ontology.tbox))

let test_ontology_hierarchy_sanity () =
  let t = Lubm.Ontology.tbox in
  check_bool "FullProfessor is a Person" true
    (Tbox.entails_concept_sub t (Concept.atomic "FullProfessor") (Concept.atomic "Person"));
  check_bool "PhD students take courses" true
    (Tbox.entails_concept_sub t (Concept.atomic "PhDStudent")
       (Concept.Exists (Role.named "takesCourse")));
  check_bool "headOf implies affiliation" true
    (Tbox.entails_role_sub t (Role.named "headOf") (Role.named "affiliatedWith"));
  check_bool "faculty/student disjoint" true
    (Tbox.disjoint_concepts t (Concept.atomic "AssistantProfessor")
       (Concept.atomic "PhDStudent"))

(* {1 Generator} *)

let test_generator_deterministic () =
  let dump abox =
    List.map
      (fun c -> c, Array.to_list (Abox.concept_members abox c))
      (Abox.concept_names abox)
    , List.map (fun r -> r, Array.to_list (Abox.role_pairs abox r)) (Abox.role_names abox)
  in
  let a1 = Lubm.Generator.generate ~seed:7 ~target_facts:3_000 () in
  let a2 = Lubm.Generator.generate ~seed:7 ~target_facts:3_000 () in
  check_bool "same seed, same data" true (dump a1 = dump a2);
  let a3 = Lubm.Generator.generate ~seed:8 ~target_facts:3_000 () in
  check_bool "different seed, different data" false (dump a1 = dump a3)

let test_generator_reaches_target () =
  List.iter
    (fun target ->
      let abox = Lubm.Generator.generate ~target_facts:target () in
      check_bool "at least the target" true (Abox.size abox >= target);
      (* within one department of overshoot *)
      check_bool "no wild overshoot" true (Abox.size abox < target + 2_000))
    [ 1_000; 10_000; 40_000 ]

let test_generator_consistent () =
  let abox = Lubm.Generator.generate ~target_facts:15_000 () in
  let kb = Kb.make Lubm.Ontology.tbox abox in
  match Kb.check_consistency kb with
  | None -> ()
  | Some v -> Alcotest.failf "generated ABox inconsistent: %a" Kb.pp_violation v

let test_generator_incomplete_on_purpose () =
  (* some professors are only recognisable through their teacherOf
     facts: certain answers for Professor exceed the explicit ones *)
  let abox = Lubm.Generator.generate ~target_facts:10_000 () in
  let explicit =
    Array.length (Abox.concept_members abox "FullProfessor")
    + Array.length (Abox.concept_members abox "AssociateProfessor")
    + Array.length (Abox.concept_members abox "AssistantProfessor")
    + Array.length (Abox.concept_members abox "Chair")
  in
  let teachers =
    List.sort_uniq compare
      (List.map fst (Array.to_list (Abox.role_pairs abox "teacherOf")))
  in
  check_bool "more teachers than explicit professors" true
    (List.length teachers > explicit / 2);
  check_bool "some explicit ranks exist too" true (explicit > 0)

(* {1 Workload} *)

let test_workload_shape () =
  check_int "13 queries" 13 (List.length Lubm.Workload.queries);
  let mn, mx, avg = Lubm.Workload.atom_stats () in
  check_int "min atoms" 2 mn;
  check_int "max atoms" 10 mx;
  check_bool "average around 5.5" true (avg > 4.5 && avg < 6.5);
  List.iter
    (fun e -> check_bool (e.Lubm.Workload.name ^ " connected") true
        (Query.Cq.is_connected e.Lubm.Workload.query))
    (Lubm.Workload.queries @ Lubm.Workload.star_queries)

let test_star_queries_are_prefixes () =
  let q1_atoms = Query.Cq.atoms (Lubm.Workload.q 1) in
  List.iter
    (fun e ->
      let n = Query.Cq.atom_count e.Lubm.Workload.query in
      let prefix = List.filteri (fun i _ -> i < n) q1_atoms in
      check_bool (e.Lubm.Workload.name ^ " prefix of Q1") true
        (List.equal Query.Atom.equal prefix (Query.Cq.atoms e.Lubm.Workload.query)))
    Lubm.Workload.star_queries;
  let a6 = Query.Cq.canonicalize (Lubm.Workload.find "A6").Lubm.Workload.query in
  let q1c = Query.Cq.canonicalize (Lubm.Workload.q 1) in
  check_bool "A6 = Q1" true
    (List.equal Query.Atom.equal (Query.Cq.atoms a6) (Query.Cq.atoms q1c)
    && List.equal Query.Term.equal a6.Query.Cq.head q1c.Query.Cq.head)

let test_reformulation_sizes () =
  (* the workload spans small and very large reformulations, like the
     paper's 35–667 range *)
  let sizes =
    List.map
      (fun e ->
        Query.Ucq.size
          (Reform.Perfectref.reformulate_cached Lubm.Ontology.tbox e.Lubm.Workload.query))
      Lubm.Workload.queries
  in
  check_bool "some reformulations are large" true (List.exists (fun s -> s >= 100) sizes);
  check_bool "largest in the hundreds" true (List.fold_left max 0 sizes >= 300);
  check_bool "some are small" true (List.exists (fun s -> s <= 5) sizes)

let test_workload_answers_nonempty () =
  (* every benchmark query has answers on generated data, and query
     answering (with reasoning) beats plain evaluation somewhere *)
  let abox = Lubm.Generator.generate ~target_facts:15_000 () in
  let engine = Obda.make_engine `Db2lite `Simple abox in
  List.iter
    (fun e ->
      let answers = Obda.answers_exn engine Lubm.Ontology.tbox Obda.Ucq e.Lubm.Workload.query in
      if answers = [] then Alcotest.failf "%s has no answers" e.Lubm.Workload.name)
    Lubm.Workload.queries

let test_reasoning_required () =
  let abox = Lubm.Generator.generate ~target_facts:15_000 () in
  let engine = Obda.make_engine `Db2lite `Simple abox in
  let q = Lubm.Workload.q 11 in
  let with_reasoning = Obda.answers_exn engine Lubm.Ontology.tbox Obda.Ucq q in
  let without = Obda.answers_exn engine Dllite.Tbox.empty Obda.Ucq q in
  check_bool "reasoning adds answers" true
    (List.length with_reasoning > List.length without)

let test_strategies_agree_on_lubm () =
  let abox = Lubm.Generator.generate ~target_facts:8_000 () in
  let engines =
    [ Obda.make_engine `Pglite `Simple abox; Obda.make_engine `Db2lite `Simple abox ]
  in
  List.iter
    (fun name ->
      let q = Lubm.Workload.q name in
      let reference =
        Obda.answers_exn (List.hd engines) Lubm.Ontology.tbox Obda.Ucq q
      in
      List.iter
        (fun engine ->
          List.iter
            (fun strat ->
              let got = Obda.answers_exn engine Lubm.Ontology.tbox strat q in
              if got <> reference then
                Alcotest.failf "Q%d: %s disagrees on %s" name
                  (Obda.strategy_name strat) (Obda.engine_name engine))
            [ Obda.Ucq; Obda.Croot; Obda.Gdl Obda.Ext_cost; Obda.Gdl Obda.Rdbms_cost ])
        engines)
    [ 1; 2; 4; 7; 12 ]

let test_star_prefix_answers_shrink () =
  (* every atom added to the star can only constrain the answers: the
     certain answers of A_{i+1} are included in those of A_i *)
  let abox = Lubm.Generator.generate ~target_facts:12_000 () in
  let engine = Obda.make_engine `Db2lite `Simple abox in
  let answers name =
    Obda.answers_exn engine Lubm.Ontology.tbox Obda.Ucq
      (Lubm.Workload.find name).Lubm.Workload.query
  in
  let rec check_chain = function
    | a :: (b :: _ as rest) ->
      let bigger = answers a and smaller = answers b in
      check_bool (a ^ " contains " ^ b) true
        (List.for_all (fun row -> List.mem row bigger) smaller);
      check_chain rest
    | _ -> ()
  in
  check_chain [ "A3"; "A4"; "A5"; "A6" ]

let test_generator_scales_linearly () =
  let size n = Dllite.Abox.size (Lubm.Generator.generate ~target_facts:n ()) in
  let s1 = size 5_000 and s2 = size 20_000 in
  check_bool "roughly linear" true
    (float_of_int s2 /. float_of_int s1 > 3.0
    && float_of_int s2 /. float_of_int s1 < 5.0)

let test_strategy_dialects () =
  let abox = Lubm.Generator.generate ~target_facts:4_000 () in
  let engine = Obda.make_engine `Pglite `Simple abox in
  let tbox = Lubm.Ontology.tbox in
  let q = Lubm.Workload.q 9 in
  let reform strategy = Obda.reformulate engine tbox strategy q in
  check_bool "Ucq strategy yields a UCQ" true (Query.Fol.is_ucq (reform Obda.Ucq));
  check_bool "Croot yields a JUCQ" true (Query.Fol.is_jucq (reform Obda.Croot));
  check_bool "Uscq yields a USCQ-shaped query" true
    (let f = reform Obda.Uscq in
     Query.Fol.is_uscq f || Query.Fol.is_juscq f || Query.Fol.is_ucq f);
  check_bool "Gdl yields a JUCQ" true
    (Query.Fol.is_jucq (reform (Obda.Gdl Obda.Ext_cost)))

let test_gdl_never_worse_than_croot_estimate () =
  (* the greedy walk starts at Croot, so its estimated cost can only
     improve on Croot's *)
  let abox = Lubm.Generator.generate ~target_facts:8_000 () in
  let engine = Obda.make_engine `Pglite `Simple abox in
  let tbox = Lubm.Ontology.tbox in
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      let est = Obda.estimator engine Obda.Ext_cost in
      let r = Optimizer.Gdl.search tbox est q in
      let croot =
        Covers.Reformulate.of_generalized tbox
          (Covers.Generalized.of_cover (Covers.Safety.root_cover tbox q))
      in
      check_bool (e.Lubm.Workload.name ^ " gdl <= croot") true
        (r.Optimizer.Gdl.est_cost
        <= est.Optimizer.Estimator.estimate croot +. 1e-6))
    Lubm.Workload.queries

(* Which leaves of GDL/ext's chosen reformulation factorise, and into
   how many parts, on Q1–Q13 at 5k facts (seed 42, the default). The
   same leaves factorise with the same counts at 20k and 100k facts.
   The other leaves stay flat: the four-arm leaves of Q1 (f3), Q7 (f2)
   and Q10 (f4) are unions over one variable, with nothing to split,
   and Q8's five arms each join the professor alternative to the core
   through an existential. Q13's core keeps 9 parts: both of its
   atoms touch two output variables. *)
let test_factorised_leaves_pinned () =
  let abox = Lubm.Generator.generate ~target_facts:5_000 () in
  let engine = Obda.make_engine `Pglite `Simple abox in
  let tbox = Lubm.Ontology.tbox in
  let leaves = function Query.Fol.Join { parts; _ } -> parts | fol -> [ fol ] in
  let found =
    List.concat_map
      (fun (e : Lubm.Workload.entry) ->
        let covered, _ = Reform.Reduce.reduce tbox e.query in
        let r = Optimizer.Gdl.search tbox (Obda.estimator engine Obda.Ext_cost) covered in
        let p = Obda.prepare engine tbox (Obda.Gdl Obda.Ext_cost) e.query in
        let stats =
          List.mapi (fun i leaf -> i, leaf) (leaves r.Optimizer.Gdl.reformulation)
          |> List.filter_map (fun (i, leaf) ->
                 match leaf with
                 | Query.Fol.Leaf { out; ucq } ->
                   Option.map (fun (_, st) -> i, st) (Reform.Factorise.leaf out ucq)
                 | _ -> None)
        in
        (* the plan the engine runs records the same factorisations *)
        check_bool (e.name ^ " prepare agrees") true (List.map snd stats = p.Obda.factorised);
        List.map
          (fun (i, st) -> Fmt.str "%s f%d %a" e.name (i + 1) Reform.Factorise.pp_stat st)
          stats)
      Lubm.Workload.queries
  in
  Alcotest.(check (list string))
    "factorised leaves"
    [ "Q6 f1 180 arms → 21 (2 + 10 + 9)"; "Q9 f1 25 arms → 11 (1 + 5 + 5)";
      "Q10 f1 20 arms → 9 (2 + 2 + 5)"; "Q13 f1 90 arms → 20 (9 + 1 + 10)" ]
    found

(* Q10 under GDL/RDBMS at 5k facts factorises into a join whose last
   part is the unary part of [d], [subOrganizationOf(d,u) ∧
   University(u)] rewritten: 12,510 union rows for 20 departments when
   it runs on its own. The SIP pass annotates that join build→probe;
   the executor takes the probe side first instead, and its keys prune
   the part, which then holds no more rows than the probe side. *)
let test_unary_part_pruned_by_probe () =
  let abox = Lubm.Generator.generate ~target_facts:5_000 () in
  let engine = Obda.make_engine `Pglite `Simple abox in
  let q = (List.find (fun (e : Lubm.Workload.entry) -> e.name = "Q10") Lubm.Workload.queries).query in
  let a = Obda.analyze engine Lubm.Ontology.tbox (Obda.Gdl Obda.Rdbms_cost) q in
  check_bool "factorised" true (a.Obda.a_outcome.Obda.factorised <> []);
  let rec nodes (s : Rdbms.Exec.node_stats) = s :: List.concat_map nodes s.children in
  let unary_joins =
    List.filter_map
      (fun (s : Rdbms.Exec.node_stats) ->
        match s.plan, s.children with
        | ( Rdbms.Plan.Sip
              { join = Rdbms.Plan.Hash_join { right = Rdbms.Plan.Materialize _ as r; on; _ };
                dir = Rdbms.Plan.Build_to_probe },
            [ probe; part ] )
          when Rdbms.Plan.out_cols r = on ->
          Some (on, probe.actual_rows, part.actual_rows)
        | _ -> None)
      (nodes (Option.get a.Obda.a_stats))
  in
  check_bool "the unary part of d is joined build->probe" true
    (List.exists (fun (on, _, _) -> on = [ "d" ]) unary_joins);
  List.iter
    (fun (_, probe, part) -> check_bool "part rows <= probe rows" true (part <= probe))
    unary_joins

(* The plan-cache criterion under ingest at LUBM scale: an engine over
   the first 5k facts of the generator stream takes the next 640 in 20
   batches of 32, and GDL/ext reads Q1–Q13 after every batch. Inserts
   into predicates already holding facts keep the cost-based plans, so
   more than 90% of the reads replay a cached plan; the grown engine
   still returns the UCQ's answers of an engine built fresh from the
   same facts. *)
let test_plan_hits_under_ingest () =
  let base = 5_000 and batches = 20 and batch = 32 in
  let total = base + (batches * batch) in
  let facts = ref [] in
  ignore
    (Lubm.Generator.generate_into ~target_facts:total
       ~add_concept:(fun ~concept ~ind -> facts := `C (concept, ind) :: !facts)
       ~add_role:(fun ~role ~subj ~obj -> facts := `R (role, subj, obj) :: !facts)
       ());
  let facts = Array.sub (Array.of_list (List.rev !facts)) 0 total in
  let abox_of n =
    let a = Abox.create () in
    for i = 0 to n - 1 do
      match facts.(i) with
      | `C (concept, ind) -> Abox.add_concept a ~concept ~ind
      | `R (role, subj, obj) -> Abox.add_role a ~role ~subj ~obj
    done;
    a
  in
  let tbox = Lubm.Ontology.tbox in
  let queries = List.map (fun (e : Lubm.Workload.entry) -> e.query) Lubm.Workload.queries in
  let grown = Obda.make_engine `Pglite `Simple (abox_of base) in
  let gdl = Obda.Gdl Obda.Ext_cost in
  Obda.clear_plan_cache ();
  let s0 = Obda.plan_cache_stats () in
  let read () = List.map (Obda.answers_exn grown tbox gdl) queries in
  ignore (read ());
  for b = 0 to batches - 1 do
    for i = base + (b * batch) to base + ((b + 1) * batch) - 1 do
      match facts.(i) with
      | `C (concept, ind) -> ignore (Obda.insert_concept grown ~concept ~ind)
      | `R (role, subj, obj) -> ignore (Obda.insert_role grown ~role ~subj ~obj)
    done;
    ignore (read ())
  done;
  let s1 = Obda.plan_cache_stats () in
  let hits = s1.Cache.Lru.hits - s0.Cache.Lru.hits
  and misses = s1.Cache.Lru.misses - s0.Cache.Lru.misses in
  check_int "every read looked a plan up" ((batches + 1) * List.length queries) (hits + misses);
  let ratio = float_of_int hits /. float_of_int (hits + misses) in
  if ratio <= 0.9 then Alcotest.failf "plan hit ratio %.3f (%d hits, %d misses)" ratio hits misses;
  let fresh = Obda.make_engine `Pglite `Simple (abox_of total) in
  List.iter2
    (fun (e : Lubm.Workload.entry) got ->
      Alcotest.(check (list (list string)))
        (e.name ^ ": grown GDL = fresh UCQ")
        (Obda.answers_exn fresh tbox Obda.Ucq e.query)
        got)
    Lubm.Workload.queries (read ())

let suite =
  [
    Alcotest.test_case "star prefixes shrink" `Slow test_star_prefix_answers_shrink;
    Alcotest.test_case "generator scales" `Slow test_generator_scales_linearly;
    Alcotest.test_case "strategy dialects" `Slow test_strategy_dialects;
    Alcotest.test_case "gdl never worse than croot" `Slow
      test_gdl_never_worse_than_croot_estimate;
    Alcotest.test_case "factorised leaves (Q1-Q13, GDL/ext)" `Quick
      test_factorised_leaves_pinned;
    Alcotest.test_case "plan hits under ingest (Q1-Q13, GDL/ext, 5k + 20x32)" `Quick
      test_plan_hits_under_ingest;
    Alcotest.test_case "unary part pruned by the probe side (Q10, GDL/RDBMS)" `Quick
      test_unary_part_pruned_by_probe;
    Alcotest.test_case "vocabulary counts" `Quick test_vocabulary_counts;
    Alcotest.test_case "ontology satisfiable" `Quick test_ontology_satisfiable;
    Alcotest.test_case "hierarchy sanity" `Quick test_ontology_hierarchy_sanity;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator target" `Quick test_generator_reaches_target;
    Alcotest.test_case "generator consistent" `Slow test_generator_consistent;
    Alcotest.test_case "generator incompleteness" `Quick test_generator_incomplete_on_purpose;
    Alcotest.test_case "workload shape" `Quick test_workload_shape;
    Alcotest.test_case "star query prefixes" `Quick test_star_queries_are_prefixes;
    Alcotest.test_case "reformulation sizes" `Slow test_reformulation_sizes;
    Alcotest.test_case "workload answers nonempty" `Slow test_workload_answers_nonempty;
    Alcotest.test_case "reasoning required" `Slow test_reasoning_required;
    Alcotest.test_case "strategies agree on lubm" `Slow test_strategies_agree_on_lubm;
  ]
