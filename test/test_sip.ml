(* Sideways information passing: the Sip reducer representations
   (bitset exactness, Bloom one-sidedness), the executor's empty-build
   early exit, reducer filters and union-arm elision end-to-end with
   their EXPLAIN ANALYZE counters, the pass reducing rows on the LUBM
   workload, and the qcheck property that the Sip_pass annotation
   never changes answers on randomised plans/ABoxes/layouts/configs. *)

open Query
open Rdbms

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* {1 Reducer representations} *)

let test_reducer_kinds () =
  let r = Sip.of_array ~domain:100 [| 3; 7; 7; 42 |] in
  check_bool "small domain is exact" true (Sip.kind_name r = "bitset");
  check_int "distinct keys" 3 (Sip.key_count r);
  check_bool "member" true (Sip.mem r 7);
  check_bool "non-member" false (Sip.mem r 8);
  check_bool "out of domain" false (Sip.mem r 1000);
  let big = Sip.of_array ~domain:(1 lsl 21) [| 3; 7 |] in
  check_bool "large domain goes Bloom" true (Sip.kind_name big = "bloom");
  let e = Sip.of_array ~domain:100 [||] in
  check_bool "empty reducer" true (Sip.is_empty e);
  check_bool "empty intersects nothing" false (Sip.intersects e [| 1; 2; 3 |]);
  check_bool "intersects finds a member" true (Sip.intersects r [| 9; 42 |]);
  check_bool "disjoint column" false (Sip.intersects r [| 9; 10 |])

let qcheck_bitset_exact =
  QCheck2.Test.make ~name:"sip: bitset membership is exact" ~count:200
    QCheck2.Gen.(pair (list (int_bound 499)) (list (int_bound 499)))
    (fun (keys, probes) ->
      let r = Sip.bitset_of_array ~domain:500 (Array.of_list keys) in
      List.for_all (fun v -> Sip.mem r v = List.mem v keys) probes)

(* A Bloom filter may say yes to a stranger but never no to a member —
   the property that makes reducer pruning sound. *)
let qcheck_bloom_no_false_negative =
  QCheck2.Test.make ~name:"sip: bloom has no false negatives" ~count:200
    QCheck2.Gen.(list (int_bound 1_000_000))
    (fun keys ->
      let r = Sip.bloom_of_array (Array.of_list keys) in
      List.for_all (Sip.mem r) keys)

(* {1 Empty build side: the probe subtree is never opened} *)

let test_empty_build_early_exit () =
  let abox = Dllite.Abox.create () in
  for i = 0 to 9 do
    Dllite.Abox.add_role abox ~role:"R" ~subj:("s" ^ string_of_int i) ~obj:"o"
  done;
  let layout = Layout.simple_of_abox abox in
  let plan =
    Plan.Hash_join
      {
        left = Plan.Scan (Atom.Ra ("R", Term.Var "x", Term.Var "y"));
        right = Plan.Scan (Atom.Ca ("Nothing", Term.Var "x"));
        on = [ "x" ];
      }
  in
  let counters = Exec.fresh_counters () in
  let rel = Exec.run ~config:Exec.postgres_like ~counters layout plan in
  check_int "no rows" 0 (Relation.cardinality rel);
  Alcotest.(check (array string))
    "join columns preserved"
    [| "x"; "y" |]
    rel.Relation.cols;
  (* only the (empty) build side was scanned; R was never touched *)
  check_int "probe subtree never compiled" 1 (Atomic.get counters.Exec.scans)

(* {1 Reducer filters and union-arm elision, with ANALYZE counters} *)

let sip_fixture () =
  let abox = Dllite.Abox.create () in
  (* A holds a0..a2; R has two subjects in A and two outside; S's
     subjects are entirely outside A *)
  List.iter (fun i -> Dllite.Abox.add_concept abox ~concept:"A" ~ind:i)
    [ "a0"; "a1"; "a2" ];
  List.iter
    (fun (s, o) -> Dllite.Abox.add_role abox ~role:"R" ~subj:s ~obj:o)
    [ "a0", "b0"; "a1", "b1"; "z0", "b2"; "z1", "b3" ];
  List.iter
    (fun (s, o) -> Dllite.Abox.add_role abox ~role:"S" ~subj:s ~obj:o)
    [ "z2", "c0"; "z3", "c1" ];
  Layout.simple_of_abox abox

let sip_union_plan dir =
  Plan.Sip
    {
      join =
        Plan.Hash_join
          {
            left =
              Plan.Union
                {
                  cols = [ "x"; "y" ];
                  inputs =
                    [
                      Plan.Scan (Atom.Ra ("R", Term.Var "x", Term.Var "y"));
                      Plan.Scan (Atom.Ra ("S", Term.Var "x", Term.Var "y"));
                    ];
                };
            right = Plan.Scan (Atom.Ca ("A", Term.Var "x"));
            on = [ "x" ];
          };
      dir;
    }

let rec sum_stats f (s : Exec.node_stats) =
  f s + List.fold_left (fun acc c -> acc + sum_stats f c) 0 s.Exec.children

let rec first_reducer (s : Exec.node_stats) =
  match s.Exec.sip_reducer with
  | Some k -> Some k
  | None -> List.find_map first_reducer s.Exec.children

let test_filter_and_elision () =
  let layout = sip_fixture () in
  let plan = sip_union_plan Plan.Build_to_probe in
  let rel, stats =
    Exec.run_analyzed ~config:Exec.postgres_like layout plan
  in
  (* answers agree with the annotation-oblivious row engine *)
  Alcotest.(check (list (list string)))
    "same answers as row engine"
    (Rowexec.answers layout plan)
    (Exec.decode_rows layout rel);
  check_int "joined rows" 2 (Relation.cardinality rel);
  (* the S arm's subjects never meet A: the arm is never opened *)
  check_int "one union arm elided" 1 (sum_stats (fun s -> s.Exec.sip_elided) stats);
  (* R's two z-subjects are pruned at the scan *)
  check_int "rows pruned at scans" 2 (sum_stats (fun s -> s.Exec.sip_pruned) stats);
  check_bool "reducer kind reported" true (first_reducer stats = Some "bitset");
  (* and all of it surfaces in the EXPLAIN ANALYZE renderings *)
  let text = Explain.render_analyze Explain.pglite layout stats in
  check_bool "text shows reducer" true
    (contains ~affix:"sip: reducer=bitset" text);
  check_bool "text shows pruning" true
    (contains ~affix:"pruned=2" text);
  check_bool "text shows elision" true
    (contains ~affix:"elided=1" text);
  let json = Explain.render_analyze_json Explain.pglite layout stats in
  check_bool "json shows pruning" true
    (contains ~affix:"\"sip_pruned\":2" json)

(* The probe->build direction on the mirrored join: the concept scan
   materialises first and its keys prune the union build side. *)
let test_probe_to_build_direction () =
  let layout = sip_fixture () in
  let plan =
    Plan.Sip
      {
        join =
          Plan.Hash_join
            {
              left = Plan.Scan (Atom.Ca ("A", Term.Var "x"));
              right =
                Plan.Union
                  {
                    cols = [ "x"; "y" ];
                    inputs =
                      [
                        Plan.Scan (Atom.Ra ("R", Term.Var "x", Term.Var "y"));
                        Plan.Scan (Atom.Ra ("S", Term.Var "x", Term.Var "y"));
                      ];
                  };
              on = [ "x" ];
            };
        dir = Plan.Probe_to_build;
      }
  in
  let rel, stats =
    Exec.run_analyzed ~config:Exec.postgres_like layout plan
  in
  Alcotest.(check (list (list string)))
    "same answers as row engine"
    (Rowexec.answers layout plan)
    (Exec.decode_rows layout rel);
  check_int "one union arm elided" 1 (sum_stats (fun s -> s.Exec.sip_elided) stats);
  check_bool "rows pruned" true (sum_stats (fun s -> s.Exec.sip_pruned) stats > 0)

(* {1 The optimizer pass never changes answers} *)

let qcheck_sip_pass_preserves_answers =
  QCheck2.Test.make
    ~name:"sip: annotated plan = bare plan on random plans" ~count:80
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let abox = Test_batch.random_abox st in
      let plan = Test_batch.random_plan st (1 + Random.State.int st 4) in
      List.for_all
        (fun layout ->
          let annotated = Cost.Sip_pass.annotate layout plan in
          List.for_all
            (fun config ->
              let plain = Exec.run ~config layout plan in
              let sipped = Exec.run ~config layout annotated in
              Test_batch.rows_bag sipped = Test_batch.rows_bag plain
              && Exec.answers ~config layout annotated = Exec.answers ~config layout plan)
            [ Exec.postgres_like; Exec.db2_like ])
        [ Layout.simple_of_abox abox; Layout.rdf_of_abox abox ])

(* {1 The pass fires on the LUBM workload}

   The property above holds for a pass that annotates nothing. On
   fixed-seed LUBM data the reducers must also prune rows or elide
   arms on the join-heavy queries, through the same {!Obda.analyze}
   path EXPLAIN ANALYZE takes, with the answers of the bare plans. *)

let test_sip_reduces_lubm () =
  let engine =
    Obda.make_engine `Pglite `Simple
      (Lubm.Generator.generate ~seed:7 ~target_facts:4_000 ())
  in
  (* no harvest: both runs of a query search under the same costs *)
  Obda.set_feedback engine false;
  let tbox = Lubm.Ontology.tbox in
  let join_heavy =
    List.filter
      (fun e -> Cq.atom_count e.Lubm.Workload.query >= 2)
      Lubm.Workload.queries
  in
  let reduced = ref 0 in
  List.iter
    (fun strategy ->
      List.iter
        (fun e ->
          let q = e.Lubm.Workload.query in
          Obda.set_sip engine true;
          let a = Obda.analyze engine tbox strategy q in
          (match a.Obda.a_stats with
          | Some stats
            when sum_stats (fun s -> s.Exec.sip_pruned + s.Exec.sip_elided) stats > 0 ->
            incr reduced
          | _ -> ());
          Obda.set_sip engine false;
          Alcotest.(check (result (list (list string)) string))
            (e.Lubm.Workload.name ^ ": sip on = sip off")
            (Obda.answer engine tbox strategy q).Obda.answers
            a.Obda.a_outcome.Obda.answers)
        join_heavy)
    [ Obda.Croot; Obda.Gdl Obda.Ext_cost ];
  check_bool
    (Printf.sprintf "reducers fired on %d query/strategy pairs (need 2)" !reduced)
    true (!reduced >= 2)

let suite =
  [
    Alcotest.test_case "sip: reducer kinds and membership" `Quick
      test_reducer_kinds;
    QCheck_alcotest.to_alcotest qcheck_bitset_exact;
    QCheck_alcotest.to_alcotest qcheck_bloom_no_false_negative;
    Alcotest.test_case "exec: empty build side short-circuits" `Quick
      test_empty_build_early_exit;
    Alcotest.test_case "sip: scan filters + union arm elision" `Quick
      test_filter_and_elision;
    Alcotest.test_case "sip: probe->build direction" `Quick
      test_probe_to_build_direction;
    Alcotest.test_case "sip: reducers fire on the LUBM workload" `Quick
      test_sip_reduces_lubm;
    QCheck_alcotest.to_alcotest qcheck_sip_pass_preserves_answers;
  ]
