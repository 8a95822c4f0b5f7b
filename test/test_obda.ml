open Fixtures

let check_bool = Alcotest.(check bool)

let all_strategies =
  [
    Obda.Ucq;
    Obda.Uscq;
    Obda.Croot;
    Obda.Gdl Obda.Rdbms_cost;
    Obda.Gdl Obda.Ext_cost;
    Obda.Gdl_limited (Obda.Ext_cost, 0.02);
    Obda.Edl Obda.Ext_cost;
  ]

let test_all_strategies_agree () =
  (* Every engine × layout × strategy combination must return the same
     certain answers. *)
  List.iter
    (fun (tbox, abox_fn, q, expected) ->
      List.iter
        (fun ek ->
          List.iter
            (fun lk ->
              let engine = Obda.make_engine ek lk (abox_fn ()) in
              List.iter
                (fun strategy ->
                  match (Obda.answer engine tbox strategy q).Obda.answers with
                  | Ok got ->
                    if got <> expected then
                      Alcotest.failf "%s with %s disagrees"
                        (Obda.engine_name engine)
                        (Obda.strategy_name strategy)
                  | Error msg -> Alcotest.failf "unexpected engine error: %s" msg)
                all_strategies)
            [ `Simple; `Rdf ])
        [ `Pglite; `Db2lite ])
    [
      example1_tbox, example1_abox, example3_query, [ [ "Damian" ] ];
      example7_tbox, example7_abox, example7_query, [ [ "Damian" ] ];
    ]

let test_outcome_metadata () =
  let engine = Obda.make_engine `Pglite `Simple (example1_abox ()) in
  let o = Obda.answer engine example1_tbox Obda.Ucq example3_query in
  check_bool "cq count matches minimal ucq" true (o.Obda.cq_count = 4);
  check_bool "sql generated" true (String.length (Lazy.force o.Obda.sql) > 0);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "sql mentions a role table" true
    (contains (Lazy.force o.Obda.sql) "role_supervisedBy")

let test_rdf_sql_longer () =
  let simple = Obda.make_engine `Db2lite `Simple (example1_abox ()) in
  let rdf = Obda.make_engine `Db2lite `Rdf (example1_abox ()) in
  let o1 = Obda.answer simple example1_tbox Obda.Ucq example3_query in
  let o2 = Obda.answer rdf example1_tbox Obda.Ucq example3_query in
  let sql_bytes o = String.length (Lazy.force o.Obda.sql) in
  check_bool "rdf layout SQL much longer" true (sql_bytes o2 > 3 * sql_bytes o1)

let test_statement_too_long () =
  (* Force the Db2Lite statement-size limit with a tiny cap via a big
     artificial union on the RDF layout: we simulate by checking the
     error message shape on a reformulation whose SQL exceeds the
     limit. The full-size failure is exercised by the benchmarks; here
     we just check the detection path with a crafted small limit. *)
  let engine = Obda.make_engine `Db2lite `Rdf (example1_abox ()) in
  let o = Obda.answer engine example1_tbox Obda.Ucq example3_query in
  (match o.Obda.answers with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "small query should fit: %s" msg);
  check_bool "under the limit" true (String.length (Lazy.force o.Obda.sql) < 2_000_000)

(* The SQL text exists to check DB2's statement-size limit: engines
   without one never render it unless a caller forces it. *)
let test_sql_rendered_only_under_a_limit () =
  let pg = Obda.make_engine `Pglite `Simple (example1_abox ()) in
  let o = Obda.answer pg example1_tbox Obda.Ucq example3_query in
  check_bool "pglite answer leaves the SQL unrendered" false (Lazy.is_val o.Obda.sql);
  let a = Obda.analyze pg example1_tbox Obda.Ucq example3_query in
  check_bool "pglite analyze leaves the SQL unrendered" false
    (Lazy.is_val a.Obda.a_outcome.Obda.sql);
  let db2 = Obda.make_engine `Db2lite `Rdf (example1_abox ()) in
  let o = Obda.answer db2 example1_tbox Obda.Ucq example3_query in
  check_bool "db2lite renders the SQL to check its limit" true (Lazy.is_val o.Obda.sql)

let test_strategy_names () =
  Alcotest.(check string) "ucq" "ucq" (Obda.strategy_name Obda.Ucq);
  Alcotest.(check string) "gdl" "gdl/rdbms" (Obda.strategy_name (Obda.Gdl Obda.Rdbms_cost));
  Alcotest.(check string) "gdl limited" "gdl20ms/ext"
    (Obda.strategy_name (Obda.Gdl_limited (Obda.Ext_cost, 0.02)));
  Alcotest.(check string) "edl" "edl/ext" (Obda.strategy_name (Obda.Edl Obda.Ext_cost));
  (* one vocabulary: every listed name parses, case-insensitively, and
     the names cover every strategy the suite runs *)
  let parsed = List.map Obda.strategy_of_name Obda.strategy_names in
  check_bool "every listed name parses to a distinct strategy" true
    (parsed = List.map Option.some all_strategies);
  check_bool "case-insensitive" true
    (List.for_all
       (fun n -> Obda.strategy_of_name (String.uppercase_ascii n) = Obda.strategy_of_name n)
       Obda.strategy_names);
  check_bool "unknown name" true (Obda.strategy_of_name "gdl-psychic" = None);
  (* the server's protocol lists and accepts exactly those names *)
  Test_server.with_example_server (fun t ->
      let c = Test_server.connect (Server.Core.port t) in
      Fun.protect
        ~finally:(fun () -> Test_server.close c)
        (fun () ->
          let hello = Test_server.request c "{\"op\":\"HELLO\",\"client\":\"test\"}" in
          check_bool "HELLO lists the vocabulary" true
            (Test_server.field hello "strategies"
            = Server.Wire.List (List.map (fun n -> Server.Wire.String n) Obda.strategy_names));
          let explain name =
            Test_server.status
              (Test_server.request c
                 (Printf.sprintf "{\"op\":\"EXPLAIN\",\"cq\":\"%s\",\"strategy\":\"%s\"}"
                    Test_server.example_cq name))
          in
          List.iter
            (fun n -> Alcotest.(check string) ("protocol accepts " ^ n) "OK" (explain n))
            Obda.strategy_names;
          Alcotest.(check string) "protocol rejects others" "ERROR" (explain "gdl-psychic")))

let test_uscq_strategy () =
  let engine = Obda.make_engine `Pglite `Simple (example1_abox ()) in
  let o = Obda.answer engine example1_tbox Obda.Uscq example3_query in
  (match o.Obda.answers with
  | Ok a -> Alcotest.(check (list (list string))) "uscq answers" [ [ "Damian" ] ] a
  | Error m -> Alcotest.fail m);
  check_bool "shape is (J)USCQ or tighter" true
    (let f = o.Obda.reformulation in
     Query.Fol.is_uscq f || Query.Fol.is_juscq f || Query.Fol.is_ucq f)

let test_incremental_updates () =
  List.iter
    (fun lk ->
      let engine = Obda.make_engine `Db2lite lk (example1_abox ()) in
      let q =
        Query.Cq.make ~head:[ v "x" ]
          ~body:[ ra "supervisedBy" (v "x") (v "y") ] ()
      in
      let before = Obda.answers_exn engine example1_tbox Obda.Ucq q in
      Alcotest.(check (list (list string))) "before" [ [ "Damian" ] ] before;
      check_bool "insert accepted" true
        (Obda.insert_role engine ~role:"supervisedBy" ~subj:"Newbie" ~obj:"Ioana");
      check_bool "duplicate refused" false
        (Obda.insert_role engine ~role:"supervisedBy" ~subj:"Newbie" ~obj:"Ioana");
      let after = Obda.answers_exn engine example1_tbox Obda.Ucq q in
      Alcotest.(check (list (list string)))
        "new fact visible" [ [ "Damian" ]; [ "Newbie" ] ] after;
      (* reasoning applies to inserted facts too *)
      check_bool "entailed membership" true
        (List.mem [ "Newbie" ]
           (Obda.answers_exn engine example1_tbox Obda.Ucq
              (Query.Cq.make ~head:[ v "x" ] ~body:[ ca "PhDStudent" (v "x") ] ()))))
    [ `Simple; `Rdf ]

(* {1 Plan cache} *)

let answers_of o =
  match o.Obda.answers with Ok a -> a | Error e -> Alcotest.fail e

(* A repeated query must hit the plan cache — identical answers, the
   outcome flagged as cached, and no new optimizer search: the trace
   sink stays silent on the warm call. *)
let test_plan_cache_hit () =
  Obda.clear_plan_cache ();
  let engine = Obda.make_engine `Pglite `Simple (example7_abox ()) in
  let strategy = Obda.Gdl Obda.Ext_cost in
  let cold = Obda.answer engine example7_tbox strategy example7_query in
  check_bool "cold call computes" false cold.Obda.plan_cached;
  let warm, events =
    Obs.Trace.record (fun () ->
        Obda.answer engine example7_tbox strategy example7_query)
  in
  check_bool "warm call served from plan cache" true warm.Obda.plan_cached;
  check_bool "answers identical" true (answers_of cold = answers_of warm);
  Alcotest.(check int) "no search events on the warm call" 0 (List.length events);
  let s = Obda.plan_cache_stats () in
  check_bool "hit visible in stats" true (s.Cache.Lru.hits > 0)

(* The cost-based strategies reduce the query on a plan-cache miss
   only: the warm call drops nothing, and both return the UCQ's
   answers. Example 1's [supervisedBy(x,y)] entails [PhDStudent(x)],
   which entails [Researcher(x)]. *)
let test_plan_cache_hit_skips_reduction () =
  Obda.clear_plan_cache ();
  let engine = Obda.make_engine `Pglite `Simple (example1_abox ()) in
  let q =
    Query.Cq.make ~head:[ v "x" ]
      ~body:[ ca "PhDStudent" (v "x"); ca "Researcher" (v "x"); ra "supervisedBy" (v "x") (v "y") ]
      ()
  in
  let dropped = Option.get (Obs.Metrics.find_counter "reform.atoms.dropped") in
  let strategy = Obda.Gdl Obda.Ext_cost in
  let d0 = Obs.Metrics.counter_value dropped in
  let cold = Obda.prepare engine example1_tbox strategy q in
  Alcotest.(check int) "cold call drops two atoms" 2 (Obs.Metrics.counter_value dropped - d0);
  Alcotest.(check (list string)) "dropped atoms" [ "PhDStudent(x)"; "Researcher(x)" ]
    (List.map Query.Atom.to_string cold.Obda.dropped);
  let d1 = Obs.Metrics.counter_value dropped in
  let warm = Obda.answer engine example1_tbox strategy q in
  check_bool "warm call served from plan cache" true warm.Obda.plan_cached;
  Alcotest.(check int) "warm call drops nothing" d1 (Obs.Metrics.counter_value dropped);
  Alcotest.(check (list (list string)))
    "answers = UCQ" (Obda.answers_exn engine example1_tbox Obda.Ucq q) (answers_of warm)

let counter name = Obs.Metrics.counter_value (Option.get (Obs.Metrics.find_counter name))

let epoch_researches () = counter "cache.plan.epoch_researches"

let stale_researches () = counter "cache.plan.stale_researches"

(* Filling an empty predicate advances the emptiness epoch, so a GDL
   plan that pruned the predicate's arms is searched again and the new
   fact reaches the answers. In Example 1 [PhDStudent] has no stored
   fact, so the cold plan drops its arm. Zed, who works with Ann but
   is supervised by no one, becomes an answer through
   [PhDStudent(Zed)], which only that arm finds. *)
let test_plan_cache_invalidation () =
  Obda.clear_plan_cache ();
  let engine = Obda.make_engine `Pglite `Simple (example1_abox ()) in
  let strategy = Obda.Gdl Obda.Ext_cost in
  ignore (Obda.answer engine example1_tbox strategy example3_query);
  ignore (Obda.insert_role engine ~role:"worksWith" ~subj:"Ann" ~obj:"Zed");
  let before = Obda.answer engine example1_tbox strategy example3_query in
  check_bool "non-empty role: plan kept" true before.Obda.plan_cached;
  check_bool "Zed not an answer yet" false (List.mem [ "Zed" ] (answers_of before));
  let e0 = epoch_researches () and d0 = stale_researches () in
  check_bool "insert accepted" true
    (Obda.insert_concept engine ~concept:"PhDStudent" ~ind:"Zed");
  let after = Obda.answer engine example1_tbox strategy example3_query in
  check_bool "plan searched again" false after.Obda.plan_cached;
  Alcotest.(check int) "one epoch re-search" 1 (epoch_researches () - e0);
  Alcotest.(check int) "no drift re-search" 0 (stale_researches () - d0);
  check_bool "new fact visible" true (List.mem [ "Zed" ] (answers_of after));
  Alcotest.(check (list (list string)))
    "answers = UCQ"
    (Obda.answers_exn engine example1_tbox Obda.Ucq example3_query)
    (answers_of after)

(* An insert into a non-empty predicate keeps every plan: the GDL plan
   is replayed (a hit, no re-search) and still finds the new answer,
   since only pruned arms could miss it. The data-independent plans
   survive every insert, including the ones that fill an empty
   predicate or grow a read predicate past the drift bound. *)
let test_plan_cache_update_scoping () =
  Obda.clear_plan_cache ();
  let engine = Obda.make_engine `Pglite `Simple (example1_abox ()) in
  let gdl = Obda.Gdl Obda.Ext_cost in
  let independent = [ Obda.Ucq; Obda.Uscq; Obda.Croot ] in
  let all = gdl :: independent in
  List.iter (fun s -> ignore (Obda.answer engine example1_tbox s example3_query)) all;
  (* supervisedBy: 2 -> 3 facts, within the bound *)
  ignore (Obda.insert_role engine ~role:"supervisedBy" ~subj:"Zed" ~obj:"Ioana");
  let s0 = Obda.plan_cache_stats () in
  let kept = Obda.answer engine example1_tbox gdl example3_query in
  let s1 = Obda.plan_cache_stats () in
  check_bool "cost-based plan kept" true kept.Obda.plan_cached;
  Alcotest.(check int) "the read is a hit" 1 (s1.Cache.Lru.hits - s0.Cache.Lru.hits);
  check_bool "new answer through the kept plan" true (List.mem [ "Zed" ] (answers_of kept));
  (* an empty concept filled, then supervisedBy grown 3 -> 7 facts *)
  ignore (Obda.insert_concept engine ~concept:"PhDStudent" ~ind:"Ann");
  ignore (Obda.insert_role engine ~role:"worksWith" ~subj:"Bob" ~obj:"Ann");
  for i = 1 to 4 do
    ignore
      (Obda.insert_role engine ~role:"supervisedBy" ~subj:(Printf.sprintf "w%d" i)
         ~obj:"Ioana")
  done;
  List.iter
    (fun s ->
      check_bool
        (Obda.strategy_name s ^ " plan survives every insert")
        true (Obda.answer engine example1_tbox s example3_query).Obda.plan_cached)
    independent;
  let reference = Obda.answers_exn engine example1_tbox Obda.Ucq example3_query in
  check_bool "Ann is an answer" true (List.mem [ "Ann" ] reference);
  List.iter
    (fun s ->
      Alcotest.(check (list (list string)))
        (Obda.strategy_name s ^ " agrees post-update")
        reference
        (Obda.answers_exn engine example1_tbox s example3_query))
    all

(* Each engine's plans are checked against its own store: an insert
   into engine [a] leaves engine [b]'s GDL plan cached with unchanged
   answers. [a]'s plan survives its own insert into a non-empty role
   too, and sees the new fact; only filling an empty predicate of [a]
   re-searches [a]'s plan, and [b]'s still hits. *)
let test_plan_cache_other_engine_insert () =
  Obda.clear_plan_cache ();
  let abox = example1_abox () in
  let a = Obda.make_engine `Pglite `Simple abox in
  let b = Obda.make_engine `Pglite `Simple abox in
  let strategy = Obda.Gdl Obda.Ext_cost in
  let cold = Obda.answer b example1_tbox strategy example3_query in
  ignore (Obda.answer a example1_tbox strategy example3_query);
  ignore (Obda.insert_role a ~role:"supervisedBy" ~subj:"Zed" ~obj:"Ioana");
  let warm = Obda.answer b example1_tbox strategy example3_query in
  check_bool "b's plan survives an insert into a" true warm.Obda.plan_cached;
  check_bool "b's answers unchanged" true (answers_of cold = answers_of warm);
  let a_after = Obda.answer a example1_tbox strategy example3_query in
  check_bool "a's plan survives an insert into a non-empty role" true
    a_after.Obda.plan_cached;
  check_bool "a sees its new fact" true (List.mem [ "Zed" ] (answers_of a_after));
  ignore (Obda.insert_concept a ~concept:"PhDStudent" ~ind:"Zed");
  check_bool "a's plan re-searched once its empty concept fills" false
    (Obda.answer a example1_tbox strategy example3_query).Obda.plan_cached;
  check_bool "b's plan still served" true
    (Obda.answer b example1_tbox strategy example3_query).Obda.plan_cached

(* Growing a read predicate past twice the cardinality the search saw
   re-searches the plan, counted as one stale re-search, one miss and
   one invalidation; the re-searched plan takes the old key, so nine
   insert -> read cycles leave one GDL entry. The plan reads
   [supervisedBy] alone, which starts with two facts: the reads after
   it holds 5 and 11 facts re-search (5 > 2·2, 11 > 2·5), the other
   seven hit. The UCQ plan stays cached throughout. *)
let test_plan_cache_one_entry_across_inserts () =
  Obda.clear_plan_cache ();
  let engine = Obda.make_engine `Pglite `Simple (example1_abox ()) in
  let gdl = Obda.Gdl Obda.Ext_cost in
  let check_int = Alcotest.(check int) in
  ignore (Obda.answer engine example1_tbox gdl example3_query);
  ignore (Obda.answer engine example1_tbox Obda.Ucq example3_query);
  let searched_at = ref 2 in
  for i = 1 to 9 do
    check_bool "insert accepted" true
      (Obda.insert_role engine ~role:"supervisedBy" ~subj:(Printf.sprintf "s%d" i)
         ~obj:"Ioana");
    let card = Rdbms.Layout.role_card (Obda.layout engine) "supervisedBy" in
    let drifted = card > 2 * !searched_at in
    let s0 = Obda.plan_cache_stats () and d0 = stale_researches () in
    let o = Obda.answer engine example1_tbox gdl example3_query in
    let s1 = Obda.plan_cache_stats () in
    let delta f = f s1 - f s0 in
    let n = Bool.to_int drifted in
    check_bool "searched again exactly past the bound" drifted (not o.Obda.plan_cached);
    check_int "stale re-searches" n (stale_researches () - d0);
    check_int "misses" n (delta (fun s -> s.Cache.Lru.misses));
    check_int "invalidations" n (delta (fun s -> s.Cache.Lru.invalidations));
    check_int "hits" (1 - n) (delta (fun s -> s.Cache.Lru.hits));
    if drifted then searched_at := card;
    check_bool "UCQ plan stays cached" true
      (Obda.answer engine example1_tbox Obda.Ucq example3_query).Obda.plan_cached
  done;
  check_int "last searched at 11 facts" 11 !searched_at;
  check_int "one GDL entry beside the UCQ entry" 2 (Obda.plan_cache_stats ()).Cache.Lru.entries

(* Queries whose heads are spelled like canonical names keep apart
   in the plan cache: [q(_c0) <- worksWith(_c0,y)] and
   [q(_c0) <- worksWith(_c0,_c0)] once had one key, so the second was
   served the first one's plan. Each must get its own answers, in
   either order, on one engine. *)
let test_plan_cache_head_named_like_canonical () =
  let q1 = Query.Cq.make ~head:[ v "_c0" ] ~body:[ ra "worksWith" (v "_c0") (v "y") ] () in
  let q2 = Query.Cq.make ~head:[ v "_c0" ] ~body:[ ra "worksWith" (v "_c0") (v "_c0") ] () in
  let abox = example1_abox () in
  let certain q = List.sort_uniq compare (Dllite.Chase.certain_answers example1_tbox abox q) in
  check_bool "the queries differ" true (certain q1 <> certain q2);
  List.iter
    (fun order ->
      Obda.clear_plan_cache ();
      let engine = Obda.make_engine `Pglite `Simple abox in
      List.iter
        (fun strategy ->
          List.iter
            (fun q ->
              Alcotest.(check (list (list string)))
                (Obda.strategy_name strategy ^ ": own answers")
                (certain q)
                (answers_of (Obda.answer engine example1_tbox strategy q)))
            order)
        [ Obda.Ucq; Obda.Gdl Obda.Ext_cost ])
    [ [ q1; q2 ]; [ q2; q1 ] ]

(* The qcheck property behind the incremental-update path: an engine
   grown by a random interleaved insert script answers every query
   identically (row order included) to an engine built fresh from the
   final fact set — across profiles, layouts, strategies, SIP on/off
   and random delta-merge boundaries. Interleaved queries keep the
   plan caches and the data-aware reformulation cache warm mid-script,
   so a pruned UCQ kept past the insert that filled its empty
   predicate or a tail fact missed by a merged view would surface as a
   divergence. The
   base facts use a random subset of the predicates and the script
   fills most of the others, so inserts put the first fact into
   previously empty and previously hopeless predicates. Both engines
   must also return the chase's certain answers. *)
let qcheck_grown_equals_fresh =
  QCheck2.Test.make ~name:"obda: engine grown by inserts = engine built fresh"
    ~count:20
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xA11; seed |] in
      let concepts = [| "PhDStudent"; "Researcher"; "Graduate" |] in
      let roles = [| "supervisedBy"; "worksWith" |] in
      let inds = Array.init 10 (Printf.sprintf "i%d") in
      let pick a = a.(Random.State.int st (Array.length a)) in
      let sub a = List.filter (fun _ -> Random.State.bool st) (Array.to_list a) in
      let base_concepts = Array.of_list (sub concepts)
      and base_roles = Array.of_list (sub roles) in
      let random_fact concepts roles =
        if Array.length roles = 0 || (Array.length concepts > 0 && Random.State.bool st)
        then `C (pick concepts, pick inds)
        else `R (pick roles, pick inds, pick inds)
      in
      let base =
        if Array.length base_concepts + Array.length base_roles = 0 then []
        else
          List.init (Random.State.int st 15) (fun _ -> random_fact base_concepts base_roles)
      in
      let fill =
        List.map (fun c -> `C (c, pick inds)) (sub concepts @ sub concepts)
        @ List.map (fun r -> `R (r, pick inds, pick inds)) (sub roles @ sub roles)
      in
      let script =
        List.map snd
          (List.sort compare
             (List.map
                (fun f -> Random.State.bits st, f)
                (fill
                @ List.init (Random.State.int st 25) (fun _ -> random_fact concepts roles))))
      in
      let abox_of facts =
        let a = Dllite.Abox.create () in
        List.iter
          (function
            | `C (concept, ind) -> Dllite.Abox.add_concept a ~concept ~ind
            | `R (role, subj, obj) -> Dllite.Abox.add_role a ~role ~subj ~obj)
          facts;
        a
      in
      let queries =
        [
          example3_query;
          Query.Cq.make ~head:[ v "x"; v "y" ]
            ~body:[ ra "worksWith" (v "x") (v "y") ] ();
          Query.Cq.make ~head:[ v "x" ]
            ~body:[ ca "Researcher" (v "x"); ra "supervisedBy" (v "x") (v "y") ] ();
        ]
      in
      let strategies =
        [ Obda.Ucq; Obda.Croot; Obda.Gdl Obda.Ext_cost; Obda.Gdl Obda.Rdbms_cost;
          Obda.Edl Obda.Ext_cost ]
      in
      List.for_all
        (fun (ek, lk) ->
          let grown = Obda.make_engine ek lk (abox_of base) in
          (match Obda.layout grown with
          | Rdbms.Layout.Simple s ->
            (* tiny threshold: the script crosses merge boundaries *)
            Rdbms.Storage.set_delta_rows s (1 + Random.State.int st 4)
          | Rdbms.Layout.Rdf _ -> ());
          List.iter
            (fun fact ->
              (match fact with
              | `C (concept, ind) -> ignore (Obda.insert_concept grown ~concept ~ind)
              | `R (role, subj, obj) ->
                ignore (Obda.insert_role grown ~role ~subj ~obj));
              if Random.State.int st 3 = 0 then
                ignore
                  (Obda.answers_exn grown example1_tbox
                     (List.nth strategies (Random.State.int st (List.length strategies)))
                     (List.nth queries (Random.State.int st 3))))
            script;
          let final = abox_of (base @ script) in
          let fresh = Obda.make_engine ek lk final in
          (* the chase, outside every cache, catches a stale entry that
             both engines would share *)
          let certain =
            List.map
              (fun q ->
                List.sort_uniq compare (Dllite.Chase.certain_answers example1_tbox final q))
              queries
          in
          List.for_all
            (fun strategy ->
              List.for_all
                (fun sip ->
                  Obda.set_sip grown sip;
                  Obda.set_sip fresh sip;
                  List.for_all2
                    (fun q expected ->
                      let got = Obda.answers_exn grown example1_tbox strategy q in
                      got = Obda.answers_exn fresh example1_tbox strategy q
                      && List.sort_uniq compare got = expected)
                    queries certain)
                [ true; false ])
            strategies)
        [ `Pglite, `Simple; `Pglite, `Rdf; `Db2lite, `Simple; `Db2lite, `Rdf ])

(* The emptiness epoch advances exactly when an insert fills an empty
   predicate, on both layouts; engines whose empty sets differ prune
   differently and never share a data-aware reformulation-cache
   entry. *)
let test_emptiness_epoch_and_cache () =
  let epoch e = Rdbms.Layout.empty_epoch (Obda.layout e) in
  List.iter
    (fun lk ->
      let e = Obda.make_engine `Pglite lk (example1_abox ()) in
      let e0 = epoch e in
      ignore (Obda.insert_role e ~role:"worksWith" ~subj:"Zed" ~obj:"Ioana");
      check_bool "insert into a non-empty role keeps the epoch" true (epoch e = e0);
      ignore (Obda.insert_concept e ~concept:"PhDStudent" ~ind:"Zed");
      check_bool "first fact of a concept advances it" true (epoch e = e0 + 1);
      ignore (Obda.insert_concept e ~concept:"PhDStudent" ~ind:"Ann");
      check_bool "insert into a non-empty concept keeps it" true (epoch e = e0 + 1);
      ignore (Obda.insert_role e ~role:"hasFriend" ~subj:"Zed" ~obj:"Ann");
      check_bool "first fact of a role advances it" true (epoch e = e0 + 2))
    [ `Simple; `Rdf ];
  let q = Query.Cq.make ~head:[ v "x" ] ~body:[ ca "Researcher" (v "x") ] () in
  let no_supervision = Dllite.Abox.of_assertions ~concepts:[]
      ~roles:[ "worksWith", "Ioana", "Francois" ]
  in
  let a = Obda.make_engine `Pglite `Simple (example1_abox ())
  and b = Obda.make_engine `Pglite `Simple no_supervision in
  let data e = Optimizer.Estimator.emptiness example1_tbox (Obda.layout e) in
  check_bool "empty sets differ" true
    (Reform.Emptiness.digest (data a) <> Reform.Emptiness.digest (data b));
  Reform.Perfectref.clear_cache ();
  let misses () = (Reform.Perfectref.cache_stats ()).Cache.Lru.misses in
  let hits () = (Reform.Perfectref.cache_stats ()).Cache.Lru.hits in
  let m0 = misses () in
  let ua = Reform.Perfectref.reformulate_cached ~data:(data a) example1_tbox q in
  let ub = Reform.Perfectref.reformulate_cached ~data:(data b) example1_tbox q in
  check_bool "no shared entry" true (misses () = m0 + 2);
  check_bool "each engine gets its own pruning" true
    (Query.Ucq.size ua <> Query.Ucq.size ub
    && Query.Ucq.size ua
       = Query.Ucq.size (Reform.Perfectref.reformulate ~data:(data a) example1_tbox q)
    && Query.Ucq.size ub
       = Query.Ucq.size (Reform.Perfectref.reformulate ~data:(data b) example1_tbox q));
  (* filling b's empty role makes its snapshot a's: the same entry *)
  ignore (Obda.insert_role b ~role:"supervisedBy" ~subj:"Damian" ~obj:"Ioana");
  check_bool "filled predicate: new snapshot" true
    (Reform.Emptiness.digest (data a) = Reform.Emptiness.digest (data b));
  let h0 = hits () in
  ignore (Reform.Perfectref.reformulate_cached ~data:(data b) example1_tbox q);
  check_bool "same empty set, same entry" true (hits () = h0 + 1)

(* Pruned cover searches return the certain answers: GDL and EDL,
   under both cost sources, on random knowledge bases whose ABoxes
   leave random predicates empty. The queries carry planted entailed
   atoms, so the searches also run on reduced queries. *)
let qcheck_pruned_searches_equal_chase =
  QCheck2.Test.make ~name:"obda: pruned GDL/EDL answers = chase" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xC4A5E |] in
      let tbox = Test_reform.random_tbox rng in
      let abox = Test_reform.random_abox rng in
      let q = Test_reform.plant_entailed rng tbox (Test_reform.random_query rng) in
      let expected = List.sort_uniq compare (Dllite.Chase.certain_answers tbox abox q) in
      List.for_all
        (fun (ek, lk) ->
          let engine = Obda.make_engine ek lk abox in
          List.for_all
            (fun strategy ->
              List.sort_uniq compare (Obda.answers_exn engine tbox strategy q) = expected)
            [ Obda.Gdl Obda.Ext_cost; Obda.Gdl Obda.Rdbms_cost; Obda.Edl Obda.Ext_cost ])
        [ `Pglite, `Simple; `Db2lite, `Rdf ])

(* Under eviction pressure (capacity 1, two queries round-robin) the
   plan cache must stay answer-equivalent to uncached evaluation. *)
let test_plan_cache_eviction_equivalence () =
  Obda.clear_plan_cache ();
  Obda.set_plan_cache_capacity 1;
  Fun.protect
    ~finally:(fun () ->
      Obda.set_plan_cache_capacity Obda.default_plan_cache_capacity;
      Obda.clear_plan_cache ())
    (fun () ->
      let engine = Obda.make_engine `Pglite `Simple (example1_abox ()) in
      let q2 =
        Query.Cq.make ~head:[ v "x" ]
          ~body:[ ra "supervisedBy" (v "x") (v "y") ] ()
      in
      let expect3 = Obda.answers_exn engine example1_tbox Obda.Ucq example3_query in
      let expect2 = Obda.answers_exn engine example1_tbox Obda.Ucq q2 in
      for _ = 1 to 3 do
        Alcotest.(check (list (list string)))
          "q3 stable under eviction" expect3
          (answers_of (Obda.answer engine example1_tbox Obda.Ucq example3_query));
        Alcotest.(check (list (list string)))
          "q2 stable under eviction" expect2
          (answers_of (Obda.answer engine example1_tbox Obda.Ucq q2))
      done;
      check_bool "evictions happened" true
        ((Obda.plan_cache_stats ()).Cache.Lru.evictions > 0))

let test_inconsistent_kb_detected () =
  (* The paper's framework assumes a T-consistent ABox; the library
     exposes the consistency check to enforce the precondition. *)
  let abox = example1_abox () in
  Dllite.Abox.add_role abox ~role:"supervisedBy" ~subj:"Ioana" ~obj:"Damian";
  check_bool "violation detected" false
    (Dllite.Kb.is_consistent (Dllite.Kb.make example1_tbox abox))

let suite =
  [
    Alcotest.test_case "all strategies agree" `Slow test_all_strategies_agree;
    Alcotest.test_case "outcome metadata" `Quick test_outcome_metadata;
    Alcotest.test_case "rdf sql longer" `Quick test_rdf_sql_longer;
    Alcotest.test_case "statement size check" `Quick test_statement_too_long;
    Alcotest.test_case "sql rendered only under a statement limit" `Quick
      test_sql_rendered_only_under_a_limit;
    Alcotest.test_case "strategy names" `Quick test_strategy_names;
    Alcotest.test_case "uscq strategy" `Quick test_uscq_strategy;
    Alcotest.test_case "incremental updates" `Quick test_incremental_updates;
    Alcotest.test_case "plan cache hit" `Quick test_plan_cache_hit;
    Alcotest.test_case "plan cache hit skips the reduction" `Quick
      test_plan_cache_hit_skips_reduction;
    Alcotest.test_case "plan cache invalidation" `Quick test_plan_cache_invalidation;
    Alcotest.test_case "plan cache update scoping" `Quick
      test_plan_cache_update_scoping;
    Alcotest.test_case "plan cache survives another engine's insert" `Quick
      test_plan_cache_other_engine_insert;
    Alcotest.test_case "plan cache keeps one entry across inserts" `Quick
      test_plan_cache_one_entry_across_inserts;
    Alcotest.test_case "plan cache keeps heads named like canonical apart" `Quick
      test_plan_cache_head_named_like_canonical;
    QCheck_alcotest.to_alcotest qcheck_grown_equals_fresh;
    Alcotest.test_case "emptiness epoch and reformulation cache" `Quick
      test_emptiness_epoch_and_cache;
    QCheck_alcotest.to_alcotest qcheck_pruned_searches_equal_chase;
    Alcotest.test_case "plan cache eviction equivalence" `Quick
      test_plan_cache_eviction_equivalence;
    Alcotest.test_case "inconsistent kb detected" `Quick test_inconsistent_kb_detected;
  ]
