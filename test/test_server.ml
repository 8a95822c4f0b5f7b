(* The OBDA server: wire format, protocol goldens, admission control,
   and concurrent-vs-sequential answer identity. Every server binds an
   ephemeral port (port 0) so parallel CI runs never collide. *)

module Wire = Server.Wire
open Fixtures

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* {1 Wire} *)

let test_wire_roundtrip () =
  let cases =
    [ "null", Wire.Null;
      "true", Wire.Bool true;
      "42", Wire.Int 42;
      "-7", Wire.Int (-7);
      "\"hi\"", Wire.String "hi";
      "[1,2,3]", Wire.List [ Wire.Int 1; Wire.Int 2; Wire.Int 3 ];
      "{\"a\":1,\"b\":[true,null]}",
      Wire.Obj [ "a", Wire.Int 1; "b", Wire.List [ Wire.Bool true; Wire.Null ] ] ]
  in
  List.iter
    (fun (text, v) ->
      check_string "print" text (Wire.to_string v);
      match Wire.of_string text with
      | Ok v' -> check_bool ("parse " ^ text) true (v = v')
      | Error e -> Alcotest.failf "parse %s: %s" text e)
    cases

let test_wire_escapes () =
  check_string "control chars escaped" "\"a\\nb\\tc\\\"d\\\\e\""
    (Wire.to_string (Wire.String "a\nb\tc\"d\\e"));
  (match Wire.of_string "\"\\u00e9\\u0041\"" with
  | Ok (Wire.String s) -> check_string "unicode escape" "\xc3\xa9A" s
  | _ -> Alcotest.fail "unicode escape");
  (match Wire.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Wire.String s) -> check_string "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair");
  check_bool "nan prints null" true (Wire.to_string (Wire.Float Float.nan) = "null")

let test_wire_errors () =
  let bad = [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "truefalse"; "1 2"; "nul" ] in
  List.iter
    (fun text ->
      match Wire.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    bad;
  (match Wire.of_string " 3.5e2 " with
  | Ok (Wire.Float f) -> check_bool "float" true (f = 350.)
  | _ -> Alcotest.fail "float parse");
  match Wire.of_string "12" with
  | Ok (Wire.Int 12) -> ()
  | _ -> Alcotest.fail "int parse"

(* {1 Protocol parsing and reply rendering} *)

let test_protocol_parse () =
  (match Server.Protocol.parse_request "{\"op\":\"hello\",\"client\":\"t\"}" with
  | Ok (Server.Protocol.Hello { client = Some "t" }) -> ()
  | _ -> Alcotest.fail "hello");
  (match
     Server.Protocol.parse_request
       "{\"op\":\"ANSWER\",\"id\":7,\"query\":\"Q3\",\"strategy\":\"ucq\",\"deadline_ms\":5.5,\"limit\":10}"
   with
  | Ok
      (Server.Protocol.Answer
        { a_id = Some 7;
          a_query = Server.Protocol.Named "Q3";
          a_strategy = Some "ucq";
          a_deadline_ms = Some 5.5;
          a_limit = Some 10 }) -> ()
  | _ -> Alcotest.fail "answer");
  (match Server.Protocol.parse_request "{\"op\":\"EXPLAIN\",\"cq\":\"q(?x) <- A(?x)\",\"analyze\":true}" with
  | Ok (Server.Protocol.Explain { e_query = Server.Protocol.Inline _; e_analyze = true; _ }) -> ()
  | _ -> Alcotest.fail "explain");
  (match
     Server.Protocol.parse_request
       "{\"op\":\"UPDATE\",\"insert\":[{\"concept\":\"C\",\"ind\":\"a\"},{\"role\":\"r\",\"subj\":\"a\",\"obj\":\"b\"}]}"
   with
  | Ok (Server.Protocol.Update { inserts = [ _; _ ]; _ }) -> ()
  | _ -> Alcotest.fail "update");
  (match Server.Protocol.parse_request "{\"op\":\"METRICS\",\"scope\":\"registry\"}" with
  | Ok (Server.Protocol.Metrics { scope = Server.Protocol.Scope_registry; _ }) -> ()
  | _ -> Alcotest.fail "metrics");
  (match Server.Protocol.parse_request "{\"op\":\"QUIT\"}" with
  | Ok Server.Protocol.Quit -> ()
  | _ -> Alcotest.fail "quit");
  (* defects are reported, never raised *)
  List.iter
    (fun line ->
      match Server.Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [ "not json";
      "{\"no_op\":1}";
      "{\"op\":\"FROBNICATE\"}";
      "{\"op\":\"ANSWER\"}";
      "{\"op\":\"ANSWER\",\"query\":\"Q1\",\"cq\":\"q(?x) <- A(?x)\"}";
      "{\"op\":\"UPDATE\",\"insert\":[]}";
      "{\"op\":\"UPDATE\",\"insert\":[{\"concept\":\"C\"}]}";
      "{\"op\":\"METRICS\",\"scope\":\"galaxy\"}" ]

let test_reply_goldens () =
  check_string "ok" "{\"status\":\"OK\",\"id\":3,\"rows\":2}"
    (Server.Protocol.ok ~id:(Some 3) [ "rows", Wire.Int 2 ]);
  check_string "error" "{\"status\":\"ERROR\",\"reason\":\"boom\"}"
    (Server.Protocol.error ~id:None "boom");
  check_string "overloaded" "{\"status\":\"OVERLOADED\",\"id\":9,\"queue_depth\":4}"
    (Server.Protocol.overloaded ~id:(Some 9) ~queue_depth:4);
  check_string "timeout" "{\"status\":\"TIMEOUT\",\"deadline_ms\":2.5}"
    (Server.Protocol.timeout ~id:None ~deadline_ms:2.5)

(* {1 A tiny test client} *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd

let request (_, ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let send_only (_, _, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let recv (_, ic, _) = input_line ic

let close (fd, _, _) = try Unix.close fd with _ -> ()

let parsed line =
  match Wire.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable reply %S: %s" line e

let field line name =
  match Wire.member name (parsed line) with
  | Some v -> v
  | None -> Alcotest.failf "reply %S lacks %S" line name

let status line = match field line "status" with Wire.String s -> s | _ -> "?"

let int_field line name =
  match Wire.to_int_opt (field line name) with
  | Some i -> i
  | None -> Alcotest.failf "reply %S: %S not an int" line name

(* The paper's Example 1 KB: tiny, deterministic, no LUBM generation
   cost. [q(?x) <- PhDStudent(?x), worksWith(?y, ?x)] answers
   [Damian] under the TBox. *)
let with_example_server ?(config = Server.Core.default_config) f =
  let engine = Obda.make_engine `Pglite `Simple (example1_abox ()) in
  let t = Server.Core.start ~config:{ config with port = 0 } ~engine ~tbox:example1_tbox () in
  Fun.protect ~finally:(fun () -> Server.Core.stop t) (fun () -> f t)

let example_cq = "q(?x) <- PhDStudent(?x), worksWith(?y, ?x)"

let test_verb_goldens () =
  with_example_server (fun t ->
      let c = connect (Server.Core.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          (* HELLO *)
          let r = request c "{\"op\":\"HELLO\",\"client\":\"test\"}" in
          check_string "hello status" "OK" (status r);
          check_int "hello generation" 0 (int_field r "generation");
          (match field r "strategies" with
          | Wire.List l -> check_int "strategies" 7 (List.length l)
          | _ -> Alcotest.fail "strategies not a list");
          (* ANSWER over an inline CQ *)
          let r =
            request c
              (Printf.sprintf "{\"op\":\"ANSWER\",\"id\":1,\"cq\":\"%s\",\"limit\":10}" example_cq)
          in
          check_string "answer status" "OK" (status r);
          check_int "answer id" 1 (int_field r "id");
          check_int "answer rows" 1 (int_field r "rows");
          check_bool "answer content" true
            (field r "answers" = Wire.List [ Wire.List [ Wire.String "Damian" ] ]);
          (* EXPLAIN *)
          let r =
            request c (Printf.sprintf "{\"op\":\"EXPLAIN\",\"id\":2,\"cq\":\"%s\"}" example_cq)
          in
          check_string "explain status" "OK" (status r);
          check_bool "explain has plan tree" true
            (match field r "plan" with Wire.Obj _ -> true | _ -> false);
          (* UPDATE: a brand-new fact, then the same fact again *)
          let upd = "{\"op\":\"UPDATE\",\"id\":3,\"insert\":[{\"concept\":\"PhDStudent\",\"ind\":\"newbie\"},{\"role\":\"worksWith\",\"subj\":\"Eva\",\"obj\":\"newbie\"}]}" in
          let r = request c upd in
          check_string "update" "{\"status\":\"OK\",\"id\":3,\"generation\":2,\"accepted\":2,\"duplicates\":0}" r;
          let r = request c upd in
          check_int "re-update duplicates" 2 (int_field r "duplicates");
          check_int "generation unchanged by duplicates" 2 (int_field r "generation");
          (* the new fact is part of the next answer *)
          let r =
            request c
              (Printf.sprintf "{\"op\":\"ANSWER\",\"id\":4,\"cq\":\"%s\",\"limit\":10}" example_cq)
          in
          check_int "rows after update" 2 (int_field r "rows");
          check_int "answer carries new generation" 2 (int_field r "generation");
          (* METRICS, all three scopes *)
          let r = request c "{\"op\":\"METRICS\",\"scope\":\"server\"}" in
          check_string "metrics status" "OK" (status r);
          check_int "metrics ok count" 5 (int_field r "ok");
          check_int "metrics sessions" 1 (int_field r "active_sessions");
          let r = request c "{\"op\":\"METRICS\",\"scope\":\"session\"}" in
          (* the session-scope METRICS request is itself the 8th counted
             request: the counter bumps before the reply is rendered *)
          check_int "session requests" 8 (int_field r "requests");
          let r = request c "{\"op\":\"METRICS\",\"scope\":\"registry\"}" in
          check_bool "registry embedded" true
            (match field r "registry" with Wire.Obj _ -> true | _ -> false);
          (* QUIT *)
          let r = request c "{\"op\":\"QUIT\"}" in
          check_string "quit" "{\"status\":\"OK\",\"bye\":true}" r))

let test_malformed_keeps_connection () =
  with_example_server (fun t ->
      let c = connect (Server.Core.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          let r = request c "this is not json" in
          check_string "garbage gets ERROR" "ERROR" (status r);
          let r = request c "{\"op\":\"ANSWER\",\"id\":1,\"query\":\"Q1\",\"cq\":\"both\"}" in
          check_string "ambiguous query gets ERROR" "ERROR" (status r);
          let r = request c "{\"op\":\"ANSWER\",\"cq\":\"q(?x) <- \"}" in
          check_string "parse error gets ERROR" "ERROR" (status r);
          let r = request c "{\"op\":\"ANSWER\",\"query\":\"Q99\"}" in
          check_string "unknown workload gets ERROR" "ERROR" (status r);
          let r = request c "{\"op\":\"ANSWER\",\"query\":\"Q1\",\"strategy\":\"psychic\"}" in
          check_string "unknown strategy gets ERROR" "ERROR" (status r);
          (* after five defects the session still answers *)
          let r = request c "{\"op\":\"HELLO\"}" in
          check_string "connection survives" "OK" (status r);
          let st = Server.Core.stats t in
          check_int "protocol errors counted" 5 st.Server.Core.protocol_errors))

let test_overload_sheds_deterministically () =
  let config = { Server.Core.default_config with queue_depth = 2; workers = 1 } in
  with_example_server ~config (fun t ->
      let c = connect (Server.Core.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          (* freeze the workers: admitted requests stay queued *)
          Server.Core.pause t;
          let answer id =
            Printf.sprintf "{\"op\":\"ANSWER\",\"id\":%d,\"cq\":\"%s\",\"limit\":1}" id example_cq
          in
          send_only c (answer 1);
          send_only c (answer 2);
          (* queue now at depth 2: requests 3 and 4 must shed *)
          send_only c (answer 3);
          send_only c (answer 4);
          let r3 = recv c and r4 = recv c in
          check_string "request 3 shed" "OVERLOADED" (status r3);
          check_int "shed echoes id" 3 (int_field r3 "id");
          check_int "shed reports depth" 2 (int_field r3 "queue_depth");
          check_string "request 4 shed" "OVERLOADED" (status r4);
          (* unfreeze: both queued requests complete *)
          Server.Core.resume t;
          let r1 = recv c and r2 = recv c in
          check_string "request 1 answered" "OK" (status r1);
          check_string "request 2 answered" "OK" (status r2);
          check_bool "queued ids" true
            (List.sort compare [ int_field r1 "id"; int_field r2 "id" ] = [ 1; 2 ]);
          let st = Server.Core.stats t in
          check_int "stats sheds" 2 st.Server.Core.shed;
          check_int "stats ok" 2 st.Server.Core.ok))

let test_deadline_timeout () =
  with_example_server (fun t ->
      let c = connect (Server.Core.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          (* paused, the request provably waits past a 0ms deadline *)
          Server.Core.pause t;
          send_only c
            (Printf.sprintf "{\"op\":\"ANSWER\",\"id\":1,\"cq\":\"%s\",\"deadline_ms\":0}" example_cq);
          Server.Core.resume t;
          let r = recv c in
          check_string "deadline exceeded" "TIMEOUT" (status r);
          check_int "timeout echoes id" 1 (int_field r "id");
          let st = Server.Core.stats t in
          check_int "stats timeouts" 1 st.Server.Core.timeouts;
          (* a generous deadline still answers *)
          let r =
            request c
              (Printf.sprintf "{\"op\":\"ANSWER\",\"id\":2,\"cq\":\"%s\",\"deadline_ms\":60000}" example_cq)
          in
          check_string "deadline met" "OK" (status r)))

(* {1 Concurrent sessions vs sequential Obda.answer}

   A LUBM engine this time, so the stream exercises real workload
   queries and the shared plan cache. *)

let lubm_kb =
  lazy
    (let abox = Lubm.Generator.generate ~seed:42 ~target_facts:1500 () in
     Lubm.Ontology.tbox, Obda.make_engine `Pglite `Simple abox)

let qcheck_concurrent_equals_sequential =
  QCheck2.Test.make ~name:"N concurrent sessions = sequential Obda.answer" ~count:5
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let tbox, engine = Lazy.force lubm_kb in
      let config =
        { Server.Core.default_config with workers = 3; max_answer_rows = 100_000 }
      in
      let t = Server.Core.start ~config ~engine ~tbox () in
      Fun.protect ~finally:(fun () -> Server.Core.stop t) (fun () ->
          let sessions = 4 and per_session = 8 in
          let strategy = Obda.Gdl Obda.Ext_cost in
          (* per-session deterministic query picks *)
          let picks k =
            let rng = Random.State.make [| seed; k |] in
            List.init per_session (fun _ ->
                Printf.sprintf "Q%d" (1 + Random.State.int rng 13))
          in
          (* the sequential oracle, computed on the same engine *)
          let expected name =
            let q = (Lubm.Workload.find name).Lubm.Workload.query in
            match (Obda.answer engine tbox strategy q).Obda.answers with
            | Ok rows -> rows
            | Error e -> Alcotest.failf "oracle failed on %s: %s" name e
          in
          let results = Array.make sessions [] in
          let threads =
            List.init sessions (fun k ->
                Thread.create
                  (fun () ->
                    let c = connect (Server.Core.port t) in
                    Fun.protect ~finally:(fun () -> close c) (fun () ->
                        results.(k) <-
                          List.map
                            (fun name ->
                              let r =
                                request c
                                  (Printf.sprintf
                                     "{\"op\":\"ANSWER\",\"query\":\"%s\",\"strategy\":\"gdl-ext\",\"limit\":100000}"
                                     name)
                              in
                              name, r)
                            (picks k)))
                  ())
          in
          List.iter Thread.join threads;
          Array.iteri
            (fun k session_results ->
              List.iter
                (fun (name, reply) ->
                  if status reply <> "OK" then
                    QCheck2.Test.fail_reportf "session %d %s: %s" k name reply;
                  let rows =
                    match field reply "answers" with
                    | Wire.List l ->
                      List.map
                        (function
                          | Wire.List row ->
                            List.map
                              (function Wire.String s -> s | _ -> "?")
                              row
                          | _ -> [])
                        l
                    | _ -> []
                  in
                  if rows <> expected name then
                    QCheck2.Test.fail_reportf "session %d: %s differs from Obda.answer" k name)
                session_results)
            results;
          true))

let qcheck_concurrent_with_writer =
  QCheck2.Test.make ~name:"concurrent answers stay correct under a generation-bumping writer"
    ~count:3
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let tbox, engine = Lazy.force lubm_kb in
      let config = { Server.Core.default_config with workers = 3; max_answer_rows = 100_000 } in
      let t = Server.Core.start ~config ~engine ~tbox () in
      Fun.protect ~finally:(fun () -> Server.Core.stop t) (fun () ->
          let sessions = 3 and per_session = 6 in
          let strategy = Obda.Gdl Obda.Ext_cost in
          let gen_before = Obda.generation engine in
          (* the writer inserts facts for a concept no workload query
             mentions: every insert bumps the generation (flushing
             cached plans) without changing any query's answers *)
          let writer_done = ref false in
          let writer =
            Thread.create
              (fun () ->
                let c = connect (Server.Core.port t) in
                Fun.protect ~finally:(fun () -> close c) (fun () ->
                    for i = 1 to 5 do
                      let r =
                        request c
                          (Printf.sprintf
                             "{\"op\":\"UPDATE\",\"insert\":[{\"concept\":\"TestMarker\",\"ind\":\"w%d_%d\"}]}"
                             seed i)
                      in
                      if status r <> "OK" then QCheck2.Test.fail_reportf "writer: %s" r;
                      Thread.delay 0.002
                    done;
                    writer_done := true))
              ()
          in
          let expected = Hashtbl.create 16 in
          let results = Array.make sessions [] in
          let threads =
            List.init sessions (fun k ->
                Thread.create
                  (fun () ->
                    let rng = Random.State.make [| seed; k; 77 |] in
                    let c = connect (Server.Core.port t) in
                    Fun.protect ~finally:(fun () -> close c) (fun () ->
                        results.(k) <-
                          List.init per_session (fun _ ->
                              let name = Printf.sprintf "Q%d" (1 + Random.State.int rng 13) in
                              let r =
                                request c
                                  (Printf.sprintf
                                     "{\"op\":\"ANSWER\",\"query\":\"%s\",\"strategy\":\"gdl-ext\",\"limit\":100000}"
                                     name)
                              in
                              name, r)))
                  ())
          in
          List.iter Thread.join threads;
          Thread.join writer;
          if not !writer_done then QCheck2.Test.fail_report "writer did not finish";
          let gen_after = Obda.generation engine in
          if gen_after < gen_before + 5 then
            QCheck2.Test.fail_reportf "generation did not advance: %d -> %d" gen_before gen_after;
          (* the oracle runs after the writer: TestMarker facts change
             no workload answers, so sequential answers on the final
             state must equal what every session saw *)
          List.iter
            (fun name ->
              if not (Hashtbl.mem expected name) then
                let q = (Lubm.Workload.find name).Lubm.Workload.query in
                match (Obda.answer engine tbox strategy q).Obda.answers with
                | Ok rows -> Hashtbl.add expected name rows
                | Error e -> Alcotest.failf "oracle failed on %s: %s" name e)
            (Array.to_list results |> List.concat |> List.map fst);
          Array.iteri
            (fun k session_results ->
              List.iter
                (fun (name, reply) ->
                  if status reply <> "OK" then
                    QCheck2.Test.fail_reportf "session %d %s: %s" k name reply;
                  let rows =
                    match field reply "answers" with
                    | Wire.List l ->
                      List.map
                        (function
                          | Wire.List row ->
                            List.map (function Wire.String s -> s | _ -> "?") row
                          | _ -> [])
                        l
                    | _ -> []
                  in
                  if rows <> Hashtbl.find expected name then
                    QCheck2.Test.fail_reportf
                      "session %d: %s differs from post-writer Obda.answer" k name)
                session_results)
            results;
          true))

(* EXPLAIN shows what ANSWER runs. After training on the join-skew
   fixture (R and S never join, so the static estimate of R |><| S is
   400 rows against an actual 0), the corrections move the SIP pass's
   decision on the join into T. The server's EXPLAIN must show that
   corrected plan — the one the engine's pipeline hands the executor —
   not a plan re-annotated without the feedback store. *)
let test_explain_shows_the_plan_answer_runs () =
  let abox = Test_feedback.skewed_abox () in
  for i = 0 to 19 do
    for j = 1 to 5 do
      Dllite.Abox.add_role abox ~role:"T" ~subj:(Printf.sprintf "z%d" i)
        ~obj:(Printf.sprintf "w%d_%d" i j)
    done
  done;
  let engine = Obda.make_engine `Pglite `Simple abox in
  let tbox = Dllite.Tbox.empty in
  let text = "q(?x, ?w) <- R(?x, ?y), S(?y, ?z), T(?z, ?w)" in
  let q = Syntax.Query_text.parse text in
  let strategy = Server.Core.default_config.Server.Core.default_strategy in
  Obda.clear_plan_cache ();
  for _ = 1 to 3 do
    ignore (Obda.analyze engine tbox strategy q)
  done;
  let lay = Obda.layout engine and profile = Obda.profile engine in
  let p = Obda.prepare engine tbox strategy q in
  let plan =
    match p.Obda.physical with Ok plan -> plan | Error e -> Alcotest.fail e
  in
  let uncorrected =
    Cost.Sip_pass.annotate ~model:(Cost.Cost_model.calibrated `Pglite) lay
      (Rdbms.Planner.of_fol lay p.Obda.reformulation)
  in
  check_bool "the corrections move the SIP annotations" true (plan <> uncorrected);
  let t = Server.Core.start ~config:{ Server.Core.default_config with port = 0 } ~engine ~tbox () in
  Fun.protect ~finally:(fun () -> Server.Core.stop t) (fun () ->
      let c = connect (Server.Core.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          let r = request c (Printf.sprintf "{\"op\":\"EXPLAIN\",\"cq\":\"%s\"}" text) in
          check_string "explain status" "OK" (status r);
          check_bool "EXPLAIN plan = the plan the pipeline runs" true
            (Wire.of_string (Rdbms.Explain.render_json profile lay plan)
            = Ok (field r "plan"))))

(* EXPLAIN lists the leaves the cost-based strategies factorised, as
   the pipeline recorded them: Q6's single product leaf under GDL/ext,
   nothing under UCQ. *)
let test_explain_lists_factorised_leaves () =
  let tbox, engine = Lazy.force lubm_kb in
  let q = (Lubm.Workload.find "Q6").Lubm.Workload.query in
  let expected strategy =
    Wire.List
      (List.map
         (fun { Reform.Factorise.arms; parts } ->
           Wire.Obj
             [ "arms", Wire.Int arms; "parts", Wire.List (List.map (fun n -> Wire.Int n) parts) ])
         (Obda.prepare engine tbox strategy q).Obda.factorised)
  in
  check_bool "Q6 factorises under GDL/ext" true
    (expected (Obda.Gdl Obda.Ext_cost) <> Wire.List []);
  let t = Server.Core.start ~config:{ Server.Core.default_config with port = 0 } ~engine ~tbox () in
  Fun.protect ~finally:(fun () -> Server.Core.stop t) (fun () ->
      let c = connect (Server.Core.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          List.iter
            (fun (name, strategy) ->
              let r =
                request c
                  (Printf.sprintf "{\"op\":\"EXPLAIN\",\"query\":\"Q6\",\"strategy\":\"%s\"}" name)
              in
              check_string "explain status" "OK" (status r);
              check_bool (name ^ ": factorised leaves") true
                (field r "factorised" = expected strategy))
            [ "gdl-ext", Obda.Gdl Obda.Ext_cost; "ucq", Obda.Ucq ]))

let suite =
  [
    Alcotest.test_case "wire: print/parse round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: string escapes and unicode" `Quick test_wire_escapes;
    Alcotest.test_case "wire: malformed inputs rejected" `Quick test_wire_errors;
    Alcotest.test_case "protocol: request parsing" `Quick test_protocol_parse;
    Alcotest.test_case "protocol: reply goldens" `Quick test_reply_goldens;
    Alcotest.test_case "server: every verb round-trips" `Quick test_verb_goldens;
    Alcotest.test_case "server: malformed requests keep the connection" `Quick
      test_malformed_keeps_connection;
    Alcotest.test_case "server: overload sheds at queue depth" `Quick
      test_overload_sheds_deterministically;
    Alcotest.test_case "server: expired deadline gets TIMEOUT" `Quick test_deadline_timeout;
    Alcotest.test_case "server: EXPLAIN shows the plan ANSWER runs" `Quick
      test_explain_shows_the_plan_answer_runs;
    Alcotest.test_case "server: EXPLAIN lists factorised leaves" `Quick
      test_explain_lists_factorised_leaves;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_concurrent_equals_sequential; qcheck_concurrent_with_writer ]
