(* Compressed segmented storage: segment encode/decode round-trips
   (including empty, singleton, constant and max-width runs), zone-map
   pruning never changing answers (qcheck differential against the
   default-segmented engine), the binary store format (save → mmap
   load equivalence, corrupt/truncated files failing cleanly), and the
   streaming Builder matching the ABox load path fact for fact. *)

open Query
open Rdbms

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_arr = Alcotest.(check (array int))

(* {1 Segment round-trips} *)

let test_segment_edges () =
  let empty = Segment.encode [||] ~off:0 ~len:0 in
  check_int "empty len" 0 (Segment.length empty);
  check_arr "empty decode" [||] (Segment.decode empty);
  let single = Segment.encode [| 42 |] ~off:0 ~len:1 in
  check_arr "singleton" [| 42 |] (Segment.decode single);
  check_int "singleton get" 42 (Segment.get single 0);
  (* a constant run packs to zero words *)
  let const = Segment.encode [| 7; 7; 7; 7 |] ~off:0 ~len:4 in
  check_int "constant words" 0 (Segment.word_count const);
  check_arr "constant decode" [| 7; 7; 7; 7 |] (Segment.decode const);
  (* the widest representable codes: 62-bit range *)
  let wide = Segment.encode [| 0; max_int; 1; max_int - 1 |] ~off:0 ~len:4 in
  check_arr "max-width decode" [| 0; max_int; 1; max_int - 1 |] (Segment.decode wide);
  (* offsets slice mid-array *)
  let mid = Segment.encode [| 9; 1; 2; 3; 9 |] ~off:1 ~len:3 in
  check_arr "offset decode" [| 1; 2; 3 |] (Segment.decode mid);
  check_arr "decode_slice window" [| 2; 3 |] (Segment.decode_slice mid ~off:1 ~len:2)

let qcheck_segment_roundtrip =
  QCheck2.Test.make ~name:"storage: segment encode/decode round-trip" ~count:300
    QCheck2.Gen.(
      pair
        (list (oneof [ int_bound 10; int_bound 100_000; int_bound max_int ]))
        (int_range 1 7))
    (fun (values, segment_rows) ->
      let a = Array.of_list values in
      let col = Colstore.of_array ~segment_rows a in
      Colstore.to_array col = a
      && Colstore.length col = Array.length a
      && Array.for_all
           (fun i -> Colstore.get col i = a.(i))
           (Array.init (Array.length a) Fun.id))

(* {1 Zone maps} *)

let test_zone_maps_and_estimate () =
  let a = Array.init 100 Fun.id in
  let col = Colstore.of_array ~segment_rows:10 ~sorted:true a in
  check_int "segments" 10 (Colstore.seg_count col);
  check_bool "zone of seg 3" true (Colstore.zone col 3 = (30, 39));
  check_bool "min/max" true (Colstore.min_max col = Some (0, 99));
  (* every value occurs once: the zone estimate of a present code is 1
     (one segment contains it, len/ndv = 1), absent codes are 0 *)
  check_int "present code" 1 (Colstore.eq_rows_est col 42);
  check_int "absent code" 0 (Colstore.eq_rows_est col 1234)

let test_zone_pruned_scan_skips () =
  let a = Array.init 100 Fun.id in
  let col = Colstore.of_array ~segment_rows:10 ~sorted:true a in
  let reducer = Sip.of_array ~domain:128 [| 42; 47 |] in
  let skip i =
    let lo, hi = Colstore.zone col i in
    not (Sip.overlaps_range reducer ~lo ~hi)
  in
  Colstore.reset_scan_counters ();
  let op = Physical.segments_scan ~cols:[| "x" |] ~skip [| col |] in
  let rel = Physical.to_relation op in
  let scanned, skipped = Colstore.scan_counters () in
  (* keys 42..47 live in segment 4 only: 9 of 10 segments never decode *)
  check_int "segments scanned" 1 scanned;
  check_int "segments skipped" 9 skipped;
  check_arr "surviving rows" (Array.init 10 (fun i -> 40 + i))
    rel.Relation.columns.(0)

(* The pruned scan only applies a necessary condition; the engine
   differential below checks it never loses an answer. *)
let qcheck_zone_pruning_preserves_answers =
  QCheck2.Test.make
    ~name:"storage: tiny-segment engine = default engine (random sip plans)"
    ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let abox = Test_batch.random_abox st in
      let plan = Test_batch.random_plan st (1 + Random.State.int st 4) in
      let annotated = Cost.Sip_pass.annotate (Layout.simple_of_abox abox) plan in
      let tiny = Layout.of_storage (Storage.of_abox ~segment_rows:2 abox) in
      let dflt = Layout.simple_of_abox abox in
      List.for_all
        (fun plan ->
          List.for_all
            (fun config -> Exec.answers ~config tiny plan = Exec.answers ~config dflt plan)
            [ Exec.postgres_like; Exec.db2_like ])
        [ plan; annotated ])

(* Tiny segments over fixed-seed LUBM data: the reducers Sip_pass
   pushes into segmented scans must let the zone maps skip a real
   share of the segments on some workload query, with the answers of
   the default-segmented engine. Subject columns are sorted, so a
   selective join binding covers few segments' code ranges. *)
let test_zone_maps_skip_on_lubm () =
  let abox = Lubm.Generator.generate ~seed:7 ~target_facts:4_000 () in
  let tbox = Lubm.Ontology.tbox in
  let segmented =
    Obda.make_engine_of_layout `Pglite
      (Layout.of_storage (Storage.of_abox ~segment_rows:8 abox))
  in
  let reference = Obda.make_engine `Pglite `Simple abox in
  let best = ref 0. in
  List.iter
    (fun strategy ->
      List.iter
        (fun e ->
          let q = e.Lubm.Workload.query in
          Colstore.reset_scan_counters ();
          let got = Obda.answers_exn segmented tbox strategy q in
          let scanned, skipped = Colstore.scan_counters () in
          Alcotest.(check (list (list string)))
            (e.Lubm.Workload.name ^ ": tiny segments = default")
            (Obda.answers_exn reference tbox strategy q)
            got;
          if skipped > 0 then
            best :=
              Float.max !best
                (float_of_int skipped /. float_of_int (scanned + skipped)))
        Lubm.Workload.queries)
    [ Obda.Ucq; Obda.Croot; Obda.Gdl Obda.Ext_cost ];
  check_bool
    (Printf.sprintf "best segment-skip share %.2f (need 0.30)" !best)
    true (!best >= 0.30)

(* {1 Binary persistence} *)

let with_temp_store f =
  let file = Filename.temp_file "obda_store" ".col" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let same_storage a b =
  check_int "total facts" (Storage.total_facts a) (Storage.total_facts b);
  check_int "individuals" (Storage.individual_count a) (Storage.individual_count b);
  Alcotest.(check (list string))
    "concept names" (Storage.concept_names a) (Storage.concept_names b);
  Alcotest.(check (list string))
    "role names" (Storage.role_names a) (Storage.role_names b);
  List.iter
    (fun n ->
      check_arr ("concept " ^ n) (Storage.concept_rows a n) (Storage.concept_rows b n))
    (Storage.concept_names a);
  List.iter
    (fun n ->
      check_bool ("role " ^ n) true (Storage.role_rows a n = Storage.role_rows b n);
      let sa = Storage.role_stats a n and sb = Storage.role_stats b n in
      check_bool ("stats " ^ n) true (sa = sb))
    (Storage.role_names a)

let test_save_load_roundtrip () =
  let abox = Lubm.Generator.generate ~seed:7 ~target_facts:3_000 () in
  (* small segments force a multi-segment file *)
  let s = Storage.of_abox ~segment_rows:256 abox in
  with_temp_store (fun file ->
      Storage.save s file;
      let loaded = Storage.load_exn file in
      same_storage s loaded;
      (* the reopened store answers queries identically *)
      let q = (Lubm.Workload.find "Q2").Lubm.Workload.query in
      let fol =
        Query.Fol.leaf ~out:q.Cq.head
          (Reform.Perfectref.reformulate Lubm.Ontology.tbox q)
      in
      let eval layout =
        let plan = Planner.of_fol layout fol in
        Exec.answers layout plan
      in
      check_bool "answers identical" true
        (eval (Layout.of_storage s) = eval (Layout.of_storage loaded)))

let test_load_after_insert () =
  let abox = Dllite.Abox.create () in
  Dllite.Abox.add_concept abox ~concept:"C" ~ind:"a";
  Dllite.Abox.add_role abox ~role:"R" ~subj:"a" ~obj:"b";
  let s = Storage.of_abox abox in
  with_temp_store (fun file ->
      Storage.save s file;
      let loaded = Storage.load_exn file in
      (* a loaded store absorbs inserts like a built one *)
      check_bool "new concept fact" true
        (Storage.insert_concept loaded ~concept:"C" ~ind:"z");
      check_bool "duplicate rejected" false
        (Storage.insert_concept loaded ~concept:"C" ~ind:"z");
      check_bool "new role fact" true
        (Storage.insert_role loaded ~role:"R" ~subj:"z" ~obj:"a");
      check_int "facts advanced" (Storage.total_facts s + 2)
        (Storage.total_facts loaded);
      check_bool "membership index sees it" true (Storage.concept_mem loaded "C"
        (Option.get (Dllite.Dict.find (Storage.dict loaded) "z"))))

(* {1 Corrupt and truncated files fail cleanly} *)

let write_file file bytes =
  let oc = open_out_bin file in
  output_bytes oc bytes;
  close_out oc

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let expect_error name = function
  | Ok _ -> Alcotest.failf "%s: corrupt store loaded successfully" name
  | Error _ -> ()

let test_corrupt_files () =
  let abox = Lubm.Generator.generate ~seed:3 ~target_facts:500 () in
  let s = Storage.of_abox ~segment_rows:64 abox in
  with_temp_store (fun file ->
      Storage.save s file;
      let good = read_file file in
      check_bool "sane file loads" true (Result.is_ok (Storage.load file));
      (* bad magic *)
      let b = Bytes.copy good in
      Bytes.set b 0 'X';
      write_file file b;
      expect_error "magic" (Storage.load file);
      (* unsupported version *)
      let b = Bytes.copy good in
      Bytes.set_int64_le b 8 99L;
      write_file file b;
      expect_error "version" (Storage.load file);
      (* negative field in the header *)
      let b = Bytes.copy good in
      Bytes.set_int64_le b 16 (-1L);
      write_file file b;
      expect_error "negative offset" (Storage.load file);
      (* truncations at every region boundary and a few odd spots *)
      List.iter
        (fun keep ->
          if keep < Bytes.length good then begin
            write_file file (Bytes.sub good 0 keep);
            expect_error (Printf.sprintf "truncated at %d" keep) (Storage.load file)
          end)
        [ 0; 4; 8; 40; 71; 72; 200; Bytes.length good / 2; Bytes.length good - 8 ];
      (* a declared fact count that disagrees with the directory *)
      let b = Bytes.copy good in
      Bytes.set_int64_le b 56 1L;
      write_file file b;
      expect_error "fact count" (Storage.load file);
      (* restore so the cleanup path has a sane file *)
      write_file file good)

(* {1 Streaming builder = ABox load} *)

let test_builder_matches_of_abox () =
  let target = 2_000 and seed = 11 in
  let abox = Lubm.Generator.generate ~seed ~target_facts:target () in
  let b = Storage.Builder.create () in
  let emitted =
    Lubm.Generator.generate_into ~seed ~target_facts:target
      ~add_concept:(fun ~concept ~ind -> Storage.Builder.add_concept b ~concept ~ind)
      ~add_role:(fun ~role ~subj ~obj -> Storage.Builder.add_role b ~role ~subj ~obj)
      ()
  in
  check_int "same assertion stream" (Dllite.Abox.size abox) emitted;
  check_int "builder count agrees" emitted (Storage.Builder.assertion_count b);
  same_storage (Storage.of_abox abox) (Storage.Builder.finish b)

(* {1 Delta tails} *)

let test_delta_tail_visibility () =
  let abox = Dllite.Abox.create () in
  Dllite.Abox.add_concept abox ~concept:"C" ~ind:"a";
  Dllite.Abox.add_role abox ~role:"R" ~subj:"a" ~obj:"b";
  let s = Storage.of_abox abox in
  Storage.set_delta_rows s 100 (* keep everything in the tails *);
  check_bool "no pending deltas at load" true (Storage.touched_predicates s = []);
  check_bool "c insert" true (Storage.insert_concept s ~concept:"C" ~ind:"z");
  check_bool "r insert" true (Storage.insert_role s ~role:"R" ~subj:"z" ~obj:"a");
  Alcotest.(check (list string))
    "touched predicates reported" [ "C"; "R" ] (Storage.touched_predicates s);
  check_int "pending facts counted" 2 (Storage.delta_fact_count s);
  check_int "concept tail holds the insert" 1
    (Array.length (Storage.concept_tail s "C"));
  check_int "role tail holds the insert" 1
    (Array.length (fst (Storage.role_tail s "R")));
  let code n = Option.get (Dllite.Dict.find (Storage.dict s) n) in
  (* every decoded view and index sees through the tail *)
  check_bool "membership" true (Storage.concept_mem s "C" (code "z"));
  check_bool "decoded members sorted" true
    (let m = Storage.concept_rows s "C" in
     Array.length m = 2 && m.(0) < m.(1));
  check_bool "role rows merged" true
    (Array.exists (fun p -> p = (code "z", code "a")) (Storage.role_rows s "R"));
  check_bool "subject probe sees tail fact" true
    (Storage.role_matches s "R" `Subject (code "z") = [| code "a" |]);
  check_int "stats count tail rows" 2 (Storage.role_stats s "R").Storage.card;
  (* compaction folds the tails into segments without changing views *)
  let members = Storage.concept_rows s "C" and pairs = Storage.role_rows s "R" in
  Storage.compact s;
  check_bool "tails drained" true
    (Storage.touched_predicates s = [] && Storage.delta_fact_count s = 0);
  check_arr "members unchanged" members (Storage.concept_rows s "C");
  check_bool "pairs unchanged" true (pairs = Storage.role_rows s "R")

let test_delta_merge_boundary () =
  (* crossing the delta_rows threshold compacts automatically, and the
     store equals one built from scratch on the final facts *)
  let s = Storage.of_abox (Dllite.Abox.create ()) in
  Storage.set_delta_rows s 4;
  let final = Dllite.Abox.create () in
  for i = 0 to 9 do
    let ind = Printf.sprintf "i%02d" i in
    check_bool "accepted" true (Storage.insert_concept s ~concept:"C" ~ind);
    check_bool "rejected dup" false (Storage.insert_concept s ~concept:"C" ~ind);
    Dllite.Abox.add_concept final ~concept:"C" ~ind
  done;
  check_bool "auto-compaction bounded the tail" true
    (Storage.delta_fact_count s < 4);
  let decode st arr =
    Array.to_list (Array.map (Dllite.Dict.decode (Storage.dict st)) arr)
  in
  Alcotest.(check (list string))
    "grown = fresh"
    (decode s (Storage.concept_rows s "C"))
    (let f = Storage.of_abox final in
     decode f (Storage.concept_rows f "C"))

(* A decoded view rebuilt after inserts merges the new tail rows into
   the view the inserts dropped. Random inserts (duplicates included)
   into a few small tables, reads between them that force the views,
   random merge thresholds and a segment size of 2: after every step
   each view holds exactly the facts inserted so far, strictly sorted
   by code. *)
let qcheck_views_across_inserts =
  QCheck2.Test.make ~name:"delta: views rebuilt across inserts = facts so far" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x7A11 |] in
      let s = Storage.of_abox ~segment_rows:2 (Dllite.Abox.create ()) in
      Storage.set_delta_rows s (1 + Random.State.int st 6);
      let ind () = Printf.sprintf "i%d" (Random.State.int st 12) in
      let concepts = Hashtbl.create 4 and roles = Hashtbl.create 4 in
      let decode = Dllite.Dict.decode (Storage.dict s) in
      let ascending a =
        let ok = ref true in
        for i = 1 to Array.length a - 1 do
          if compare a.(i - 1) a.(i) >= 0 then ok := false
        done;
        !ok
      in
      let holds rows decode_row set =
        ascending rows
        && List.sort compare (Array.to_list (Array.map decode_row rows))
           = List.sort compare set
      in
      let views_hold () =
        Hashtbl.fold
          (fun c set ok -> ok && holds (Storage.concept_rows s c) decode !set)
          concepts true
        && Hashtbl.fold
             (fun r set ok ->
               ok && holds (Storage.role_rows s r) (fun (x, y) -> decode x, decode y) !set)
             roles true
      in
      let add tbl k v =
        let set =
          match Hashtbl.find_opt tbl k with
          | Some set -> set
          | None ->
            let set = ref [] in
            Hashtbl.add tbl k set;
            set
        in
        if not (List.mem v !set) then set := v :: !set
      in
      let ok = ref true in
      for _ = 1 to 60 do
        (if Random.State.bool st then begin
           let concept = Printf.sprintf "C%d" (Random.State.int st 2) and ind = ind () in
           ignore (Storage.insert_concept s ~concept ~ind);
           add concepts concept ind
         end
         else begin
           let role = Printf.sprintf "R%d" (Random.State.int st 2)
           and subj = ind ()
           and obj = ind () in
           ignore (Storage.insert_role s ~role ~subj ~obj);
           add roles role (subj, obj)
         end);
        if Random.State.int st 3 = 0 then ok := !ok && views_hold ()
      done;
      !ok && views_hold ())

let test_incremental_index_order_matches_fresh () =
  (* satellite: the incrementally-maintained subject/object buckets
     keep the same (sorted) order a from-scratch index build produces,
     so the two stores are indistinguishable, row order included *)
  let seed = 23 in
  let abox = Lubm.Generator.generate ~seed ~target_facts:1_500 () in
  let grown = Storage.of_abox abox in
  Storage.set_delta_rows grown 7;
  let extra =
    [ "advisor", "zz1", "zz0"; "advisor", "zz0", "zz1"; "advisor", "aa0", "zz1";
      "takesCourse", "zz1", "c0"; "takesCourse", "aa0", "c0" ]
  in
  List.iter
    (fun (role, subj, obj) ->
      check_bool "accepted" true (Storage.insert_role grown ~role ~subj ~obj))
    extra;
  let final = Lubm.Generator.generate ~seed ~target_facts:1_500 () in
  List.iter
    (fun (role, subj, obj) -> Dllite.Abox.add_role final ~role ~subj ~obj)
    extra;
  let fresh = Storage.of_abox final in
  (* all comparisons go through each store's own dictionary: the grown
     store encodes the extra individuals at insert time, the fresh one
     during load, so raw codes need not coincide *)
  let dec st a =
    Array.map
      (fun (x, y) ->
        ( Dllite.Dict.decode (Storage.dict st) x,
          Dllite.Dict.decode (Storage.dict st) y ))
      a
  in
  List.iter
    (fun n ->
      check_bool ("rows of " ^ n) true
        (dec grown (Storage.role_rows grown n) = dec fresh (Storage.role_rows fresh n));
      let bucket st side code =
        Array.map (Dllite.Dict.decode (Storage.dict st)) (Storage.role_matches st n side code)
      in
      let same_bucket side code =
        let name = Dllite.Dict.decode (Storage.dict grown) code in
        let code' = Option.get (Dllite.Dict.find (Storage.dict fresh) name) in
        check_bool ("bucket of " ^ name) true
          (bucket grown side code = bucket fresh side code')
      in
      Array.iter
        (fun (s, o) ->
          same_bucket `Subject s;
          same_bucket `Object o)
        (Storage.role_rows grown n))
    [ "advisor"; "takesCourse" ]

let test_tail_aware_zone_rows () =
  (* an insert outside every segment's range must flip the zone
     estimate from "provably absent" to at least the tail count *)
  let abox = Dllite.Abox.create () in
  for i = 0 to 63 do
    Dllite.Abox.add_role abox ~role:"R" ~subj:(Printf.sprintf "s%03d" i)
      ~obj:(Printf.sprintf "o%03d" i)
  done;
  let s = Storage.of_abox ~segment_rows:16 abox in
  Storage.set_delta_rows s 100;
  check_bool "fresh individual insert" true
    (Storage.insert_role s ~role:"R" ~subj:"zzz" ~obj:"zzz");
  let code = Option.get (Dllite.Dict.find (Storage.dict s) "zzz") in
  (match Storage.role_eq_zone_rows s "R" `Subject code with
  | Some n -> check_bool "tail fact counted" true (n >= 1)
  | None -> Alcotest.fail "role exists");
  Storage.compact s;
  match Storage.role_eq_zone_rows s "R" `Subject code with
  | Some n -> check_bool "still visible after compaction" true (n >= 1)
  | None -> Alcotest.fail "role exists after compaction"

let test_save_compacts_deltas () =
  let abox = Lubm.Generator.generate ~seed:13 ~target_facts:1_000 () in
  let s = Storage.of_abox ~segment_rows:128 abox in
  Storage.set_delta_rows s 1_000;
  check_bool "insert" true (Storage.insert_role s ~role:"advisor" ~subj:"nu" ~obj:"mu");
  check_bool "insert" true (Storage.insert_concept s ~concept:"Course" ~ind:"nc");
  check_bool "deltas pending" true (Storage.delta_fact_count s > 0);
  with_temp_store (fun file ->
      Storage.save s file;
      check_int "save compacted the live store" 0 (Storage.delta_fact_count s);
      same_storage s (Storage.load_exn file))

(* {1 Footprint} *)

let test_compression_ratio () =
  let abox = Lubm.Generator.generate ~seed:5 ~target_facts:20_000 () in
  let s = Storage.of_abox abox in
  let enc = Storage.column_bytes s and flat = Storage.flat_bytes s in
  check_bool "compresses below half of flat arrays" true (2 * enc <= flat)

let suite =
  [
    Alcotest.test_case "segment: edge runs round-trip" `Quick test_segment_edges;
    QCheck_alcotest.to_alcotest qcheck_segment_roundtrip;
    Alcotest.test_case "colstore: zone maps and eq estimate" `Quick
      test_zone_maps_and_estimate;
    Alcotest.test_case "scan: zone maps skip segments" `Quick
      test_zone_pruned_scan_skips;
    QCheck_alcotest.to_alcotest qcheck_zone_pruning_preserves_answers;
    QCheck_alcotest.to_alcotest qcheck_views_across_inserts;
    Alcotest.test_case "scan: zone maps skip segments on the LUBM workload" `Quick
      test_zone_maps_skip_on_lubm;
    Alcotest.test_case "delta: tail facts visible everywhere" `Quick
      test_delta_tail_visibility;
    Alcotest.test_case "delta: merge boundary equals fresh build" `Quick
      test_delta_merge_boundary;
    Alcotest.test_case "delta: incremental index order = fresh" `Quick
      test_incremental_index_order_matches_fresh;
    Alcotest.test_case "delta: zone estimate counts tail" `Quick
      test_tail_aware_zone_rows;
    Alcotest.test_case "delta: save compacts pending tails" `Quick
      test_save_compacts_deltas;
    Alcotest.test_case "store: save/load round-trip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "store: loaded store absorbs inserts" `Quick
      test_load_after_insert;
    Alcotest.test_case "store: corrupt files fail cleanly" `Quick test_corrupt_files;
    Alcotest.test_case "builder: streaming = abox load" `Quick
      test_builder_matches_of_abox;
    Alcotest.test_case "store: bytes/fact under half of flat" `Quick
      test_compression_ratio;
  ]
