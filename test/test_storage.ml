(* Storage: segment encode/decode round-trips (including empty,
   singleton, constant and max-width runs), the binary store format
   (save → load equivalence, a file written by the previous writer,
   corrupt/truncated files failing cleanly, a qcheck over random
   corruptions), the delta tails, and the streaming Builder matching
   the ABox load path fact for fact. *)

open Query
open Rdbms

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_arr = Alcotest.(check (array int))

(* {1 Segment round-trips} *)

let roundtrip a ~off ~len =
  let s = Segment.frame a ~off ~len in
  let words = Segment.pack s a ~off in
  let out = Array.make len (-1) in
  Segment.unpack s words out ~at:0;
  s, Bytes.length words, out

let test_segment_edges () =
  let s, nbytes, out = roundtrip [||] ~off:0 ~len:0 in
  check_int "empty len" 0 s.Segment.len;
  check_int "empty words" 0 nbytes;
  check_arr "empty decode" [||] out;
  let _, _, out = roundtrip [| 42 |] ~off:0 ~len:1 in
  check_arr "singleton" [| 42 |] out;
  (* a constant run packs to zero words *)
  let s, nbytes, out = roundtrip [| 7; 7; 7; 7 |] ~off:0 ~len:4 in
  check_int "constant words" 0 (Segment.word_count s);
  check_int "constant bytes" 0 nbytes;
  check_arr "constant decode" [| 7; 7; 7; 7 |] out;
  (* the widest representable codes: 62-bit range *)
  let _, _, out = roundtrip [| 0; max_int; 1; max_int - 1 |] ~off:0 ~len:4 in
  check_arr "max-width decode" [| 0; max_int; 1; max_int - 1 |] out;
  (* offsets slice mid-array *)
  let s, _, out = roundtrip [| 9; 1; 2; 3; 9 |] ~off:1 ~len:3 in
  check_arr "offset decode" [| 1; 2; 3 |] out;
  check_bool "frame of the slice" true (s.Segment.base = 1 && s.Segment.zmax = 3)

(* A column cut into runs of a random length, each run packed and
   unpacked into its place: the column comes back unchanged. *)
let qcheck_segment_roundtrip =
  QCheck2.Test.make ~name:"storage: segment encode/decode round-trip" ~count:300
    QCheck2.Gen.(
      pair
        (list (oneof [ int_bound 10; int_bound 100_000; int_bound max_int ]))
        (int_range 1 7))
    (fun (values, run) ->
      let a = Array.of_list values in
      let n = Array.length a in
      let out = Array.make n (-1) in
      let off = ref 0 in
      while !off < n do
        let len = min run (n - !off) in
        let s = Segment.frame a ~off:!off ~len in
        let words = Segment.pack s a ~off:!off in
        Segment.unpack s words out ~at:!off;
        off := !off + len
      done;
      out = a)

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
  let s = Storage.of_abox abox in
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
  let s = Storage.of_abox abox in
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

(* The store [obda_cli store save --facts 3000 --seed 5] writes: a
   47,632-byte file in which setting byte 35,443 from 0 to 186 turns a
   run's width into a huge value. The reader must refuse it before
   computing a word count from it. *)
let test_corrupt_width_pinned () =
  let b = Storage.Builder.create () in
  ignore
    (Lubm.Generator.generate_into ~seed:5 ~target_facts:3_000
       ~add_concept:(fun ~concept ~ind -> Storage.Builder.add_concept b ~concept ~ind)
       ~add_role:(fun ~role ~subj ~obj -> Storage.Builder.add_role b ~role ~subj ~obj)
       ());
  with_temp_store (fun file ->
      Storage.save (Storage.Builder.finish b) file;
      let bytes = read_file file in
      check_int "file length" 47_632 (Bytes.length bytes);
      check_int "byte 35,443" 0 (Char.code (Bytes.get bytes 35_443));
      Bytes.set bytes 35_443 (Char.chr 186);
      write_file file bytes;
      expect_error "byte 35,443 = 186" (Storage.load file))

(* A payload that decodes to codes outside the dictionary, or to rows
   out of order, passes every directory check; only the decoded table
   shows it. Concept C holds the codes 0, 1, 2 (the whole dictionary)
   as one 2-bit run: payload word 0b10_01_00. *)
let test_corrupt_payload () =
  let abox = Dllite.Abox.create () in
  List.iter (fun ind -> Dllite.Abox.add_concept abox ~concept:"C" ~ind) [ "a"; "b"; "c" ];
  with_temp_store (fun file ->
      Storage.save (Storage.of_abox abox) file;
      let good = read_file file in
      let payload = Int64.to_int (Bytes.get_int64_le good 16) in
      check_int "the packed run" 0b10_01_00
        (Int64.to_int (Bytes.get_int64_le good payload));
      let with_word w =
        let b = Bytes.copy good in
        Bytes.set_int64_le b payload (Int64.of_int w);
        write_file file b;
        Storage.load file
      in
      check_bool "sane payload loads" true (Result.is_ok (with_word 0b10_01_00));
      expect_error "code 3 past the dictionary" (with_word 0b11_01_00);
      expect_error "rows out of order" (with_word 0b00_01_10);
      expect_error "duplicate rows" (with_word 0b01_01_00))

(* Saving over a file replaces it by a rename: a reader that opened
   the old file keeps reading all of it. Writing in place would
   truncate the file under that reader. *)
let test_save_renames () =
  let small = Dllite.Abox.create () in
  Dllite.Abox.add_concept small ~concept:"C" ~ind:"a";
  let large = Lubm.Generator.generate ~seed:3 ~target_facts:500 () in
  with_temp_store (fun file ->
      Storage.save (Storage.of_abox large) file;
      let before = read_file file in
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          Storage.save (Storage.of_abox small) file;
          let n = in_channel_length ic in
          check_int "old file intact" (Bytes.length before) n;
          check_bool "old bytes intact" true (really_input_string ic n = Bytes.to_string before));
      check_bool "no temporary file left" false (Sys.file_exists (file ^ ".tmp"));
      check_int "new file loads" 1 (Storage.total_facts (Storage.load_exn file)))

(* {1 Files written before segments left memory}

   [legacy_store.col] was written by the writer as it stood when the
   in-memory tables were still segments, with 64-row segments, from
   [Lubm.Generator.generate ~seed:31 ~target_facts:250]: 395 facts in
   multi-segment columns. It must load into the same tables, and
   answer Q1–Q13 as, a store built fresh from the same facts. *)

let beside_executable file = Filename.concat (Filename.dirname Sys.executable_name) file

let legacy_abox () = Lubm.Generator.generate ~seed:31 ~target_facts:250 ()

let ucq_answers storage =
  let engine = Obda.make_engine_of_layout `Pglite (Layout.of_storage storage) in
  List.map
    (fun e -> Obda.answers_exn engine Lubm.Ontology.tbox Obda.Ucq e.Lubm.Workload.query)
    Lubm.Workload.queries

let test_legacy_file () =
  let loaded = Storage.load_exn (beside_executable "legacy_store.col") in
  let fresh = Storage.of_abox (legacy_abox ()) in
  check_int "395 facts" 395 (Storage.total_facts loaded);
  same_storage fresh loaded;
  check_bool "Q1-Q13 answers" true (ucq_answers fresh = ucq_answers loaded)

(* {1 Random corruption}

   1–3 random byte changes, or a truncation, of a small saved store:
   [load] returns [Error], or a store on which Q1–Q13 under UCQ
   complete. Whether the answers stay the same is not checked: the
   format carries no checksum, so a changed code can load as another
   valid code. *)
let qcheck_corruption =
  Fixtures.qcheck_corruption ~name:"store: random corruption = Error or a queryable store"
    (lazy
      (with_temp_store (fun file ->
           Storage.save (Storage.of_abox (legacy_abox ())) file;
           read_file file)))
    (fun file ->
      match Storage.load file with
      | Error _ -> true
      | Ok s ->
        ignore (ucq_answers s);
        true)

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
  let code n = Option.get (Dllite.Dict.find (Storage.dict s) n) in
  (* every row view and index sees through the tail *)
  check_bool "membership" true (Storage.concept_mem s "C" (code "z"));
  check_bool "decoded members sorted" true
    (let m = Storage.concept_rows s "C" in
     Array.length m = 2 && m.(0) < m.(1));
  check_bool "role rows merged" true
    (Array.exists (fun p -> p = (code "z", code "a")) (Storage.role_rows s "R"));
  check_bool "subject probe sees tail fact" true
    (Storage.role_matches s "R" `Subject (code "z") = [| code "a" |]);
  check_int "stats count tail rows" 2 (Storage.role_stats s "R").Storage.card;
  (* compaction folds the tails into the arrays without changing views *)
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

(* A view rebuilt after inserts merges the table's arrays with its
   tail. Random inserts (duplicates included) into a few small tables,
   reads between them that force the views, and random merge
   thresholds: after every step each view holds exactly the facts
   inserted so far, strictly sorted by code. *)
let qcheck_views_across_inserts =
  QCheck2.Test.make ~name:"delta: views rebuilt across inserts = facts so far" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x7A11 |] in
      let s = Storage.of_abox (Dllite.Abox.create ()) in
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

let test_tail_aware_absence () =
  (* subjects take the even codes 0..126, objects the odd ones 1..127:
     an insert outside a column's range must flip "provably absent" off
     while it sits in the tail, and after compaction *)
  let abox = Dllite.Abox.create () in
  for i = 0 to 63 do
    Dllite.Abox.add_role abox ~role:"R" ~subj:(Printf.sprintf "s%03d" i)
      ~obj:(Printf.sprintf "o%03d" i)
  done;
  let s = Storage.of_abox abox in
  Storage.set_delta_rows s 100;
  let code n = Option.get (Dllite.Dict.find (Storage.dict s) n) in
  check_bool "object code above the subjects" true
    (Storage.role_code_absent s "R" `Subject (code "o063"));
  check_bool "subject code below the objects" true
    (Storage.role_code_absent s "R" `Object (code "s000"));
  check_bool "present subject" false (Storage.role_code_absent s "R" `Subject (code "s010"));
  check_bool "fresh individual insert" true
    (Storage.insert_role s ~role:"R" ~subj:"zzz" ~obj:"zzz");
  check_bool "tail fact counted" false
    (Storage.role_code_absent s "R" `Subject (code "zzz"));
  Storage.compact s;
  check_bool "still visible after compaction" false
    (Storage.role_code_absent s "R" `Subject (code "zzz"));
  check_bool "absent role" true (Storage.role_code_absent s "S" `Subject 0)

let test_save_compacts_deltas () =
  let abox = Lubm.Generator.generate ~seed:13 ~target_facts:1_000 () in
  let s = Storage.of_abox abox in
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
    QCheck_alcotest.to_alcotest qcheck_views_across_inserts;
    Alcotest.test_case "delta: tail facts visible everywhere" `Quick
      test_delta_tail_visibility;
    Alcotest.test_case "delta: merge boundary equals fresh build" `Quick
      test_delta_merge_boundary;
    Alcotest.test_case "delta: incremental index order = fresh" `Quick
      test_incremental_index_order_matches_fresh;
    Alcotest.test_case "delta: absence test counts tail" `Quick
      test_tail_aware_absence;
    Alcotest.test_case "delta: save compacts pending tails" `Quick
      test_save_compacts_deltas;
    Alcotest.test_case "store: save/load round-trip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "store: loaded store absorbs inserts" `Quick
      test_load_after_insert;
    Alcotest.test_case "store: corrupt files fail cleanly" `Quick test_corrupt_files;
    Alcotest.test_case "store: corrupt run width fails cleanly (pinned)" `Quick
      test_corrupt_width_pinned;
    Alcotest.test_case "store: corrupt payload fails cleanly" `Quick test_corrupt_payload;
    QCheck_alcotest.to_alcotest qcheck_corruption;
    Alcotest.test_case "store: save replaces the file by a rename" `Quick test_save_renames;
    Alcotest.test_case "store: file from the previous writer = fresh store" `Quick
      test_legacy_file;
    Alcotest.test_case "builder: streaming = abox load" `Quick
      test_builder_matches_of_abox;
    Alcotest.test_case "store: bytes/fact under half of flat" `Quick
      test_compression_ratio;
  ]
