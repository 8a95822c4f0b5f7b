(* The dense-code executor kernels: the packed int table against a
   Hashtbl model, hash-join build/probe and DISTINCT against naive
   list references (unique, grouped, zero- and multi-column keys,
   selection-vector input), the storage's packed role indexes against
   a filter over the role's rows on both layouts, the fused
   index-join reducer test against a separate SIP filter, and
   one-pass answer decoding against the decode-then-sort
   definition. *)

open Rdbms

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let rows_bag r = List.sort compare (List.map Array.to_list (Relation.rows r))

(* {1 Packed int table} *)

(* Random tuples over a small value range (repeats are likely) that
   includes negative and very large codes; enough of them to force
   several rehashes. *)
let qcheck_keytab_model =
  QCheck2.Test.make ~name:"keytab: intern/find agree with a Hashtbl model" ~count:200
    QCheck2.Gen.(pair (int_bound 3) (list_size (int_bound 600) (list_size (return 3) (int_range (-3) 40))))
    (fun (arity, raw) ->
      let width = 1 + (List.length raw mod 3) in
      let t = Keytab.create arity in
      let model = Hashtbl.create 16 in
      let cols = Array.make arity [||] in
      let idx = Array.init arity Fun.id in
      let value v = if v = 40 then max_int - width else v * width in
      List.for_all
        (fun vs ->
          let tuple = Array.of_list (List.filteri (fun i _ -> i < arity) (List.map value vs)) in
          for c = 0 to arity - 1 do
            cols.(c) <- [| tuple.(c) |]
          done;
          let expected_find = Option.value ~default:(-1) (Hashtbl.find_opt model tuple) in
          let found = Keytab.find t cols idx 0 in
          let fresh = Keytab.length t in
          let id = Keytab.intern t cols idx 0 in
          if expected_find < 0 then Hashtbl.add model tuple fresh;
          let expected_id = Hashtbl.find model tuple in
          found = expected_find
          && id = expected_id
          && Keytab.length t = Hashtbl.length model
          && Array.for_all Fun.id (Array.init arity (fun c -> Keytab.key t id c = tuple.(c)))
          && (arity <> 1 || Keytab.find1 t tuple.(0) = id))
        raw)

(* {1 Hash-join build and probe} *)

let nested_loop_join l r ~on =
  let li = List.map (Relation.col_index l) on and ri = List.map (Relation.col_index r) on in
  let payload =
    List.filter (fun i -> not (List.mem r.Relation.cols.(i) on))
      (List.init (Relation.arity r) Fun.id)
  in
  List.concat_map
    (fun lrow ->
      List.filter_map
        (fun rrow ->
          if List.for_all2 (fun a b -> lrow.(a) = rrow.(b)) li ri then
            Some (Array.to_list lrow @ List.map (fun i -> rrow.(i)) payload)
          else None)
        (Relation.rows r))
    (Relation.rows l)
  |> List.sort compare

let gen_rows arity = QCheck2.Gen.(list_size (int_bound 40) (array_size (return arity) (int_bound 6)))

(* The key has zero, one or two columns; the build side's keys are
   sometimes all distinct (the [Unique] layout), sometimes repeated;
   the probe side streams in small batches behind a selection vector. *)
let qcheck_build_probe =
  QCheck2.Test.make ~name:"build/probe = nested-loop join" ~count:300
    QCheck2.Gen.(triple (int_bound 2) (gen_rows 3) (gen_rows 3))
    (fun (nk, lrows, rrows) ->
      let on = List.filteri (fun i _ -> i < nk) [ "k1"; "k2" ] in
      let left = Relation.make ~cols:[ "k1"; "k2"; "a" ] ~rows:lrows in
      let unique = List.mapi (fun i r -> [| i; r.(1); r.(2) |]) rrows in
      (* the probe side's batches drop the rows whose [a] is 6 *)
      let kept = Relation.make ~cols:[ "k1"; "k2"; "a" ] ~rows:(List.filter (fun r -> r.(2) <> 6) lrows) in
      List.for_all
        (fun rrows ->
          let right = Relation.make ~cols:[ "k1"; "k2"; "b" ] ~rows:rrows in
          let expected = nested_loop_join left right ~on in
          let build = Relation.build right ~on in
          let selected =
            Physical.sip_filter (Physical.of_relation ~batch_size:3 left) ~col:"a"
              ~reducer:(Sip.of_array ~domain:8 [| 0; 1; 2; 3; 4; 5 |])
              ~tally:ignore
          in
          rows_bag (Relation.hash_join left right ~on) = expected
          && rows_bag (Relation.probe ~left ~right_build:build ~on) = expected
          && rows_bag (Physical.to_relation (Physical.probe selected ~build ~on))
             = nested_loop_join kept right ~on
          && (Relation.group_count build = 0) = (rrows = []))
        [ rrows; unique ])

(* {1 DISTINCT} *)

let first_occurrences rows =
  List.rev
    (List.fold_left (fun acc r -> if List.mem r acc then acc else r :: acc) [] rows)

let qcheck_distinct =
  QCheck2.Test.make ~name:"distinct keeps first occurrences in order" ~count:300
    QCheck2.Gen.(pair (int_bound 3) (list_size (int_bound 60) (list_size (return 3) (int_bound 4))))
    (fun (arity, raw) ->
      let rows = List.map (fun r -> Array.of_list (List.filteri (fun i _ -> i < arity) r)) raw in
      let r = Relation.make ~cols:(List.init arity (Printf.sprintf "c%d")) ~rows in
      let expected = first_occurrences (List.map Array.to_list rows) in
      let rows_of r = List.map Array.to_list (Relation.rows r) in
      rows_of (Relation.distinct r) = expected
      && rows_of (Physical.to_relation (Physical.distinct (Physical.of_relation ~batch_size:4 r)))
         = expected)

(* {1 Packed role indexes} *)

let qcheck_role_index =
  QCheck2.Test.make ~name:"role_matches = filtered role rows, sorted (both layouts)"
    ~count:100
    QCheck2.Gen.(list_size (int_bound 40) (pair (int_bound 5) (int_bound 5)))
    (fun pairs ->
      let abox = Dllite.Abox.create () in
      List.iter
        (fun (s, o) ->
          Dllite.Abox.add_role abox ~role:"R" ~subj:(string_of_int s) ~obj:(string_of_int o))
        pairs;
      List.for_all
        (fun layout ->
          let rows = Array.to_list (Layout.role_rows layout "R") in
          let dict = Layout.dict layout in
          List.for_all
            (fun code ->
              let expect pick other =
                List.sort_uniq compare
                  (List.filter_map (fun p -> if pick p = code then Some (other p) else None) rows)
              in
              Array.to_list (Layout.role_matches layout "R" `Subject code) = expect fst snd
              && Array.to_list (Layout.role_matches layout "R" `Object code) = expect snd fst)
            (List.init (Dllite.Dict.size dict + 1) Fun.id))
        [ Layout.simple_of_abox abox; Layout.rdf_of_abox abox ])

(* {1 Fused index-join reducer} *)

let test_index_join_keep () =
  let abox = Dllite.Abox.create () in
  List.iter
    (fun (s, o) -> Dllite.Abox.add_role abox ~role:"R" ~subj:s ~obj:o)
    [ "a", "b"; "a", "c"; "a", "d"; "b", "c"; "c", "a" ];
  let layout = Layout.simple_of_abox abox in
  let dict = Layout.dict layout in
  let code s = Option.get (Dllite.Dict.find dict s) in
  let left = Relation.of_columns ~cols:[ "x" ] [| [| code "a"; code "b"; code "c" |] |] in
  let atom = Query.Atom.Ra ("R", Query.Term.Var "x", Query.Term.Var "y") in
  let reducer = Sip.of_array ~domain:(Dllite.Dict.size dict) [| code "c"; code "a" |] in
  let join ?keep () =
    Physical.index_join ?keep ~lookup:(Layout.role_matches layout "R" `Subject)
      ~dict_find:(Dllite.Dict.find dict) (Physical.of_relation left) atom "x"
  in
  let fused_pruned = ref 0 and filter_pruned = ref 0 in
  let fused =
    Physical.to_relation
      (join ~keep:(Sip.mem reducer, fun n -> fused_pruned := !fused_pruned + n) ())
  in
  let filtered =
    Physical.to_relation
      (Physical.sip_filter (join ()) ~col:"y" ~reducer ~tally:(fun n ->
           filter_pruned := !filter_pruned + n))
  in
  Alcotest.(check (list (list int))) "same rows" (rows_bag filtered) (rows_bag fused);
  check_int "same pruned count" !filter_pruned !fused_pruned;
  check_int "pruned before expansion" 2 !fused_pruned

(* {1 One-pass decode} *)

let qcheck_decode_rows =
  QCheck2.Test.make ~name:"decode_rows = decode, then sort and dedup" ~count:200
    QCheck2.Gen.(pair (int_bound 2) (list_size (int_bound 30) (list_size (return 2) (int_bound 5))))
    (fun (arity, raw) ->
      let abox = Dllite.Abox.create () in
      List.iter
        (fun i -> Dllite.Abox.add_concept abox ~concept:"C" ~ind:(Printf.sprintf "i%d" (5 - i)))
        [ 0; 1; 2; 3; 4; 5 ];
      let layout = Layout.simple_of_abox abox in
      let dict = Layout.dict layout in
      let rows = List.map (fun r -> Array.of_list (List.filteri (fun i _ -> i < arity) r)) raw in
      let r = Relation.make ~cols:(List.init arity (Printf.sprintf "c%d")) ~rows in
      let expected =
        List.sort_uniq compare
          (List.map (fun row -> Array.to_list (Array.map (Dllite.Dict.decode dict) row)) rows)
      in
      Exec.decode_rows layout r = expected)

let test_decoder_bounds () =
  let d = Dllite.Dict.create () in
  let a = Dllite.Dict.encode d "a" in
  let decode = Dllite.Dict.decoder d in
  Alcotest.(check string) "snapshot decodes" "a" (decode a);
  let b = Dllite.Dict.encode d "b" in
  check_bool "codes allocated after the snapshot are unknown to it" true
    (match decode b with _ -> false | exception Invalid_argument _ -> true);
  check_bool "negative codes rejected" true
    (match decode (-1) with _ -> false | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "index join: fused reducer = SIP filter" `Quick test_index_join_keep;
    Alcotest.test_case "dict decoder: snapshot bounds" `Quick test_decoder_bounds;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_keytab_model;
        qcheck_build_probe;
        qcheck_distinct;
        qcheck_role_index;
        qcheck_decode_rows;
      ]
