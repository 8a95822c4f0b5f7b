(* The columnar batch engine: unit tests for Batch/Physical operator
   mechanics (windowing, selection-vector composition, zero-copy
   paths, incremental distinct, streaming union, probe), the
   positional [_const] naming shared by Plan/Relation/Physical, the
   injectivity of Plan.structural_key, and the qcheck differential
   property that the batch engine agrees with the legacy row engine
   (Rowexec) on randomised plans and ABoxes. *)

open Query
open Rdbms

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_cols = Alcotest.(check (array string))

let rel cols rows = Relation.make ~cols ~rows:(List.map Array.of_list rows)

(* bag comparison: sorted with duplicates preserved *)
let rows_bag r = List.sort compare (List.map Array.to_list (Relation.rows r))

(* {1 Batch windowing} *)

let test_batch_windows () =
  let r = rel [ "x"; "y" ] (List.init 10 (fun i -> [ i; 10 * i ])) in
  let op = Physical.of_relation ~batch_size:4 r in
  let b1 = Option.get (op.Physical.next ()) in
  let b2 = Option.get (op.Physical.next ()) in
  let b3 = Option.get (op.Physical.next ()) in
  check_int "first batch" 4 (Batch.length b1);
  check_int "second batch" 4 (Batch.length b2);
  check_int "tail batch" 2 (Batch.length b3);
  check_bool "drained" true (op.Physical.next () = None);
  check_int "window offsets map to absolute rows" 5 (Batch.get b2 0 1);
  check_int "tail reads rows 8-9" 80 (Batch.get b3 1 0);
  let roundtrip = Physical.to_relation (Physical.of_relation ~batch_size:3 r) in
  check_cols "roundtrip cols" r.Relation.cols roundtrip.Relation.cols;
  Alcotest.(check (list (list int))) "roundtrip rows" (rows_bag r) (rows_bag roundtrip)

let test_batch_select_composes () =
  let r = rel [ "x" ] (List.init 8 (fun i -> [ i ])) in
  (* window rows 2..7, keep window positions 1,3,5 -> rows 3,5,7, then
     keep position 2 of that -> row 7 *)
  let b = Batch.of_relation ~off:2 ~len:6 r in
  let s1 = Batch.select b [| 1; 3; 5 |] in
  check_int "first selection" 3 (Batch.length s1);
  check_int "selection is absolute" 5 (Batch.get s1 0 1);
  let s2 = Batch.select s1 [| 2 |] in
  check_int "composed selection" 1 (Batch.length s2);
  check_int "composes through the first vector" 7 (Batch.get s2 0 0);
  check_bool "not whole" false (Batch.is_whole s2);
  Alcotest.(check (list (list int)))
    "compact resolves the vectors" [ [ 7 ] ]
    (rows_bag (Batch.to_relation s2))

let test_to_relation_adopts_whole_batch () =
  let r = rel [ "x"; "y" ] [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  (* three rows fit one default-size batch: draining must hand back the
     very same column arrays, not copies *)
  let r' = Physical.to_relation (Physical.of_relation r) in
  check_bool "column arrays are shared" true
    (r'.Relation.columns.(0) == r.Relation.columns.(0)
    && r'.Relation.columns.(1) == r.Relation.columns.(1))

(* {1 Physical operators} *)

let test_project_zero_copy_and_consts () =
  let r = rel [ "x"; "y" ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let p =
    Physical.to_relation
      (Physical.project (Physical.of_relation r) [ `Col "y"; `Col "x" ])
  in
  check_cols "permuted cols" [| "y"; "x" |] p.Relation.cols;
  check_bool "constant-free projection aliases columns" true
    (p.Relation.columns.(0) == r.Relation.columns.(1)
    && p.Relation.columns.(1) == r.Relation.columns.(0));
  let q =
    Physical.to_relation
      (Physical.project (Physical.of_relation r)
         [ `Const 7; `Col "x"; `Const 9 ])
  in
  check_cols "positional const names" [| "_const0"; "x"; "_const1" |]
    q.Relation.cols;
  Alcotest.(check (list (list int)))
    "const values" [ [ 7; 1; 9 ]; [ 7; 3; 9 ] ] (rows_bag q)

let test_distinct_across_batches () =
  let r = rel [ "x"; "y" ] [ [ 1; 1 ]; [ 1; 1 ]; [ 2; 2 ]; [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ] ] in
  (* batch size 2: duplicates straddle batch boundaries, so the seen
     set must persist across next() calls *)
  let d =
    Physical.to_relation
      (Physical.distinct (Physical.of_relation ~batch_size:2 r))
  in
  Alcotest.(check (list (list int)))
    "incremental dedup" [ [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ] ] (rows_bag d);
  let e =
    Physical.to_relation (Physical.distinct (Physical.of_relation (rel [ "x" ] [])))
  in
  check_int "distinct of empty" 0 (Relation.cardinality e)

let test_union_streams_and_validates () =
  let r1 = rel [ "x" ] [ [ 1 ]; [ 2 ] ]
  and r2 = rel [ "u" ] []
  and r3 = rel [ "v" ] [ [ 2 ]; [ 3 ] ] in
  let u =
    Physical.to_relation
      (Physical.union ~cols:[ "x" ]
         (List.map Physical.of_relation [ r1; r2; r3 ]))
  in
  check_cols "arms relabelled positionally" [| "x" |] u.Relation.cols;
  Alcotest.(check (list (list int)))
    "bag union" [ [ 1 ]; [ 2 ]; [ 2 ]; [ 3 ] ] (rows_bag u);
  match
    Physical.union ~cols:[ "x" ]
      [ Physical.of_relation r1; Physical.of_relation (rel [ "a"; "b" ] []) ]
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    check_bool "arity validated up front" true
      (String.length msg > 0)

let test_probe_matches_hash_join () =
  let left = rel [ "x"; "y" ] [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 10 ] ]
  and right = rel [ "y"; "z" ] [ [ 10; 100 ]; [ 10; 101 ]; [ 30; 300 ] ] in
  let build = Relation.build right ~on:[ "y" ] in
  let probed =
    Physical.to_relation
      (Physical.probe (Physical.of_relation ~batch_size:2 left) ~build
         ~on:[ "y" ])
  in
  let reference = Relation.hash_join left right ~on:[ "y" ] in
  Alcotest.(check (list (list int)))
    "probe = hash join" (rows_bag reference) (rows_bag probed)

(* {1 Positional constant naming (regression)} *)

let test_const_naming () =
  let scan = Plan.Scan (Atom.Ra ("R", Term.Var "x", Term.Var "y")) in
  let p =
    Plan.Project
      { input = scan; out = [ `Col "x"; `Const "a"; `Col "y"; `Const "b" ] }
  in
  Alcotest.(check (list string))
    "Plan.out_cols numbers constants positionally"
    [ "x"; "_const0"; "y"; "_const1" ]
    (Plan.out_cols p);
  let r = rel [ "x" ] [ [ 1 ] ] in
  let pr = Relation.project r [ `Const 4; `Const 5; `Col "x" ] in
  check_cols "Relation.project matches" [| "_const0"; "_const1"; "x" |]
    pr.Relation.cols

(* {1 structural_key injectivity} *)

let test_structural_key_examples () =
  let key = Plan.structural_key in
  (* Plan.pp renders Var "a" and Cst "a" identically — the original
     view-store collision the key exists to prevent *)
  let var_scan = Plan.Scan (Atom.Ra ("R", Term.Var "a", Term.Var "a")) in
  let cst_scan = Plan.Scan (Atom.Ra ("R", Term.Var "a", Term.Cst "a")) in
  check_bool "variable vs equally-named constant" true
    (key var_scan <> key cst_scan);
  (* name-boundary confusion: R(xy) pieces must not reassociate *)
  let k1 = Plan.Scan (Atom.Ca ("Rx", Term.Var "y")) in
  let k2 = Plan.Scan (Atom.Ca ("R", Term.Var "xy")) in
  check_bool "length prefixes keep name boundaries" true (key k1 <> key k2);
  check_bool "operator wrappers distinguished" true
    (key (Plan.Distinct var_scan) <> key (Plan.Materialize var_scan));
  let p1 = Plan.Project { input = var_scan; out = [ `Col "a" ] } in
  let p2 = Plan.Project { input = var_scan; out = [ `Const "a" ] } in
  check_bool "col vs const output" true (key p1 <> key p2);
  check_bool "equal plans share a key" true
    (key (Plan.Distinct cst_scan) = key (Plan.Distinct cst_scan))

(* {1 Randomised plans over randomised ABoxes} *)

let pick st a = a.(Random.State.int st (Array.length a))

let pick_list st l = List.nth l (Random.State.int st (List.length l))

let concepts = [| "C"; "D"; "EC" |] (* EC stays unpopulated: empty scans *)

let roles = [| "R"; "S"; "ER" |]

let inds = [| "a"; "b"; "c"; "d" |]

let vars = [| "x"; "y"; "z"; "w" |]

let random_abox st =
  let abox = Dllite.Abox.create () in
  let n = Random.State.int st 17 in
  for _ = 1 to n do
    if Random.State.int st 3 = 0 then
      Dllite.Abox.add_concept abox
        ~concept:(if Random.State.bool st then "C" else "D")
        ~ind:(pick st inds)
    else begin
      let s = pick st inds in
      (* bias towards self-loops R(x,x) *)
      let o = if Random.State.int st 4 = 0 then s else pick st inds in
      Dllite.Abox.add_role abox
        ~role:(if Random.State.bool st then "R" else "S")
        ~subj:s ~obj:o
    end
  done;
  abox

let random_term st =
  match Random.State.int st 4 with
  | 0 -> Term.Cst (pick st inds)
  | _ -> Term.Var (pick st vars)

let random_atom st =
  if Random.State.int st 3 = 0 then Atom.Ca (pick st concepts, random_term st)
  else Atom.Ra (pick st roles, random_term st, random_term st)

let common l1 l2 = List.filter (fun c -> List.mem c l2) l1

(* Wrap a join in a random SIP annotation a third of the time: the
   differential property then exercises reducer filters, arm elision
   and both passing directions against the oblivious row engine. *)
let maybe_sip st join =
  match Random.State.int st 3 with
  | 0 -> Plan.Sip { join; dir = Plan.Build_to_probe }
  | 1 -> Plan.Sip { join; dir = Plan.Probe_to_build }
  | _ -> join

let rec random_plan st fuel =
  if fuel <= 0 then Plan.Scan (random_atom st)
  else
    match Random.State.int st 8 with
    | 0 | 1 ->
      let left = random_plan st (fuel - 2) in
      let right = random_plan st (fuel - 2) in
      let on = common (Plan.out_cols left) (Plan.out_cols right) in
      maybe_sip st
        (if Random.State.bool st then Plan.Hash_join { left; right; on }
         else Plan.Merge_join { left; right; on })
    | 2 -> (
      let left = random_plan st (fuel - 1) in
      match Plan.out_cols left with
      | [] -> Plan.Distinct left
      | cols ->
        let probe_col = pick_list st cols in
        let other =
          match Random.State.int st 4 with
          | 0 -> Term.Var probe_col (* self-loop through the index *)
          | 1 -> Term.Cst (pick st inds)
          | 2 -> Term.Var (pick_list st cols) (* bound: post-filter *)
          | _ -> Term.Var "f" (* fresh: expands the batch *)
        in
        let atom =
          if Random.State.bool st then
            Atom.Ra (pick st roles, Term.Var probe_col, other)
          else Atom.Ra (pick st roles, other, Term.Var probe_col)
        in
        maybe_sip st (Plan.Index_join { left; atom; probe_col }))
    | 3 ->
      let input = random_plan st (fuel - 1) in
      let keep =
        List.filter (fun _ -> Random.State.int st 3 > 0) (Plan.out_cols input)
      in
      let out = List.map (fun c -> `Col c) keep in
      let out =
        if Random.State.int st 3 = 0 then out @ [ `Const (pick st inds) ]
        else out
      in
      Plan.Project { input; out }
    | 4 -> Plan.Distinct (random_plan st (fuel - 1))
    | 5 -> Plan.Materialize (random_plan st (fuel - 1))
    | 6 ->
      let k = 1 + Random.State.int st 4 in
      let arm _ =
        Plan.Scan (Atom.Ra (pick st roles, Term.Var "x", Term.Var "y"))
      in
      Plan.Union { cols = [ "x"; "y" ]; inputs = List.init k arm }
    | _ -> random_plan st (fuel - 1)

let qcheck_structural_key_injective =
  QCheck2.Test.make ~name:"structural_key: equal keys imply equal plans"
    ~count:400
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (s1, s2) ->
      let plan s =
        let st = Random.State.make [| s |] in
        random_plan st (1 + Random.State.int st 3)
      in
      let p1 = plan s1 and p2 = plan s2 in
      (p1 = p2) = (Plan.structural_key p1 = Plan.structural_key p2))

(* The differential property: on any plan over any data, the batch
   engine (either cache config, simple or RDF layout, with or without
   a view store) computes the same bag as the legacy row-at-a-time
   engine — through the plain executor and
   through the instrumented (EXPLAIN ANALYZE) one, whose root node must
   also count exactly the rows it returned. *)
let qcheck_batch_equals_rowexec =
  QCheck2.Test.make ~name:"batch engine = row engine on random plans"
    ~count:120
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let abox = random_abox st in
      let plan = random_plan st (1 + Random.State.int st 4) in
      List.for_all
        (fun layout ->
          let reference = Rowexec.run layout plan in
          let ref_bag = rows_bag reference in
          let ref_answers = Rowexec.answers layout plan in
          List.for_all
            (fun config ->
              let got = Exec.run ~config layout plan in
              let analyzed, stats = Exec.run_analyzed ~config layout plan in
              got.Relation.cols = reference.Relation.cols
              && rows_bag got = ref_bag
              && rows_bag analyzed = ref_bag
              && stats.Exec.actual_rows = Relation.cardinality analyzed
              && Exec.answers ~config layout plan = ref_answers)
            [ Exec.postgres_like; Exec.db2_like ])
        [ Layout.simple_of_abox abox; Layout.rdf_of_abox abox ])

let suite =
  [
    Alcotest.test_case "batch: contiguous windows" `Quick test_batch_windows;
    Alcotest.test_case "batch: selection vectors compose" `Quick
      test_batch_select_composes;
    Alcotest.test_case "to_relation adopts a whole batch" `Quick
      test_to_relation_adopts_whole_batch;
    Alcotest.test_case "project: zero-copy and constants" `Quick
      test_project_zero_copy_and_consts;
    Alcotest.test_case "distinct: dedups across batches" `Quick
      test_distinct_across_batches;
    Alcotest.test_case "union: streams and validates arity" `Quick
      test_union_streams_and_validates;
    Alcotest.test_case "probe: matches hash join" `Quick
      test_probe_matches_hash_join;
    Alcotest.test_case "positional _const naming" `Quick test_const_naming;
    Alcotest.test_case "structural_key: collision examples" `Quick
      test_structural_key_examples;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_structural_key_injective; qcheck_batch_equals_rowexec ]
