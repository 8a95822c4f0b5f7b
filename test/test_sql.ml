open Query
open Fixtures

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let count_char s ch =
  String.fold_left (fun n c -> if c = ch then n + 1 else n) 0 s

(* {1 SQL AST printing} *)

let test_ast_select () =
  let q =
    Sql.Sql_ast.Select
      {
        distinct = true;
        items = [ Sql.Sql_ast.Col ("t0", "s"), "x" ];
        from = [ Sql.Sql_ast.Table { table = "role_r"; alias = "t0" } ];
        where = [ Sql.Sql_ast.Eq (Sql.Sql_ast.Col ("t0", "o"), Sql.Sql_ast.Int_lit 3) ];
      }
  in
  let s = Sql.Sql_ast.to_string q in
  check_bool "distinct" true (contains s "SELECT DISTINCT");
  check_bool "alias" true (contains s "t0.s AS x");
  check_bool "where" true (contains s "WHERE t0.o = 3")

let test_ast_with_union_case () =
  let sel items =
    Sql.Sql_ast.Select
      { distinct = false; items; from = [ Sql.Sql_ast.Table { table = "t"; alias = "a" } ];
        where = [] }
  in
  let u = Sql.Sql_ast.Union [ sel [ Sql.Sql_ast.Int_lit 1, "x" ]; sel [ Sql.Sql_ast.Int_lit 2, "x" ] ] in
  let w = Sql.Sql_ast.With { bindings = [ "f1", u ]; body = sel [ Sql.Sql_ast.Col ("f1", "x"), "x" ] } in
  let s = Sql.Sql_ast.to_string w in
  check_bool "with" true (contains s "WITH f1 AS");
  check_bool "union" true (contains s "UNION");
  let case =
    Sql.Sql_ast.Case
      [ Sql.Sql_ast.Eq (Sql.Sql_ast.Col ("a", "p"), Sql.Sql_ast.Str_lit "r"),
        Sql.Sql_ast.Col ("a", "v") ]
  in
  let s2 = Sql.Sql_ast.to_string (sel [ case, "o" ]) in
  check_bool "case" true (contains s2 "CASE WHEN a.p = 'r' THEN a.v END")

(* {1 Generation against the simple layout} *)

let layout_simple () = Rdbms.Layout.simple_of_abox (example1_abox ())

let test_gen_cq_simple () =
  let s = Sql.Sql_ast.to_string (Sql.Sql_gen.of_cq (layout_simple ()) example3_query) in
  check_bool "concept table" true (contains s "concept_PhDStudent");
  check_bool "role table" true (contains s "role_worksWith");
  check_bool "join condition" true (contains s "WHERE");
  check_bool "distinct for set semantics" true (contains s "SELECT DISTINCT")

let test_gen_constants_encoded () =
  let q = Cq.make ~head:[ v "x" ] ~body:[ ra "worksWith" (v "x") (c "Francois") ] () in
  let s = Sql.Sql_ast.to_string (Sql.Sql_gen.of_cq (layout_simple ()) q) in
  (* Francois is dictionary-encoded to an integer literal *)
  check_bool "no raw constant" false (contains s "'Francois'");
  check_bool "equality present" true (contains s "t0.o = ")

let test_gen_jucq_uses_with () =
  let tbox = example7_tbox in
  let cover = Covers.Safety.root_cover tbox example7_query in
  let fol = Covers.Reformulate.of_cover tbox cover in
  let layout = Rdbms.Layout.simple_of_abox (example7_abox ()) in
  let s = Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol layout fol) in
  check_bool "WITH fragments" true (contains s "WITH f1 AS");
  check_bool "joins fragments" true (contains s "f2");
  check_bool "final distinct" true (contains s "SELECT DISTINCT")

let test_gen_ucq_union_terms () =
  let tbox = example1_tbox in
  let u = Reform.Perfectref.reformulate tbox example3_query in
  let fol = Fol.leaf ~out:example3_query.Cq.head u in
  let s = Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol (layout_simple ()) fol) in
  (* 4 disjuncts -> 3 UNION separators *)
  let occurrences =
    let rec go i n =
      if i + 5 > String.length s then n
      else if String.sub s i 5 = "UNION" then go (i + 5) (n + 1)
      else go (i + 1) n
    in
    go 0 0
  in
  check_int "three unions" 3 occurrences

(* {1 Generation against the RDF layout} *)

let layout_rdf () = Rdbms.Layout.rdf_of_abox (example1_abox ())

let test_gen_rdf_probing () =
  let q = Cq.make ~head:[ v "x" ] ~body:[ ra "worksWith" (v "x") (v "y") ] () in
  let s = Sql.Sql_ast.to_string (Sql.Sql_gen.of_cq (layout_rdf ()) q) in
  check_bool "probes DPH" true (contains s "DPH");
  check_bool "CASE per column" true (contains s "CASE WHEN");
  check_bool "spill branch" true (contains s "SPILL");
  check_bool "probes every column" true (contains s "PRED7")

let test_gen_rdf_much_longer () =
  let sql_length layout =
    String.length
      (Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol layout (Fol.of_cq example3_query)))
  in
  let simple = sql_length (layout_simple ()) in
  let rdf = sql_length (layout_rdf ()) in
  check_bool "rdf blows up the statement" true (rdf > 5 * simple)

(* {1 Structural sanity on the whole workload} *)

let test_balanced_parens_workload () =
  let abox = Lubm.Generator.generate ~target_facts:2_000 () in
  let layouts = [ Rdbms.Layout.simple_of_abox abox; Rdbms.Layout.rdf_of_abox abox ] in
  List.iter
    (fun e ->
      let u = Reform.Perfectref.reformulate_cached Lubm.Ontology.tbox e.Lubm.Workload.query in
      let fol = Fol.leaf ~out:e.Lubm.Workload.query.Cq.head u in
      List.iter
        (fun layout ->
          let s = Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol layout fol) in
          check_int (e.Lubm.Workload.name ^ " balanced parens") (count_char s '(')
            (count_char s ')'))
        layouts)
    Lubm.Workload.queries

let suite =
  [
    Alcotest.test_case "ast select" `Quick test_ast_select;
    Alcotest.test_case "ast with/union/case" `Quick test_ast_with_union_case;
    Alcotest.test_case "gen cq simple" `Quick test_gen_cq_simple;
    Alcotest.test_case "gen constants" `Quick test_gen_constants_encoded;
    Alcotest.test_case "gen jucq with" `Quick test_gen_jucq_uses_with;
    Alcotest.test_case "gen ucq unions" `Quick test_gen_ucq_union_terms;
    Alcotest.test_case "gen rdf probing" `Quick test_gen_rdf_probing;
    Alcotest.test_case "gen rdf longer" `Quick test_gen_rdf_much_longer;
    Alcotest.test_case "balanced parens" `Slow test_balanced_parens_workload;
  ]
