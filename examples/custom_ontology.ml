(* Bring your own ontology: author a DL-LiteR TBox in the text syntax,
   load data from an RDF (Turtle) graph, write queries in the CQ
   syntax, and inspect what the optimizer does — reformulation, chosen
   cover, physical plan, Datalog rendering.

   Run with:  dune exec examples/custom_ontology.exe *)

let tbox_text =
  {|
  # a small publishing domain
  Novel <= Book
  Essay <= Book
  exists wrote <= Author
  exists wrote- <= Book
  Author <= exists wrote          # every author wrote something
  exists publishedBy <= Book
  exists publishedBy- <= Publisher
  Book <= !Author                 # books are not authors
  |}

let graph_text =
  {|
  @prefix ex: <http://books.example/> .
  ex:orwell a ex:Author .
  ex:neuromancer a ex:Novel .
  ex:gibson ex:wrote ex:neuromancer .
  ex:neuromancer ex:publishedBy ex:gollancz .
  ex:essays1984 a ex:Essay .
  ex:orwell ex:wrote ex:essays1984 .
  |}

let () =
  let tbox = Syntax.Tbox_text.parse tbox_text in
  Fmt.pr "TBox (%d axioms) parsed from text.@." (Dllite.Tbox.axiom_count tbox);

  let kb = Rdf.Rdfs.parse_kb graph_text in
  let abox = Dllite.Kb.abox kb in
  Fmt.pr "Data loaded from RDF: %a@.@." Dllite.Abox.pp_stats abox;

  assert (Dllite.Kb.is_consistent (Dllite.Kb.make tbox abox));

  let engine = Obda.make_engine `Pglite `Simple abox in

  (* Who is an author? gibson only through his wrote fact. *)
  let authors = Syntax.Query_text.parse "authors(?x) <- Author(?x)" in
  Fmt.pr "%s@.  certain answers: %a@.@."
    (Syntax.Query_text.to_text authors)
    (Fmt.Dump.list (Fmt.Dump.list Fmt.string))
    (Obda.answers_exn engine tbox (Obda.Gdl Obda.Ext_cost) authors);

  (* Books with author and publisher. *)
  let q =
    Syntax.Query_text.parse
      "q(?a, ?b, ?p) <- wrote(?a, ?b), Book(?b), publishedBy(?b, ?p)"
  in
  let outcome = Obda.answer engine tbox (Obda.Gdl Obda.Ext_cost) q in
  Fmt.pr "%s@.  certain answers: %a@.@."
    (Syntax.Query_text.to_text q)
    (Fmt.Dump.list (Fmt.Dump.list Fmt.string))
    (match outcome.Obda.answers with Ok a -> a | Error m -> failwith m);

  (* Look under the hood: the pipeline [answer] ran, served from the
     plan cache this time. *)
  let p = Obda.prepare engine tbox (Obda.Gdl Obda.Ext_cost) q in
  let fol = p.Obda.reformulation in
  Fmt.pr "reformulation: %d CQ disjuncts, %s dialect@." (Query.Fol.cq_count fol)
    (if Query.Fol.is_jucq fol && not (Query.Fol.is_ucq fol) then "JUCQ" else "UCQ");
  (match p.Obda.physical with
  | Ok plan ->
    Fmt.pr "@.physical plan:@.%s@."
      (Rdbms.Explain.render (Obda.profile engine) (Obda.layout engine) plan)
  | Error m -> failwith m);
  Fmt.pr "as Datalog:@.%s@." (Syntax.Datalog.of_fol fol);
  let sql = Lazy.force p.Obda.sql in
  Fmt.pr "as SQL (%d chars):@.%s@." (String.length sql) sql
