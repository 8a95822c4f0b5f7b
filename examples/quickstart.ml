(* Quickstart: the knowledge base of Examples 1–4 of the paper, end to
   end — build a DL-LiteR KB, check what it entails, reformulate a
   query, and answer it through the relational engine.

   Run with:  dune exec examples/quickstart.exe *)

open Dllite

let v x = Query.Term.Var x

let () =
  (* The TBox of Example 1: PhD students are researchers, people work
     with researchers, supervision implies working together, only PhD
     students are supervised, and supervisors are never supervised. *)
  let atomic = Concept.atomic in
  let ex p = Concept.Exists (Role.named p) in
  let ex_inv p = Concept.Exists (Role.Inverse p) in
  let tbox =
    Tbox.of_axioms
      [
        Axiom.Concept_sub (atomic "PhDStudent", atomic "Researcher");
        Axiom.Concept_sub (ex "worksWith", atomic "Researcher");
        Axiom.Concept_sub (ex_inv "worksWith", atomic "Researcher");
        Axiom.Role_sub (Role.named "worksWith", Role.Inverse "worksWith");
        Axiom.Role_sub (Role.named "supervisedBy", Role.named "worksWith");
        Axiom.Concept_sub (ex "supervisedBy", atomic "PhDStudent");
        Axiom.Concept_disj (atomic "PhDStudent", ex_inv "supervisedBy");
      ]
  in
  Fmt.pr "== TBox ==@.%a@.@." Tbox.pp tbox;

  (* The ABox of Example 1. *)
  let abox =
    Abox.of_assertions ~concepts:[]
      ~roles:
        [
          "worksWith", "Ioana", "Francois";
          "supervisedBy", "Damian", "Ioana";
          "supervisedBy", "Damian", "Francois";
        ]
  in
  let kb = Kb.make tbox abox in
  Fmt.pr "== KB checks (Example 2) ==@.";
  Fmt.pr "consistent?                        %b@." (Kb.is_consistent kb);
  Fmt.pr "K |= PhDStudent(Damian)?           %b@."
    (Kb.entails_concept_assertion kb "Damian" "PhDStudent");
  Fmt.pr "K |= worksWith(Francois, Ioana)?   %b@."
    (Kb.entails_role_assertion kb "Francois" "Ioana" "worksWith");
  Fmt.pr "K |= worksWith(Francois, Damian)?  %b@.@."
    (Kb.entails_role_assertion kb "Francois" "Damian" "worksWith");

  (* The query of Example 3: PhD students someone works with. *)
  let q =
    Query.Cq.make ~head:[ v "x" ]
      ~body:
        [
          Query.Atom.Ca ("PhDStudent", v "x");
          Query.Atom.Ra ("worksWith", v "y", v "x");
        ]
      ()
  in
  Fmt.pr "== Query (Example 3) ==@.%a@.@." Query.Cq.pp q;

  (* Its UCQ reformulation (Example 4 / Table 5). *)
  let raw = Reform.Perfectref.fixpoint tbox q in
  Fmt.pr "== CQ-to-UCQ reformulation (Example 4): %d union terms ==@.%a@.@."
    (Query.Ucq.size raw) Query.Ucq.pp raw;
  let minimal = Reform.Perfectref.reformulate tbox q in
  Fmt.pr "== Minimal UCQ: %d union terms ==@.%a@.@." (Query.Ucq.size minimal)
    Query.Ucq.pp minimal;

  (* Evaluate through the relational engine: plain evaluation misses
     the answer, reformulation-based query answering finds it. *)
  let engine = Obda.make_engine `Pglite `Simple abox in
  let plain = Obda.answers_exn engine Tbox.empty Obda.Ucq q in
  let answers = Obda.answers_exn engine tbox Obda.Ucq q in
  Fmt.pr "== Evaluation vs answering ==@.";
  Fmt.pr "evaluation against the ABox alone: %d answers@." (List.length plain);
  Fmt.pr "query answering with the TBox    : %a@."
    (Fmt.list ~sep:Fmt.comma (Fmt.list Fmt.string))
    answers;
  assert (answers = [ [ "Damian" ] ]);
  Fmt.pr "@.The certain answer {Damian} is found only through the ontology.@."
