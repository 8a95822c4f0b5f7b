open Dllite
open Fixtures

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* {1 TBox saturation — Example 2 of the paper} *)

let test_entailed_subsumption () =
  let t = example1_tbox in
  (* PhDStudent ⊑ Researcher, declared *)
  check_bool "declared" true
    (Tbox.entails_concept_sub t (atomic "PhDStudent") (atomic "Researcher"));
  (* ∃supervisedBy ⊑ Researcher via T6 + T1 *)
  check_bool "transitive" true
    (Tbox.entails_concept_sub t (ex "supervisedBy") (atomic "Researcher"));
  (* supervisedBy ⊑ worksWith⁻ via T5 + T4 *)
  check_bool "role transitive" true
    (Tbox.entails_role_sub t (named "supervisedBy") (inv "worksWith"));
  (* ∃supervisedBy⁻ ⊑ ∃worksWith⁻ via T5 *)
  check_bool "exists propagation" true
    (Tbox.entails_concept_sub t (ex_inv "supervisedBy") (ex_inv "worksWith"));
  check_bool "no converse" false
    (Tbox.entails_concept_sub t (atomic "Researcher") (atomic "PhDStudent"))

let test_entailed_disjointness () =
  let t = example1_tbox in
  (* K ⊨ ∃supervisedBy ⊑ ¬∃supervisedBy⁻, from T6 + T7 (Example 2) *)
  check_bool "entailed disjointness" true
    (Tbox.disjoint_concepts t (ex "supervisedBy") (ex_inv "supervisedBy"));
  check_bool "symmetry" true
    (Tbox.disjoint_concepts t (ex_inv "supervisedBy") (ex "supervisedBy"));
  check_bool "unrelated pair" false
    (Tbox.disjoint_concepts t (atomic "Researcher") (ex "worksWith"))

let test_unsatisfiable_concepts () =
  let t = example1_tbox in
  check_bool "example 1 all satisfiable" true
    (Concept.Set.is_empty (Tbox.unsatisfiable_concepts t));
  (* A ⊑ B, A ⊑ C, B disjoint C makes A unsatisfiable. *)
  let t2 =
    Tbox.of_axioms
      [ sub (atomic "A") (atomic "B"); sub (atomic "A") (atomic "C");
        disj (atomic "B") (atomic "C") ]
  in
  check_bool "direct unsat" true (Tbox.is_unsatisfiable t2 (atomic "A"));
  (* Unsatisfiability through an existential witness:
     A ⊑ ∃R, ∃R⁻ ⊑ B, ∃R⁻ ⊑ C, B disjoint C. *)
  let t3 =
    Tbox.of_axioms
      [
        sub (atomic "A") (ex "R");
        sub (ex_inv "R") (atomic "B");
        sub (ex_inv "R") (atomic "C");
        disj (atomic "B") (atomic "C");
      ]
  in
  check_bool "witness-driven unsat" true (Tbox.is_unsatisfiable t3 (atomic "A"));
  check_bool "B itself fine" false (Tbox.is_unsatisfiable t3 (atomic "B"))

(* {1 dep(N) — Example 8 of the paper} *)

let test_dep_example8 () =
  let t = example7_tbox in
  let dep n = Tbox.dep t n in
  let mem x s = Tbox.String_set.mem x s in
  check_bool "dep(worksWith) has supervisedBy" true (mem "supervisedBy" (dep "worksWith"));
  check_bool "dep(worksWith) has Graduate" true (mem "Graduate" (dep "worksWith"));
  check_bool "dep(supervisedBy) has Graduate" true (mem "Graduate" (dep "supervisedBy"));
  check_int "dep(Graduate) is itself" 1 (Tbox.String_set.cardinal (dep "Graduate"));
  check_bool "dep overlap worksWith/supervisedBy" true
    (Tbox.dep_overlap t "worksWith" "supervisedBy");
  check_bool "no overlap Graduate/PhDStudent" false
    (Tbox.dep_overlap t "Graduate" "PhDStudent")

let test_dep_example1 () =
  let t = example1_tbox in
  let dep = Tbox.dep t in
  (* PhDStudent depends on supervisedBy through T6. *)
  check_bool "PhDStudent -> supervisedBy" true
    (Tbox.String_set.mem "supervisedBy" (dep "PhDStudent"));
  (* worksWith depends on supervisedBy through T5. *)
  check_bool "worksWith -> supervisedBy" true
    (Tbox.String_set.mem "supervisedBy" (dep "worksWith"))

(* {1 ABox and KB} *)

let test_abox_counts () =
  let a = example1_abox () in
  check_int "role assertions" 3 (Abox.role_assertion_count a);
  check_int "individuals" 3 (Abox.individual_count a);
  check_int "supervisedBy pairs" 2 (Array.length (Abox.role_pairs a "supervisedBy"));
  check_int "absent concept" 0 (Array.length (Abox.concept_members a "Nope"))

let test_kb_consistent () =
  let kb = Kb.make example1_tbox (example1_abox ()) in
  check_bool "example 1 consistent" true (Kb.is_consistent kb)

let test_kb_inconsistent () =
  (* Make Damian supervise someone: then Damian is a PhD student
     (T6 on A2) and a supervisor (∃supervisedBy⁻), violating T7. *)
  let a = example1_abox () in
  Abox.add_role a ~role:"supervisedBy" ~subj:"Someone" ~obj:"Damian";
  let kb = Kb.make example1_tbox a in
  check_bool "now inconsistent" false (Kb.is_consistent kb);
  match Kb.check_consistency kb with
  | Some (Kb.Disjoint_concept_violation (ind, _, _)) ->
    Alcotest.(check string) "culprit" "Damian" ind
  | Some v -> Alcotest.failf "unexpected violation %a" Kb.pp_violation v
  | None -> Alcotest.fail "expected violation"

let test_kb_role_disjointness () =
  let t =
    Tbox.of_axioms [ Axiom.Role_disj (named "R", named "S") ]
  in
  let a = Abox.of_assertions ~concepts:[] ~roles:[ "R", "a", "b"; "S", "a", "b" ] in
  check_bool "role disjointness violated" false (Kb.is_consistent (Kb.make t a));
  let a2 = Abox.of_assertions ~concepts:[] ~roles:[ "R", "a", "b"; "S", "b", "a" ] in
  check_bool "different pairs fine" true (Kb.is_consistent (Kb.make t a2))

let test_kb_entailed_assertions () =
  let kb = Kb.make example1_tbox (example1_abox ()) in
  (* Example 2: K ⊨ PhDStudent(Damian) from A2 + T6. *)
  check_bool "PhDStudent(Damian)" true
    (Kb.entails_concept_assertion kb "Damian" "PhDStudent");
  check_bool "Researcher(Ioana)" true (Kb.entails_concept_assertion kb "Ioana" "Researcher");
  check_bool "not PhDStudent(Ioana)" false
    (Kb.entails_concept_assertion kb "Ioana" "PhDStudent");
  (* K ⊨ worksWith(Francois, Ioana) from A1 + T4. *)
  check_bool "worksWith(Francois,Ioana)" true
    (Kb.entails_role_assertion kb "Francois" "Ioana" "worksWith");
  (* K ⊨ worksWith(Francois, Damian) from A3 + T5 + T4. *)
  check_bool "worksWith(Francois,Damian)" true
    (Kb.entails_role_assertion kb "Francois" "Damian" "worksWith");
  check_bool "not supervisedBy(Ioana,Damian)" false
    (Kb.entails_role_assertion kb "Ioana" "Damian" "supervisedBy")

(* {1 Chase oracle} *)

let test_chase_example3 () =
  (* Example 3: the answer of q over K is {Damian}, while evaluating q
     against the ABox alone yields nothing. *)
  let answers = Chase.certain_answers example1_tbox (example1_abox ()) example3_query in
  Alcotest.(check (list (list string))) "certain answers" [ [ "Damian" ] ] answers;
  let no_tbox = Chase.certain_answers Tbox.empty (example1_abox ()) example3_query in
  Alcotest.(check (list (list string))) "evaluation misses it" [] no_tbox

let test_chase_example7 () =
  let answers = Chase.certain_answers example7_tbox (example7_abox ()) example7_query in
  Alcotest.(check (list (list string))) "running example answer" [ [ "Damian" ] ] answers

let test_chase_null_bound () =
  (* An infinite canonical model: Person ⊑ ∃hasParent, ∃hasParent⁻ ⊑ Person.
     The bounded chase must terminate. *)
  let t =
    Tbox.of_axioms
      [ sub (atomic "Person") (ex "hasParent"); sub (ex_inv "hasParent") (atomic "Person") ]
  in
  let a = Abox.of_assertions ~concepts:[ "Person", "alice" ] ~roles:[] in
  let st = Chase.run t a ~max_depth:3 in
  check_int "three generations of nulls" 3 (Chase.null_count st);
  let q =
    Query.Cq.make ~head:[ v "x" ]
      ~body:[ ra "hasParent" (v "x") (v "y"); ra "hasParent" (v "y") (v "z") ] ()
  in
  let ans = Chase.answers st q in
  Alcotest.(check (list (list string))) "alice has grandparents" [ [ "alice" ] ] ans

let test_chase_no_tbox_is_evaluation () =
  let a = example1_abox () in
  let q =
    Query.Cq.make ~head:[ v "x"; v "y" ] ~body:[ ra "supervisedBy" (v "x") (v "y") ] ()
  in
  let ans = Chase.certain_answers Tbox.empty a q in
  Alcotest.(check (list (list string)))
    "plain evaluation"
    [ [ "Damian"; "Francois" ]; [ "Damian"; "Ioana" ] ]
    ans

(* {1 TBox closure properties on random TBoxes} *)

let test_tbox_closure_properties () =
  let rng = Random.State.make [| 5150 |] in
  for _ = 1 to 60 do
    let t = Test_reform.random_tbox rng in
    let concepts =
      List.map Concept.atomic (Tbox.concept_names t)
      @ List.concat_map
          (fun r -> [ ex r; ex_inv r ])
          (Tbox.role_names t)
    in
    (* reflexivity *)
    List.iter
      (fun c ->
        if not (Tbox.entails_concept_sub t c c) then
          Alcotest.failf "subsumption not reflexive on %a" Concept.pp c)
      concepts;
    (* transitivity *)
    List.iter
      (fun c1 ->
        Concept.Set.iter
          (fun c2 ->
            Concept.Set.iter
              (fun c3 ->
                if not (Tbox.entails_concept_sub t c1 c3) then
                  Alcotest.failf "subsumption not transitive: %a %a %a" Concept.pp
                    c1 Concept.pp c2 Concept.pp c3)
              (Tbox.subsumers_of_concept t c2))
          (Tbox.subsumers_of_concept t c1))
      concepts;
    (* role inclusion lifts to existentials and inverses *)
    List.iter
      (fun p ->
        let r = named p in
        Role.Set.iter
          (fun s ->
            if not (Tbox.entails_concept_sub t (Concept.Exists r) (Concept.Exists s))
            then Alcotest.failf "∃ not lifted for %a ⊑ %a" Role.pp r Role.pp s;
            if
              not
                (Tbox.entails_role_sub t (Role.inverse r) (Role.inverse s))
            then Alcotest.failf "inverse not lifted for %a ⊑ %a" Role.pp r Role.pp s)
          (Tbox.subsumers_of_role t r))
      (Tbox.role_names t)
  done

let test_dep_properties () =
  let rng = Random.State.make [| 31337 |] in
  for _ = 1 to 60 do
    let t = Test_reform.random_tbox rng in
    let names = Tbox.concept_names t @ Tbox.role_names t in
    List.iter
      (fun n ->
        let d = Tbox.dep t n in
        (* dep contains the name itself *)
        if not (Tbox.String_set.mem n d) then Alcotest.failf "dep(%s) misses itself" n;
        (* dep is transitively closed *)
        Tbox.String_set.iter
          (fun m ->
            if not (Tbox.String_set.subset (Tbox.dep t m) d) then
              Alcotest.failf "dep(%s) not closed under dep(%s)" n m)
          d)
      names
  done

(* dep closures are computed when the TBox is built, so the server's
   concurrent sessions can read them with no lock. *)
let test_dep_concurrent_reads () =
  let axioms = Tbox.axioms Lubm.Ontology.tbox in
  let names t = Tbox.concept_names t @ Tbox.role_names t in
  let reference = Tbox.of_axioms axioms in
  let expected = List.map (Tbox.dep reference) (names reference) in
  let fresh = Tbox.of_axioms axioms in
  let results = Array.make 4 [] in
  let threads =
    List.init 4 (fun k ->
        Thread.create
          (fun () ->
            for _ = 1 to 50 do
              results.(k) <- List.map (Tbox.dep fresh) (names fresh)
            done)
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun k got ->
      check_bool (Printf.sprintf "thread %d dep sets" k) true
        (List.equal Tbox.String_set.equal expected got))
    results;
  check_bool "unknown name depends on itself" true
    (Tbox.String_set.equal (Tbox.String_set.singleton "NotInTBox")
       (Tbox.dep fresh "NotInTBox"))

let test_subsumees_subsumers_inverse () =
  let t = example1_tbox in
  let concepts =
    List.map Concept.atomic (Tbox.concept_names t)
    @ List.concat_map (fun r -> [ ex r; ex_inv r ]) (Tbox.role_names t)
  in
  List.iter
    (fun c1 ->
      List.iter
        (fun c2 ->
          let via_sub = Concept.Set.mem c1 (Tbox.subsumees_of_concept t c2) in
          let via_sup = Concept.Set.mem c2 (Tbox.subsumers_of_concept t c1) in
          if via_sub <> via_sup then
            Alcotest.failf "subsumees/subsumers disagree on %a vs %a" Concept.pp c1
              Concept.pp c2)
        concepts)
    concepts

(* {1 ABox serialisation} *)

let test_abox_roundtrip () =
  let abox = example1_abox () in
  Abox.add_concept abox ~concept:"PhDStudent" ~ind:"Damian";
  let path = Filename.temp_file "abox" ".facts" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Abox.save abox path;
      let loaded = Abox.load_exn path in
      check_int "same size" (Abox.size abox) (Abox.size loaded);
      Alcotest.(check (list string))
        "same roles" (Abox.role_names abox) (Abox.role_names loaded);
      let pairs a r = List.sort compare (Array.to_list (Abox.role_pairs a r)) in
      (* codes may differ; compare decoded *)
      let decoded a r =
        List.map
          (fun (s, o) -> Dict.decode (Abox.dict a) s, Dict.decode (Abox.dict a) o)
          (pairs a r)
        |> List.sort compare
      in
      List.iter
        (fun r ->
          Alcotest.(check (list (pair string string)))
            ("role " ^ r) (decoded abox r) (decoded loaded r))
        (Abox.role_names abox))

(* 1–3 random byte changes, or a truncation, of a saved ABox text
   file: [load] returns [Error], or an ABox a store can be built from. *)
let qcheck_abox_corruption =
  qcheck_corruption ~name:"abox: random corruption = Error or an ABox"
    (lazy
      (let path = Filename.temp_file "abox" ".facts" in
       Fun.protect
         ~finally:(fun () -> Sys.remove path)
         (fun () ->
           Abox.save (Lubm.Generator.generate ~seed:31 ~target_facts:250 ()) path;
           read_bytes path)))
    (fun file ->
      match Abox.load file with
      | Error _ -> true
      | Ok abox ->
        ignore (Rdbms.Storage.of_abox abox);
        true)

(* Regression: a malformed line used to crash the process with a bare
   [Failure]; the parser now reports the offending line number and the
   CLI turns it into a clean error. *)
let test_abox_malformed_line () =
  let path = Filename.temp_file "abox" ".facts" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "C Person alice\nR worksFor alice\nC Person bob\n";
      close_out oc;
      (match Abox.load path with
      | Ok _ -> Alcotest.fail "malformed ABox accepted"
      | Error e ->
        check_int "error carries the line number" 2 e.Abox.line;
        Alcotest.(check string) "error carries the text" "R worksFor alice"
          e.Abox.text;
        Alcotest.(check string) "rendered error"
          "line 2: malformed ABox line: R worksFor alice"
          (Fmt.str "%a" Abox.pp_parse_error e));
      match Abox.load_exn path with
      | _ -> Alcotest.fail "load_exn did not raise"
      | exception Failure msg ->
        Alcotest.(check bool) "load_exn names the file" true
          (String.length msg > 0))

(* {1 Saturation (materialisation baseline)} *)

let test_saturation_basic () =
  let saturated = Saturate.abox example1_tbox (example1_abox ()) in
  (* Damian becomes an explicit PhD student and researcher *)
  let members c =
    List.map
      (Dict.decode (Abox.dict saturated))
      (Array.to_list (Abox.concept_members saturated c))
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "phd students" [ "Damian" ] (members "PhDStudent");
  Alcotest.(check (list string))
    "researchers" [ "Damian"; "Francois"; "Ioana" ] (members "Researcher");
  (* symmetric closure of worksWith materialised *)
  check_int "worksWith closed" 6 (Array.length (Abox.role_pairs saturated "worksWith"));
  check_bool "facts added" true (Saturate.added_facts example1_tbox (example1_abox ()) > 0)

let test_saturation_sound_but_incomplete () =
  (* saturation answers are always a subset of the certain answers, and
     a strict subset when existential witnesses matter *)
  let tbox =
    Tbox.of_axioms [ sub (atomic "Professor") (ex "teachesSomething") ]
  in
  let a = Abox.of_assertions ~concepts:[ "Professor", "ada" ] ~roles:[] in
  let q =
    Query.Cq.make ~head:[ v "x" ] ~body:[ ra "teachesSomething" (v "x") (v "y") ] ()
  in
  let certain = Chase.certain_answers tbox a q in
  Alcotest.(check (list (list string))) "certain answer exists" [ [ "ada" ] ] certain;
  let saturated = Saturate.abox tbox a in
  let plain = Chase.certain_answers Tbox.empty saturated q in
  Alcotest.(check (list (list string))) "saturation misses the witness" [] plain

let test_saturation_exact_without_existentials () =
  (* on a TBox without mandatory participation, saturation + plain
     evaluation equals certain answers *)
  let rng = Random.State.make [| 90210 |] in
  for _ = 1 to 40 do
    let tbox =
      (* keep only axiom forms 1, 4, 5, 10, 11 (no ∃ on the right) *)
      Tbox.of_axioms
        (List.filter
           (fun ax ->
             match ax with
             | Axiom.Concept_sub (_, Concept.Exists _) -> false
             | _ -> true)
           (Tbox.axioms (Test_reform.random_tbox rng)))
    in
    let abox = Test_reform.random_abox rng in
    let q = Test_reform.random_query rng in
    let certain = Chase.certain_answers tbox abox q in
    let saturated = Saturate.abox tbox abox in
    let plain = Chase.certain_answers Tbox.empty saturated q in
    if certain <> plain then
      Alcotest.failf "saturation differs without existentials on %a" Query.Cq.pp q
  done

let suite =
  [
    Alcotest.test_case "tbox closure properties" `Slow test_tbox_closure_properties;
    Alcotest.test_case "dep properties" `Slow test_dep_properties;
    Alcotest.test_case "dep concurrent reads" `Quick test_dep_concurrent_reads;
    Alcotest.test_case "subsumees/subsumers" `Quick test_subsumees_subsumers_inverse;
    Alcotest.test_case "abox roundtrip" `Quick test_abox_roundtrip;
    Alcotest.test_case "abox malformed line" `Quick test_abox_malformed_line;
    QCheck_alcotest.to_alcotest qcheck_abox_corruption;
    Alcotest.test_case "saturation basic" `Quick test_saturation_basic;
    Alcotest.test_case "saturation incomplete" `Quick test_saturation_sound_but_incomplete;
    Alcotest.test_case "saturation exact (random)" `Slow
      test_saturation_exact_without_existentials;
    Alcotest.test_case "entailed subsumption" `Quick test_entailed_subsumption;
    Alcotest.test_case "entailed disjointness" `Quick test_entailed_disjointness;
    Alcotest.test_case "unsatisfiable concepts" `Quick test_unsatisfiable_concepts;
    Alcotest.test_case "dep example 8" `Quick test_dep_example8;
    Alcotest.test_case "dep example 1" `Quick test_dep_example1;
    Alcotest.test_case "abox counts" `Quick test_abox_counts;
    Alcotest.test_case "kb consistent" `Quick test_kb_consistent;
    Alcotest.test_case "kb inconsistent" `Quick test_kb_inconsistent;
    Alcotest.test_case "kb role disjointness" `Quick test_kb_role_disjointness;
    Alcotest.test_case "kb entailed assertions" `Quick test_kb_entailed_assertions;
    Alcotest.test_case "chase example 3" `Quick test_chase_example3;
    Alcotest.test_case "chase example 7" `Quick test_chase_example7;
    Alcotest.test_case "chase depth bound" `Quick test_chase_null_bound;
    Alcotest.test_case "chase without tbox" `Quick test_chase_no_tbox_is_evaluation;
  ]
