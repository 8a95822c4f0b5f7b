open Query
open Covers
open Fixtures

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_answers = Alcotest.(check (list (list string)))

(* {1 Example 5 / 6: covers and fragment queries} *)

let example5_query =
  Cq.make ~head:[ v "x"; v "y" ]
    ~body:
      [
        ra "teachesTo" (v "v") (v "x");
        ra "teachesTo" (v "v") (v "y");
        ra "supervisedBy" (v "x") (v "w");
        ra "supervisedBy" (v "y") (v "w");
      ]
    ()

let test_example5_cover () =
  let c = Cover.make example5_query [ [ 0; 2 ]; [ 1; 3 ] ] in
  check_int "two fragments" 2 (Cover.fragment_count c);
  check_bool "is partition" true (Cover.is_partition c);
  check_bool "fragments connected" true (Cover.all_fragments_connected c);
  (* Example 6: q|f1(x,v,w) and q|f2(y,v,w). *)
  match Cover.fragment_queries c with
  | [ f1; f2 ] ->
    let heads q = List.sort compare (List.map Term.to_string q.Cq.head) in
    Alcotest.(check (list string)) "f1 head" [ "v"; "w"; "x" ] (heads f1);
    Alcotest.(check (list string)) "f2 head" [ "v"; "w"; "y" ] (heads f2);
    check_int "f1 atoms" 2 (Cq.atom_count f1)
  | _ -> Alcotest.fail "expected two fragment queries"

let test_cover_validation () =
  Alcotest.check_raises "not covering" (Invalid_argument "Cover.make: atoms not covered")
    (fun () -> ignore (Cover.make example5_query [ [ 0; 1 ] ]));
  Alcotest.check_raises "inclusion"
    (Invalid_argument "Cover.make: fragment included in another") (fun () ->
      ignore (Cover.make example5_query [ [ 0; 1; 2; 3 ]; [ 1; 2 ] ]));
  Alcotest.check_raises "empty fragment" (Invalid_argument "Cover.make: empty fragment")
    (fun () -> ignore (Cover.make example5_query [ []; [ 0; 1; 2; 3 ] ]))

let test_overlapping_cover_allowed () =
  (* Definition 1 allows overlapping fragments. *)
  let c = Cover.make example5_query [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ] in
  check_bool "not a partition" false (Cover.is_partition c);
  check_int "two fragments" 2 (Cover.fragment_count c)

let test_disconnected_fragment_detected () =
  let q =
    Cq.make ~head:[ v "x" ]
      ~body:[ ca "A" (v "x"); ra "R" (v "x") (v "y"); ca "B" (v "z"); ra "S" (v "z") (v "x") ]
      ()
  in
  let c = Cover.make q [ [ 0; 2 ]; [ 1; 3 ] ] in
  check_bool "A(x),B(z) fragment disconnected" false (Cover.all_fragments_connected c)

(* {1 Example 7: the unsafe cover C1 loses answers} *)

let c1_example7 () = Cover.make example7_query [ [ 0; 1 ]; [ 2 ] ]

let c2_example7 () = Cover.make example7_query [ [ 0 ]; [ 1; 2 ] ]

let test_example7_unsafe_cover () =
  let c1 = c1_example7 () in
  check_bool "C1 is not safe" false (Safety.is_safe example7_tbox c1);
  let jucq = Reformulate.of_cover example7_tbox c1 in
  let answers = eval_fol (example7_abox ()) jucq in
  check_answers "C1 reformulation misses Damian" [] answers

let test_example9_safe_cover () =
  let c2 = c2_example7 () in
  check_bool "C2 is safe" true (Safety.is_safe example7_tbox c2);
  let jucq = Reformulate.of_cover example7_tbox c2 in
  check_bool "JUCQ shape" true (Fol.is_jucq jucq);
  let answers = eval_fol (example7_abox ()) jucq in
  check_answers "C2 computes the right answer" [ [ "Damian" ] ] answers

let test_plain_ucq_answers () =
  let u = Reformulate.ucq example7_tbox example7_query in
  check_answers "UCQ reformulation answers" [ [ "Damian" ] ]
    (eval_fol (example7_abox ()) u)

(* {1 Example 10: root cover} *)

let test_example10_root_cover () =
  let root = Safety.root_cover example7_tbox example7_query in
  check_bool "root = C2" true (Cover.equal root (c2_example7 ()));
  check_bool "root is safe" true (Safety.is_safe example7_tbox root)

(* A 4-atom chain query with pairwise distinct predicates. *)
let distinct_chain_query =
  Cq.make ~head:[ v "x" ]
    ~body:
      [
        ca "A" (v "x");
        ra "R" (v "x") (v "y");
        ra "S" (v "y") (v "z");
        ca "B" (v "z");
      ]
    ()

let test_root_cover_no_deps () =
  (* With an empty TBox and distinct predicates, every atom is alone in
     its fragment. *)
  let root = Safety.root_cover Dllite.Tbox.empty distinct_chain_query in
  check_int "four singleton fragments" 4 (Cover.fragment_count root);
  (* Two atoms with the same predicate always depend on a common name
     (they may unify directly), so they are merged even without any
     TBox — example5_query repeats teachesTo and supervisedBy. *)
  let root5 = Safety.root_cover Dllite.Tbox.empty example5_query in
  check_int "repeated predicates merge" 2 (Cover.fragment_count root5)

let test_single_fragment_always_safe () =
  check_bool "single fragment safe" true
    (Safety.is_safe example7_tbox (Cover.single_fragment example7_query))

(* {1 Lattice Lq} *)

let test_safe_covers_lattice () =
  let covers = Safety.safe_covers example7_tbox example7_query in
  (* Root cover has 2 fragments: the lattice has B2 = 2 elements. *)
  check_int "two safe covers" 2 (List.length covers);
  List.iter
    (fun c -> check_bool "each element is safe" true (Safety.is_safe example7_tbox c))
    covers;
  check_bool "root first" true
    (Cover.equal (List.hd covers) (Safety.root_cover example7_tbox example7_query))

let test_safe_covers_bell () =
  (* Empty TBox, distinct predicates, a 4-atom chain: of the Bell(4) =
     15 partitions (the paper's upper bound), the 2^3 = 8 made of
     join-connected fragments are covers per Definition 1 (iii). *)
  let covers = Safety.safe_covers Dllite.Tbox.empty distinct_chain_query in
  check_int "connected partitions of a chain" 8 (List.length covers);
  List.iter
    (fun c -> check_bool "all fragments connected" true (Cover.all_fragments_connected c))
    covers;
  let capped = Safety.safe_covers ~max_count:5 Dllite.Tbox.empty distinct_chain_query in
  check_int "cap respected" 5 (List.length capped)

let test_root_minimality () =
  (* Proposition 1: atoms together in Croot are together in every safe
     cover. *)
  let rng = Random.State.make [| 77 |] in
  for _ = 1 to 30 do
    let tbox = Test_reform.random_tbox rng in
    let q = Test_reform.random_query rng in
    let root = Safety.root_cover tbox q in
    let covers = Safety.safe_covers ~max_count:30 tbox q in
    List.iter
      (fun c ->
        List.iter
          (fun rf ->
            let together =
              List.exists (fun f -> Cover.Iset.subset rf f) (Cover.fragments c)
            in
            check_bool "root fragment inside some fragment" true together)
          (Cover.fragments root))
      covers
  done

(* {1 Example 11: generalized covers} *)

let test_example11_generalized () =
  (* f0 = {PhDStudent(x)}, f1 = {worksWith, supervisedBy}, f2 =
     {PhDStudent, worksWith}; C3 = {f1‖f1, f2‖f0}. *)
  let c3 = Generalized.make example7_query [ [ 1; 2 ], [ 1; 2 ]; [ 0; 1 ], [ 0 ] ] in
  check_bool "C3 in Gq" true (Generalized.in_gq example7_tbox c3);
  check_bool "not simple" false (Generalized.is_simple c3);
  let heads =
    List.map
      (fun gf ->
        let fq = Generalized.fragment_query c3 gf in
        List.map Term.to_string fq.Cq.head)
      (Generalized.fragments c3)
  in
  (* both generalized fragment queries have head (x) *)
  List.iter (fun h -> Alcotest.(check (list string)) "head is x" [ "x" ] h) heads;
  let qg = Reformulate.of_generalized example7_tbox c3 in
  check_answers "Theorem 3 answer" [ [ "Damian" ] ] (eval_fol (example7_abox ()) qg)

let test_generalized_validation () =
  Alcotest.check_raises "core must be within f"
    (Invalid_argument "Generalized.make: g not within f") (fun () ->
      ignore (Generalized.make example7_query [ [ 1; 2 ], [ 0 ]; [ 0 ], [ 0 ] ]));
  Alcotest.check_raises "cores must partition"
    (Invalid_argument "Generalized.make: cores are not a partition") (fun () ->
      ignore
        (Generalized.make example7_query [ [ 0; 1 ], [ 0; 1 ]; [ 1; 2 ], [ 1; 2 ] ]))

let test_generalized_moves () =
  let base = Generalized.of_cover (Safety.root_cover example7_tbox example7_query) in
  check_bool "simple embedding" true (Generalized.is_simple base);
  (* enlarge fragment {0} with atom 1 (they share x) *)
  match Generalized.fragments base with
  | [ gf0; gf12 ] ->
    let addable = Generalized.enlargeable_atoms base gf0 in
    check_bool "atom 1 addable to {0}" true (List.mem 1 addable);
    let enlarged = Generalized.enlarge base gf0 1 in
    check_bool "still in Gq" true (Generalized.in_gq example7_tbox enlarged);
    check_bool "no longer simple" false (Generalized.is_simple enlarged);
    let merged = Generalized.merge base gf0 gf12 in
    check_int "merge gives one fragment" 1 (Generalized.fragment_count merged);
    check_bool "merged still simple" true (Generalized.is_simple merged)
  | _ -> Alcotest.fail "expected two fragments"

let test_gq_enumeration () =
  let covers = Generalized.enumerate ~max_count:1000 example7_tbox example7_query in
  check_bool "Gq at least Lq" true (List.length covers >= 2);
  List.iter
    (fun g -> check_bool "every member in Gq" true (Generalized.in_gq example7_tbox g))
    covers;
  let count, capped = Generalized.gq_count ~max_count:10 example7_tbox example7_query in
  check_bool "capping works" true ((count = 10 && capped) || ((not capped) && count < 10))

(* {1 Theorems 1 and 3 on random knowledge bases} *)

(* A random query and the reduction of that query with entailed atoms
   planted ({!Reform.Reduce}): both have the query's certain answers. *)
let with_reduced plant_rng tbox q =
  [ q; fst (Reform.Reduce.reduce tbox (Test_reform.plant_entailed plant_rng tbox q)) ]

let test_theorem1_random () =
  let rng = Random.State.make [| 314159 |] and plant_rng = Random.State.make [| 1414 |] in
  for _ = 1 to 40 do
    let tbox = Test_reform.random_tbox rng in
    let abox = Test_reform.random_abox rng in
    let q = Test_reform.random_query rng in
    let expected = Dllite.Chase.certain_answers tbox abox q in
    List.iter
      (fun q ->
        List.iter
          (fun c ->
            let jucq = Reformulate.of_cover tbox c in
            let got = eval_fol abox jucq in
            if got <> expected then
              Alcotest.failf "Theorem 1 violated for %a under %a" Cq.pp q Cover.pp c)
          (Safety.safe_covers ~max_count:6 tbox q))
      (with_reduced plant_rng tbox q)
  done

let test_theorem3_random () =
  let rng = Random.State.make [| 2718 |] and plant_rng = Random.State.make [| 1732 |] in
  for _ = 1 to 25 do
    let tbox = Test_reform.random_tbox rng in
    let abox = Test_reform.random_abox rng in
    let q = Test_reform.random_query rng in
    let expected = Dllite.Chase.certain_answers tbox abox q in
    List.iter
      (fun q ->
        List.iter
          (fun g ->
            let qg = Reformulate.of_generalized tbox g in
            let got = eval_fol abox qg in
            if got <> expected then
              Alcotest.failf "Theorem 3 violated for %a under %a" Cq.pp q Generalized.pp g)
          (Generalized.enumerate ~max_count:8 tbox q))
      (with_reduced plant_rng tbox q)
  done

let test_juscq_language () =
  let c2 = c2_example7 () in
  let juscq = Reformulate.of_cover ~language:Reformulate.Uscq_fragments example7_tbox c2 in
  check_answers "JUSCQ answers match" [ [ "Damian" ] ]
    (eval_fol (example7_abox ()) juscq)

(* Fragment-query heads follow Definition 2 on random safe covers. *)
let test_fragment_head_definition () =
  let rng = Random.State.make [| 90125 |] in
  for _ = 1 to 40 do
    let tbox = Test_reform.random_tbox rng in
    let q = Test_reform.random_query rng in
    let covers = Safety.safe_covers ~max_count:8 tbox q in
    List.iter
      (fun cover ->
        List.iter2
          (fun frag fq ->
            let head = Query.Cq.head_vars fq in
            let frag_vars =
              List.fold_left
                (fun acc a -> Query.Term.Set.union acc (Query.Atom.vars a))
                Query.Term.Set.empty
                (Cover.fragment_atoms cover frag)
            in
            (* heads only use variables of the fragment *)
            check_bool "head within fragment vars" true
              (Query.Term.Set.subset head frag_vars);
            (* every query head variable of the fragment is kept *)
            check_bool "query head vars kept" true
              (Query.Term.Set.subset
                 (Query.Term.Set.inter (Query.Cq.head_vars q) frag_vars)
                 head))
          (Cover.fragments cover) (Cover.fragment_queries cover))
      covers
  done

(* Generalized embedding of a simple cover yields the same fragment
   queries (Definition 7 degenerates to Definition 2 when f = g). *)
let test_generalized_degenerates_to_simple () =
  let rng = Random.State.make [| 8086 |] in
  for _ = 1 to 40 do
    let tbox = Test_reform.random_tbox rng in
    let q = Test_reform.random_query rng in
    let root = Safety.root_cover tbox q in
    let simple = Cover.fragment_queries root in
    let gen = Generalized.fragment_queries (Generalized.of_cover root) in
    if
      not
        (List.equal
           (fun q1 q2 ->
             Query.Cq.equal (Query.Cq.canonicalize q1) (Query.Cq.canonicalize q2))
           simple gen)
    then Alcotest.failf "Def 7 does not degenerate to Def 2 on %a" Query.Cq.pp q
  done

(* Regression for the GDL memo key: [structural_key] must separate
   every pair of distinct covers (a collision would silently reuse
   another cover's cost and reformulation during the search) and agree
   with {!Generalized.equal} on equal ones. Checked exhaustively over
   the enumerated Gq space of the example queries. *)
let test_structural_key_injective () =
  List.iter
    (fun (tbox, q) ->
      let covers = Generalized.enumerate tbox q in
      check_bool "space non-trivial" true (List.length covers >= 2);
      List.iter
        (fun c1 ->
          List.iter
            (fun c2 ->
              let keys_equal =
                Generalized.structural_key c1 = Generalized.structural_key c2
              in
              if keys_equal <> Generalized.equal c1 c2 then
                Alcotest.failf "structural_key %s on %a vs %a"
                  (if keys_equal then "collides" else "splits equals")
                  Generalized.pp c1 Generalized.pp c2)
            covers)
        covers)
    [ example7_tbox, example7_query; example7_tbox, example5_query ]

let suite =
  [
    Alcotest.test_case "structural key injective" `Quick test_structural_key_injective;
    Alcotest.test_case "fragment head definition" `Slow test_fragment_head_definition;
    Alcotest.test_case "generalized degenerates" `Slow test_generalized_degenerates_to_simple;
    Alcotest.test_case "example 5 cover" `Quick test_example5_cover;
    Alcotest.test_case "cover validation" `Quick test_cover_validation;
    Alcotest.test_case "overlapping cover" `Quick test_overlapping_cover_allowed;
    Alcotest.test_case "disconnected fragment" `Quick test_disconnected_fragment_detected;
    Alcotest.test_case "example 7 unsafe cover" `Quick test_example7_unsafe_cover;
    Alcotest.test_case "example 9 safe cover" `Quick test_example9_safe_cover;
    Alcotest.test_case "plain ucq answers" `Quick test_plain_ucq_answers;
    Alcotest.test_case "example 10 root cover" `Quick test_example10_root_cover;
    Alcotest.test_case "root cover no deps" `Quick test_root_cover_no_deps;
    Alcotest.test_case "single fragment safe" `Quick test_single_fragment_always_safe;
    Alcotest.test_case "safe cover lattice" `Quick test_safe_covers_lattice;
    Alcotest.test_case "lattice bell bound" `Quick test_safe_covers_bell;
    Alcotest.test_case "root minimality (prop 1)" `Slow test_root_minimality;
    Alcotest.test_case "example 11 generalized" `Quick test_example11_generalized;
    Alcotest.test_case "generalized validation" `Quick test_generalized_validation;
    Alcotest.test_case "generalized moves" `Quick test_generalized_moves;
    Alcotest.test_case "gq enumeration" `Quick test_gq_enumeration;
    Alcotest.test_case "theorem 1 (random)" `Slow test_theorem1_random;
    Alcotest.test_case "theorem 3 (random)" `Slow test_theorem3_random;
    Alcotest.test_case "juscq language" `Quick test_juscq_language;
  ]
