open Query
open Dllite
open Fixtures

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* {1 Example 4 of the paper: the ten-disjunct UCQ of Table 5} *)

let test_example4_raw_size () =
  let raw = Reform.Perfectref.reformulate_raw example1_tbox example3_query in
  check_int "Table 5 lists ten union terms" 10 (Ucq.size raw)

let test_example4_contains_expected () =
  let raw = Reform.Perfectref.reformulate_raw example1_tbox example3_query in
  let has body =
    let q = Cq.canonicalize (Cq.make ~head:[ v "x" ] ~body ()) in
    List.exists (fun d -> Cq.equal (Cq.canonicalize d) q) (Ucq.disjuncts raw)
  in
  check_bool "q2: worksWith flipped" true
    (has [ ca "PhDStudent" (v "x"); ra "worksWith" (v "x") (v "y") ]);
  check_bool "q3: supervisedBy backward" true
    (has [ ca "PhDStudent" (v "x"); ra "supervisedBy" (v "y") (v "x") ]);
  check_bool "q7: both supervisedBy" true
    (has [ ra "supervisedBy" (v "x") (v "z"); ra "supervisedBy" (v "y") (v "x") ]);
  check_bool "q9: self loop from mgu" true (has [ ra "supervisedBy" (v "x") (v "x") ]);
  check_bool "q10: single supervisedBy" true (has [ ra "supervisedBy" (v "x") (v "y") ])

let test_example4_minimized () =
  (* §2.3: the minimal UCQ is q1 ∨ q2 ∨ q3 ∨ q10. *)
  let m = Reform.Perfectref.reformulate example1_tbox example3_query in
  check_int "four disjuncts survive" 4 (Ucq.size m);
  let has body =
    let q = Cq.canonicalize (Cq.make ~head:[ v "x" ] ~body ()) in
    List.exists (fun d -> Cq.equal (Cq.canonicalize d) q) (Ucq.disjuncts m)
  in
  check_bool "q1 kept" true
    (has [ ca "PhDStudent" (v "x"); ra "worksWith" (v "y") (v "x") ]);
  check_bool "q10 kept" true (has [ ra "supervisedBy" (v "x") (v "y") ])

(* {1 Example 7: the four-disjunct UCQ of the running example} *)

let test_example7_ucq () =
  (* The paper displays the raw reformulation q1 ∨ q2 ∨ q3 ∨ q4; under
     minimisation q2 collapses onto its minimal form q3. *)
  let raw = Reform.Perfectref.reformulate_raw example7_tbox example7_query in
  check_int "four union terms" 4 (Ucq.size raw);
  let has u body =
    let q = Cq.canonicalize (Cq.make ~head:[ v "x" ] ~body ()) in
    List.exists (fun d -> Cq.equal (Cq.canonicalize (Cq.minimize d)) q) (Ucq.disjuncts u)
  in
  check_bool "q3: supervisedBy(x,y)" true
    (has raw [ ca "PhDStudent" (v "x"); ra "supervisedBy" (v "x") (v "y") ]);
  check_bool "q4: Graduate" true
    (has raw [ ca "PhDStudent" (v "x"); ca "Graduate" (v "x") ]);
  let m = Reform.Perfectref.reformulate example7_tbox example7_query in
  check_int "three disjuncts after minimisation" 3 (Ucq.size m);
  check_bool "minimal q3 kept" true
    (has m [ ca "PhDStudent" (v "x"); ra "supervisedBy" (v "x") (v "y") ])

(* {1 Specialisation steps in isolation} *)

let test_specializations_concept_atom () =
  let q = Cq.make ~head:[ v "x" ] ~body:[ ca "Researcher" (v "x") ] () in
  let specs = Reform.Perfectref.specializations example1_tbox q 0 in
  (* Researcher(x) specialises to PhDStudent(x), worksWith(x,_),
     worksWith(_,x) via T1, T2, T3. *)
  check_int "three backward applications" 3 (List.length specs)

let test_specializations_bound_role () =
  (* worksWith(y,x) with both variables bound: only role inclusions
     apply, not the existential constraint T6. *)
  let q =
    Cq.make ~head:[ v "x"; v "y" ]
      ~body:[ ra "worksWith" (v "y") (v "x") ] ()
  in
  let specs = Reform.Perfectref.specializations example1_tbox q 0 in
  (* T4 (inverse) and T5 (supervisedBy) apply. *)
  check_int "two role rewrites" 2 (List.length specs)

let test_specializations_unbound_role () =
  let q = Cq.make ~head:[ v "x" ] ~body:[ ra "supervisedBy" (v "x") (v "y") ] () in
  let specs = Reform.Perfectref.specializations example7_tbox q 0 in
  (* y is unbound: Graduate ⊑ ∃supervisedBy applies backward. *)
  check_int "existential applies" 1 (List.length specs);
  match specs with
  | [ q' ] ->
    check_bool "becomes Graduate(x)" true
      (List.exists (Atom.equal (ca "Graduate" (v "x"))) (Cq.atoms q'))
  | _ -> Alcotest.fail "expected one specialisation"

(* {1 USCQ factorisation} *)

let test_uscq_equivalent_shape () =
  let f = Reform.Uscq_reform.reformulate example1_tbox example3_query in
  check_bool "factorised form is a USCQ or smaller" true
    (Fol.is_juscq f || Fol.is_uscq f || Fol.is_ucq f)

let test_factorize_merges_siblings () =
  (* A(x)R(x,y) ∨ A(x)S(x,y) should factor into A(x) ∧ (R ∨ S). *)
  let d1 = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x"); ra "R" (v "x") (v "y") ] () in
  let d2 = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x"); ra "S" (v "x") (v "y") ] () in
  let f = Reform.Uscq_reform.factorize (Ucq.make [ d1; d2 ]) in
  match f with
  | Fol.Join { parts; _ } -> check_int "two slots" 2 (List.length parts)
  | _ -> Alcotest.failf "expected a join, got %a" Fol.pp f

(* {1 Soundness and completeness against the chase oracle} *)

(* Evaluate a UCQ over the ABox alone by running the chase with the
   empty TBox. *)
let evaluate_ucq abox ucq =
  List.sort_uniq compare
    (List.concat_map
       (fun d -> Chase.certain_answers Tbox.empty abox d)
       (Ucq.disjuncts ucq))

let random_tbox rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let concepts = [ "A0"; "A1"; "A2"; "A3" ] and roles = [ "R0"; "R1"; "R2" ] in
  let n = Random.State.int rng 8 in
  let axiom () =
    let cpt () = atomic (pick concepts) in
    let role () = pick roles in
    match Random.State.int rng 8 with
    | 0 -> sub (cpt ()) (cpt ())
    | 1 -> sub (cpt ()) (ex (role ()))
    | 2 -> sub (cpt ()) (ex_inv (role ()))
    | 3 -> sub (ex (role ())) (cpt ())
    | 4 -> sub (ex_inv (role ())) (cpt ())
    | 5 -> sub (ex (role ())) (ex (role ()))
    | 6 -> rsub (named (role ())) (named (role ()))
    | _ -> rsub (named (role ())) (inv (role ()))
  in
  Tbox.of_axioms (List.init n (fun _ -> axiom ()))

let random_abox rng =
  let inds = [ "i0"; "i1"; "i2"; "i3"; "i4" ] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let a = Abox.create () in
  for _ = 1 to 4 + Random.State.int rng 6 do
    if Random.State.bool rng then
      Abox.add_concept a
        ~concept:(Printf.sprintf "A%d" (Random.State.int rng 4))
        ~ind:(pick inds)
    else
      Abox.add_role a
        ~role:(Printf.sprintf "R%d" (Random.State.int rng 3))
        ~subj:(pick inds) ~obj:(pick inds)
  done;
  a

(* A connected chain query: atom i links variable x_i to x_{i+1}. *)
let random_query rng =
  let n = 1 + Random.State.int rng 3 in
  let var i = v (Printf.sprintf "x%d" i) in
  let body =
    List.init n (fun i ->
        match Random.State.int rng 3 with
        | 0 -> ca (Printf.sprintf "A%d" (Random.State.int rng 4)) (var i)
        | 1 -> ra (Printf.sprintf "R%d" (Random.State.int rng 3)) (var i) (var (i + 1))
        | _ -> ra (Printf.sprintf "R%d" (Random.State.int rng 3)) (var (i + 1)) (var i))
  in
  Cq.make ~head:[ var 0 ] ~body ()

let test_reformulation_matches_chase () =
  let rng = Random.State.make [| 20160905 |] in
  for case = 1 to 120 do
    let tbox = random_tbox rng in
    let abox = random_abox rng in
    let q = random_query rng in
    let expected = Chase.certain_answers tbox abox q in
    let ucq = Reform.Perfectref.reformulate tbox q in
    let actual = evaluate_ucq abox ucq in
    if expected <> actual then
      Alcotest.failf
        "case %d: reformulation disagrees with chase@.query: %a@.tbox: %a@.expected %d \
         answers, got %d"
        case Cq.pp q Tbox.pp tbox (List.length expected) (List.length actual)
  done

let test_raw_equals_minimized_answers () =
  let rng = Random.State.make [| 424242 |] in
  for _ = 1 to 40 do
    let tbox = random_tbox rng in
    let abox = random_abox rng in
    let q = random_query rng in
    let raw = evaluate_ucq abox (Reform.Perfectref.reformulate_raw tbox q) in
    let min = evaluate_ucq abox (Reform.Perfectref.reformulate tbox q) in
    check_bool "minimization preserves answers" true (raw = min)
  done

(* {1 TBox-relative containment} *)

let test_containment_basic () =
  let t = example1_tbox in
  let phd = Cq.make ~head:[ v "x" ] ~body:[ ca "PhDStudent" (v "x") ] () in
  let researcher = Cq.make ~head:[ v "x" ] ~body:[ ca "Researcher" (v "x") ] () in
  check_bool "PhDStudent ⊑_T Researcher" true
    (Reform.Containment.contained_in t phd researcher);
  check_bool "not conversely" false (Reform.Containment.contained_in t researcher phd);
  (* q(x) <- supervisedBy(y,x) ⊑_T q(x) <- worksWith(y,x) via T5 *)
  let supervised = Cq.make ~head:[ v "x" ] ~body:[ ra "supervisedBy" (v "y") (v "x") ] () in
  let works = Cq.make ~head:[ v "x" ] ~body:[ ra "worksWith" (v "y") (v "x") ] () in
  check_bool "role inclusion lifts" true
    (Reform.Containment.contained_in t supervised works);
  (* without the TBox the containment disappears *)
  check_bool "plain containment fails" false
    (Reform.Containment.contained_in Tbox.empty supervised works)

let test_containment_existential () =
  (* being supervised entails working with someone (T5):
     q(x) <- supervisedBy(x,y) ⊑_T q(x) <- worksWith(x,z) *)
  let t = example1_tbox in
  let sup = Cq.make ~head:[ v "x" ] ~body:[ ra "supervisedBy" (v "x") (v "y") ] () in
  let w = Cq.make ~head:[ v "x" ] ~body:[ ra "worksWith" (v "x") (v "z") ] () in
  check_bool "existential containment" true (Reform.Containment.contained_in t sup w);
  check_bool "equivalence is symmetric containment" true
    (Reform.Containment.equivalent t sup sup)

let test_containment_vs_plain () =
  (* TBox-relative containment extends plain containment *)
  let rng = Random.State.make [| 808 |] in
  for _ = 1 to 40 do
    let tbox = random_tbox rng in
    let q1 = random_query rng and q2 = random_query rng in
    if Cq.arity q1 = Cq.arity q2 && Cq.contained_in q1 q2 then
      check_bool "plain implies T-relative" true
        (Reform.Containment.contained_in tbox q1 q2)
  done

(* {1 Reformulation-based consistency checking} *)

let test_violation_queries_example1 () =
  (* example 1 has exactly one negative axiom (T7) *)
  let vqs = Reform.Consistency.violation_queries example1_tbox in
  check_int "one violation query" 1 (List.length vqs);
  check_int "boolean" 0 (Cq.arity (List.hd vqs));
  check_bool "consistent ABox accepted" true
    (Reform.Consistency.is_consistent example1_tbox (example1_abox ()));
  (* Damian supervises someone -> PhD student who supervises: violation *)
  let bad = example1_abox () in
  Dllite.Abox.add_role bad ~role:"supervisedBy" ~subj:"Someone" ~obj:"Damian";
  check_bool "violation detected through reformulation" false
    (Reform.Consistency.is_consistent example1_tbox bad)

let test_consistency_through_existential_chain () =
  (* A ⊑ ∃R, ∃R⁻ ⊑ B, ∃R⁻ ⊑ C, B disj C: a single A(a) fact is already
     inconsistent; the violation query must catch it backward. *)
  let t =
    Tbox.of_axioms
      [
        sub (atomic "A") (ex "R");
        sub (ex_inv "R") (atomic "B");
        sub (ex_inv "R") (atomic "C");
        disj (atomic "B") (atomic "C");
      ]
  in
  let a = Abox.of_assertions ~concepts:[ "A", "a" ] ~roles:[] in
  check_bool "unsat concept instance caught" false (Reform.Consistency.is_consistent t a);
  check_bool "closure-based check agrees" false (Kb.is_consistent (Kb.make t a))

let random_tbox_with_negatives rng =
  let base = Dllite.Tbox.axioms (random_tbox rng) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let concepts = [ "A0"; "A1"; "A2"; "A3" ] and roles = [ "R0"; "R1"; "R2" ] in
  let negatives =
    List.init (Random.State.int rng 3) (fun _ ->
        if Random.State.bool rng then
          disj (atomic (pick concepts)) (atomic (pick concepts))
        else Axiom.Role_disj (named (pick roles), named (pick roles)))
  in
  Tbox.of_axioms (base @ negatives)

let test_consistency_agreement_random () =
  (* the closure-based and the reformulation-based consistency checks
     must agree on every random KB *)
  let rng = Random.State.make [| 60451 |] in
  for case = 1 to 120 do
    let tbox = random_tbox_with_negatives rng in
    let abox = random_abox rng in
    let closure = Kb.is_consistent (Kb.make tbox abox) in
    let reformulation = Reform.Consistency.is_consistent tbox abox in
    if closure <> reformulation then
      Alcotest.failf "case %d: closure says %b, reformulation says %b@.tbox: %a" case
        closure reformulation Tbox.pp tbox
  done

let test_cached_reformulation () =
  let u1 = Reform.Perfectref.reformulate_cached example1_tbox example3_query in
  let u2 = Reform.Perfectref.reformulate_cached example1_tbox example3_query in
  check_bool "cache returns same value" true (u1 == u2);
  check_int "same as uncached" (Ucq.size (Reform.Perfectref.reformulate example1_tbox example3_query))
    (Ucq.size u1)

(* Regression: the reformulation cache is bounded; under heavy eviction
   pressure (capacity 1) the cached path must still return exactly the
   reformulation the direct path computes. *)
let ucq_fingerprint u =
  List.sort compare (List.map (fun d -> Cq.to_string (Cq.canonicalize d)) (Ucq.disjuncts u))

let test_bounded_cache_equivalence () =
  Reform.Perfectref.clear_cache ();
  Reform.Perfectref.set_cache_capacity 1;
  Fun.protect
    ~finally:(fun () ->
      Reform.Perfectref.set_cache_capacity Reform.Perfectref.default_cache_capacity)
    (fun () ->
      let rng = Random.State.make [| 7707 |] in
      for _ = 1 to 30 do
        let tbox = random_tbox rng in
        let q = random_query rng in
        let direct = Reform.Perfectref.reformulate tbox q in
        let cached = Reform.Perfectref.reformulate_cached tbox q in
        check_bool "bounded cache preserves reformulation" true
          (ucq_fingerprint direct = ucq_fingerprint cached)
      done)

(* Regression: reformulating a query over an unsatisfiable fragment
   used to be able to hit [assert false] in [Fol.of_ucq]; PerfectRef
   always keeps the original query as a disjunct, so the UCQ stays
   non-empty and the FOL leaf builds cleanly. *)
let test_unsat_fragment_no_crash () =
  let t =
    Tbox.of_axioms
      [
        sub (atomic "A") (atomic "B");
        sub (atomic "A") (atomic "C");
        disj (atomic "B") (atomic "C");
      ]
  in
  let q = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x") ] () in
  let u = Reform.Perfectref.reformulate t q in
  check_bool "reformulation stays non-empty" true (Ucq.size u >= 1);
  let f = Fol.of_ucq u in
  check_bool "fol leaf built" true (Fol.is_ucq f);
  (* and the guard itself: a hollow UCQ raises a clear error, not an
     assertion failure (the chase-based oracle keeps answers honest) *)
  let a = Abox.of_assertions ~concepts:[ "A", "a" ] ~roles:[] in
  check_bool "evaluates without crashing" true (evaluate_ucq a u <> [])

(* {1 The union-find fast path against its naive oracles} *)

(* The indexed fixpoint + relation-store minimisation must reproduce
   [reformulate_naive] byte-for-byte: same disjuncts, same order. *)
let same_ucq u1 u2 =
  Ucq.size u1 = Ucq.size u2
  && List.for_all2 Cq.equal (Ucq.disjuncts u1) (Ucq.disjuncts u2)

let test_fast_equals_naive_lubm () =
  let tbox = Lubm.Ontology.tbox in
  List.iter
    (fun e ->
      let fast = Reform.Perfectref.reformulate tbox e.Lubm.Workload.query in
      let naive = Reform_reference.reformulate_naive tbox e.Lubm.Workload.query in
      Alcotest.(check bool) (e.Lubm.Workload.name ^ ": fast = naive") true
        (same_ucq fast naive))
    Lubm.Workload.queries

let test_fast_equals_naive_random () =
  let rng = Random.State.make [| 48151623 |] in
  for _ = 1 to 150 do
    let tbox = random_tbox rng in
    let q = random_query rng in
    check_bool "fast reformulation = naive" true
      (same_ucq
         (Reform.Perfectref.reformulate tbox q)
         (Reform_reference.reformulate_naive tbox q))
  done

let test_minimize_matches_ucq_minimize () =
  let rng = Random.State.make [| 271828 |] in
  for _ = 1 to 120 do
    let tbox = random_tbox rng in
    let q = random_query rng in
    let raw = Reform.Perfectref.reformulate_raw tbox q in
    check_bool "Minimize.minimize = naive minimisation" true
      (same_ucq (Reform.Minimize.minimize raw) (Reform_reference.minimize_ucq raw))
  done

let test_dedup_metric () =
  (* Two specializable atoms reach shared descendants through either
     derivation order, so the fixpoint's duplicate counter must move. *)
  let before = Obs.Metrics.counter_value Reform.Minimize.m_dedup_hits in
  ignore (Reform.Perfectref.reformulate example1_tbox example3_query);
  let after = Obs.Metrics.counter_value Reform.Minimize.m_dedup_hits in
  check_bool "reform.dedup_hits advanced" true (after > before)

(* {1 Containment edge cases} *)

let test_containment_repeated_vars () =
  let t = Tbox.empty in
  let self_loop = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "x") ] () in
  let edge = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  check_bool "R(x,x) within R(x,y)" true (Reform.Containment.contained_in t self_loop edge);
  check_bool "R(x,y) not within R(x,x)" false
    (Reform.Containment.contained_in t edge self_loop);
  (* a self-join pair folds onto the loop, not conversely *)
  let two_hop =
    Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ra "R" (v "y") (v "x") ] ()
  in
  check_bool "loop within the self-join pair" true
    (Reform.Containment.contained_in t self_loop two_hop);
  check_bool "pair not within the loop (no hom onto x=y)" true
    (Reform.Containment.contained_in t two_hop self_loop
    = Reform.Containment.contained_in_raw t two_hop self_loop)

let test_containment_constants_vs_vars () =
  let t = Tbox.empty in
  (* same rendered names on purpose: the memo key must keep the
     variable "x" and the constant "x" apart *)
  let with_var = Cq.make ~head:[ v "y" ] ~body:[ ra "R" (v "y") (v "x") ] () in
  let with_cst = Cq.make ~head:[ v "y" ] ~body:[ ra "R" (v "y") (c "x") ] () in
  check_bool "constant query within variable query" true
    (Reform.Containment.contained_in t with_cst with_var);
  check_bool "variable query not within constant query" false
    (Reform.Containment.contained_in t with_var with_cst);
  (* ask again with roles reversed to hit the memo, and cross-check the
     uncached oracle *)
  check_bool "memoised answer matches the oracle" true
    (Reform.Containment.contained_in t with_cst with_var
    = Reform.Containment.contained_in_raw t with_cst with_var);
  check_bool "memoised negative matches the oracle" true
    (Reform.Containment.contained_in t with_var with_cst
    = Reform.Containment.contained_in_raw t with_var with_cst)

let test_containment_cached_equals_raw_random () =
  let rng = Random.State.make [| 314159 |] in
  for _ = 1 to 100 do
    let tbox = random_tbox rng in
    let q1 = random_query rng and q2 = random_query rng in
    if Cq.arity q1 = Cq.arity q2 then begin
      let cached = Reform.Containment.contained_in tbox q1 q2 in
      let raw = Reform.Containment.contained_in_raw tbox q1 q2 in
      check_bool "cached containment = raw" raw cached;
      (* second lookup serves from the memo and must agree too *)
      check_bool "memo hit stays correct" raw
        (Reform.Containment.contained_in tbox q1 q2)
    end
  done

let test_empty_union_rejected () =
  (* Empty CQ bodies and hollow unions fail loudly: [Fol.of_ucq]'s
     invalid_arg guard is unreachable through [Ucq.make], which
     already rejects the empty union. *)
  check_bool "empty-body cq rejected" true
    (match Cq.make ~head:[ v "x" ] ~body:[] () with
    | (_ : Cq.t) -> false
    | exception Invalid_argument _ -> true);
  check_bool "empty union rejected" true
    (match Ucq.make [] with
    | (_ : Ucq.t) -> false
    | exception Invalid_argument _ -> true);
  (* minimisation never empties a union *)
  let q = Cq.make ~head:[ v "x" ] ~body:[ ca "A0" (v "x") ] () in
  check_int "singleton survives minimisation" 1
    (Ucq.size (Reform.Minimize.minimize (Ucq.make [ q ])))

let prop_minimized_answers_equal =
  QCheck2.Test.make ~name:"minimized ucq answers = unminimized (end-to-end)"
    ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xC0FFEE |] in
      let tbox = random_tbox rng in
      let abox = random_abox rng in
      let q = random_query rng in
      let raw = Reform.Perfectref.reformulate_raw tbox q in
      let expected = evaluate_ucq abox raw in
      evaluate_ucq abox (Reform_reference.minimize_ucq raw) = expected
      && evaluate_ucq abox (Reform.Minimize.minimize raw) = expected)

let prop_store_reformulation_equals_naive =
  QCheck2.Test.make ~name:"store-backed reformulation = naive oracle"
    ~count:80
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xFEED |] in
      let tbox = random_tbox rng in
      let q = random_query rng in
      same_ucq
        (Reform.Perfectref.reformulate tbox q)
        (Reform_reference.reformulate_naive tbox q))

let suite =
  [
    Alcotest.test_case "example 4 raw size" `Quick test_example4_raw_size;
    Alcotest.test_case "example 4 contents" `Quick test_example4_contains_expected;
    Alcotest.test_case "example 4 minimized" `Quick test_example4_minimized;
    Alcotest.test_case "example 7 ucq" `Quick test_example7_ucq;
    Alcotest.test_case "specialize concept atom" `Quick test_specializations_concept_atom;
    Alcotest.test_case "specialize bound role" `Quick test_specializations_bound_role;
    Alcotest.test_case "specialize unbound role" `Quick test_specializations_unbound_role;
    Alcotest.test_case "uscq shape" `Quick test_uscq_equivalent_shape;
    Alcotest.test_case "uscq factorization" `Quick test_factorize_merges_siblings;
    Alcotest.test_case "reformulation matches chase" `Slow test_reformulation_matches_chase;
    Alcotest.test_case "raw vs minimized answers" `Slow test_raw_equals_minimized_answers;
    Alcotest.test_case "reformulation cache" `Quick test_cached_reformulation;
    Alcotest.test_case "bounded cache equivalence" `Quick test_bounded_cache_equivalence;
    Alcotest.test_case "unsat fragment no crash" `Quick test_unsat_fragment_no_crash;
    Alcotest.test_case "containment basic" `Quick test_containment_basic;
    Alcotest.test_case "containment existential" `Quick test_containment_existential;
    Alcotest.test_case "containment vs plain" `Slow test_containment_vs_plain;
    Alcotest.test_case "violation queries" `Quick test_violation_queries_example1;
    Alcotest.test_case "consistency via existential chain" `Quick
      test_consistency_through_existential_chain;
    Alcotest.test_case "consistency checks agree (random)" `Slow
      test_consistency_agreement_random;
    Alcotest.test_case "fast = naive (lubm)" `Slow test_fast_equals_naive_lubm;
    Alcotest.test_case "fast = naive (random)" `Slow test_fast_equals_naive_random;
    Alcotest.test_case "minimize = ucq minimize" `Slow test_minimize_matches_ucq_minimize;
    Alcotest.test_case "dedup metric" `Quick test_dedup_metric;
    Alcotest.test_case "containment repeated vars" `Quick test_containment_repeated_vars;
    Alcotest.test_case "containment constants" `Quick test_containment_constants_vs_vars;
    Alcotest.test_case "containment cache = raw" `Slow test_containment_cached_equals_raw_random;
    Alcotest.test_case "empty union rejected" `Quick test_empty_union_rejected;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_minimized_answers_equal; prop_store_reformulation_equals_naive ]
