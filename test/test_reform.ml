open Query
open Dllite
open Fixtures

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* {1 Example 4 of the paper: the ten-disjunct UCQ of Table 5} *)

let test_example4_raw_size () =
  let raw = Reform.Perfectref.fixpoint example1_tbox example3_query in
  check_int "Table 5 lists ten union terms" 10 (Ucq.size raw)

let test_example4_contains_expected () =
  let raw = Reform.Perfectref.fixpoint example1_tbox example3_query in
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
  let raw = Reform.Perfectref.fixpoint example7_tbox example7_query in
  check_int "four union terms" 4 (Ucq.size raw);
  let has u body =
    let q = Cq.canonicalize (Cq.make ~head:[ v "x" ] ~body ()) in
    List.exists (fun d -> Cq.equal (Cq.canonicalize (Reform_reference.minimize_cq d)) q) (Ucq.disjuncts u)
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

(* [q] with one or two atoms planted at random positions, each entailed
   under [tbox] by one atom of [q] alone: a subsumer of the concept an
   atom asserts of one of its terms ([B(x)] beside [A(x)] when
   [A ⊑ B], [R(x,_)] beside [A(x)] when [A ⊑ ∃R]) or a super-role of a
   role atom. The planted query has [q]'s certain answers, and gives
   {!Reform.Reduce} something to drop. *)
let plant_entailed rng tbox q =
  let fresh = ref 0 in
  let fresh_var () =
    incr fresh;
    v (Printf.sprintf "z%d" !fresh)
  in
  let of_concept t = function
    | Concept.Atomic a -> ca a t
    | Concept.Exists (Role.Named p) -> ra p t (fresh_var ())
    | Concept.Exists (Role.Inverse p) -> ra p (fresh_var ()) t
  in
  let subsumers t c =
    List.map (of_concept t) (Concept.Set.elements (Tbox.subsumers_of_concept tbox c))
  in
  let entailed = function
    | Atom.Ca (a, t) -> subsumers t (atomic a)
    | Atom.Ra (p, t1, t2) ->
      subsumers t1 (ex p) @ subsumers t2 (ex_inv p)
      @ List.map
          (function Role.Named p' -> ra p' t1 t2 | Role.Inverse p' -> ra p' t2 t1)
          (Role.Set.elements (Tbox.subsumers_of_role tbox (named p)))
  in
  let plant body =
    let source = List.nth body (Random.State.int rng (List.length body)) in
    match List.filter (fun a -> not (List.mem a body)) (entailed source) with
    | [] -> body
    | candidates ->
      let a = List.nth candidates (Random.State.int rng (List.length candidates)) in
      let at = Random.State.int rng (List.length body + 1) in
      List.filteri (fun i _ -> i < at) body @ (a :: List.filteri (fun i _ -> i >= at) body)
  in
  let body = ref (Cq.atoms q) in
  for _ = 0 to Random.State.int rng 2 do
    body := plant !body
  done;
  Cq.make ~name:q.Cq.name ~head:q.Cq.head ~body:!body ()

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
    let raw = evaluate_ucq abox (Reform.Perfectref.fixpoint tbox q) in
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

(* The fragment queries GDL reformulates: those of the root cover of
   each LUBM query and of every cover one or two GDL moves (merge,
   enlarge) away from it, keyed by their rendering. *)
let lubm_fragment_queries () =
  let module G = Covers.Generalized in
  let tbox = Lubm.Ontology.tbox in
  let moves c =
    let fs = G.fragments c in
    List.concat_map
      (fun f1 ->
        List.filter_map
          (fun f2 -> if f1 != f2 && G.mergeable c f1 f2 then Some (G.merge c f1 f2) else None)
          fs
        @ List.map (G.enlarge c f1) (G.enlargeable_atoms c f1))
      fs
  in
  let frags = Hashtbl.create 256 in
  List.iter
    (fun e ->
      let root = G.of_cover (Covers.Safety.root_cover tbox e.Lubm.Workload.query) in
      let near = root :: moves root in
      List.iter
        (fun cover ->
          List.iter
            (fun fq -> Hashtbl.replace frags (Cq.to_string fq) fq)
            (G.fragment_queries cover))
        (near @ List.concat_map moves near))
    Lubm.Workload.queries;
  frags

(* Every such fragment query against the frozen pipeline. *)
let test_fast_equals_naive_fragments () =
  let tbox = Lubm.Ontology.tbox in
  let frags = lubm_fragment_queries () in
  check_bool "fragments collected" true (Hashtbl.length frags > 100);
  Hashtbl.iter
    (fun key fq ->
      check_bool (key ^ ": fast = naive") true
        (same_ucq
           (Reform.Perfectref.reformulate tbox fq)
           (Reform_reference.reformulate_naive tbox fq)))
    frags

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

let lubm_entries = Lubm.Workload.queries @ Lubm.Workload.star_queries

(* The production fixpoint must reproduce the textbook one, keyed on
   the frozen canonical form, disjunct for disjunct. *)
let test_fixpoint_equals_raw_lubm () =
  let tbox = Lubm.Ontology.tbox in
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      check_bool (e.Lubm.Workload.name ^ ": fixpoint = raw reference") true
        (same_ucq (Reform.Perfectref.fixpoint tbox q)
           (Reform_reference.reformulate_raw tbox q)))
    lubm_entries

(* E8's reformulation sizes (raw fixpoint, minimised UCQ) per query. *)
let test_anatomy_sizes () =
  let expected =
    [
      "Q1", 220, 20; "Q2", 4, 1; "Q3", 38, 2; "Q4", 11, 1; "Q5", 72, 2;
      "Q6", 354, 352; "Q7", 30, 5; "Q8", 127, 9; "Q9", 108, 108;
      "Q10", 360, 360; "Q11", 208, 8; "Q12", 3, 2; "Q13", 2304, 384;
    ]
  in
  let tbox = Lubm.Ontology.tbox in
  List.iter
    (fun (name, raw, min) ->
      let q = Lubm.Workload.q (int_of_string (String.sub name 1 (String.length name - 1))) in
      check_int (name ^ " raw UCQ") raw (Ucq.size (Reform.Perfectref.fixpoint tbox q));
      check_int (name ^ " minimal UCQ") min (Ucq.size (Reform.Perfectref.reformulate tbox q)))
    expected

(* The minimiser's predicate-mask index visits fewer pairs than the
   plain pair loop; the containment counters must keep the totals that
   loop produced (checks run, memo hits, prefilter skips). *)
let test_containment_counter_totals () =
  let tbox = Lubm.Ontology.tbox in
  let value c = Obs.Metrics.counter_value (Option.get (Obs.Metrics.find_counter c)) in
  List.iter
    (fun (i, checks, memo, skipped) ->
      let raw = Reform.Perfectref.fixpoint tbox (Lubm.Workload.q i) in
      let c0 = value "reform.containment.checks"
      and m0 = value "reform.containment.memo_hits"
      and s0 = value "reform.containment.skipped" in
      ignore (Reform.Minimize.minimize raw);
      let name = Printf.sprintf "Q%d " i in
      check_int (name ^ "checks") checks (value "reform.containment.checks" - c0);
      check_int (name ^ "memo hits") memo (value "reform.containment.memo_hits" - m0);
      check_int (name ^ "skipped") skipped (value "reform.containment.skipped" - s0))
    [ 1, 360, 0, 9392; 6, 551, 2, 124035; 10, 0, 0, 129240; 13, 3936, 0, 978516 ]

(* Every raw fixpoint CQ of the LUBM workload, its body shuffled five
   ways: the one-pass canonical form = the frozen original. *)
let test_canonical_form_lubm () =
  let tbox = Lubm.Ontology.tbox in
  let rng = Random.State.make [| 1813 |] in
  let checked = ref 0 in
  List.iter
    (fun e ->
      List.iter
        (fun d ->
          for _ = 1 to 5 do
            let arr = Array.of_list (Cq.atoms d) in
            for i = Array.length arr - 1 downto 1 do
              let j = Random.State.int rng (i + 1) in
              let t = arr.(i) in
              arr.(i) <- arr.(j);
              arr.(j) <- t
            done;
            let q = Cq.make ~head:d.Cq.head ~body:(Array.to_list arr) () in
            incr checked;
            if not (Cq.equal (Cq.canonicalize q) (Canon_reference.canonicalize q)) then
              Alcotest.failf "%s: canonical forms differ on %a" e.Lubm.Workload.name Cq.pp q
          done)
        (Ucq.disjuncts (Reform.Perfectref.fixpoint tbox e.Lubm.Workload.query)))
    lubm_entries;
  check_bool "every raw CQ checked" true (!checked > 5 * 2304)

let test_minimize_matches_ucq_minimize () =
  let rng = Random.State.make [| 271828 |] in
  for _ = 1 to 120 do
    let tbox = random_tbox rng in
    let q = random_query rng in
    let raw = Reform.Perfectref.fixpoint tbox q in
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
      let raw = Reform.Perfectref.fixpoint tbox q in
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

(* {1 Data-aware PerfectRef (DESIGN §15.4)}

   Under an emptiness snapshot, the fixpoint must equal the unpruned
   fixpoint with every disjunct over an empty predicate filtered out,
   in the same order (the input CQ alone when none is left), and the
   minimised UCQ must equal the unpruned minimal UCQ filtered the same
   way ({!Reform_reference.prune}). *)

let filtered_fixpoint data tbox q =
  match Reform_reference.live_disjuncts data (Reform.Perfectref.fixpoint tbox q) with
  | [] -> Ucq.make [ q ]
  | live -> Ucq.make live

let pruned_matches_filtered data tbox q =
  same_ucq (Reform.Perfectref.fixpoint ~data tbox q) (filtered_fixpoint data tbox q)
  && same_ucq
       (Reform.Perfectref.reformulate ~data tbox q)
       (Reform_reference.prune data q (Reform.Perfectref.reformulate tbox q))

let random_empty_set rng tbox =
  let p = Random.State.float rng 1. in
  Reform.Emptiness.make tbox ~empty:(fun _ -> Random.State.float rng 1. < p)

(* LUBM Q1–Q13, the star queries and every enumerated fragment query,
   under the empty set of generated LUBM data and under random ones. *)
let test_pruned_equals_filtered_lubm () =
  let tbox = Lubm.Ontology.tbox in
  let engine =
    Obda.make_engine `Pglite `Simple (Lubm.Generator.generate ~target_facts:5_000 ())
  in
  let lubm_data = Optimizer.Estimator.emptiness tbox (Obda.layout engine) in
  check_bool "LUBM data leaves hopeless names" true
    (Reform.Emptiness.hopeless_count lubm_data > 0);
  let rng = Random.State.make [| 0xE3707 |] in
  let snapshots = lubm_data :: List.init 3 (fun _ -> random_empty_set rng tbox) in
  let queries =
    List.map (fun e -> e.Lubm.Workload.name, e.Lubm.Workload.query) lubm_entries
    @ Hashtbl.fold (fun k q acc -> (k, q) :: acc) (lubm_fragment_queries ()) []
  in
  List.iter
    (fun data ->
      List.iter
        (fun (name, q) ->
          check_bool (name ^ ": pruned = filtered") true (pruned_matches_filtered data tbox q))
        queries)
    snapshots

(* On 5k LUBM facts pruning cuts Q13's minimal UCQ to a fraction of
   its 384 arms and generates fewer CQs; a snapshot with no empty name
   changes nothing; a snapshot of another TBox is refused. *)
let test_pruned_lubm_sizes () =
  let tbox = Lubm.Ontology.tbox in
  let engine =
    Obda.make_engine `Pglite `Simple (Lubm.Generator.generate ~target_facts:5_000 ())
  in
  let data = Optimizer.Estimator.emptiness tbox (Obda.layout engine) in
  let q = (Lubm.Workload.find "Q13").query in
  let generated f =
    let c = Option.get (Obs.Metrics.find_counter "reform.cq.generated") in
    let before = Obs.Metrics.counter_value c in
    ignore (f ());
    Obs.Metrics.counter_value c - before
  in
  let arms = Ucq.size (Reform.Perfectref.reformulate ~data tbox q) in
  check_bool "Q13 keeps under a third of its arms" true (arms > 0 && 3 * arms < 384);
  check_bool "fewer CQs generated" true
    (generated (fun () -> Reform.Perfectref.fixpoint ~data tbox q)
    < generated (fun () -> Reform.Perfectref.fixpoint tbox q));
  check_bool "no empty name: unpruned UCQ" true
    (same_ucq
       (Reform.Perfectref.reformulate
          ~data:(Reform.Emptiness.make tbox ~empty:(fun _ -> false))
          tbox q)
       (Reform.Perfectref.reformulate tbox q));
  check_bool "snapshot of another TBox rejected" true
    (match Reform.Perfectref.fixpoint ~data example1_tbox example3_query with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* {1 TBox-redundant atom elimination} *)

(* The atoms the reduction drops from Q1-Q13, in body order. *)
let test_lubm_reductions () =
  let tbox = Lubm.Ontology.tbox in
  let expected =
    [
      "Q1", [ "teacherOf(x,c)" ];
      "Q2", [ "subOrganizationOf(d,u)" ];
      "Q3", [ "worksFor(x,d)" ];
      "Q4", [ "teacherOf(y,c)" ];
      "Q5", [ "ResearchGroup(g)"; "advisor(x,y)"; "teacherOf(y,c)" ];
      "Q6", [];
      "Q7", [ "Department(d)"; "scheduledIn(c,sem)" ];
      "Q8", [ "worksFor(p,d)" ];
      "Q9", [];
      "Q10", [];
      "Q11", [ "Organization(o)" ];
      "Q12", [];
      "Q13", [ "University(u)" ];
    ]
  in
  List.iter
    (fun (name, dropped) ->
      let q = (Lubm.Workload.find name).Lubm.Workload.query in
      let r, d = Reform.Reduce.reduce tbox q in
      Alcotest.(check (list string)) (name ^ ": dropped atoms") dropped
        (List.map Atom.to_string d);
      check_int (name ^ ": reduced size") (Cq.atom_count q - List.length dropped)
        (Cq.atom_count r);
      check_bool (name ^ ": head kept") true (r.Cq.head = q.Cq.head))
    expected

(* The same greedy passes, deciding each drop with the chase-based
   containment test [q \ a ⊑_T q] instead of PerfectRef: the oracle the
   reduction must agree with. *)
let reduce_by_chase tbox q =
  let head_vars = Cq.head_vars q in
  let vars atoms =
    List.fold_left (fun s a -> Term.Set.union s (Atom.vars a)) Term.Set.empty atoms
  in
  let query body = Cq.make ~head:q.Cq.head ~body () in
  let rec pass kept dropped_any = function
    | [] -> List.rev kept, dropped_any
    | ((_, a) as ia) :: todo ->
      let before = List.rev_map snd kept and after = List.map snd todo in
      let rest = before @ after in
      if
        rest <> []
        && Term.Set.subset head_vars (vars rest)
        && Reform.Containment.contained_in_raw tbox (query rest)
             (query (before @ (a :: after)))
      then pass kept true todo
      else pass (ia :: kept) dropped_any todo
  in
  let rec fix body =
    match pass [] false body with
    | body', true -> fix body'
    | body', false -> body'
  in
  let indexed = List.mapi (fun i a -> i, a) (Cq.atoms q) in
  let kept = fix indexed in
  List.filter_map (fun (i, a) -> if List.mem_assoc i kept then None else Some a) indexed

let test_reductions_match_chase () =
  let tbox = Lubm.Ontology.tbox in
  List.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      Alcotest.(check (list string))
        (e.Lubm.Workload.name ^ ": dropped = chase oracle")
        (List.map Atom.to_string (reduce_by_chase tbox q))
        (List.map Atom.to_string (snd (Reform.Reduce.reduce tbox q))))
    lubm_entries

let prop_reduced_answers_equal =
  QCheck2.Test.make ~name:"reduced query answers = original (chase, random)" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x5ED |] in
      let tbox = random_tbox rng in
      let abox = random_abox rng in
      let q = plant_entailed rng tbox (random_query rng) in
      let r, dropped = Reform.Reduce.reduce tbox q in
      Cq.atom_count r + List.length dropped = Cq.atom_count q
      && List.sort_uniq compare (Chase.certain_answers tbox abox r)
         = List.sort_uniq compare (Chase.certain_answers tbox abox q))

let prop_pruned_equals_filtered_random =
  QCheck2.Test.make ~name:"pruned reformulation = filtered unpruned (random)"
    ~count:200
    QCheck2.Gen.(pair (int_bound 1_000_000) Test_query.gen_cq)
    (fun (seed, q) ->
      let rng = Random.State.make [| seed; 0xE3 |] in
      let tbox = random_tbox rng in
      pruned_matches_filtered (random_empty_set rng tbox) tbox q)

(* {1 Factorising product-shaped leaves} *)

(* A leaf over (x,y) whose arms are [a ∧ R(x,y) ∧ b] for every [a] of
   [xs] and [b] of [ys]: an exact 1 × |xs| × |ys| product. *)
let product_arms xs ys =
  List.concat_map
    (fun a ->
      List.map
        (fun b ->
          Cq.canonicalize
            (Cq.make ~head:[ v "x"; v "y" ] ~body:(a @ [ ra "R" (v "x") (v "y") ] @ b) ()))
        ys)
    xs

let product_xs = [ [ ca "A0" (v "x") ]; [ ca "A1" (v "x") ]; [ ra "P" (v "x") (v "z") ] ]

let product_ys = [ [ ca "B0" (v "y") ]; [ ca "B1" (v "y") ]; [ ra "P" (v "w") (v "y"); ca "C" (v "w") ] ]

let product_leaf arms = Fol.leaf ~out:[ v "x"; v "y" ] (Ucq.make arms)

let product_abox () =
  Abox.of_assertions
    ~concepts:[ "A0", "a"; "A1", "b"; "B0", "c"; "B1", "a"; "C", "e"; "C", "a" ]
    ~roles:[ "R", "a", "c"; "R", "b", "a"; "R", "d", "d"; "R", "c", "b"; "P", "d", "e";
             "P", "e", "d"; "P", "c", "a" ]

let test_factorise_product () =
  let leaf = product_leaf (product_arms product_xs product_ys) in
  let fol, stats = Reform.Factorise.factorise leaf in
  check_bool "one leaf factorised, 9 arms -> 1 + 3 + 3" true
    (stats = [ { Reform.Factorise.arms = 9; parts = [ 1; 3; 3 ] } ]);
  check_int "7 CQs" 7 (Fol.cq_count fol);
  check_bool "a join of unions" true (Fol.dialect fol = "JUCQ");
  check_bool "same answers" true
    (eval_fol (product_abox ()) fol = eval_fol (product_abox ()) leaf
    && eval_fol (product_abox ()) leaf <> []);
  (* inside a join the parts are spliced in beside the other leaves *)
  let other = Fol.of_cq (Cq.make ~head:[ v "y" ] ~body:[ ca "C" (v "y") ] ()) in
  let join = Fol.join ~out:[ v "x" ] [ leaf; other ] in
  match Reform.Factorise.factorise join with
  | Fol.Join { parts; _ }, [ _ ] ->
    check_int "three parts and the other leaf" 4 (List.length parts);
    check_bool "spliced join = unfactorised join" true
      (eval_fol (product_abox ()) (Fol.join ~out:[ v "x" ] parts)
      = eval_fol (product_abox ()) join)
  | _ -> Alcotest.fail "the join's product leaf was not spliced"

let test_factorise_refuses_non_products () =
  let unchanged name leaf =
    let fol, stats = Reform.Factorise.factorise leaf in
    check_bool name true (fol == leaf && stats = [])
  in
  let arms = product_arms product_xs product_ys in
  unchanged "one arm removed" (product_leaf (List.tl arms));
  (* the arm [P(x,z) ∧ R(x,y) ∧ P(z,y) ∧ C(z)] replaces
     [P(x,z) ∧ R(x,y) ∧ P(w,y) ∧ C(w)]: its x and y parts share [z].
     Keyed part by part it would complete the 3 × 3 product, but the
     shared variable makes the three atoms one core group. *)
  let shared =
    List.map
      (fun cq ->
        if List.length cq.Cq.body = 4 && Term.Set.cardinal (Cq.existential_vars cq) = 2 then
          Cq.canonicalize
            (Cq.make ~head:[ v "x"; v "y" ]
               ~body:
                 [ ra "P" (v "x") (v "z"); ra "R" (v "x") (v "y"); ra "P" (v "z") (v "y");
                   ca "C" (v "z") ]
               ())
        else cq)
      arms
  in
  check_bool "one arm replaced" true
    (List.length (List.filter (fun cq -> not (List.memq cq arms)) shared) = 1);
  unchanged "two parts share an existential" (product_leaf shared);
  (* 2 × 2: four arms against four parts, not strictly fewer *)
  unchanged "2 x 2 is not smaller"
    (product_leaf (product_arms (List.tl product_xs) (List.tl product_ys)));
  unchanged "a plain UCQ"
    (Fol.leaf ~out:example3_query.Cq.head
       (Reform.Perfectref.reformulate example1_tbox example3_query))

(* Random knowledge bases with planted product structure: the TBox
   gives each of [A0(x)], [R0(x,y)] and [A1(y)] a random number of
   rewritings — concept subsumees, existential subsumees and sub-roles
   — on top of random axioms that may break the product. The
   factorised reformulation, the flat one and the chase agree, through
   the reference evaluator and through the engine, and through GDL,
   which factorises the leaves of the cover it chooses. *)
let planted_product rng =
  let names prefix k = List.init k (fun i -> Printf.sprintf "%s%d" prefix i) in
  let some k = 1 + Random.State.int rng k in
  let axioms =
    List.map (fun c -> sub (atomic c) (atomic "A0")) (names "P" (some 3))
    @ List.map (fun c -> sub (atomic c) (atomic "A1")) (names "Q" (some 3))
    @ (if Random.State.bool rng then [ sub (ex "S0") (atomic "A0") ] else [])
    @ (if Random.State.bool rng then [ sub (ex_inv "S1") (atomic "A1") ] else [])
    @ (if Random.State.bool rng then [ rsub (named "S2") (named "R0") ] else [])
    @ if Random.State.bool rng then [ rsub (named "S3") (inv "R0") ] else []
  in
  let noise = List.filteri (fun i _ -> i < Random.State.int rng 3) (Tbox.axioms (random_tbox rng)) in
  let tbox = Tbox.of_axioms (axioms @ noise) in
  let head = if Random.State.int rng 4 = 0 then [ v "x" ] else [ v "x"; v "y" ] in
  let chain =
    (* a two-atom unary part of y, joined through an existential *)
    if Random.State.bool rng then [ ra "R1" (v "y") (v "z"); ca "A2" (v "z") ] else []
  in
  let q =
    Cq.make ~head ~body:([ ca "A0" (v "x"); ra "R0" (v "x") (v "y"); ca "A1" (v "y") ] @ chain) ()
  in
  let inds = [ "i0"; "i1"; "i2"; "i3"; "i4" ] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let concepts = [ "A0"; "A1"; "A2"; "P0"; "P1"; "P2"; "Q0"; "Q1"; "Q2" ]
  and roles = [ "R0"; "R1"; "S0"; "S1"; "S2"; "S3" ] in
  let abox = Abox.create () in
  for _ = 1 to 8 + Random.State.int rng 10 do
    if Random.State.bool rng then Abox.add_concept abox ~concept:(pick concepts) ~ind:(pick inds)
    else Abox.add_role abox ~role:(pick roles) ~subj:(pick inds) ~obj:(pick inds)
  done;
  tbox, abox, q

let prop_factorised_answers_equal =
  QCheck2.Test.make ~name:"factorised answers = flat = chase (planted products)" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xFAC |] in
      let tbox, abox, q = planted_product rng in
      let expected = List.sort_uniq compare (Chase.certain_answers tbox abox q) in
      let ucq = Reform.Perfectref.reformulate tbox q in
      let flat = Fol.leaf ~out:q.Cq.head ucq in
      let factorised, _ = Reform.Factorise.factorise flat in
      let layout = Rdbms.Layout.simple_of_abox abox in
      let engine fol =
        List.sort_uniq compare (Rdbms.Exec.answers layout (Rdbms.Planner.of_fol layout fol))
      in
      let gdl = Obda.make_engine `Pglite `Simple abox in
      (* any UCQ keeps its answers: with one arm dropped the leaf is no
         longer a product, unless that arm was redundant *)
      let thinned =
        match Ucq.disjuncts ucq with
        | [] | [ _ ] -> flat
        | arms ->
          let drop = Random.State.int rng (List.length arms) in
          Fol.leaf ~out:q.Cq.head (Ucq.make (List.filteri (fun i _ -> i <> drop) arms))
      in
      eval_fol abox flat = expected
      && eval_fol abox factorised = expected
      && engine factorised = expected
      && engine (fst (Reform.Factorise.factorise thinned)) = eval_fol abox thinned
      && List.sort_uniq compare (Obda.answers_exn gdl tbox (Obda.Gdl Obda.Ext_cost) q)
         = expected)

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
    Alcotest.test_case "fast = naive (lubm fragments)" `Slow test_fast_equals_naive_fragments;
    Alcotest.test_case "fixpoint = raw reference (lubm)" `Slow test_fixpoint_equals_raw_lubm;
    Alcotest.test_case "anatomy: E8 reformulation sizes" `Quick test_anatomy_sizes;
    Alcotest.test_case "containment counters keep their totals" `Quick
      test_containment_counter_totals;
    Alcotest.test_case "canonical form = frozen reference (lubm)" `Slow
      test_canonical_form_lubm;
    Alcotest.test_case "minimize = ucq minimize" `Slow test_minimize_matches_ucq_minimize;
    Alcotest.test_case "dedup metric" `Quick test_dedup_metric;
    Alcotest.test_case "containment repeated vars" `Quick test_containment_repeated_vars;
    Alcotest.test_case "containment constants" `Quick test_containment_constants_vs_vars;
    Alcotest.test_case "containment cache = raw" `Slow test_containment_cached_equals_raw_random;
    Alcotest.test_case "empty union rejected" `Quick test_empty_union_rejected;
    Alcotest.test_case "pruned = filtered (lubm + fragments)" `Slow
      test_pruned_equals_filtered_lubm;
    Alcotest.test_case "pruned LUBM sizes" `Quick test_pruned_lubm_sizes;
    Alcotest.test_case "lubm reductions" `Quick test_lubm_reductions;
    Alcotest.test_case "reductions = chase oracle (lubm)" `Slow test_reductions_match_chase;
    Alcotest.test_case "factorise: exact product" `Quick test_factorise_product;
    Alcotest.test_case "factorise: non-products unchanged" `Quick
      test_factorise_refuses_non_products;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_minimized_answers_equal; prop_store_reformulation_equals_naive;
        prop_pruned_equals_filtered_random; prop_reduced_answers_equal;
        prop_factorised_answers_equal ]
