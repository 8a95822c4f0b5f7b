open Query
open Fixtures

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* {1 Terms and substitutions} *)

let test_term_order () =
  check_bool "var before cst" true (Term.compare (v "z") (c "a") < 0);
  check_bool "same var equal" true (Term.equal (v "x") (v "x"));
  check_bool "var/cst differ" false (Term.equal (v "x") (c "x"))

let test_subst_apply () =
  let s = Subst.of_list [ "x", v "y"; "y", c "a" ] in
  Alcotest.(check string) "chases bindings" "a" (Term.to_string (Subst.apply s (v "x")));
  Alcotest.(check string) "constant fixed" "b" (Term.to_string (Subst.apply s (c "b")))

let test_subst_bind_conflict () =
  let s = Subst.singleton "x" (c "a") in
  Alcotest.check_raises "rebinding differs" (Invalid_argument "Subst.bind: x already bound")
    (fun () -> ignore (Subst.bind "x" (c "b") s))

let test_unify_terms () =
  check_bool "cst clash" true (Subst.unify_terms (c "a") (c "b") Subst.empty = None);
  match Subst.unify_terms (v "x") (c "a") Subst.empty with
  | None -> Alcotest.fail "expected unifier"
  | Some s -> Alcotest.(check string) "bound" "a" (Term.to_string (Subst.apply s (v "x")))

(* {1 Atoms} *)

let test_atom_unify () =
  check_bool "different predicates" true (Atom.unify (ca "A" (v "x")) (ca "B" (v "x")) = None);
  check_bool "role arity" true
    (Option.is_some (Atom.unify (ra "R" (v "x") (v "y")) (ra "R" (v "y") (v "z"))));
  check_bool "occurs fine" true
    (Option.is_some (Atom.unify (ra "R" (v "x") (v "x")) (ra "R" (v "y") (v "z"))))

let test_atom_shares_var () =
  check_bool "shares" true (Atom.shares_var (ca "A" (v "x")) (ra "R" (v "x") (v "y")));
  check_bool "no sharing" false (Atom.shares_var (ca "A" (v "x")) (ra "R" (v "z") (v "y")));
  check_bool "constants never share" false
    (Atom.shares_var (ca "A" (c "a")) (ca "B" (c "a")))

(* {1 CQs} *)

let q_xy body = Cq.make ~head:[ v "x"; v "y" ] ~body ()

let test_cq_make_unsafe () =
  Alcotest.check_raises "head var missing"
    (Invalid_argument "Cq.make: head variable z not in body") (fun () ->
      ignore (Cq.make ~head:[ v "z" ] ~body:[ ca "A" (v "x") ] ()))

let test_cq_make_empty () =
  Alcotest.check_raises "empty body" (Invalid_argument "Cq.make: empty body")
    (fun () -> ignore (Cq.make ~head:[] ~body:[] ()))

let test_cq_vars () =
  let q = q_xy [ ra "R" (v "x") (v "y"); ra "S" (v "y") (v "z") ] in
  check_int "vars" 3 (Term.Set.cardinal (Cq.vars q));
  check_int "head vars" 2 (Term.Set.cardinal (Cq.head_vars q));
  check_int "existential vars" 1 (Term.Set.cardinal (Cq.existential_vars q))

let test_cq_unbound () =
  let q =
    Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ra "S" (v "x") (v "z") ] ()
  in
  check_bool "y unbound" true (Cq.is_unbound_var q (v "y"));
  check_bool "x bound (head)" false (Cq.is_unbound_var q (v "x"));
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  check_bool "y shared" false (Cq.is_unbound_var q2 (v "y"))

let test_cq_connected () =
  let q = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  check_bool "chain connected" true (Cq.is_connected q);
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x"); ca "B" (v "z") ] () in
  check_bool "cartesian product" false (Cq.is_connected q2)

let test_cq_canonicalize_stable () =
  let q1 =
    Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "u"); ca "A" (v "u") ] ()
  in
  let q2 =
    Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "w"); ra "R" (v "x") (v "w") ] ()
  in
  check_bool "same canonical form" true (Cq.equal (Cq.canonicalize q1) (Cq.canonicalize q2))

let test_cq_hom_containment () =
  (* q1(x) <- R(x,y) ^ A(y)  is contained in  q2(x) <- R(x,y). *)
  let q1 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  check_bool "q1 in q2" true (Cq.contained_in q1 q2);
  check_bool "q2 not in q1" false (Cq.contained_in q2 q1)

let test_cq_hom_constants () =
  let q1 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (c "a") ] () in
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  check_bool "constant query more specific" true (Cq.contained_in q1 q2);
  check_bool "not conversely" false (Cq.contained_in q2 q1)

let test_cq_minimize () =
  (* R(x,y) ^ R(x,z) minimises to R(x,y). *)
  let q =
    Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ra "R" (v "x") (v "z") ] ()
  in
  let m = Cq.minimize q in
  check_int "one atom left" 1 (Cq.atom_count m);
  check_bool "equivalent" true (Cq.equivalent q m);
  (* A core that cannot shrink. *)
  let q2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  check_int "core stays" 2 (Cq.atom_count (Cq.minimize q2))

let test_cq_reduce () =
  let q =
    Cq.make ~head:[ v "x" ]
      ~body:[ ra "S" (v "x") (v "z"); ra "S" (v "y") (v "x") ] ()
  in
  match Cq.reduce q 0 1 with
  | None -> Alcotest.fail "atoms should unify"
  | Some q' ->
    check_int "single atom" 1 (Cq.atom_count q');
    (* the unification forces S(x,x) with the head preserved *)
    check_bool "head still x" true (List.equal Term.equal q'.Cq.head [ v "x" ]);
    check_bool "self loop" true (List.exists (Atom.equal (ra "S" (v "x") (v "x"))) (Cq.atoms q'))

let test_cq_reduce_no_unify () =
  let q = Cq.make ~head:[ v "x" ] ~body:[ ra "S" (v "x") (c "a"); ra "S" (c "b") (v "x") ] () in
  check_bool "constants clash" true (Cq.reduce q 0 1 = None)

(* {1 UCQs} *)

let test_ucq_minimize () =
  let d1 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y"); ca "A" (v "y") ] () in
  let d2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  let u = Ucq.make [ d1; d2 ] in
  let m = Reform_reference.minimize_ucq u in
  check_int "one disjunct" 1 (Ucq.size m);
  check_int "the general one" 1 (Cq.atom_count (List.hd (Ucq.disjuncts m)))

let test_ucq_dedup () =
  let d1 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  let d2 = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "z") ] () in
  check_int "alpha-equivalent disjuncts" 1 (Ucq.size (Ucq.dedup (Ucq.make [ d1; d2 ])))

let test_ucq_arity_mismatch () =
  let d1 = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x") ] () in
  let d2 = Cq.make ~head:[ v "x"; v "y" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  Alcotest.check_raises "mismatch" (Invalid_argument "Ucq.make: arity mismatch")
    (fun () -> ignore (Ucq.make [ d1; d2 ]))

(* {1 FOL trees} *)

let test_fol_dialects () =
  let cq_a = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x") ] () in
  let cq_r = Cq.make ~head:[ v "x" ] ~body:[ ra "R" (v "x") (v "y") ] () in
  let u = Ucq.make [ cq_a; cq_r ] in
  let leaf = Fol.of_ucq u in
  check_bool "leaf is ucq" true (Fol.is_ucq leaf);
  check_bool "leaf is single-atom scq" true (Fol.is_scq leaf);
  let join = Fol.join ~out:[ v "x" ] [ leaf; leaf ] in
  check_bool "join of ucqs is jucq" true (Fol.is_jucq join);
  check_bool "join of single-atom unions is scq" true (Fol.is_scq join);
  check_int "cq count" 4 (Fol.cq_count join);
  check_int "join width" 2 (Fol.join_width join)

let test_fol_join_validation () =
  let cq_a = Cq.make ~head:[ v "x" ] ~body:[ ca "A" (v "x") ] () in
  Alcotest.check_raises "output not produced"
    (Invalid_argument "Fol.join: output y in no part") (fun () ->
      ignore (Fol.join ~out:[ v "y" ] [ Fol.of_cq cq_a ]))

(* {1 Property-based tests} *)

let gen_term =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> v (Printf.sprintf "x%d" (i mod 4))) small_nat;
        map (fun i -> c (Printf.sprintf "a%d" (i mod 3))) small_nat;
      ])

let gen_atom =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun i t -> ca (Printf.sprintf "A%d" (i mod 3)) t) small_nat gen_term;
        map3
          (fun i t1 t2 -> ra (Printf.sprintf "R%d" (i mod 3)) t1 t2)
          small_nat gen_term gen_term;
      ])

(* A generator of safe random CQs: head = variables of the body. *)
let gen_cq =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* body = list_size (return n) gen_atom in
    let vars =
      Term.Set.elements
        (List.fold_left (fun acc a -> Term.Set.union acc (Atom.vars a)) Term.Set.empty body)
    in
    let head = match vars with [] -> [] | first :: _ -> [ first ] in
    if head = [] then
      return (Cq.make ~head:[] ~body ())
    else return (Cq.make ~head ~body ()))

let prop_canonicalize_idempotent =
  QCheck2.Test.make ~name:"canonicalize idempotent" ~count:200 gen_cq (fun q ->
      Cq.equal (Cq.canonicalize q) (Cq.canonicalize (Cq.canonicalize q)))

let prop_containment_reflexive =
  QCheck2.Test.make ~name:"containment reflexive" ~count:200 gen_cq (fun q ->
      Cq.contained_in q q)

let prop_minimize_equivalent =
  QCheck2.Test.make ~name:"minimize preserves equivalence" ~count:200 gen_cq (fun q ->
      Cq.equivalent q (Cq.minimize q))

let prop_dropping_atom_relaxes =
  QCheck2.Test.make ~name:"subquery contains superquery" ~count:200 gen_cq (fun q ->
      match Cq.atoms q with
      | [ _ ] | [] -> true
      | atoms ->
        let body' = List.tl atoms in
        let bv =
          List.fold_left (fun acc a -> Term.Set.union acc (Atom.vars a)) Term.Set.empty body'
        in
        let head_ok =
          List.for_all (fun t -> Term.is_cst t || Term.Set.mem t bv) q.Cq.head
        in
        (not head_ok)
        ||
        let q' = Cq.make ~head:q.Cq.head ~body:body' () in
        (* q has more constraints, hence is contained in q' *)
        Cq.contained_in q q')

let gen_atom_pair = QCheck2.Gen.pair gen_atom gen_atom

let prop_unify_produces_unifier =
  QCheck2.Test.make ~name:"mgu actually unifies" ~count:500 gen_atom_pair
    (fun (a1, a2) ->
      match Atom.unify a1 a2 with
      | None -> true
      | Some s -> Atom.equal (Atom.substitute s a1) (Atom.substitute s a2))

let prop_unify_symmetric =
  QCheck2.Test.make ~name:"unifiability is symmetric" ~count:500 gen_atom_pair
    (fun (a1, a2) ->
      Option.is_some (Atom.unify a1 a2) = Option.is_some (Atom.unify a2 a1))

let prop_containment_transitive =
  QCheck2.Test.make ~name:"containment transitive" ~count:100
    QCheck2.Gen.(triple gen_cq gen_cq gen_cq)
    (fun (q1, q2, q3) ->
      Cq.arity q1 <> Cq.arity q2 || Cq.arity q2 <> Cq.arity q3
      || (not (Cq.contained_in q1 q2 && Cq.contained_in q2 q3))
      || Cq.contained_in q1 q3)

let prop_canonicalize_preserves_equivalence =
  QCheck2.Test.make ~name:"canonicalize preserves equivalence" ~count:200 gen_cq
    (fun q -> Cq.equivalent q (Cq.canonicalize q))

let prop_minimize_canonicalize_commute_on_answers =
  QCheck2.Test.make ~name:"minimize of canonical still equivalent" ~count:200 gen_cq
    (fun q -> Cq.equivalent q (Cq.minimize (Cq.canonicalize q)))

let prop_ucq_minimize_keeps_maximal =
  QCheck2.Test.make ~name:"ucq minimize keeps a containing disjunct" ~count:100
    QCheck2.Gen.(pair gen_cq gen_cq)
    (fun (q1, q2) ->
      Cq.arity q1 <> Cq.arity q2
      ||
      let u = Ucq.make [ q1; q2 ] in
      let m = Reform_reference.minimize_ucq u in
      (* every dropped disjunct is contained in some survivor *)
      List.for_all
        (fun d ->
          List.exists (fun k -> Cq.contained_in d k) (Ucq.disjuncts m))
        (Ucq.disjuncts u))

(* {1 Undoable union-find and the union-find unifier} *)

let test_unionfind_basic () =
  let uf = Unionfind.create () in
  let a = Unionfind.make uf and b = Unionfind.make uf and cc = Unionfind.make uf in
  check_int "dense ids" 2 cc;
  check_bool "fresh nodes distinct" false (Unionfind.equiv uf a b);
  check_bool "first union merges" true (Unionfind.union uf a b);
  check_bool "second union is a no-op" false (Unionfind.union uf b a);
  check_bool "merged" true (Unionfind.equiv uf a b);
  check_bool "third node untouched" false (Unionfind.equiv uf a cc);
  check_int "three nodes" 3 (Unionfind.count uf);
  check_bool "partition" true
    (List.sort compare (Unionfind.classes uf) = [ [ 0; 1 ]; [ 2 ] ])

let test_unionfind_compression () =
  (* A long chain of unions, then finds: path compression must leave
     every find stable and the class intact. Capacity 1 also exercises
     the growth path. *)
  let uf = Unionfind.create ~capacity:1 () in
  let nodes = List.init 40 (fun _ -> Unionfind.make uf) in
  List.iter (fun i -> if i > 0 then ignore (Unionfind.union uf (i - 1) i)) nodes;
  let roots = List.map (Unionfind.find uf) nodes in
  let r0 = List.hd roots in
  check_bool "single class, single root" true (List.for_all (Int.equal r0) roots);
  List.iter
    (fun i -> check_int "find stable after compression" r0 (Unionfind.find uf i))
    nodes;
  check_int "one class" 1 (List.length (Unionfind.classes uf))

let test_unionfind_rollback () =
  let uf = Unionfind.create () in
  let a = Unionfind.make uf and b = Unionfind.make uf in
  ignore (Unionfind.union uf a b);
  let snap = Unionfind.snapshot uf in
  let c' = Unionfind.make uf and d = Unionfind.make uf in
  ignore (Unionfind.union uf c' d);
  ignore (Unionfind.union uf a c');
  (* a deep find, so compression writes land on the trail too *)
  ignore (Unionfind.find uf d);
  check_bool "all merged" true (Unionfind.equiv uf b d);
  Unionfind.rollback uf snap;
  check_int "post-snapshot nodes discarded" 2 (Unionfind.count uf);
  check_bool "pre-snapshot union survives" true (Unionfind.equiv uf a b);
  let e = Unionfind.make uf in
  check_int "ids restart where the snapshot left them" 2 e;
  check_bool "fresh node separate" false (Unionfind.equiv uf a e);
  ignore (Unionfind.union uf a e);
  Unionfind.rollback uf snap;
  check_int "rollback twice to the same mark" 2 (Unionfind.count uf)

(* The union-find unifier must decide and substitute exactly like
   folding [Subst.unify_terms] — [Atom.unify] and [Cq.reduce] sit on
   top of it. *)
let test_unifier_matches_unify_terms () =
  let rng = Random.State.make [| 90125 |] in
  let random_term () =
    if Random.State.int rng 3 = 0 then c (Printf.sprintf "k%d" (Random.State.int rng 3))
    else v (Printf.sprintf "x%d" (Random.State.int rng 4))
  in
  for _ = 1 to 500 do
    let pairs =
      List.init (1 + Random.State.int rng 5) (fun _ -> random_term (), random_term ())
    in
    let naive =
      List.fold_left
        (fun acc (t1, t2) -> Option.bind acc (Subst.unify_terms t1 t2))
        (Some Subst.empty) pairs
    in
    let u = Subst.Unifier.create () in
    let ok = List.for_all (fun (t1, t2) -> Subst.Unifier.unify u t1 t2) pairs in
    match naive, ok with
    | None, false -> check_bool "both reject" true (not (Subst.Unifier.is_consistent u))
    | Some s, true ->
      check_bool "same substitution" true
        (Subst.bindings s = Subst.bindings (Subst.Unifier.to_subst u))
    | Some _, false -> Alcotest.fail "unifier rejected a unifiable pair list"
    | None, true -> Alcotest.fail "unifier accepted a non-unifiable pair list"
  done

let test_unifier_constant_conflict () =
  let u = Subst.Unifier.create () in
  check_bool "x~a" true (Subst.Unifier.unify u (v "x") (c "a"));
  check_bool "y~x propagates a" true (Subst.Unifier.unify u (v "y") (v "x"));
  check_bool "rep y is a" true (Term.equal (Subst.Unifier.representative u (v "y")) (c "a"));
  check_bool "y~b clashes through the class" false (Subst.Unifier.unify u (v "y") (c "b"));
  check_bool "inconsistent" false (Subst.Unifier.is_consistent u);
  check_bool "to_subst refuses" true
    (match Subst.Unifier.to_subst u with
    | (_ : Subst.t) -> false
    | exception Invalid_argument _ -> true)

let test_unifier_rollback () =
  let u = Subst.Unifier.create () in
  check_bool "x~y" true (Subst.Unifier.unify u (v "x") (v "y"));
  let snap = Subst.Unifier.snapshot u in
  check_bool "y~a" true (Subst.Unifier.unify u (v "y") (c "a"));
  check_bool "constant reaches x" true
    (Term.equal (Subst.Unifier.representative u (v "x")) (c "a"));
  check_bool "x~b conflicts" false (Subst.Unifier.unify u (v "x") (c "b"));
  Subst.Unifier.rollback u snap;
  check_bool "consistent again" true (Subst.Unifier.is_consistent u);
  check_bool "x~y survives the rollback" true (Subst.Unifier.equiv u (v "x") (v "y"));
  check_bool "binding to a undone" false
    (Term.equal (Subst.Unifier.representative u (v "x")) (c "a"));
  (* and the unifier keeps working: the other constant now binds fine *)
  check_bool "x~b accepted after rollback" true (Subst.Unifier.unify u (v "x") (c "b"));
  let s = Subst.Unifier.to_subst u in
  check_bool "apply x = b" true (Term.equal (Subst.apply s (v "x")) (c "b"));
  check_bool "apply y = b" true (Term.equal (Subst.apply s (v "y")) (c "b"))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_canonicalize_idempotent;
      prop_containment_reflexive;
      prop_minimize_equivalent;
      prop_dropping_atom_relaxes;
      prop_unify_produces_unifier;
      prop_unify_symmetric;
      prop_containment_transitive;
      prop_canonicalize_preserves_equivalence;
      prop_minimize_canonicalize_commute_on_answers;
      prop_ucq_minimize_keeps_maximal;
    ]

let suite =
  [
    Alcotest.test_case "term order" `Quick test_term_order;
    Alcotest.test_case "subst apply" `Quick test_subst_apply;
    Alcotest.test_case "subst bind conflict" `Quick test_subst_bind_conflict;
    Alcotest.test_case "unify terms" `Quick test_unify_terms;
    Alcotest.test_case "atom unify" `Quick test_atom_unify;
    Alcotest.test_case "atom shares var" `Quick test_atom_shares_var;
    Alcotest.test_case "cq unsafe head" `Quick test_cq_make_unsafe;
    Alcotest.test_case "cq empty body" `Quick test_cq_make_empty;
    Alcotest.test_case "cq vars" `Quick test_cq_vars;
    Alcotest.test_case "cq unbound vars" `Quick test_cq_unbound;
    Alcotest.test_case "cq connectivity" `Quick test_cq_connected;
    Alcotest.test_case "cq canonical form" `Quick test_cq_canonicalize_stable;
    Alcotest.test_case "cq hom containment" `Quick test_cq_hom_containment;
    Alcotest.test_case "cq hom constants" `Quick test_cq_hom_constants;
    Alcotest.test_case "cq minimize" `Quick test_cq_minimize;
    Alcotest.test_case "cq reduce" `Quick test_cq_reduce;
    Alcotest.test_case "cq reduce clash" `Quick test_cq_reduce_no_unify;
    Alcotest.test_case "ucq minimize" `Quick test_ucq_minimize;
    Alcotest.test_case "ucq dedup" `Quick test_ucq_dedup;
    Alcotest.test_case "ucq arity" `Quick test_ucq_arity_mismatch;
    Alcotest.test_case "fol dialects" `Quick test_fol_dialects;
    Alcotest.test_case "fol join validation" `Quick test_fol_join_validation;
    Alcotest.test_case "unionfind basic" `Quick test_unionfind_basic;
    Alcotest.test_case "unionfind compression" `Quick test_unionfind_compression;
    Alcotest.test_case "unionfind rollback" `Quick test_unionfind_rollback;
    Alcotest.test_case "unifier = unify_terms" `Quick test_unifier_matches_unify_terms;
    Alcotest.test_case "unifier constant clash" `Quick test_unifier_constant_conflict;
    Alcotest.test_case "unifier rollback" `Quick test_unifier_rollback;
  ]
  @ props
