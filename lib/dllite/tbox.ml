module String_set = Set.Make (String)

type t = {
  uid : int;
  axioms : Axiom.t list;
  concept_names : String_set.t;
  role_names : String_set.t;
  sup_c : (Concept.t, Concept.Set.t) Hashtbl.t;
  sub_c : (Concept.t, Concept.Set.t) Hashtbl.t;
  sup_r : (Role.t, Role.Set.t) Hashtbl.t;
  sub_r : (Role.t, Role.Set.t) Hashtbl.t;
  declared_cdisj : (Concept.t * Concept.t) list;
  declared_rdisj : (Role.t * Role.t) list;
  unsat : Concept.Set.t;
  deps : (string, String_set.t) Hashtbl.t;
      (* dep(N) of every name the axioms mention; read-only once built *)
}

let dedup_axioms axs = List.sort_uniq Axiom.compare axs

(* TBoxes are immutable once built; a process-unique stamp lets caches
   key reformulations and plans by the TBox without hashing it. *)
let next_uid = Atomic.make 0

let collect_names axs =
  let add_concept (cs, rs) = function
    | Concept.Atomic a -> String_set.add a cs, rs
    | Concept.Exists r -> cs, String_set.add (Role.name r) rs
  in
  let add_role (cs, rs) r = cs, String_set.add (Role.name r) rs in
  List.fold_left
    (fun acc ax ->
      match ax with
      | Axiom.Concept_sub (b1, b2) | Axiom.Concept_disj (b1, b2) ->
        add_concept (add_concept acc b1) b2
      | Axiom.Role_sub (r1, r2) | Axiom.Role_disj (r1, r2) ->
        add_role (add_role acc r1) r2)
    (String_set.empty, String_set.empty)
    axs

let all_roles role_names =
  String_set.fold
    (fun p acc -> Role.Named p :: Role.Inverse p :: acc)
    role_names []

let all_concepts concept_names role_names =
  let atomics = String_set.fold (fun a acc -> Concept.Atomic a :: acc) concept_names [] in
  List.fold_left
    (fun acc r -> Concept.Exists r :: acc)
    atomics (all_roles role_names)

(* Reflexive-transitive closure by BFS from a start node over an
   explicit successor function; the universes are small (≤ a few
   hundred nodes), so per-node BFS is plenty fast. *)
let bfs_closure start succ mem add empty =
  let rec go acc frontier =
    match frontier with
    | [] -> acc
    | x :: rest ->
      let nexts = succ x in
      let acc, frontier =
        List.fold_left
          (fun (acc, fr) y -> if mem y acc then acc, fr else add y acc, y :: fr)
          (acc, rest) nexts
      in
      go acc frontier
  in
  go (add start empty) [ start ]

let of_axioms raw =
  let axioms = dedup_axioms raw in
  let concept_names, role_names = collect_names axioms in
  (* Role subsumption: every axiom R1 ⊑ R2 also yields R1⁻ ⊑ R2⁻. *)
  let role_succ r =
    List.filter_map
      (function
        | Axiom.Role_sub (r1, r2) ->
          if Role.equal r1 r then Some r2
          else if Role.equal (Role.inverse r1) r then Some (Role.inverse r2)
          else None
        | Axiom.Concept_sub _ | Axiom.Concept_disj _ | Axiom.Role_disj _ -> None)
      axioms
  in
  let roles = all_roles role_names in
  let sup_r = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let sups =
        bfs_closure r role_succ Role.Set.mem Role.Set.add Role.Set.empty
      in
      Hashtbl.replace sup_r r sups)
    roles;
  let sub_r = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let subs =
        List.fold_left
          (fun acc r' ->
            let sups = try Hashtbl.find sup_r r' with Not_found -> Role.Set.empty in
            if Role.Set.mem r sups then Role.Set.add r' acc else acc)
          Role.Set.empty roles
      in
      Hashtbl.replace sub_r r (Role.Set.add r subs))
    roles;
  (* Concept subsumption: declared concept inclusions, plus ∃R ⊑ ∃S for
     every entailed role inclusion R ⊑ S. *)
  let concept_succ c =
    let declared =
      List.filter_map
        (function
          | Axiom.Concept_sub (b1, b2) when Concept.equal b1 c -> Some b2
          | Axiom.Concept_sub _ | Axiom.Concept_disj _ | Axiom.Role_sub _
          | Axiom.Role_disj _ ->
            None)
        axioms
    in
    match c with
    | Concept.Atomic _ -> declared
    | Concept.Exists r ->
      let sups = try Hashtbl.find sup_r r with Not_found -> Role.Set.empty in
      Role.Set.fold (fun s acc -> Concept.Exists s :: acc) sups declared
  in
  let concepts = all_concepts concept_names role_names in
  let sup_c = Hashtbl.create 256 in
  List.iter
    (fun c ->
      let sups =
        bfs_closure c concept_succ Concept.Set.mem Concept.Set.add Concept.Set.empty
      in
      Hashtbl.replace sup_c c sups)
    concepts;
  let sub_c = Hashtbl.create 256 in
  List.iter
    (fun c ->
      let subs =
        List.fold_left
          (fun acc c' ->
            let sups = try Hashtbl.find sup_c c' with Not_found -> Concept.Set.empty in
            if Concept.Set.mem c sups then Concept.Set.add c' acc else acc)
          Concept.Set.empty concepts
      in
      Hashtbl.replace sub_c c (Concept.Set.add c subs))
    concepts;
  let declared_cdisj =
    List.filter_map
      (function Axiom.Concept_disj (b1, b2) -> Some (b1, b2) | _ -> None)
      axioms
  in
  let declared_rdisj =
    List.filter_map
      (function Axiom.Role_disj (r1, r2) -> Some (r1, r2) | _ -> None)
      axioms
  in
  (* dep edges at the level of names: for every positive axiom Y ⊑ X,
     an edge cr(X) -> cr(Y) (Definition 4). *)
  let dep_edges = Hashtbl.create 256 in
  let add_dep_edge x y =
    let cur = Option.value ~default:String_set.empty (Hashtbl.find_opt dep_edges x) in
    Hashtbl.replace dep_edges x (String_set.add y cur)
  in
  List.iter
    (function
      | Axiom.Concept_sub (y, x) -> add_dep_edge (Concept.cr x) (Concept.cr y)
      | Axiom.Role_sub (y, x) -> add_dep_edge (Role.name x) (Role.name y)
      | Axiom.Concept_disj _ | Axiom.Role_disj _ -> ())
    axioms;
  (* Every dep closure is computed here, so the built TBox is never
     written again and concurrent readers need no lock. *)
  let dep_succ x =
    String_set.elements
      (Option.value ~default:String_set.empty (Hashtbl.find_opt dep_edges x))
  in
  let deps = Hashtbl.create 256 in
  String_set.iter
    (fun n ->
      Hashtbl.replace deps n
        (bfs_closure n dep_succ String_set.mem String_set.add String_set.empty))
    (String_set.union concept_names role_names);
  let tbox =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      axioms;
      concept_names;
      role_names;
      sup_c;
      sub_c;
      sup_r;
      sub_r;
      declared_cdisj;
      declared_rdisj;
      unsat = Concept.Set.empty;
      deps;
    }
  in
  (* Unsatisfiable basic concepts, as a monotone fixpoint:
     - two subsumers are declared disjoint;
     - the concept entails ∃R whose "witness type" ∃R⁻ is unsatisfiable. *)
  let sups c = Option.value ~default:(Concept.Set.singleton c) (Hashtbl.find_opt sup_c c) in
  let pair_disjoint su =
    List.exists
      (fun (d1, d2) -> Concept.Set.mem d1 su && Concept.Set.mem d2 su)
      declared_cdisj
  in
  let unsat = ref Concept.Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        if not (Concept.Set.mem c !unsat) then begin
          let su = sups c in
          let bad =
            pair_disjoint su
            || Concept.Set.exists
                 (function
                   | Concept.Exists r ->
                     Concept.Set.mem (Concept.Exists (Role.inverse r)) !unsat
                   | Concept.Atomic _ -> false)
                 su
          in
          if bad then begin
            unsat := Concept.Set.add c !unsat;
            changed := true
          end
        end)
      concepts
  done;
  { tbox with unsat = !unsat }

let empty = of_axioms []

let uid t = t.uid

let axioms t = t.axioms

let positive_axioms t = List.filter Axiom.is_positive t.axioms

let negative_axioms t = List.filter (fun a -> not (Axiom.is_positive a)) t.axioms

let axiom_count t = List.length t.axioms

let concept_names t = String_set.elements t.concept_names

let role_names t = String_set.elements t.role_names

let mem_concept_name t n = String_set.mem n t.concept_names

let mem_role_name t n = String_set.mem n t.role_names

let subsumers_of_concept t c =
  Option.value ~default:(Concept.Set.singleton c) (Hashtbl.find_opt t.sup_c c)

let subsumees_of_concept t c =
  Option.value ~default:(Concept.Set.singleton c) (Hashtbl.find_opt t.sub_c c)

let subsumers_of_role t r =
  Option.value ~default:(Role.Set.singleton r) (Hashtbl.find_opt t.sup_r r)

let subsumees_of_role t r =
  Option.value ~default:(Role.Set.singleton r) (Hashtbl.find_opt t.sub_r r)

let entails_concept_sub t b1 b2 = Concept.Set.mem b2 (subsumers_of_concept t b1)

let entails_role_sub t r1 r2 = Role.Set.mem r2 (subsumers_of_role t r1)

let disjoint_concepts t b1 b2 =
  let s1 = subsumers_of_concept t b1 and s2 = subsumers_of_concept t b2 in
  List.exists
    (fun (d1, d2) ->
      (Concept.Set.mem d1 s1 && Concept.Set.mem d2 s2)
      || (Concept.Set.mem d1 s2 && Concept.Set.mem d2 s1))
    t.declared_cdisj

let disjoint_roles t r1 r2 =
  let s1 = subsumers_of_role t r1 and s2 = subsumers_of_role t r2 in
  let s1i = subsumers_of_role t (Role.inverse r1)
  and s2i = subsumers_of_role t (Role.inverse r2) in
  List.exists
    (fun (d1, d2) ->
      (Role.Set.mem d1 s1 && Role.Set.mem d2 s2)
      || (Role.Set.mem d1 s2 && Role.Set.mem d2 s1)
      || (Role.Set.mem d1 s1i && Role.Set.mem d2 s2i)
      || (Role.Set.mem d1 s2i && Role.Set.mem d2 s1i))
    t.declared_rdisj

let unsatisfiable_concepts t = t.unsat

let is_unsatisfiable t c = Concept.Set.mem c t.unsat

(* A name the axioms never mention depends only on itself. *)
let dep t n =
  Option.value ~default:(String_set.singleton n) (Hashtbl.find_opt t.deps n)

let dep_overlap t n1 n2 = not (String_set.disjoint (dep t n1) (dep t n2))

let pp ppf t =
  Fmt.pf ppf "@[<v>TBox (%d axioms):@,%a@]" (axiom_count t)
    (Fmt.list ~sep:Fmt.cut Axiom.pp)
    t.axioms
