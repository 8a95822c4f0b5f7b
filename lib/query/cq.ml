type t = {
  name : string;
  head : Term.t list;
  body : Atom.t list;
}

let body_vars body =
  List.fold_left (fun acc a -> Term.Set.union acc (Atom.vars a)) Term.Set.empty body

let make ?(name = "q") ~head ~body () =
  if body = [] then invalid_arg "Cq.make: empty body";
  let bv = body_vars body in
  List.iter
    (fun t ->
      if Term.is_var t && not (Term.Set.mem t bv) then
        Fmt.invalid_arg "Cq.make: head variable %a not in body" Term.pp t)
    head;
  { name; head; body }

let arity q = List.length q.head

let atoms q = q.body

let atom_count q = List.length q.body

let vars q = body_vars q.body

let head_vars q =
  List.fold_left
    (fun acc t -> if Term.is_var t then Term.Set.add t acc else acc)
    Term.Set.empty q.head

let existential_vars q = Term.Set.diff (vars q) (head_vars q)

let is_head_var q v = Term.Set.mem (Term.Var v) (head_vars q)

let occurrence_count q t =
  List.fold_left
    (fun n a -> n + List.length (List.filter (Term.equal t) (Atom.terms a)))
    0 q.body

let is_unbound_var q t =
  Term.is_var t
  && (not (Term.Set.mem t (head_vars q)))
  && occurrence_count q t = 1

let is_connected q =
  match q.body with
  | [] -> false
  | first :: _ ->
    (* Breadth-first traversal of the atom graph, where two atoms are
       adjacent when they share a variable. *)
    let n = List.length q.body in
    let arr = Array.of_list q.body in
    let seen = Array.make n false in
    let rec grow frontier =
      match frontier with
      | [] -> ()
      | i :: rest ->
        let next = ref rest in
        for j = 0 to n - 1 do
          if (not seen.(j)) && Atom.shares_var arr.(i) arr.(j) then begin
            seen.(j) <- true;
            next := j :: !next
          end
        done;
        grow !next
    in
    ignore first;
    seen.(0) <- true;
    grow [ 0 ];
    Array.for_all Fun.id seen

let dedup_atoms body =
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest -> if List.exists (Atom.equal a) acc then go acc rest else go (a :: acc) rest
  in
  go [] body

let in_head head v =
  List.exists (function Term.Var h -> String.equal h v | Term.Cst _ -> false) head

(* No head variable is lost when every head variable of the replaced
   atom also occurs in its replacement — true of every PerfectRef
   specialisation, so [make]'s scan of the whole body is skipped. *)
let replace_atom q i a =
  let old = List.nth q.body i in
  let body = List.mapi (fun j b -> if j = i then a else b) q.body in
  let kept = function
    | Term.Cst _ -> true
    | Term.Var v as t ->
      (not (in_head q.head v))
      ||
      match a with
      | Atom.Ca (_, t1) -> Term.equal t t1
      | Atom.Ra (_, t1, t2) -> Term.equal t t1 || Term.equal t t2
  in
  let safe =
    match old with
    | Atom.Ca (_, t) -> kept t
    | Atom.Ra (_, t1, t2) -> kept t1 && kept t2
  in
  if safe then { q with body } else make ~name:q.name ~head:q.head ~body ()

let substitute s q =
  {
    q with
    head = List.map (Subst.apply s) q.head;
    body = dedup_atoms (List.map (Atom.substitute s) q.body);
  }

(* Atomic: fresh variables are drawn concurrently when reformulation
   fans out across domains. *)
let fresh_counter = Atomic.make 0

let fresh_var () =
  Term.Var (Printf.sprintf "_e%d" (Atomic.fetch_and_add fresh_counter 1 + 1))

let rename_apart ~avoid q =
  let clashes = Term.Set.inter (existential_vars q) avoid in
  if Term.Set.is_empty clashes then q
  else
    let s =
      Term.Set.fold
        (fun t acc ->
          match t with
          | Term.Var v -> Subst.bind v (fresh_var ()) acc
          | Term.Cst _ -> acc)
        clashes Subst.empty
    in
    substitute s q

(* {2 Canonical form}

   One pass sorts the atoms by a renaming-independent key, names the
   existential variables [_c0], [_c1] … in order of first occurrence
   along that order, then sorts the renamed body with [Atom.compare]
   and drops duplicates. The key of an atom is its predicate, then
   each term ranked constant < existential < head variable,
   constants and head variables further ordered by name; a concept
   key is a prefix of a role key with the same predicate and first
   term, so it sorts first. The sort is stable, so atoms with equal
   keys keep their input order. A role atom names its object before
   its subject. Key order and naming order are those of the
   string-keyed form frozen in [test/canon_reference.ml] (keys
   ["c:<name>"] < ["e"] < ["h:<name>"]; [Ra (p, map t1, map t2)],
   which OCaml evaluates right to left), which every canonical form
   the plan cache, the reform cache and the seen-sets key on must
   keep matching. DESIGN.md §15.3 has the argument. *)

(* [_c0 .. _c255], built once and read-only afterwards (so shared
   safely across domains): a pass allocates no name. *)
let canonical_names = Array.init 256 (fun i -> Term.Var (Printf.sprintf "_c%d" i))

let canonical_name i =
  if i < Array.length canonical_names then canonical_names.(i)
  else Term.Var (Printf.sprintf "_c%d" i)

(* 0 constant, 1 existential variable, 2 head variable *)
let term_rank head = function
  | Term.Cst _ -> 0
  | Term.Var v -> if in_head head v then 2 else 1

let compare_ranked r1 t1 r2 t2 =
  let c = Int.compare r1 r2 in
  if c <> 0 || r1 = 1 then c
  else String.compare (Term.to_string t1) (Term.to_string t2)

let first_term = function Atom.Ca (_, t) | Atom.Ra (_, t, _) -> t

(* Ranks of an atom's terms, packed: [rank t1 * 4 + rank t2 + 1], with
   the missing second term of a concept atom as rank [-1]. *)
let atom_ranks head = function
  | Atom.Ca (_, t) -> term_rank head t * 4
  | Atom.Ra (_, t1, t2) -> (term_rank head t1 * 4) + term_rank head t2 + 1

let compare_keys a ra b rb =
  let c = String.compare (Atom.pred_name a) (Atom.pred_name b) in
  if c <> 0 then c
  else
    let c = compare_ranked (ra / 4) (first_term a) (rb / 4) (first_term b) in
    if c <> 0 then c
    else
      match a, b with
      | Atom.Ca _, Atom.Ca _ -> 0
      | Atom.Ca _, Atom.Ra _ -> -1
      | Atom.Ra _, Atom.Ca _ -> 1
      | Atom.Ra (_, _, o1), Atom.Ra (_, _, o2) ->
        compare_ranked ((ra land 3) - 1) o1 ((rb land 3) - 1) o2

(* Stable insertion sort of [atoms] (with [ranks] moved alongside):
   bodies are short, and it allocates nothing. *)
let sort_by_key atoms ranks =
  for i = 1 to Array.length atoms - 1 do
    let a = atoms.(i) and r = ranks.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && compare_keys atoms.(!j) ranks.(!j) a r > 0 do
      atoms.(!j + 1) <- atoms.(!j);
      ranks.(!j + 1) <- ranks.(!j);
      decr j
    done;
    atoms.(!j + 1) <- a;
    ranks.(!j + 1) <- r
  done

let sort_atoms atoms =
  for i = 1 to Array.length atoms - 1 do
    let a = atoms.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && Atom.compare atoms.(!j) a > 0 do
      atoms.(!j + 1) <- atoms.(!j);
      decr j
    done;
    atoms.(!j + 1) <- a
  done

let is_canonical_name = function
  | Term.Var h -> String.length h > 2 && h.[0] = '_' && h.[1] = 'c'
  | Term.Cst _ -> false

type names = {
  mutable mapping : (string * Term.t) list;
  mutable next : int;
  taken : Term.t list;  (* the head variables spelled like a canonical name *)
}

(* The next canonical name no head variable uses: an existential that
   took a head variable's name would merge the two, so that
   [q(_c0) <- R(_c0,y)] and [q(_c0) <- R(_c0,_c0)] would share one
   canonical form. *)
let rec fresh_name names =
  let t = canonical_name names.next in
  names.next <- names.next + 1;
  if List.exists (Term.equal t) names.taken then fresh_name names else t

let map_term names rank t =
  match t with
  | Term.Var v when rank = 1 -> (
    match List.assoc_opt v names.mapping with
    | Some t' -> t'
    | None ->
      let t' = fresh_name names in
      names.mapping <- (v, t') :: names.mapping;
      t')
  | _ -> t

(* One pass over a body whose variables outside [head] are
   existential; the flag tells whether the sorted keys were pairwise
   distinct. *)
let canonical_atoms head body =
  let atoms = Array.of_list body in
  let n = Array.length atoms in
  let ranks = Array.make n 0 in
  for i = 0 to n - 1 do
    ranks.(i) <- atom_ranks head atoms.(i)
  done;
  sort_by_key atoms ranks;
  let distinct = ref true in
  for i = 1 to n - 1 do
    if compare_keys atoms.(i - 1) ranks.(i - 1) atoms.(i) ranks.(i) = 0 then
      distinct := false
  done;
  let names = { mapping = []; next = 0; taken = List.filter is_canonical_name head } in
  for i = 0 to n - 1 do
    let r = ranks.(i) in
    atoms.(i) <-
      (match atoms.(i) with
      | Atom.Ca (p, t) as a ->
        let t' = map_term names (r / 4) t in
        if t' == t then a else Atom.Ca (p, t')
      | Atom.Ra (p, t1, t2) as a ->
        let t2' = map_term names ((r land 3) - 1) t2 in
        let t1' = map_term names (r / 4) t1 in
        if t1' == t1 && t2' == t2 then a else Atom.Ra (p, t1', t2'))
  done;
  sort_atoms atoms;
  let body = ref [] in
  for i = n - 1 downto 0 do
    if i = n - 1 || not (Atom.equal atoms.(i) atoms.(i + 1)) then
      body := atoms.(i) :: !body
  done;
  !body, !distinct

let canonical_pass q =
  let body, settled = canonical_atoms q.head q.body in
  { q with body }, settled

let canonical_body ~head body = fst (canonical_atoms head body)

let compare q1 q2 =
  let c = List.compare Term.compare q1.head q2.head in
  if c <> 0 then c else List.compare Atom.compare q1.body q2.body

let equal q1 q2 = compare q1 q2 = 0

(* On symmetric bodies (e.g. [R(u,v) ∧ R(v,u)]) a single pass is not
   idempotent: the name assignment can flip on every application. The
   passes from any body run into a cycle, and the canonical form is the
   least body (w.r.t. [compare]) on that cycle: the passes from it run
   round the same cycle, so it is its own canonical form. The least
   body of the whole walk would not be: a body before the cycle is
   never met again ([q(x0) <- R2(x2,x3) ∧ A2(x0) ∧ R2(x3,x1)] passes to
   [R2(_c0,_c2) ∧ R2(_c1,_c0)], which passes to the fixpoint
   [R2(_c1,_c0) ∧ R2(_c2,_c1)]). A walk that meets no cycle within its
   fuel keeps the least body it met.

   The walk is skipped when the first pass reports distinct keys. The
   pass only renamed existential variables, injectively and never to a
   head variable's name, so every atom keeps its key; with distinct
   keys the sorted order no longer depends on the input, the second
   pass meets the variables in the same order, renames each to itself
   and returns its input, which is the cycle. *)
let least l = List.fold_left (fun best c -> if compare c best < 0 then c else best) (List.hd l) l

(* [walked] holds the walk's bodies, the latest first. *)
let rec walk walked fuel =
  if fuel = 0 then least walked
  else
    let next = fst (canonical_pass (List.hd walked)) in
    let rec cycle acc = function
      | [] -> None
      | c :: rest -> if equal c next then Some (c :: acc) else cycle (c :: acc) rest
    in
    match cycle [] walked with
    | Some on_cycle -> least on_cycle
    | None -> walk (next :: walked) (fuel - 1)

let canonicalize q =
  let first, settled = canonical_pass q in
  if settled then first else walk [ first ] 8

(* Extends [s] so that term [t1] of the source maps to term [t2] of the
   target; unlike unification, the target side is never bound. *)
let map_term_hom s t1 t2 =
  match t1 with
  | Term.Cst _ -> if Term.equal t1 t2 then Some s else None
  | Term.Var v -> (
    match Subst.find v s with
    | Some t -> if Term.equal t t2 then Some s else None
    | None -> Some (Subst.bind v t2 s))

(* Homomorphism search: map every atom of [from_q] onto some atom of
   [to_q], extending a substitution; the head must map elementwise. *)
let exists_hom ~from_q ~to_q =
  if List.length from_q.head <> List.length to_q.head then false
  else
    let init =
      List.fold_left2
        (fun acc t1 t2 ->
          match acc with
          | None -> None
          | Some s -> (
            match t1 with
            | Term.Cst _ -> if Term.equal (Subst.apply s t1) t2 then Some s else None
            | Term.Var v -> (
              match Subst.find v s with
              | Some t -> if Term.equal t t2 then Some s else None
              | None -> Some (Subst.bind v t2 s))))
        (Some Subst.empty) from_q.head to_q.head
    in
    match init with
    | None -> false
    | Some s0 ->
      let targets = Array.of_list to_q.body in
      let extend_atom s a target =
        match a, target with
        | Atom.Ca (p1, t1), Atom.Ca (p2, t2) when String.equal p1 p2 ->
          map_term_hom s t1 t2
        | Atom.Ra (p1, s1, o1), Atom.Ra (p2, s2, o2) when String.equal p1 p2 -> (
          match map_term_hom s s1 s2 with
          | None -> None
          | Some s' -> map_term_hom s' o1 o2)
        | _ -> None
      in
      let rec search s = function
        | [] -> true
        | a :: rest ->
          let n = Array.length targets in
          let rec try_target i =
            if i >= n then false
            else
              match extend_atom s a targets.(i) with
              | Some s' when search s' rest -> true
              | _ -> try_target (i + 1)
          in
          try_target 0
      in
      search s0 from_q.body

let contained_in q1 q2 = exists_hom ~from_q:q2 ~to_q:q1

let equivalent q1 q2 = contained_in q1 q2 && contained_in q2 q1

let reduce q i j =
  let arr = Array.of_list q.body in
  if i < 0 || j < 0 || i >= Array.length arr || j >= Array.length arr || i = j then
    invalid_arg "Cq.reduce: bad atom indexes";
  match Atom.unify arr.(i) arr.(j) with
  | None -> None
  | Some s ->
    let q' = substitute s q in
    (* Keep head variable names stable: when a head variable was bound
       to a fresh existential variable, rename the image back. *)
    let hv = head_vars q in
    let repair =
      Term.Set.fold
        (fun t acc ->
          match t with
          | Term.Cst _ -> acc
          | Term.Var v -> (
            match Subst.apply s t with
            | Term.Var w
              when (not (String.equal v w)) && not (Term.Set.mem (Term.Var w) hv)
              -> (
              try Subst.bind w (Term.Var v) acc with Invalid_argument _ -> acc)
            | Term.Var _ | Term.Cst _ -> acc))
        hv Subst.empty
    in
    Some (if Subst.is_empty repair then q' else substitute repair q')

let pp ppf q =
  Fmt.pf ppf "%s(%a) <- %a" q.name
    (Fmt.list ~sep:(Fmt.any ",") Term.pp)
    q.head
    (Fmt.list ~sep:(Fmt.any " ^ ") Atom.pp)
    q.body

let to_string q = Fmt.str "%a" pp q
