type t =
  | Leaf of { out : Term.t list; ucq : Ucq.t }
  | Join of { out : Term.t list; parts : t list }
  | Union of { out : Term.t list; branches : t list }

let out = function
  | Leaf { out; _ } -> out
  | Join { out; _ } -> out
  | Union { out; _ } -> out

let arity t = List.length (out t)

let leaf ~out ucq =
  if Ucq.arity ucq <> List.length out then
    invalid_arg "Fol.leaf: output arity mismatch";
  Leaf { out; ucq }

let of_cq cq = Leaf { out = cq.Cq.head; ucq = Ucq.of_cq cq }

let of_ucq ucq =
  match Ucq.disjuncts ucq with
  | [] ->
    (* [Ucq.make] rejects empty unions, but an unsatisfiable fragment
       reformulation could hand us a hollow value through unsafe
       construction; fail loudly rather than with [assert false]. *)
    invalid_arg "Fol.of_ucq: empty UCQ (unsatisfiable fragment?)"
  | first :: _ -> Leaf { out = first.Cq.head; ucq }

let out_vars t =
  List.fold_left
    (fun acc tm -> if Term.is_var tm then Term.Set.add tm acc else acc)
    Term.Set.empty (out t)

let join ~out:out_terms parts =
  if parts = [] then invalid_arg "Fol.join: no parts";
  let available =
    List.fold_left (fun acc p -> Term.Set.union acc (out_vars p)) Term.Set.empty parts
  in
  List.iter
    (fun tm ->
      if Term.is_var tm && not (Term.Set.mem tm available) then
        Fmt.invalid_arg "Fol.join: output %a in no part" Term.pp tm)
    out_terms;
  Join { out = out_terms; parts }

let union = function
  | [] -> invalid_arg "Fol.union: empty union"
  | first :: _ as branches ->
    let a = arity first in
    List.iter
      (fun b -> if arity b <> a then invalid_arg "Fol.union: arity mismatch")
      branches;
    Union { out = out first; branches }

let rec cq_count = function
  | Leaf { ucq; _ } -> Ucq.size ucq
  | Join { parts; _ } -> List.fold_left (fun n p -> n + cq_count p) 0 parts
  | Union { branches; _ } -> List.fold_left (fun n b -> n + cq_count b) 0 branches

let rec total_atoms = function
  | Leaf { ucq; _ } -> Ucq.total_atoms ucq
  | Join { parts; _ } -> List.fold_left (fun n p -> n + total_atoms p) 0 parts
  | Union { branches; _ } -> List.fold_left (fun n b -> n + total_atoms b) 0 branches

let rec join_width = function
  | Leaf _ -> 1
  | Join { parts; _ } ->
    List.fold_left (fun w p -> max w (join_width p)) (List.length parts) parts
  | Union { branches; _ } ->
    List.fold_left (fun w b -> max w (join_width b)) 1 branches

let is_cq = function Leaf { ucq; _ } -> Ucq.size ucq = 1 | Join _ | Union _ -> false

let is_ucq = function Leaf _ -> true | Join _ | Union _ -> false

let single_atom_union = function
  | Leaf { ucq; _ } ->
    List.for_all (fun cq -> Cq.atom_count cq = 1) (Ucq.disjuncts ucq)
  | Join _ | Union _ -> false

(* A plain CQ is trivially semi-conjunctive: a join of singleton
   unions, one per atom. *)
let is_scq = function
  | Join { parts; _ } -> List.for_all single_atom_union parts
  | Leaf { ucq; _ } as l -> Ucq.size ucq = 1 || single_atom_union l
  | Union _ -> false

let is_jucq = function
  | Join { parts; _ } -> List.for_all is_ucq parts
  | Leaf _ -> true
  | Union _ -> false

let is_uscq = function
  | Union { branches; _ } -> List.for_all is_scq branches
  | t -> is_scq t

let is_juscq = function
  | Join { parts; _ } -> List.for_all is_uscq parts
  | t -> is_uscq t

let dialect t =
  if is_ucq t then "UCQ"
  else if is_jucq t then "JUCQ"
  else if is_juscq t then "JUSCQ"
  else "FOL"

let rec pp ppf = function
  | Leaf { ucq; _ } -> Fmt.pf ppf "@[<v2>UCQ[%d]:@,%a@]" (Ucq.size ucq) Ucq.pp ucq
  | Join { out; parts } ->
    Fmt.pf ppf "@[<v2>JOIN(%a):@,%a@]"
      (Fmt.list ~sep:Fmt.comma Term.pp)
      out
      (Fmt.list ~sep:Fmt.cut pp)
      parts
  | Union { branches; _ } ->
    Fmt.pf ppf "@[<v2>UNION:@,%a@]" (Fmt.list ~sep:Fmt.cut pp) branches

let to_string t = Fmt.str "%a" pp t
