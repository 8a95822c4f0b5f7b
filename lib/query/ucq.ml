type t = {
  arity : int;
  disjuncts : Cq.t list;
}

let make = function
  | [] -> invalid_arg "Ucq.make: empty union"
  | first :: _ as l ->
    let arity = Cq.arity first in
    List.iter
      (fun cq ->
        if Cq.arity cq <> arity then invalid_arg "Ucq.make: arity mismatch")
      l;
    { arity; disjuncts = l }

let of_cq cq = { arity = Cq.arity cq; disjuncts = [ cq ] }

let disjuncts u = u.disjuncts

let size u = List.length u.disjuncts

let arity u = u.arity

let total_atoms u =
  List.fold_left (fun n cq -> n + Cq.atom_count cq) 0 u.disjuncts

let dedup u =
  let seen = Hashtbl.create 64 in
  let keep cq =
    let key = Cq.to_string (Cq.canonicalize cq) in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  { u with disjuncts = List.filter keep u.disjuncts }

let union u1 u2 =
  if u1.arity <> u2.arity then invalid_arg "Ucq.union: arity mismatch";
  { u1 with disjuncts = u1.disjuncts @ u2.disjuncts }

let pp ppf u =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:(Fmt.any "@,| ") Cq.pp) u.disjuncts
