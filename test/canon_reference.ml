(* A frozen copy of the canonical form as it stood before the one-pass
   rewrite: a pass keys every atom by a list of strings, sorts by
   polymorphic comparison, names existential variables through a
   [Hashtbl], and the walk always runs. Tests compare
   {!Query.Cq.canonicalize} against it and the naive reformulation
   oracle ({!Reform_reference}) keys its seen-set on it; nothing in
   [lib/] uses it. The edits to the original text: the result is
   rebuilt with [Cq.make], since [Cq.t] is private outside [Cq]; an
   existential variable skips the canonical names a head variable
   already uses (the original gave [q(_c0) <- R(_c0,y)] and
   [q(_c0) <- R(_c0,_c0)] one form); and the walk returns the least
   body of the cycle the passes run into, not of the whole walk (the
   original was not idempotent when that body came before the
   cycle). *)

open Query

let dedup_atoms body =
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest -> if List.exists (Atom.equal a) acc then go acc rest else go (a :: acc) rest
  in
  go [] body

(* One canonical-renaming pass: assign names _c0, _c1 … in order of
   first occurrence while scanning atoms sorted by a renaming-
   independent key, then sort the body syntactically. *)
let canonicalize_pass q =
  let hv = Cq.head_vars q in
  let atom_key a =
    let term_key t =
      if Term.is_cst t then "c:" ^ Term.to_string t
      else if Term.Set.mem t hv then "h:" ^ Term.to_string t
      else "e"
    in
    Atom.pred_name a :: List.map term_key (Atom.terms a)
  in
  let sorted = List.stable_sort (fun a b -> compare (atom_key a) (atom_key b)) q.Cq.body in
  let mapping = Hashtbl.create 8 in
  let next = ref 0 in
  let map_term t =
    match t with
    | Term.Cst _ -> t
    | Term.Var v ->
      if Term.Set.mem t hv then t
      else begin
        match Hashtbl.find_opt mapping v with
        | Some t' -> t'
        | None ->
          let rec fresh () =
            let t' = Term.Var (Printf.sprintf "_c%d" !next) in
            incr next;
            if Term.Set.mem t' hv then fresh () else t'
          in
          let t' = fresh () in
          Hashtbl.add mapping v t';
          t'
      end
  in
  let map_atom = function
    | Atom.Ca (p, t) -> Atom.Ca (p, map_term t)
    | Atom.Ra (p, t1, t2) -> Atom.Ra (p, map_term t1, map_term t2)
  in
  let body = List.map map_atom sorted in
  Cq.make ~name:q.Cq.name ~head:q.Cq.head
    ~body:(List.sort Atom.compare (dedup_atoms body))
    ()

let compare q1 q2 =
  let c = List.compare Term.compare q1.Cq.head q2.Cq.head in
  if c <> 0 then c else List.compare Atom.compare q1.Cq.body q2.Cq.body

let equal q1 q2 = compare q1 q2 = 0

(* On symmetric bodies (e.g. [R(u,v) ∧ R(v,u)]) a single pass is not
   idempotent: the name assignment can flip on every application. The
   canonical form is therefore the least body (w.r.t. [compare]) on
   the cycle the passes run into, whose passes run round the same
   cycle — making the result a true fixpoint. *)
let canonicalize q =
  let least l =
    List.fold_left (fun best c -> if compare c best < 0 then c else best) (List.hd l) l
  in
  let rec walk walked fuel =
    if fuel = 0 then least walked
    else
      let next = canonicalize_pass (List.hd walked) in
      let rec cycle acc = function
        | [] -> None
        | c :: rest -> if equal c next then Some (c :: acc) else cycle (c :: acc) rest
      in
      match cycle [] walked with
      | Some on_cycle -> least on_cycle
      | None -> walk (next :: walked) (fuel - 1)
  in
  walk [ canonicalize_pass q ] 8
