open Query

type stat = {
  arms : int;
  parts : int list;
}

let m_arms_saved =
  Obs.Metrics.counter ~help:"CQs removed by factorising product-shaped leaves"
    "reform.factorised.arms_saved"

let rec index_from outs v i =
  if i = Array.length outs then -1
  else if String.equal outs.(i) v then i
  else index_from outs v (i + 1)

(* The position of [t] among the leaf's output variables (given by
   name), or -1 for an existential variable or a constant. *)
let out_index outs = function Term.Cst _ -> -1 | Term.Var v -> index_from outs v 0

(* -1: no output variable, i >= 0: only the i-th, -2: several *)
let join_touch g o = if g = -1 then o else if o = -1 || o = g then g else -2

let atom_touch outs = function
  | Atom.Ca (_, t) -> out_index outs t
  | Atom.Ra (_, t1, t2) -> join_touch (out_index outs t1) (out_index outs t2)

(* Puts atom [i] in one group with the first atom of existential [t]
   ([owners] maps each existential seen so far to that atom). *)
let note_existential outs groups owners i t =
  match t with
  | Term.Var x when out_index outs t < 0 -> (
    match List.assoc_opt x owners with
    | None -> (x, i) :: owners
    | Some j ->
      ignore (Unionfind.union groups i j);
      owners)
  | Term.Var _ | Term.Cst _ -> owners

(* The split of one arm into slots: slot 0 is the core, slot [i + 1]
   the unary part of the [i]-th output variable; [[]] where the arm has
   no atom for the slot. Atoms are grouped by a union-find over the
   existential variables they share; a group's slot is the one output
   variable it touches, or the core when it touches none or several.
   [groups] is the leaf's union-find, rolled back after each arm, so
   the arm's atoms are its nodes [0 … n-1]. *)
let split outs groups (arm : Cq.t) =
  let atoms = Array.of_list arm.Cq.body in
  let n = Array.length atoms in
  let mark = Unionfind.snapshot groups in
  let owners = ref [] in
  for i = 0 to n - 1 do
    ignore (Unionfind.make groups);
    owners :=
      match atoms.(i) with
      | Atom.Ca (_, t) -> note_existential outs groups !owners i t
      | Atom.Ra (_, t1, t2) ->
        note_existential outs groups (note_existential outs groups !owners i t1) i t2
  done;
  let touch = Array.make n (-1) in
  for i = 0 to n - 1 do
    let r = Unionfind.find groups i in
    touch.(r) <- join_touch touch.(r) (atom_touch outs atoms.(i))
  done;
  let slots = Array.make (Array.length outs + 1) [] in
  for i = n - 1 downto 0 do
    let o = touch.(Unionfind.find groups i) in
    let s = if o >= 0 then o + 1 else 0 in
    slots.(s) <- atoms.(i) :: slots.(s)
  done;
  Unionfind.rollback groups mark;
  slots

let distinct_vars out =
  List.for_all Term.is_var out
  && List.length (List.sort_uniq Term.compare out) = List.length out

(* A union of k slots with d_1 … d_k parts each has Σ d_i CQs and is a
   product of Π d_i arms; Σ d_i < Π d_i needs Π d_i ≥ 6. *)
let min_product = 6

(* The part of slot [s] as a CQ: its head is the slot's output
   variable, or for the core the output variables it mentions. *)
let part_cq out name s body =
  let head =
    if s > 0 then [ List.nth out (s - 1) ]
    else List.filter (fun v -> List.exists (fun a -> Term.Set.mem v (Atom.vars a)) body) out
  in
  Cq.canonicalize (Cq.make ~name ~head ~body ())

let leaf out ucq =
  let arms = Ucq.disjuncts ucq in
  let n_arms = List.length arms in
  if n_arms < min_product || not (distinct_vars out) then None
  else if not (List.for_all (fun a -> List.equal Term.equal a.Cq.head out) arms) then None
  else begin
    let outs = Array.of_list (List.filter_map Term.var_name out) in
    let n_slots = Array.length outs + 1 in
    (* per slot: canonical body -> id, the distinct parts in first-seen
       order, and how many arms have a part there. Two parts with one
       canonical body are renamings of each other; a renaming of a
       symmetric body that gets another one fails the exactness test
       safe. *)
    let ids = Array.init n_slots (fun _ -> Hashtbl.create 16)
    and seen = Array.make n_slots []
    and present = Array.make n_slots 0 in
    let tuples = Hashtbl.create n_arms and groups = Unionfind.create () in
    List.iter
      (fun arm ->
        let tuple =
          Array.mapi
            (fun s body ->
              match body with
              | [] -> -1
              | _ -> (
                present.(s) <- present.(s) + 1;
                let k = Cq.canonical_body ~head:out body in
                match Hashtbl.find_opt ids.(s) k with
                | Some id -> id
                | None ->
                  let id = Hashtbl.length ids.(s) in
                  Hashtbl.add ids.(s) k id;
                  seen.(s) <- part_cq out arm.Cq.name s body :: seen.(s);
                  id))
            (split outs groups arm)
        in
        Hashtbl.replace tuples tuple ())
      arms;
    let used = List.filter (fun s -> present.(s) > 0) (List.init n_slots Fun.id) in
    let counts = List.map (fun s -> Hashtbl.length ids.(s)) used in
    (* Every tuple lies in the product of the slots' parts, so the
       distinct tuples are all of it exactly when they are as many. *)
    let product = List.fold_left ( * ) 1 counts and sum = List.fold_left ( + ) 0 counts in
    (* A slot some arms leave empty would need the empty conjunction
       among its parts. *)
    if not (List.for_all (fun s -> present.(s) = n_arms) used
            && product = Hashtbl.length tuples && sum < n_arms)
    then None
    else begin
      let parts = List.map (fun s -> s, List.rev seen.(s)) used in
      (* a core must expose one head, shared by all its parts, to join on *)
      let core_ok =
        match List.assoc_opt 0 parts with
        | None -> true
        | Some (c :: rest) ->
          c.Cq.head <> []
          && List.for_all (fun c' -> List.equal Term.equal c'.Cq.head c.Cq.head) rest
        | Some [] -> false
      in
      if not core_ok then None
      else
        Some
          ( List.map
              (fun (_, cqs) -> Fol.leaf ~out:(List.hd cqs).Cq.head (Ucq.make cqs))
              parts,
            { arms = n_arms; parts = counts } )
    end
  end

let saved st = st.arms - List.fold_left ( + ) 0 st.parts

let factorise fol =
  let result, stats =
    match fol with
    | Fol.Leaf { out; ucq } -> (
      match leaf out ucq with
      | None -> fol, []
      | Some (parts, st) -> Fol.join ~out parts, [ st ])
    | Fol.Join { out; parts } ->
      let parts', stats =
        List.fold_right
          (fun p (ps, sts) ->
            match p with
            | Fol.Leaf { out; ucq } -> (
              match leaf out ucq with
              | Some (split, st) -> split @ ps, st :: sts
              | None -> p :: ps, sts)
            | Fol.Join _ | Fol.Union _ -> p :: ps, sts)
          parts ([], [])
      in
      if stats = [] then fol, [] else Fol.join ~out parts', stats
    | Fol.Union _ -> fol, []
  in
  List.iter (fun st -> Obs.Metrics.add m_arms_saved (saved st)) stats;
  result, stats

let pp_stat ppf st =
  Fmt.pf ppf "%d arms → %d (%a)" st.arms
    (List.fold_left ( + ) 0 st.parts)
    (Fmt.list ~sep:(Fmt.any " + ") Fmt.int)
    st.parts
