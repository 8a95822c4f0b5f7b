open Query

type est = {
  rows : float;
  ndv : (string * float) list;
}

(* Column lists are short; a monomorphic string scan beats the
   polymorphic [List.assoc] on the estimator's hot paths. *)
let rec find_col c = function
  | [] -> None
  | (c', n) :: rest -> if String.equal c c' then Some n else find_col c rest

let has_col c cols = List.exists (fun (c', _) -> String.equal c c') cols

let ndv_of e c = Option.value ~default:e.rows (find_col c e.ndv)

(* equality selectivity from the column histogram, when the constant
   is a known individual *)
let hist_rows layout p side k =
  match Dllite.Dict.find (Layout.dict layout) k with
  | None -> Some 0.
  | Some code -> Layout.role_eq_rows layout p side code

let clamp_ndv e =
  { e with ndv = List.map (fun (c, n) -> c, Float.min n (Float.max e.rows 1.)) e.ndv }

let atom layout a =
  match a with
  | Atom.Ca (p, Term.Var v) ->
    let card = float_of_int (Layout.concept_card layout p) in
    { rows = card; ndv = [ v, card ] }
  | Atom.Ca (p, Term.Cst _) ->
    let card = float_of_int (Layout.concept_card layout p) in
    { rows = Float.min 1. card; ndv = [] }
  | Atom.Ra (p, t1, t2) -> (
    let card = float_of_int (Layout.role_card layout p) in
    let s, o = Layout.role_ndv layout p in
    let nds = Float.max 1. (float_of_int s) and ndo = Float.max 1. (float_of_int o) in
    match t1, t2 with
    | Term.Var v1, Term.Var v2 when v1 <> v2 ->
      { rows = card; ndv = [ v1, float_of_int s; v2, float_of_int o ] }
    | Term.Var v, Term.Var _ ->
      (* self loop R(x,x): one match per subject at most, scaled *)
      let rows = card /. Float.max nds ndo in
      clamp_ndv { rows; ndv = [ v, rows ] }
    | Term.Var v, Term.Cst k ->
      let rows =
        match hist_rows layout p `Object k with
        | Some r -> r
        | None -> card /. ndo
      in
      clamp_ndv { rows; ndv = [ v, rows ] }
    | Term.Cst k, Term.Var v ->
      let rows =
        match hist_rows layout p `Subject k with
        | Some r -> r
        | None -> card /. nds
      in
      clamp_ndv { rows; ndv = [ v, rows ] }
    | Term.Cst _, Term.Cst _ -> { rows = Float.min 1. card; ndv = [] })

(* The join's row estimate alone: no merged column list is built, so
   ranking candidate join orders allocates nothing. *)
let join_rows l r =
  let sel =
    List.fold_left
      (fun acc (c, nl) ->
        match find_col c r.ndv with
        | Some nr -> acc /. Float.max 1. (Float.max nl nr)
        | None -> acc)
      1. l.ndv
  in
  l.rows *. r.rows *. sel

let join l r =
  let rows = join_rows l r in
  let merged =
    List.map
      (fun (c, nl) ->
        match find_col c r.ndv with Some nr -> c, Float.min nl nr | None -> c, nl)
      l.ndv
    @ List.filter (fun (c, _) -> not (has_col c l.ndv)) r.ndv
  in
  clamp_ndv { rows; ndv = merged }

(* Items are removed by physical identity of their atom, so a body
   listing one atom value twice keeps the historical behaviour. Each
   item's column names are computed once, not at every step. *)
let order_by ~atom:atom_of ~est items =
  match items with
  | [] | [ _ ] -> items
  | _ ->
    let columns i =
      List.map Term.to_string (Term.Set.elements (Atom.vars (atom_of i)))
    in
    let tagged = List.map (fun i -> i, columns i) items in
    let smallest =
      List.fold_left
        (fun best ((i, _) as t) ->
          match best with
          | None -> Some t
          | Some (b, _) -> if (est i).rows < (est b).rows then Some t else best)
        None tagged
    in
    let first, _ = Option.get smallest in
    let rec go acc cur remaining =
      match remaining with
      | [] -> List.rev acc
      | _ ->
        (* prefer connected atoms; among them the one minimising the
           estimated intermediate result *)
        let candidates =
          let conn =
            List.filter
              (fun (_, cols) -> List.exists (fun c -> has_col c cur.ndv) cols)
              remaining
          in
          if conn = [] then remaining else conn
        in
        let best =
          List.fold_left
            (fun best (i, _) ->
              let rows = join_rows cur (est i) in
              match best with
              | None -> Some (i, rows)
              | Some (_, rows') -> if rows < rows' then Some (i, rows) else best)
            None candidates
        in
        let i, _ = Option.get best in
        let a = atom_of i in
        let remaining = List.filter (fun (i', _) -> atom_of i' != a) remaining in
        go (i :: acc) (join cur (est i)) remaining
    in
    let a0 = atom_of first in
    let remaining = List.filter (fun (i, _) -> atom_of i != a0) tagged in
    go [ first ] (est first) remaining

let body_rows est = function
  | [] -> 0.
  | first :: rest -> (List.fold_left (fun acc a -> join acc (est a)) (est first) rest).rows

let cq_rows layout atoms = body_rows (atom layout) atoms

let union_rows rows arms = List.fold_left (fun acc a -> acc +. rows a) 0. arms

let union rows = { rows; ndv = [] }

let fragments_rows rows parts = List.fold_left (fun acc p -> Float.min acc (rows p)) infinity parts

(* [linked.(j)]: part [j] shares a column with a part already taken.
   Scanning in list order with a strict [<] gives ties to the earliest
   part. *)
let fold_fragments ~cols ~rows ~first ~next parts =
  let parts = Array.of_list parts in
  let n = Array.length parts in
  if n = 0 then invalid_arg "Estimate.fold_fragments: no parts";
  let cols = Array.map cols parts and rows = Array.map rows parts in
  let taken = Array.make n false and linked = Array.make n false in
  let smallest ~linked_only =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if (not taken.(i)) && ((not linked_only) || linked.(i))
         && (!best < 0 || rows.(i) < rows.(!best))
      then best := i
    done;
    !best
  in
  let take i =
    taken.(i) <- true;
    for j = 0 to n - 1 do
      if (not taken.(j)) && (not linked.(j))
         && List.exists (fun c -> List.mem c cols.(i)) cols.(j)
      then linked.(j) <- true
    done
  in
  let rec grow acc k =
    if k = n then acc
    else
      let i = smallest ~linked_only:true in
      let connected = i >= 0 in
      let i = if connected then i else smallest ~linked_only:false in
      take i;
      grow (next acc parts.(i) ~connected) (k + 1)
  in
  let i0 = smallest ~linked_only:false in
  take i0;
  grow (first parts.(i0)) 1

let rec reformulation_rows layout = function
  | Fol.Leaf { ucq; _ } -> union_rows (fun d -> cq_rows layout (Cq.atoms d)) (Ucq.disjuncts ucq)
  | Fol.Union { branches; _ } -> union_rows (reformulation_rows layout) branches
  | Fol.Join { parts; _ } -> fragments_rows (reformulation_rows layout) parts

let scale e f = clamp_ndv { e with rows = e.rows *. f }

let no_correction _ = None

(* A node whose correction applies is estimated by scaling its
   uncorrected estimate, the base the factor was learned against, and
   its subtree is not asked again. *)
let rec plan ~correct layout p =
  match correct p with
  | Some f -> scale (plan ~correct:no_correction layout p) f
  | None -> (
    match p with
    | Plan.Scan a -> atom layout a
    | Plan.Hash_join { left; right; _ } | Plan.Merge_join { left; right; _ } ->
      join (plan ~correct layout left) (plan ~correct layout right)
    | Plan.Index_join { left; atom = a; _ } ->
      join (plan ~correct layout left) (plan ~correct layout (Plan.Scan a))
    | Plan.Project { input = p; _ } | Plan.Distinct p | Plan.Materialize p | Plan.Sip { join = p; _ }
      ->
      plan ~correct layout p
    | Plan.Union { inputs; _ } ->
      union (union_rows (fun p -> (plan ~correct layout p).rows) inputs))
