open Query
open Rdbms

(* The pre-columnar execution model, kept as an independent
   implementation of plan semantics for the batch engine's equivalence
   property tests. Every operator materialises a full row list; every
   row is one boxed [int array]. No caching, no parallelism — the
   postgres-like sequential engine of the seed. Nothing in [lib/] uses
   it. *)

type rel = {
  cols : string array;
  rows : int array list;
}

let to_relation r = Relation.make ~cols:(Array.to_list r.cols) ~rows:r.rows

let col_index r name =
  let rec go i =
    if i >= Array.length r.cols then raise Not_found
    else if String.equal r.cols.(i) name then i
    else go (i + 1)
  in
  go 0

let mem_col r name = Array.exists (String.equal name) r.cols

let scan layout atom =
  let dict = Layout.dict layout in
  let code k = Dllite.Dict.find dict k in
  let cols = Array.of_list (Plan.scan_cols atom) in
  let boolean b = { cols = [||]; rows = (if b then [ [||] ] else []) } in
  match atom with
  | Atom.Ca (p, Term.Var _) ->
    {
      cols;
      rows =
        Array.to_list (Array.map (fun m -> [| m |]) (Layout.concept_rows layout p));
    }
  | Atom.Ca (p, Term.Cst k) -> (
    match code k with
    | None -> boolean false
    | Some c -> boolean (Layout.concept_mem layout p c))
  | Atom.Ra (p, Term.Var v1, Term.Var v2) ->
    let pairs = Layout.role_rows layout p in
    if v1 = v2 then
      {
        cols;
        rows =
          Array.to_list pairs
          |> List.filter_map (fun (s, o) -> if s = o then Some [| s |] else None);
      }
    else
      { cols; rows = Array.to_list (Array.map (fun (s, o) -> [| s; o |]) pairs) }
  | Atom.Ra (p, Term.Var _, Term.Cst k) -> (
    match code k with
    | None -> { cols; rows = [] }
    | Some c ->
      let subjects = Layout.role_matches layout p `Object c in
      { cols; rows = Array.to_list (Array.map (fun s -> [| s |]) subjects) })
  | Atom.Ra (p, Term.Cst k, Term.Var _) -> (
    match code k with
    | None -> { cols; rows = [] }
    | Some c ->
      let objects = Layout.role_matches layout p `Subject c in
      { cols; rows = Array.to_list (Array.map (fun o -> [| o |]) objects) })
  | Atom.Ra (p, Term.Cst k1, Term.Cst k2) -> (
    match code k1, code k2 with
    | Some c1, Some c2 ->
      boolean (Array.mem c2 (Layout.role_matches layout p `Subject c1))
    | _ -> boolean false)

let key_extractor r on =
  let idxs = Array.of_list (List.map (col_index r) on) in
  fun row -> Array.map (fun i -> row.(i)) idxs

(* Row-at-a-time hash join: build a payload-list table on the right,
   probe with every left row, allocate one fresh array per output
   row. *)
let hash_join l r ~on =
  let key_l = key_extractor l on and key_r = key_extractor r on in
  let payload_idx =
    Array.to_list r.cols
    |> List.mapi (fun i c -> i, c)
    |> List.filter (fun (_, c) -> not (List.mem c on))
  in
  let payload_of row = Array.of_list (List.map (fun (i, _) -> row.(i)) payload_idx) in
  let table = Hashtbl.create (max 16 (List.length r.rows)) in
  List.iter
    (fun row ->
      let k = key_r row in
      let cur = Option.value ~default:[] (Hashtbl.find_opt table k) in
      Hashtbl.replace table k (payload_of row :: cur))
    r.rows;
  let cols = Array.append l.cols (Array.of_list (List.map snd payload_idx)) in
  let rows =
    List.concat_map
      (fun row ->
        match Hashtbl.find_opt table (key_l row) with
        | None -> []
        | Some payloads -> List.map (fun p -> Array.append row p) payloads)
      l.rows
  in
  { cols; rows }

let index_join layout left atom probe_col =
  let dict = Layout.dict layout in
  let p, probe_side, other_term =
    match atom with
    | Atom.Ra (p, Term.Var v, other) when v = probe_col -> p, `Subject, other
    | Atom.Ra (p, other, Term.Var v) when v = probe_col -> p, `Object, other
    | _ -> Fmt.invalid_arg "Index_join: %s does not bind %a" probe_col Atom.pp atom
  in
  let probe_idx = col_index left probe_col in
  let others = Layout.role_matches layout p probe_side in
  match other_term with
  | Term.Cst k ->
    let code = Dllite.Dict.find dict k in
    let rows =
      List.filter
        (fun row ->
          match code with
          | None -> false
          | Some c -> Array.mem c (others row.(probe_idx)))
        left.rows
    in
    { left with rows }
  | Term.Var w when w = probe_col ->
    (* self loop R(x,x) *)
    let rows =
      List.filter
        (fun row ->
          Array.mem row.(probe_idx) (others row.(probe_idx)))
        left.rows
    in
    { left with rows }
  | Term.Var w when mem_col left w ->
    let w_idx = col_index left w in
    let rows =
      List.filter
        (fun row ->
          Array.mem row.(w_idx) (others row.(probe_idx)))
        left.rows
    in
    { left with rows }
  | Term.Var w ->
    let cols = Array.append left.cols [| w |] in
    let rows =
      List.concat_map
        (fun row ->
          Array.to_list
            (Array.map (fun o -> Array.append row [| o |]) (others row.(probe_idx))))
        left.rows
    in
    { cols; rows }

let project layout r out =
  let dict = Layout.dict layout in
  (* positional constant names, matching Plan.out_cols and the
     columnar Relation.project *)
  let _, rev =
    List.fold_left
      (fun (ci, acc) spec ->
        match spec with
        | `Col name -> ci, (name, `Idx (col_index r name)) :: acc
        | `Const k ->
          ( ci + 1,
            ("_const" ^ string_of_int ci, `Val (Dllite.Dict.encode dict k)) :: acc ))
      (0, []) out
  in
  let spec = List.rev rev in
  let cols = Array.of_list (List.map fst spec) in
  let extract = List.map snd spec in
  let rows =
    List.map
      (fun row ->
        Array.of_list (List.map (function `Idx i -> row.(i) | `Val v -> v) extract))
      r.rows
  in
  { cols; rows }

let distinct r =
  let seen = Hashtbl.create (max 16 (List.length r.rows)) in
  let rows =
    List.filter
      (fun row ->
        if Hashtbl.mem seen row then false
        else begin
          Hashtbl.add seen row ();
          true
        end)
      r.rows
  in
  { r with rows }

let rec eval layout plan =
  match plan with
  | Plan.Scan atom -> scan layout atom
  | Plan.Hash_join { left; right; on } | Plan.Merge_join { left; right; on } ->
    (* merge join is an equi-join: same bag of output rows, so the
       reference engine evaluates both through the hash path *)
    hash_join (eval layout left) (eval layout right) ~on
  | Plan.Index_join { left; atom; probe_col } ->
    index_join layout (eval layout left) atom probe_col
  | Plan.Project { input; out } -> project layout (eval layout input) out
  | Plan.Distinct p -> distinct (eval layout p)
  | Plan.Union { cols; inputs } ->
    let arms = List.map (eval layout) inputs in
    {
      cols = Array.of_list cols;
      rows = List.concat_map (fun r -> r.rows) arms;
    }
  | Plan.Materialize p -> eval layout p
  (* sideways-passing annotations are advisory; the row engine ignores
     them, which is exactly what makes it the differential oracle for
     the batch engine's reducer paths *)
  | Plan.Sip { join; _ } -> eval layout join

let run layout plan = to_relation (eval layout plan)

let answers layout plan =
  Exec.decode_rows layout (run layout plan)
