let default_width = 8

(* A wide hash table (DPH or RPH): one row = entity plus [width]
   (predicate, value) pairs; -1 marks an empty slot. A (entity,
   predicate) pair whose hashed column is taken spills to a fresh row
   for the same entity. *)
type wide_table = {
  mutable entities : int array;
  mutable preds : int array array;  (* row -> width predicates *)
  mutable values : int array array;
  mutable len : int;
  by_entity : (int, int list) Hashtbl.t;  (* entity -> row indexes *)
}

type t = {
  dict : Dllite.Dict.t;
  width : int;
  pred_codes : (string, int) Hashtbl.t;
  pred_names : (int, string) Hashtbl.t;
  dph : wide_table;
  rph : wide_table;
  mutable types : (int * int) array;  (* (entity, concept code) *)
  concept_codes : (string, int) Hashtbl.t;
  mutable spills : int;
  stats_role : (string, int * int * int) Hashtbl.t;  (* card, ndv_s, ndv_o *)
  stats_concept : (string, int) Hashtbl.t;
  mutable total_facts : int;
  uid : int;
  mutable empty_epoch : int;  (* as {!Storage.empty_epoch} *)
}

let next_uid = Atomic.make 0

let new_wide () =
  {
    entities = Array.make 64 0;
    preds = Array.make 64 [||];
    values = Array.make 64 [||];
    len = 0;
    by_entity = Hashtbl.create 1024;
  }

let grow_wide w =
  let n = Array.length w.entities in
  let grow a fill =
    let g = Array.make (2 * n) fill in
    Array.blit a 0 g 0 n;
    g
  in
  w.entities <- grow w.entities 0;
  w.preds <- grow w.preds [||];
  w.values <- grow w.values [||]

let add_wide_row w width entity =
  if w.len = Array.length w.entities then grow_wide w;
  let row = w.len in
  w.entities.(row) <- entity;
  w.preds.(row) <- Array.make width (-1);
  w.values.(row) <- Array.make width (-1);
  w.len <- row + 1;
  Hashtbl.replace w.by_entity entity
    (row :: Option.value ~default:[] (Hashtbl.find_opt w.by_entity entity));
  row

(* Insert (entity, pred, value): the predicate hashes to a column; if
   that column is occupied by a different predicate in every existing
   row of the entity, a spill row is created. Multi-valued predicates
   also spill. *)
let insert_wide t w entity pred_code value =
  let col = pred_code mod t.width in
  let rows = Option.value ~default:[] (Hashtbl.find_opt w.by_entity entity) in
  let rec try_rows = function
    | [] ->
      if rows <> [] then t.spills <- t.spills + 1;
      let row = add_wide_row w t.width entity in
      w.preds.(row).(col) <- pred_code;
      w.values.(row).(col) <- value
    | row :: rest ->
      if w.preds.(row).(col) = -1 then begin
        w.preds.(row).(col) <- pred_code;
        w.values.(row).(col) <- value
      end
      else try_rows rest
  in
  try_rows rows

let of_abox ?(width = default_width) abox =
  let dict = Dllite.Abox.dict abox in
  let pred_codes = Hashtbl.create 64 and pred_names = Hashtbl.create 64 in
  let next_pred = ref 0 in
  let pred_code name =
    match Hashtbl.find_opt pred_codes name with
    | Some c -> c
    | None ->
      let c = !next_pred in
      incr next_pred;
      Hashtbl.add pred_codes name c;
      Hashtbl.add pred_names c name;
      c
  in
  let concept_codes = Hashtbl.create 64 in
  let next_concept = ref 0 in
  let concept_code name =
    match Hashtbl.find_opt concept_codes name with
    | Some c -> c
    | None ->
      let c = !next_concept in
      incr next_concept;
      Hashtbl.add concept_codes name c;
      c
  in
  let stats_role = Hashtbl.create 64 and stats_concept = Hashtbl.create 64 in
  let total = ref 0 in
  let t =
    {
      dict;
      width;
      pred_codes;
      pred_names;
      dph = new_wide ();
      rph = new_wide ();
      types = [||];
      concept_codes;
      spills = 0;
      stats_role;
      stats_concept;
      total_facts = 0;
      uid = Atomic.fetch_and_add next_uid 1;
      empty_epoch = 0;
    }
  in
  let types = ref [] in
  List.iter
    (fun name ->
      let code = concept_code name in
      let members =
        List.sort_uniq Int.compare
          (Array.to_list (Dllite.Abox.concept_members abox name))
      in
      Hashtbl.replace stats_concept name (List.length members);
      total := !total + List.length members;
      List.iter (fun m -> types := (m, code) :: !types) members)
    (Dllite.Abox.concept_names abox);
  List.iter
    (fun name ->
      let code = pred_code name in
      let pairs =
        List.sort_uniq Stdlib.compare (Array.to_list (Dllite.Abox.role_pairs abox name))
      in
      total := !total + List.length pairs;
      let subjects = Hashtbl.create 64 and objects = Hashtbl.create 64 in
      List.iter
        (fun (s, o) ->
          Hashtbl.replace subjects s ();
          Hashtbl.replace objects o ();
          insert_wide t t.dph s code o;
          insert_wide t t.rph o code s)
        pairs;
      Hashtbl.replace stats_role name
        (List.length pairs, Hashtbl.length subjects, Hashtbl.length objects))
    (Dllite.Abox.role_names abox);
  t.types <- Array.of_list !types;
  t.total_facts <- !total;
  t

let width t = t.width

let dict t = t.dict

let dph_row_count t = t.dph.len

let rph_row_count t = t.rph.len

let type_row_count t = Array.length t.types

let spill_row_count t = t.spills

let concept_rows t name =
  match Hashtbl.find_opt t.concept_codes name with
  | None -> [||]
  | Some code ->
    let out = ref [] in
    Array.iter (fun (e, c) -> if c = code then out := e :: !out) t.types;
    Array.of_list (List.rev !out)

(* Probe every predicate column of every row: this is the full-scan
   CASE/OR access path of the generated SQL. *)
let scan_wide t w pred_code emit =
  for row = 0 to w.len - 1 do
    let preds = w.preds.(row) in
    for col = 0 to t.width - 1 do
      if preds.(col) = pred_code then emit w.entities.(row) w.values.(row).(col)
    done
  done

let role_rows t name =
  match Hashtbl.find_opt t.pred_codes name with
  | None -> [||]
  | Some code ->
    let out = ref [] in
    scan_wide t t.dph code (fun s o -> out := (s, o) :: !out);
    Array.of_list (List.rev !out)

(* Columnar role scan: same full DPH probe as [role_rows], emitted
   straight into two column buffers. Deliberately not cached — the
   layout's whole point is that every role scan re-pays the wide-table
   probing (the executor never caches RDF role accesses either). *)
let role_cols t name =
  match Hashtbl.find_opt t.pred_codes name with
  | None -> [||], [||]
  | Some code ->
    let subs = Ibuf.create () and objs = Ibuf.create () in
    scan_wide t t.dph code (fun s o ->
        Ibuf.push subs s;
        Ibuf.push objs o);
    Ibuf.to_array subs, Ibuf.to_array objs

let probe_rows t w rows pred_code emit =
  List.iter
    (fun row ->
      let preds = w.preds.(row) in
      for col = 0 to t.width - 1 do
        if preds.(col) = pred_code then emit w.entities.(row) w.values.(row).(col)
      done)
    rows

let role_lookup_subject t name subj =
  match Hashtbl.find_opt t.pred_codes name with
  | None -> []
  | Some code ->
    let rows = Option.value ~default:[] (Hashtbl.find_opt t.dph.by_entity subj) in
    let out = ref [] in
    probe_rows t t.dph rows code (fun s o -> out := (s, o) :: !out);
    !out

let role_lookup_object t name obj =
  match Hashtbl.find_opt t.pred_codes name with
  | None -> []
  | Some code ->
    let rows = Option.value ~default:[] (Hashtbl.find_opt t.rph.by_entity obj) in
    let out = ref [] in
    probe_rows t t.rph rows code (fun o s -> out := (s, o) :: !out);
    !out

(* Array variants: the wide-table probe materialises a fresh result
   either way, so these just avoid the final list representation. *)
let role_lookup_subject_arr t name subj =
  Array.of_list (role_lookup_subject t name subj)

let role_lookup_object_arr t name obj = Array.of_list (role_lookup_object t name obj)

let concept_names t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.concept_codes [])

let role_names t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.pred_codes [])

let concept_card t name =
  Option.value ~default:0 (Hashtbl.find_opt t.stats_concept name)

let role_card t name =
  match Hashtbl.find_opt t.stats_role name with Some (c, _, _) -> c | None -> 0

let role_ndv t name =
  match Hashtbl.find_opt t.stats_role name with
  | Some (_, s, o) -> s, o
  | None -> 0, 0

let total_facts t = t.total_facts

let uid t = t.uid

let empty_epoch t = t.empty_epoch

let individual_count t = Dllite.Dict.size t.dict

(* {1 Incremental maintenance} *)

let insert_concept t ~concept ~ind =
  let code =
    match Hashtbl.find_opt t.concept_codes concept with
    | Some c -> c
    | None ->
      let c = Hashtbl.length t.concept_codes in
      Hashtbl.add t.concept_codes concept c;
      c
  in
  let e = Dllite.Dict.encode t.dict ind in
  if Array.exists (fun x -> x = (e, code)) t.types then false
  else begin
    t.types <- Array.append t.types [| (e, code) |];
    let card = Option.value ~default:0 (Hashtbl.find_opt t.stats_concept concept) in
    if card = 0 then t.empty_epoch <- t.empty_epoch + 1;
    Hashtbl.replace t.stats_concept concept (card + 1);
    t.total_facts <- t.total_facts + 1;
    true
  end

let insert_role t ~role ~subj ~obj =
  let code =
    match Hashtbl.find_opt t.pred_codes role with
    | Some c -> c
    | None ->
      let c = Hashtbl.length t.pred_codes in
      Hashtbl.add t.pred_codes role c;
      Hashtbl.add t.pred_names c role;
      c
  in
  let s = Dllite.Dict.encode t.dict subj in
  let o = Dllite.Dict.encode t.dict obj in
  if List.exists (fun p -> p = (s, o)) (role_lookup_subject t role s) then false
  else begin
    insert_wide t t.dph s code o;
    insert_wide t t.rph o code s;
    let card, nds, ndo =
      Option.value ~default:(0, 0, 0) (Hashtbl.find_opt t.stats_role role)
    in
    if card = 0 then t.empty_epoch <- t.empty_epoch + 1;
    (* distinct counts maintained approximately: recount lazily would
       rescan; we bump them when the value is new to this role's index *)
    let new_s = role_lookup_subject t role s = [ (s, o) ] in
    let new_o = role_lookup_object t role o = [ (s, o) ] in
    Hashtbl.replace t.stats_role role
      (card + 1, (if new_s then nds + 1 else nds), if new_o then ndo + 1 else ndo);
    t.total_facts <- t.total_facts + 1;
    true
  end
