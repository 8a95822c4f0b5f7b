open Query
open Sql_ast

let ident s =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_') s

let const_lit layout k =
  match Dllite.Dict.find (Rdbms.Layout.dict layout) k with
  | Some code -> Int_lit code
  | None -> Int_lit (-1)

(* Per-atom source: a table on the simple layout, a column-probing
   subquery on the RDF layout. Returns the source and the columns
   giving each term position. *)
let atom_source layout atom alias =
  match layout, atom with
  | Rdbms.Layout.Simple _, Atom.Ca (p, _) ->
    Table { table = "concept_" ^ ident p; alias }, [ "ind" ]
  | Rdbms.Layout.Simple _, Atom.Ra (p, _, _) ->
    Table { table = "role_" ^ ident p; alias }, [ "s"; "o" ]
  | Rdbms.Layout.Rdf _, Atom.Ca (p, _) ->
    let q =
      Select
        {
          distinct = false;
          items = [ Col ("T", "ENTITY"), "ind" ];
          from = [ Table { table = "TYPES"; alias = "T" } ];
          where = [ Eq (Col ("T", "TYPE"), Str_lit p) ];
        }
    in
    Subquery { query = q; alias }, [ "ind" ]
  | Rdbms.Layout.Rdf r, Atom.Ra (p, _, _) ->
    (* DB2RDF access: probe every predicate column of the direct rows,
       plus the spill rows of subjects whose hashed column collided —
       the verbose pattern that makes reformulated queries exceed DB2's
       statement-size limit (§6.3). *)
    let width = Rdbms.Rdf_layout.width r in
    let pred_eq alias_t i = Eq (Col (alias_t, Printf.sprintf "PRED%d" i), Str_lit p) in
    let branch alias_t extra_where =
      let whens =
        List.init width (fun i -> pred_eq alias_t i, Col (alias_t, Printf.sprintf "VAL%d" i))
      in
      Select
        {
          distinct = false;
          items = [ Col (alias_t, "ENTITY"), "s"; Case whens, "o" ];
          from = [ Table { table = "DPH"; alias = alias_t } ];
          where = Or (List.init width (pred_eq alias_t)) :: extra_where;
        }
    in
    let direct = branch "T" [ Eq (Col ("T", "SPILL"), Int_lit 0) ] in
    let spilled = branch "TS" [ Eq (Col ("TS", "SPILL"), Int_lit 1) ] in
    Subquery { query = Union [ direct; spilled ]; alias }, [ "s"; "o" ]

(* One CQ as a flat select over its atom sources. *)
let select_of_cq layout ?(distinct = false) ~out_names (cq : Cq.t) =
  let atoms = Cq.atoms cq in
  let sources = ref [] and where = ref [] in
  let bindings : (string, expr) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i atom ->
      let alias = Printf.sprintf "t%d" i in
      let src, cols = atom_source layout atom alias in
      sources := src :: !sources;
      List.iter2
        (fun term col ->
          let e = Col (alias, col) in
          match term with
          | Term.Cst k -> where := Eq (e, const_lit layout k) :: !where
          | Term.Var v -> (
            match Hashtbl.find_opt bindings v with
            | None -> Hashtbl.add bindings v e
            | Some e0 -> where := Eq (e0, e) :: !where))
        (Atom.terms atom) cols)
    atoms;
  let items =
    List.map2
      (fun term name ->
        match term with
        | Term.Var v -> Option.get (Hashtbl.find_opt bindings v), name
        | Term.Cst k -> const_lit layout k, name)
      cq.Cq.head out_names
  in
  Select { distinct; items; from = List.rev !sources; where = List.rev !where }

let out_names_of terms =
  List.mapi
    (fun i t -> match t with Term.Var v -> ident v | Term.Cst _ -> Printf.sprintf "k%d" i)
    terms

let of_cq layout cq =
  select_of_cq layout ~distinct:true ~out_names:(out_names_of cq.Cq.head) cq

(* FOL trees. [named] controls whether joins become WITH bindings
   (top-level JUCQ, the paper's SQL shape) or inline subqueries. *)
let rec query_of_fol layout ~with_allowed fol =
  match fol with
  | Fol.Leaf { out; ucq } -> (
    let out_names = out_names_of out in
    match Ucq.disjuncts ucq with
    | [ single ] -> select_of_cq layout ~distinct:true ~out_names single
    | ds -> Union (List.map (select_of_cq layout ~out_names) ds))
  | Fol.Union { branches; _ } ->
    Union (List.map (query_of_fol layout ~with_allowed:false) branches)
  | Fol.Join { out; parts } ->
    let part_queries =
      List.mapi
        (fun i p ->
          Printf.sprintf "f%d" (i + 1), query_of_fol layout ~with_allowed:false p, p)
        parts
    in
    (* the first part exposing each variable provides its column *)
    let provider : (string, string) Hashtbl.t = Hashtbl.create 8 in
    let join_conds = ref [] in
    List.iter
      (fun (alias, _, p) ->
        List.iter
          (fun t ->
            match t with
            | Term.Var v -> (
              let col = ident v in
              match Hashtbl.find_opt provider col with
              | None -> Hashtbl.add provider col alias
              | Some first ->
                join_conds := Eq (Col (first, col), Col (alias, col)) :: !join_conds)
            | Term.Cst _ -> ())
          (Fol.out p))
      part_queries;
    let items =
      List.mapi
        (fun i t ->
          match t with
          | Term.Var v ->
            let col = ident v in
            Col (Option.get (Hashtbl.find_opt provider col), col), col
          | Term.Cst k -> const_lit layout k, Printf.sprintf "k%d" i)
        out
    in
    let body from =
      Select { distinct = true; items; from; where = List.rev !join_conds }
    in
    if with_allowed then
      With
        {
          bindings = List.map (fun (a, q, _) -> a, q) part_queries;
          body =
            body (List.map (fun (a, _, _) -> Table { table = a; alias = a }) part_queries);
        }
    else
      body
        (List.map (fun (a, q, _) -> Subquery { query = q; alias = a }) part_queries)

let of_fol layout fol = query_of_fol layout ~with_allowed:true fol
