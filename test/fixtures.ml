(* Shared fixtures: the knowledge bases and queries used as running
   examples in the paper, and the random corruption of saved files. *)

open Query
open Dllite

let v x = Term.Var x

let c x = Term.Cst x

let ca p t = Atom.Ca (p, t)

let ra p t1 t2 = Atom.Ra (p, t1, t2)

let atomic = Concept.atomic

let ex p = Concept.Exists (Role.Named p)

let ex_inv p = Concept.Exists (Role.Inverse p)

let sub b1 b2 = Axiom.Concept_sub (b1, b2)

let disj b1 b2 = Axiom.Concept_disj (b1, b2)

let rsub r1 r2 = Axiom.Role_sub (r1, r2)

let named = Role.named

let inv p = Role.Inverse p

(* Example 1 of the paper: researchers, PhD students, supervision. *)
let example1_tbox =
  Tbox.of_axioms
    [
      sub (atomic "PhDStudent") (atomic "Researcher");
      (* T1 *)
      sub (ex "worksWith") (atomic "Researcher");
      (* T2 *)
      sub (ex_inv "worksWith") (atomic "Researcher");
      (* T3 *)
      rsub (named "worksWith") (inv "worksWith");
      (* T4 *)
      rsub (named "supervisedBy") (named "worksWith");
      (* T5 *)
      sub (ex "supervisedBy") (atomic "PhDStudent");
      (* T6 *)
      disj (atomic "PhDStudent") (ex_inv "supervisedBy");
      (* T7 *)
    ]

let example1_abox () =
  Abox.of_assertions ~concepts:[]
    ~roles:
      [
        "worksWith", "Ioana", "Francois";
        (* A1 *)
        "supervisedBy", "Damian", "Ioana";
        (* A2 *)
        "supervisedBy", "Damian", "Francois";
        (* A3 *)
      ]

(* Example 3: PhD students with whom someone works. *)
let example3_query =
  Cq.make ~head:[ v "x" ] ~body:[ ca "PhDStudent" (v "x"); ra "worksWith" (v "y") (v "x") ] ()

(* Example 7 (the running example of Section 4). *)
let example7_tbox =
  Tbox.of_axioms
    [
      sub (atomic "Graduate") (ex "supervisedBy");
      rsub (named "supervisedBy") (named "worksWith");
    ]

let example7_abox () =
  Abox.of_assertions
    ~concepts:[ "PhDStudent", "Damian"; "Graduate", "Damian" ]
    ~roles:[]

(* A naive reference evaluator for FOL query trees over an ABox alone
   (no TBox): CQ leaves are evaluated through the chase with the empty
   TBox, joins by nested loops on shared head variables. Used as the
   ground truth the relational engine is checked against. *)
let eval_fol abox fol =
  let open Query in
  (* rows are (column name, value) assoc lists *)
  let rec rows_of = function
    | Fol.Leaf { out; ucq } ->
      let cols = List.map Term.to_string out in
      let tuples =
        List.concat_map
          (fun d -> Chase.certain_answers Tbox.empty abox d)
          (Ucq.disjuncts ucq)
      in
      cols, List.sort_uniq compare (List.map (fun tup -> List.combine cols tup) tuples)
    | Fol.Union { out; branches } ->
      let cols = List.map Term.to_string out in
      let all =
        List.concat_map
          (fun b ->
            let bcols, brows = rows_of b in
            ignore bcols;
            (* positional re-alignment onto the union's columns *)
            List.map (fun row -> List.map2 (fun c (_, v) -> c, v) cols row) brows)
          branches
      in
      cols, List.sort_uniq compare all
    | Fol.Join { out; parts } ->
      let part_rows = List.map rows_of parts in
      let joined =
        List.fold_left
          (fun acc (_, rows) ->
            List.concat_map
              (fun row1 ->
                List.filter_map
                  (fun row2 ->
                    let compatible =
                      List.for_all
                        (fun (c, v) ->
                          match List.assoc_opt c row1 with
                          | None -> true
                          | Some v' -> v = v')
                        row2
                    in
                    if compatible then
                      Some
                        (row1
                        @ List.filter (fun (c, _) -> not (List.mem_assoc c row1)) row2)
                    else None)
                  rows)
              acc)
          [ [] ] part_rows
      in
      let cols = List.map Term.to_string out in
      ( cols,
        List.sort_uniq compare
          (List.map (fun row -> List.map (fun c -> c, List.assoc c row) cols) joined) )
  in
  let _, rows = rows_of fol in
  List.sort_uniq compare (List.map (List.map snd) rows)

let example7_query =
  Cq.make ~head:[ v "x" ]
    ~body:
      [
        ca "PhDStudent" (v "x");
        ra "worksWith" (v "x") (v "y");
        ra "supervisedBy" (v "z") (v "y");
      ]
    ()

(* {1 Random corruption of a saved file} *)

let read_bytes file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

(* 500 cases, each writing [good] truncated (one case in four) or
   with 1–3 random byte changes to a temporary file and asking [check]
   about it. A case fails when [check] returns [false] or raises. *)
let qcheck_corruption ~name good check =
  QCheck2.Test.make ~name ~count:500
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0xC0DE |] in
      let good = Lazy.force good in
      let n = Bytes.length good in
      let b =
        if Random.State.int st 4 = 0 then Bytes.sub good 0 (Random.State.int st n)
        else begin
          let b = Bytes.copy good in
          for _ = 0 to Random.State.int st 3 do
            let i = Random.State.int st n in
            Bytes.set b i
              (Char.chr (Char.code (Bytes.get b i) lxor (1 + Random.State.int st 255)))
          done;
          b
        end
      in
      let file = Filename.temp_file "obda_corrupt" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          let oc = open_out_bin file in
          output_bytes oc b;
          close_out oc;
          check file))
