(* Golden estimates: every number the estimation stack hands the cover
   search, the planner and the SIP pass, pinned bit for bit over LUBM.

   For each engine profile × layout, each LUBM query (Q1–Q13, A3–A6)
   and each strategy, the test records — floats in [%h], so equal text
   means equal bits —
   - the chosen cover's structural key and estimated cost (GDL/EDL);
   - [Cost_model.node]'s rows, raw rows and cost;
   - [Explain.cost] of the plan [Planner.of_fol] builds;
   - [Feedback.plan_est]'s root rows;
   - the MD5 of the plan's structural key before and after
     [Sip_pass.annotate];
   once with no correction store and once with the engine's store
   trained by two [Obda.analyze] runs per query. The expected text is
   [estimates.golden]; it changes only with a change that alters an
   estimation formula on purpose. On a mismatch the test writes what it
   computed to [estimates.actual] and fails on the first differing
   line. Both files sit next to the test executable, so the test runs
   from any working directory. *)

open Query

let facts = 2_000

let beside_executable file = Filename.concat (Filename.dirname Sys.executable_name) file

let golden_file = beside_executable "estimates.golden"

let actual_file = beside_executable "estimates.actual"

let strategies q =
  [
    "ucq", Obda.Ucq;
    "uscq", Obda.Uscq;
    "croot", Obda.Croot;
    "gdl-rdbms", Obda.Gdl Obda.Rdbms_cost;
    "gdl-ext", Obda.Gdl Obda.Ext_cost;
  ]
  @ if List.length (Cq.atoms q) <= 4 then [ "edl-ext", Obda.Edl Obda.Ext_cost ] else []

let data_independent = Hashtbl.create 64

(* The strategy's reformulation and, for a cover search, the chosen
   cover's key and estimated cost — the same search [Obda.reformulate]
   runs, on the same reduced query, before [Obda] factorises its
   result. *)
let reformulate engine tbox strategy q =
  match strategy with
  | Obda.Gdl src ->
    let covered, _ = Reform.Reduce.reduce tbox q in
    let r = Optimizer.Gdl.search tbox (Obda.estimator engine src) covered in
    ( r.Optimizer.Gdl.reformulation,
      Some (Covers.Generalized.structural_key r.Optimizer.Gdl.cover, r.Optimizer.Gdl.est_cost) )
  | Obda.Edl src ->
    let covered, _ = Reform.Reduce.reduce tbox q in
    let r = Optimizer.Edl.search tbox (Obda.estimator engine src) covered in
    ( r.Optimizer.Edl.reformulation,
      Some (Covers.Generalized.structural_key r.Optimizer.Edl.cover, r.Optimizer.Edl.est_cost) )
  | _ -> (
    (* UCQ, USCQ and Croot depend on the TBox and the query alone:
       reformulate once for every engine and phase *)
    let key = Obda.strategy_name strategy, q.Cq.name in
    match Hashtbl.find_opt data_independent key with
    | Some fol -> fol, None
    | None ->
      let fol = Obda.reformulate engine tbox strategy q in
      Hashtbl.replace data_independent key fol;
      fol, None)

let md5 s = Digest.to_hex (Digest.string s)

let record out ?feedback ~phase engine tbox (e : Lubm.Workload.entry) (sname, strategy) =
  let layout = Obda.layout engine in
  let model = Cost.Cost_model.calibrated (Obda.kind engine) in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        out
          (Printf.sprintf "%s %s %s %s %s" (Obda.engine_name engine) e.name sname phase s))
      fmt
  in
  let fol, cover = reformulate engine tbox strategy e.query in
  Option.iter (fun (key, cost) -> line "cover %s est_cost=%h" (md5 key) cost) cover;
  let n = Cost.Cost_model.node ?feedback model layout fol in
  line "node rows=%h raw_rows=%h cost=%h" n.rows n.raw_rows n.cost;
  let plan = Rdbms.Planner.of_fol layout fol in
  let x = Rdbms.Explain.cost (Obda.profile engine) layout plan in
  line "explain cost=%h rows=%h" x.total_cost x.est_rows;
  line "plan_est rows=%h" (Cost.Feedback.plan_est ?feedback layout plan).Rdbms.Estimate.rows;
  let sip = Cost.Sip_pass.annotate ~model ?feedback layout plan in
  line "plan %s sip %s"
    (md5 (Rdbms.Plan.structural_key plan))
    (md5 (Rdbms.Plan.structural_key sip))

let compute () =
  let lines = ref [] in
  let out l = lines := l :: !lines in
  let tbox = Lubm.Ontology.tbox in
  let abox = Lubm.Generator.generate ~seed:42 ~target_facts:facts () in
  let entries = Lubm.Workload.queries @ Lubm.Workload.star_queries in
  Obda.clear_plan_cache ();
  List.iter
    (fun (kind, layout_kind) ->
      let engine = Obda.make_engine kind layout_kind abox in
      let each ?feedback ~phase () =
        List.iter
          (fun (e : Lubm.Workload.entry) ->
            List.iter (record out ?feedback ~phase engine tbox e) (strategies e.query))
          entries
      in
      (* static: the engine's store is still empty, so the ext
         estimator and the model read no correction *)
      each ~phase:"static" ();
      List.iter
        (fun (e : Lubm.Workload.entry) ->
          for _ = 1 to 2 do
            ignore (Obda.analyze engine tbox Obda.Croot e.query)
          done)
        entries;
      let feedback = Option.get (Obda.feedback_store engine) in
      each ~feedback ~phase:"trained" ())
    [ `Pglite, `Simple; `Pglite, `Rdf; `Db2lite, `Simple; `Db2lite, `Rdf ];
  List.rev !lines

let read_lines file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_estimates_match_golden () =
  let actual = compute () in
  let expected = read_lines golden_file in
  let rec first_diff i = function
    | [], [] -> None
    | e :: es, a :: as_ -> if String.equal e a then first_diff (i + 1) (es, as_) else Some (i, e, a)
    | e :: _, [] -> Some (i, e, "<end of output>")
    | [], a :: _ -> Some (i, "<end of file>", a)
  in
  match first_diff 1 (expected, actual) with
  | None -> ()
  | Some (i, e, a) ->
    let oc = open_out_bin actual_file in
    List.iter (fun l -> output_string oc l; output_char oc '\n') actual;
    close_out oc;
    Alcotest.failf "%s:%d differs (full output in %s)\nexpected: %s\nactual:   %s" golden_file i
      actual_file e a

let suite =
  [
    Alcotest.test_case "estimates = golden file, bitwise (lubm)" `Quick
      test_estimates_match_golden;
  ]
