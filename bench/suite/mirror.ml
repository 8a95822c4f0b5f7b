(* A bench-side copy of [Obda.answer] that calls each layer's public
   function in the same order and records a span around each call.
   It exists only for the traced run: the engine is not instrumented
   inside, so the per-layer split is taken from here, at the layer
   boundaries. The plan lookup is memoised exactly like the engine's
   plan cache: keyed by the KB generation, the TBox, the strategy and
   the canonical query, and flushed when [Obda.generation] advances,
   so a miss here is a miss there. *)

type t = {
  engine : Obda.engine;
  tbox : Dllite.Tbox.t;
  strategy : Obda.strategy;
  spans : Spans.t;
  plans : (string, Query.Fol.t) Hashtbl.t;
  mutable plan_generation : int;
  mutable lookups : int;
  mutable hits : int;
  mutable invalidations : int;  (* entries dropped by generation flushes *)
  mutable sql_bytes : int;
}

let create engine tbox strategy spans =
  { engine;
    tbox;
    strategy;
    spans;
    plans = Hashtbl.create 16;
    plan_generation = Obda.generation engine;
    lookups = 0;
    hits = 0;
    invalidations = 0;
    sql_bytes = 0 }

let reset_plans m = Hashtbl.reset m.plans

let reset_counts m =
  m.lookups <- 0;
  m.hits <- 0;
  m.invalidations <- 0;
  m.sql_bytes <- 0

let plan_lookup m q =
  let generation = Obda.generation m.engine in
  if generation <> m.plan_generation then begin
    m.invalidations <- m.invalidations + Hashtbl.length m.plans;
    Hashtbl.reset m.plans;
    m.plan_generation <- generation
  end;
  let key =
    Printf.sprintf "%d/%d/%s/%s" generation (Dllite.Tbox.uid m.tbox)
      (Obda.strategy_name m.strategy)
      (Query.Cq.to_string (Query.Cq.canonicalize q))
  in
  m.lookups <- m.lookups + 1;
  key, Hashtbl.find_opt m.plans key

(* One read request [req]: the root span "read" and one child span per
   stage. Returns the sorted answers, as [Obda.answer] does. *)
let answer m ~req q =
  let root = Spans.enter m.spans ~req ~parent:(-1) "read" in
  let stage name f = Spans.span m.spans ~req ~parent:root.Spans.id name f in
  let layout = Obda.layout m.engine and profile = Obda.profile m.engine in
  let key, cached = stage "obda.plan_lookup" (fun () -> plan_lookup m q) in
  let fol =
    match cached with
    | Some fol ->
      m.hits <- m.hits + 1;
      fol
    | None ->
      let fol =
        stage "optimizer.search" (fun () -> Obda.reformulate m.engine m.tbox m.strategy q)
      in
      Hashtbl.replace m.plans key fol;
      fol
  in
  let sql =
    stage "sql.render" (fun () -> Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol layout fol))
  in
  m.sql_bytes <- m.sql_bytes + String.length sql;
  let answers =
    match profile.Rdbms.Explain.max_sql_bytes with
    | Some limit when String.length sql > limit ->
      Error (Printf.sprintf "statement of %d bytes over the %d limit" (String.length sql) limit)
    | _ ->
      let plan = stage "rdbms.plan" (fun () -> Rdbms.Planner.of_fol layout fol) in
      let plan =
        if Obda.sip_enabled m.engine then
          stage "cost.sip" (fun () ->
              Cost.Sip_pass.annotate
                ~model:(Cost.Cost_model.calibrated (Obda.kind m.engine))
                ?feedback:(Obda.feedback_store m.engine) layout plan)
        else plan
      in
      let rel =
        stage "rdbms.exec" (fun () ->
            Rdbms.Exec.run ~config:profile.Rdbms.Explain.exec_config
              ~counters:(Rdbms.Exec.fresh_counters ()) layout plan)
      in
      Ok
        (stage "rdbms.decode" (fun () ->
             Rdbms.Exec.decode_rows layout (Rdbms.Relation.distinct rel)))
  in
  Spans.leave root;
  answers
