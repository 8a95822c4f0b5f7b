type engine_kind =
  [ `Pglite
  | `Db2lite ]

type layout_kind =
  [ `Simple
  | `Rdf ]

type engine = {
  profile : Rdbms.Explain.profile;
  layout : Rdbms.Layout.t;
  kind : engine_kind;
  model : Cost.Cost_model.t;  (* the calibrated "ext" cost model *)
  id : int;  (* process-unique, a component of plan-cache keys *)
  mutable generation : int;
      (* KB generation: bumped on every insert, reported to clients;
         plan validity does not read it *)
  mutable sip : bool;  (* sideways-information-passing annotations *)
  mutable feedback : Cost.Feedback.t option;
      (* cardinality-correction store fed by analyze runs *)
}

let next_engine_id = Atomic.make 0

(* A plan whose corrected root-cardinality estimate is still this far
   from the observed answer count (q-error) after an analyze run was
   costed against statistics that have since been corrected — worth
   re-optimising. Well above the ~1–2 q-error of healthy estimates,
   well below the 10^2..10^5 drift of an uncorrected union shape. *)
let default_drift_threshold = 4.0

let make_engine_of_layout kind layout =
  let profile =
    match kind with
    | `Pglite -> Rdbms.Explain.pglite
    | `Db2lite -> Rdbms.Explain.db2lite
  in
  {
    profile;
    layout;
    kind;
    model = Cost.Cost_model.calibrated kind;
    id = Atomic.fetch_and_add next_engine_id 1;
    generation = 0;
    sip = true;
    feedback = Some (Cost.Feedback.create ());
  }

let make_engine kind layout_kind abox =
  make_engine_of_layout kind
    (match layout_kind with
    | `Simple -> Rdbms.Layout.simple_of_abox abox
    | `Rdf -> Rdbms.Layout.rdf_of_abox abox)

let generation e = e.generation

(* An accepted insert advances the engine's KB generation. The plan
   cache is not touched here: a cost-based plan records the layout's
   emptiness epoch and the cardinalities of what it reads, and its next
   lookup decides whether the insert moved either far enough to search
   again ([plan_valid]). *)
let data_changed e = e.generation <- e.generation + 1

let insert_concept e ~concept ~ind =
  let inserted = Rdbms.Layout.insert_concept e.layout ~concept ~ind in
  if inserted then data_changed e;
  inserted

let insert_role e ~role ~subj ~obj =
  let inserted = Rdbms.Layout.insert_role e.layout ~role ~subj ~obj in
  if inserted then data_changed e;
  inserted

let set_sip e enabled = e.sip <- enabled

let sip_enabled e = e.sip

let feedback_store e = e.feedback

let set_feedback_store e store = e.feedback <- store

let set_feedback e enabled =
  if not enabled then e.feedback <- None
  else if e.feedback = None then e.feedback <- Some (Cost.Feedback.create ())

let feedback_enabled e = e.feedback <> None

let engine_name e =
  Printf.sprintf "%s/%s" e.profile.Rdbms.Explain.name (Rdbms.Layout.name e.layout)

let layout e = e.layout

let kind e = e.kind

let profile e = e.profile

type cost_source =
  | Rdbms_cost
  | Ext_cost

type strategy =
  | Ucq
  | Uscq
  | Croot
  | Gdl of cost_source
  | Gdl_limited of cost_source * float
  | Edl of cost_source

let cost_source_name = function Rdbms_cost -> "rdbms" | Ext_cost -> "ext"

let strategy_name = function
  | Ucq -> "ucq"
  | Uscq -> "uscq"
  | Croot -> "croot"
  | Gdl src -> "gdl/" ^ cost_source_name src
  | Gdl_limited (src, budget) ->
    Printf.sprintf "gdl%.0fms/%s" (budget *. 1000.) (cost_source_name src)
  | Edl src -> "edl/" ^ cost_source_name src

(* The one name -> strategy table of the CLI, the REPL and the server. *)
let strategies =
  [
    "ucq", Ucq;
    "uscq", Uscq;
    "croot", Croot;
    "gdl-rdbms", Gdl Rdbms_cost;
    "gdl-ext", Gdl Ext_cost;
    "gdl20ms-ext", Gdl_limited (Ext_cost, 0.02);
    "edl-ext", Edl Ext_cost;
  ]

let strategy_of_name n = List.assoc_opt (String.lowercase_ascii n) strategies

let strategy_names = List.map fst strategies

(* The ext estimator reads the engine's feedback store as it stands
   now, so a trained engine ranks candidate covers with observed
   cardinalities and EXPLAIN prints the cost the search saw. *)
let estimator e = function
  | Rdbms_cost -> Optimizer.Estimator.rdbms e.profile e.layout
  | Ext_cost -> Optimizer.Estimator.ext ?feedback:e.feedback e.model e.layout

(* One optimisation pass: the chosen reformulation of the covered query,
   and the leaves factorised in it. The cost-based strategies factorise
   the reformulation their search chose (DESIGN §15.6); the search itself
   prices flat leaves, and UCQ, USCQ and Croot stay the paper's columns. *)
let search e tbox strategy q =
  match strategy with
  | Ucq -> Covers.Reformulate.ucq tbox q, []
  | Uscq -> Reform.Uscq_reform.reformulate tbox q, []
  | Croot -> Covers.Reformulate.of_cover tbox (Covers.Safety.root_cover tbox q), []
  | Gdl src ->
    Reform.Factorise.factorise
      (Optimizer.Gdl.search tbox (estimator e src) q).Optimizer.Gdl.reformulation
  | Gdl_limited (src, budget) ->
    Reform.Factorise.factorise
      (Optimizer.Gdl.search ~time_budget:budget tbox (estimator e src) q)
        .Optimizer.Gdl.reformulation
  | Edl src ->
    Reform.Factorise.factorise
      (Optimizer.Edl.search tbox (estimator e src) q).Optimizer.Edl.reformulation

type plan = {
  p_reformulation : Query.Fol.t;
  p_epoch : int;
      (* the feedback-store correction epoch the plan was costed
         under; 0 with feedback disabled. A cached cost-based plan
         whose q-error drifts is only re-ranked once the epoch has
         advanced — re-searching under unchanged corrections would
         reproduce the same cover. *)
  p_covered : Query.Cq.t;  (* the query the search covered *)
  p_dropped : Query.Atom.t list;  (* the atoms reduced away from it *)
  p_factorised : Reform.Factorise.stat list;  (* the leaves factorised in it *)
  p_empty_epoch : int;
      (* the layout's emptiness epoch the search pruned under *)
  p_reads : [ `Concept of string | `Role of string ] array;
      (* the predicates the reformulation reads; [||] for the
         data-independent strategies *)
  p_cards : int array;  (* their cardinalities at search time *)
  mutable p_checked_facts : int;
      (* the layout's fact count when [p_cards] last held within the
         drift bound: while it is unchanged nothing moved *)
}

(* A strategy is data-independent when its output is a function of the
   TBox and query alone: UCQ/USCQ/CROOT never consult statistics, so
   their plans stay valid across any sequence of updates. The GDL/EDL
   family searches covers under a cost model fed by the engine's
   statistics — those plans are still answer-sound after an update
   (any reformulation is), but their optimality claim is stale. *)
let data_independent = function
  | Ucq | Uscq | Croot -> true
  | Gdl _ | Gdl_limited _ | Edl _ -> false

(* The query the cover search runs on. The cost-based strategies drop
   TBox-redundant atoms first (DESIGN §15.5): it has the original's
   certain answers, and fewer atoms means fewer fragments to
   reformulate and price. UCQ, USCQ and Croot reformulate the query as
   given, so the paper's UCQ and Croot columns stay the textbook ones. *)
let covered_query tbox strategy q =
  if data_independent strategy then q, [] else Reform.Reduce.reduce tbox q

let reformulate e tbox strategy q =
  fst (search e tbox strategy (fst (covered_query tbox strategy q)))

(* The plan cache: repeated queries skip PerfectRef and the EDL/GDL
   cover search entirely. Keyed by engine id, TBox uid, strategy and
   the canonical form of the query — a plan is only ever replayed in
   exactly the context that produced it. Whether the data still
   supports a plan is [plan_valid]'s question alone: data-independent
   plans hold for any data; a cost-based plan holds while the set of
   empty predicates it pruned against is unchanged (answers) and every
   predicate it reads is within [plan_drift_factor] of the cardinality
   its search saw (cost). A lookup drops an invalid entry and the new
   search takes its key, so a query holds one entry however many
   inserts pass; a plan never looked up again ages out of the LRU. *)
let default_plan_cache_capacity = 256

let plan_cost p = Query.Fol.total_atoms p.p_reformulation * 128

let plan_cache : (string, plan) Cache.Lru.t =
  Cache.Lru.create ~cost_of:plan_cost ~name:"plan"
    ~capacity:default_plan_cache_capacity ()

let set_plan_cache_capacity n = Cache.Lru.set_capacity plan_cache n

let plan_cache_stats () = Cache.Lru.stats plan_cache

let clear_plan_cache () = Cache.Lru.clear plan_cache

let plan_key e tbox strategy q =
  Printf.sprintf "%d/%d/%s/%s" e.id (Dllite.Tbox.uid tbox)
    (strategy_name strategy)
    (Query.Cq.to_string (Query.Cq.canonicalize q))

(* A cost-based plan is served while no predicate it reads has grown
   or shrunk by more than this factor since its search: the cost
   staleness a cached cover accepts. *)
let plan_drift_factor = 2

let m_epoch_researches =
  Obs.Metrics.counter
    ~help:"cost-based plans searched again because the set of empty predicates changed"
    "cache.plan.epoch_researches"

let m_stale_researches =
  Obs.Metrics.counter
    ~help:"cost-based plans searched again because a read predicate drifted past the bound"
    "cache.plan.stale_researches"

let feedback_epoch e =
  match e.feedback with Some fb -> Cost.Feedback.epoch fb | None -> 0

let cardinality layout = function
  | `Concept n -> Rdbms.Layout.concept_card layout n
  | `Role n -> Rdbms.Layout.role_card layout n

(* The predicates a reformulation reads, each once. *)
let read_set fol =
  let seen = Hashtbl.create 16 in
  let add = function
    | Query.Atom.Ca (n, _) -> Hashtbl.replace seen (`Concept n) ()
    | Query.Atom.Ra (n, _, _) -> Hashtbl.replace seen (`Role n) ()
  in
  let rec walk = function
    | Query.Fol.Leaf { ucq; _ } ->
      List.iter (fun cq -> List.iter add (Query.Cq.atoms cq)) (Query.Ucq.disjuncts ucq)
    | Query.Fol.Join { parts = fs; _ } | Query.Fol.Union { branches = fs; _ } ->
      List.iter walk fs
  in
  walk fol;
  Array.of_seq (Hashtbl.to_seq_keys seen)

let drifted ~recorded ~current =
  current > plan_drift_factor * recorded || recorded > plan_drift_factor * current

type staleness =
  | Fresh
  | Emptiness_changed
  | Drifted

(* The two questions of DESIGN §9, in order. Answers: only the arms
   pruned over empty predicates can make a reformulation wrong, and
   the emptiness epoch advances whenever the set of empty predicates
   changes. Cost: a drift check per read predicate, skipped while the
   layout's fact count is the one the last check passed at — so a hit
   with no insert since compares two ints. *)
let plan_staleness e strategy p =
  if data_independent strategy then Fresh
  else if Rdbms.Layout.empty_epoch e.layout <> p.p_empty_epoch then Emptiness_changed
  else
    let facts = Rdbms.Layout.total_facts e.layout in
    if facts = p.p_checked_facts then Fresh
    else
      let rec moved i =
        i < Array.length p.p_reads
        && (drifted ~recorded:p.p_cards.(i) ~current:(cardinality e.layout p.p_reads.(i))
           || moved (i + 1))
      in
      if moved 0 then Drifted
      else begin
        p.p_checked_facts <- facts;
        Fresh
      end

(* The lookup's predicate: counts why a cost-based plan is searched
   again. *)
let plan_valid e strategy p =
  match plan_staleness e strategy p with
  | Fresh -> true
  | Emptiness_changed ->
    Obs.Metrics.incr m_epoch_researches;
    false
  | Drifted ->
    Obs.Metrics.incr m_stale_researches;
    false

let plan_for e tbox strategy q =
  let key = plan_key e tbox strategy q in
  match Cache.Lru.find ~valid:(plan_valid e strategy) plan_cache key with
  | Some p -> p, true
  | None ->
    (* read before the search: the epoch its emptiness snapshot uses *)
    let empty_epoch = Rdbms.Layout.empty_epoch e.layout in
    let facts = Rdbms.Layout.total_facts e.layout in
    let epoch = feedback_epoch e in
    let covered, dropped = covered_query tbox strategy q in
    let fol, factorised = search e tbox strategy covered in
    let reads = if data_independent strategy then [||] else read_set fol in
    let fresh =
      {
        p_reformulation = fol;
        p_epoch = epoch;
        p_covered = covered;
        p_dropped = dropped;
        p_factorised = factorised;
        p_empty_epoch = empty_epoch;
        p_reads = reads;
        p_cards = Array.map (cardinality e.layout) reads;
        p_checked_facts = facts;
      }
    in
    (* The first writer keeps the slot. A racing caller's plan that no
       longer holds stays there but is not served to this one. *)
    let stored = Cache.Lru.add_if_absent plan_cache key fresh in
    (if plan_staleness e strategy stored = Fresh then stored else fresh), false

(* {1 The query pipeline}

   [prepare] is everything a query goes through before the executor:
   the plan-cache lookup or cover search, the SQL statement check, and
   physical planning with the SIP pass. ANSWER, ANALYZE and every
   EXPLAIN call it, so EXPLAIN shows exactly the plan ANSWER runs. *)

type prepared = {
  strategy : strategy;
  covered : Query.Cq.t;
  dropped : Query.Atom.t list;
  reformulation : Query.Fol.t;
  factorised : Reform.Factorise.stat list;
  plan_cached : bool;
  epoch : int;
  search_time : float;
  sql : string Lazy.t;
  physical : (Rdbms.Plan.t, string) result;
}

let seconds_since t0 = Int64.to_float (Obs.Mclock.elapsed_ns ~since:t0) /. 1e9

let prepare e tbox strategy q =
  let t0 = Obs.Mclock.now_ns () in
  let plan, plan_cached = plan_for e tbox strategy q in
  let search_time = seconds_since t0 in
  let reformulation = plan.p_reformulation in
  let sql = lazy (Sql.Sql_ast.to_string (Sql.Sql_gen.of_fol e.layout reformulation)) in
  (* the SQL text is rendered only to check a statement-size limit *)
  let physical =
    match e.profile.Rdbms.Explain.max_sql_bytes with
    | Some limit when String.length (Lazy.force sql) > limit ->
      Error
        (Printf.sprintf
           "The statement is too long or too complex. Current SQL statement size is \
            %d"
           (String.length (Lazy.force sql)))
    | _ ->
      let plan = Rdbms.Planner.of_fol e.layout reformulation in
      (* annotation happens after the plan cache (which stores the
         reformulation, not the physical plan), so toggling SIP takes
         effect immediately even on cached plans *)
      Ok
        (if e.sip then
           Cost.Sip_pass.annotate ~model:e.model ?feedback:e.feedback e.layout plan
         else plan)
  in
  {
    strategy;
    covered = plan.p_covered;
    dropped = plan.p_dropped;
    reformulation;
    factorised = plan.p_factorised;
    plan_cached;
    epoch = plan.p_epoch;
    search_time;
    sql;
    physical;
  }

type outcome = {
  strategy : strategy;
  reformulation : Query.Fol.t;
  factorised : Reform.Factorise.stat list;
  cq_count : int;
  sql : string lazy_t;
  search_time : float;
  eval_time : float;
  plan_cached : bool;
  answers : (string list list, string) Stdlib.result;
}

let m_queries =
  Obs.Metrics.counter ~help:"end-to-end queries answered" "obda.queries"

let m_search_ms =
  Obs.Metrics.histogram
    ~help:"reformulation / cover-search latency (ms)" "obda.search_ms"

let m_eval_ms =
  Obs.Metrics.histogram ~help:"plan evaluation latency (ms)" "obda.eval_ms"

let m_total_ms =
  Obs.Metrics.histogram
    ~help:"end-to-end query latency, search + SQL + eval (ms)" "obda.total_ms"

(* ANSWER and ANALYZE share one body up to the executor: [run] turns
   the physical plan into the answers plus whatever else its executor
   reports. *)
let execute e tbox strategy q run =
  let t0 = Obs.Mclock.now_ns () in
  let p = prepare e tbox strategy q in
  let result = Result.map run p.physical in
  let total = seconds_since t0 in
  let eval_time = total -. p.search_time in
  Obs.Metrics.incr m_queries;
  Obs.Metrics.observe m_search_ms (p.search_time *. 1000.);
  Obs.Metrics.observe m_eval_ms (eval_time *. 1000.);
  Obs.Metrics.observe m_total_ms (total *. 1000.);
  let outcome =
    {
      strategy;
      reformulation = p.reformulation;
      factorised = p.factorised;
      cq_count = Query.Fol.cq_count p.reformulation;
      sql = p.sql;
      search_time = p.search_time;
      eval_time;
      plan_cached = p.plan_cached;
      answers = Result.map fst result;
    }
  in
  p, outcome, Result.to_option (Result.map snd result)

let answer e tbox strategy q =
  let _, outcome, _ =
    execute e tbox strategy q (fun plan ->
        ( Rdbms.Exec.answers ~config:e.profile.Rdbms.Explain.exec_config e.layout plan,
          () ))
  in
  outcome

let answers_exn e tbox strategy q =
  match (answer e tbox strategy q).answers with
  | Ok a -> a
  | Error msg -> failwith msg

(* --- The feedback loop: EXPLAIN ANALYZE -> corrections -> re-rank --- *)

type analysis = {
  a_outcome : outcome;
  a_stats : Rdbms.Exec.node_stats option;
  a_q_error : float;
  a_harvested : int;
  a_reranked : bool;
}

let analyze e tbox strategy q =
  let p, outcome, stats =
    execute e tbox strategy q (fun plan ->
        let rel, stats =
          Rdbms.Exec.run_analyzed ~config:e.profile.Rdbms.Explain.exec_config e.layout
            plan
        in
        Rdbms.Exec.decode_rows e.layout rel, stats)
  in
  (* The drift check prices the plan's root under the corrections it
     was (approximately) costed with — *before* this run's harvest —
     so a plan whose estimate already matches reality never churns. *)
  let q_error =
    match stats with
    | None -> 1.0
    | Some s -> Cost.Feedback.root_q_error ?feedback:e.feedback e.layout s
  in
  let harvested =
    match e.feedback, stats with
    | Some fb, Some s -> Cost.Feedback.harvest fb e.layout s
    | _ -> 0
  in
  let reranked =
    (* Re-rank: the cached cover was chosen under estimates that are
       now demonstrably off (q-error past the threshold) *and* the
       correction epoch has advanced past the plan's — dropping the
       entry makes the next call re-search under the new factors. *)
    match e.feedback with
    | Some fb
      when (not (data_independent strategy))
           && q_error > default_drift_threshold
           && Cost.Feedback.epoch fb > p.epoch ->
      let key = plan_key e tbox strategy q in
      let dropped = Cache.Lru.invalidate_if plan_cache (fun k -> k = key) in
      if dropped > 0 then Cost.Feedback.note_rerank ();
      dropped > 0
    | _ -> false
  in
  {
    a_outcome = outcome;
    a_stats = stats;
    a_q_error = q_error;
    a_harvested = harvested;
    a_reranked = reranked;
  }
