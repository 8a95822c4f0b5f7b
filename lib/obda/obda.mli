(** The public façade: end-to-end ontology-based data access.

    Build an {!engine} over an ABox (choosing an engine profile and a
    storage layout), then {!answer} conjunctive queries under a TBox
    with any of the reformulation strategies the paper evaluates —
    plain UCQ, the fixed root-cover JUCQ, or the cost-driven GDL / EDL
    covers with either cost source. The answer always reflects both the
    data and the constraints (FOL reducibility of DL-LiteR). *)

type engine_kind =
  [ `Pglite  (** Postgres-like: no scan sharing, sampling estimator *)
  | `Db2lite  (** DB2-like: scan sharing, 2M-char statement limit *) ]

type layout_kind =
  [ `Simple  (** a table per concept and role *)
  | `Rdf  (** DB2RDF-style wide tables *) ]

type engine

val make_engine : engine_kind -> layout_kind -> Dllite.Abox.t -> engine
(** Loads the ABox into the chosen layout. *)

val make_engine_of_layout : engine_kind -> Rdbms.Layout.t -> engine
(** Wraps an already-built layout — a store streamed in through
    {!Rdbms.Storage.Builder} or reopened with {!Rdbms.Storage.load} —
    without re-loading any ABox. *)

val engine_name : engine -> string
(** e.g. ["db2lite/rdf"]. *)

val layout : engine -> Rdbms.Layout.t

val kind : engine -> engine_kind
(** The engine profile the engine was built with. {!prepare} already
    applies its calibrated cost model; callers that re-run the
    pipeline's stages one by one need the kind to re-derive it. *)

val profile : engine -> Rdbms.Explain.profile

type cost_source =
  | Rdbms_cost  (** the engine's own estimation ([explain]) *)
  | Ext_cost  (** the external textbook cost model *)

type strategy =
  | Ucq  (** plain (minimal) CQ-to-UCQ reformulation *)
  | Uscq  (** factorised CQ-to-USCQ reformulation ({e [33]}-style) *)
  | Croot  (** fixed JUCQ over the root cover *)
  | Gdl of cost_source
      (** greedy cover search; like every cost-based strategy it
          first drops the query's TBox-redundant atoms
          ({!Reform.Reduce}), and reformulates fragments without the
          arms over predicates that have no stored fact
          ({!Optimizer.Estimator.emptiness}); after the search it
          factorises the chosen reformulation's product-shaped leaves
          ({!Reform.Factorise}) *)
  | Gdl_limited of cost_source * float  (** time-limited GDL (seconds) *)
  | Edl of cost_source  (** exhaustive cover search (small queries!) *)

val strategy_name : strategy -> string

val strategy_of_name : string -> strategy option
(** The strategy vocabulary of the CLI, the REPL and the server
    (case-insensitive): [ucq], [uscq], [croot], [gdl-rdbms],
    [gdl-ext], [gdl20ms-ext] (GDL with a 20 ms budget), [edl-ext]. *)

val strategy_names : string list
(** Every name {!strategy_of_name} accepts, in that order. *)

(** {2 The query pipeline}

    Every way of running a query goes through {!prepare}: {!answer},
    {!analyze}, and the EXPLAIN paths of the CLI, the REPL and the
    server. So EXPLAIN always shows the plan ANSWER runs. *)

type prepared = {
  strategy : strategy;
  covered : Query.Cq.t;
      (** the query the strategy reformulated: for the cost-based
          strategies the caller's query without its TBox-redundant
          atoms ({!Reform.Reduce.reduce}), otherwise the caller's
          query itself *)
  dropped : Query.Atom.t list;  (** the atoms reduced away from [covered] *)
  reformulation : Query.Fol.t;
      (** for the cost-based strategies, the chosen cover's
          reformulation with its product-shaped leaves factorised
          ({!Reform.Factorise}) *)
  factorised : Reform.Factorise.stat list;
      (** one entry per leaf of the chosen reformulation that was
          factorised; always [[]] for UCQ, USCQ and Croot *)
  plan_cached : bool;
      (** the reformulation came from the plan cache — no PerfectRef
          call and no cover search ran for this query *)
  epoch : int;
      (** the feedback-correction epoch the plan was costed under *)
  search_time : float;  (** seconds spent in the plan-cache lookup or search *)
  sql : string Lazy.t;
      (** the SQL translation. It is rendered only when the engine
          profile has a statement-size limit (Db2Lite) or when a
          caller forces it. *)
  physical : (Rdbms.Plan.t, string) Stdlib.result;
      (** the physical plan the executor runs: SIP-annotated under the
          engine's feedback store when SIP is on. [Error] is the
          engine's statement-size rejection, and then nothing runs. *)
}

val prepare : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> prepared
(** Everything before the executor: the {{!section-plan_cache}plan
    cache} lookup or cover search, the statement-size check, physical
    planning and the SIP pass. *)

type outcome = {
  strategy : strategy;
  reformulation : Query.Fol.t;
  factorised : Reform.Factorise.stat list;  (** as {!prepared.factorised} *)
  cq_count : int;  (** CQ disjuncts in the reformulation *)
  sql : string lazy_t;
      (** the SQL translation, as {!prepared.sql}: not forced on
          engines without a statement-size limit *)
  search_time : float;  (** seconds spent choosing the reformulation *)
  eval_time : float;
      (** seconds from the chosen reformulation to decoded answers:
          statement check, physical planning, execution *)
  plan_cached : bool;
      (** the reformulation came from the plan cache — no PerfectRef
          call and no cover search ran for this query *)
  answers : (string list list, string) Stdlib.result;
      (** sorted certain answers, or the engine error (e.g. the
          statement-size rejection DB2 raises on the RDF layout) *)
}

val reformulate : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> Query.Fol.t
(** Only the reformulation step, searched afresh (the cost-based
    strategies reduce the query first and factorise the result, as
    {!prepare} does): it bypasses the plan cache, which {!prepare}
    goes through. *)

val answer : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> outcome
(** {!prepare}, then the plain executor and decoding. The optimisation
    step goes through the {{!section-plan_cache}plan cache}: a repeated
    query (same engine, TBox and strategy, equal canonical form)
    replays the memoised reformulation instead of searching again,
    unless it is a cost-based plan whose data has since moved (see
    {!plan_drift_factor}). *)

val answers_exn : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> string list list
(** Convenience: the answers of {!answer}, raising [Failure] on engine
    errors. *)

val estimator : engine -> cost_source -> Optimizer.Estimator.t
(** The cost function ε of a cost source. The [Ext_cost] estimator
    reads the engine's feedback store ({!feedback_store}) as it is at
    this call; [Rdbms_cost] never consults it. *)

(** {2 Incremental updates}

    New facts can be inserted into a loaded engine (after the
    dynamic-databases concern of {e [17]}): inserts land in per-table
    delta buffers ({!Rdbms.Storage}), and indexes and statistics are
    maintained in place. No query result is kept across queries, so
    an insert drops nothing: the next query reads the new facts. A
    cost-based plan is searched again on its next lookup only when an
    insert filled a predicate that was empty, or grew a predicate the
    plan reads past {!plan_drift_factor} times the cardinality its
    search saw; plans of the data-independent strategies survive
    updates outright. Consistency of the update is the caller's
    concern ({!Dllite.Kb.check_consistency} /
    {!Reform.Consistency}). *)

val insert_concept : engine -> concept:string -> ind:string -> bool
(** [false] when the fact was already stored. *)

val insert_role : engine -> role:string -> subj:string -> obj:string -> bool

val generation : engine -> int
(** The engine's KB generation: starts at [0], advances on every
    accepted insert. Server replies carry it, so a client can order
    its reads against its writes; plan validity does not depend on
    it. *)

(** {2:plan_cache Plan cache}

    One process-wide bounded LRU memoising the outcome of the
    optimisation step — the chosen cover and compiled reformulation —
    keyed by (engine, TBox version, strategy, canonical query). One
    validity rule decides whether a lookup may serve a plan. Plans of
    the data-independent strategies ([Ucq]/[Uscq]/[Croot]) are
    functions of the TBox and query alone and always hold. A plan of
    a cost-based strategy ([Gdl]/[Gdl_limited]/[Edl]) records the
    layout's emptiness epoch ({!Rdbms.Layout.empty_epoch}) it was
    searched under and the cardinality of every concept and role its
    reformulation reads, and holds while
    - the epoch is unchanged, so every predicate it pruned as empty
      still is: the replayed plan returns the same answers as a fresh
      search;
    - every recorded cardinality is within {!plan_drift_factor} of its
      current value, in either direction: the cover it replays was
      chosen under statistics at most that far off on anything it
      reads.

    A lookup that finds an invalid plan drops it and counts a miss, an
    invalidation, and one of [cache.plan.epoch_researches] or
    [cache.plan.stale_researches]; the fresh search is stored under
    the same key. On a hit with no insert since the last check, the
    check compares two ints. Repeated-query traffic skips PerfectRef
    and the EDL/GDL cover search entirely, and the atom reduction of
    the cost-based strategies with them: the key is the caller's
    query, not the reduced one. *)

val plan_drift_factor : int
(** [2]: how far, in either direction, the cardinality of a predicate
    a cached cost-based plan reads may move from the one its search
    saw before the plan is searched again. *)

val default_plan_cache_capacity : int
(** Capacity of the plan cache, in entries. *)

val set_plan_cache_capacity : int -> unit
(** Resizes the plan cache; [<= 0] disables it. *)

val plan_cache_stats : unit -> Cache.Lru.stats
(** The plan cache's entries, cost and counters. *)

val clear_plan_cache : unit -> unit
(** Drops every cached plan. *)

(** {2 Sideways information passing}

    When enabled (the default), {!answer} runs the
    {!Cost.Sip_pass.annotate} optimizer pass over each physical plan:
    profitable joins get semijoin-reducer annotations that the
    executor turns into scan filters and union-arm elision. Purely a
    performance lever — answers are identical either way. *)

val set_sip : engine -> bool -> unit
(** Toggle the SIP annotation pass for subsequent {!answer} calls.
    Takes effect immediately (plans are annotated after the plan
    cache, which stores only reformulations). *)

val sip_enabled : engine -> bool

(** {2 Feedback-driven cost corrections}

    The closed loop from EXPLAIN ANALYZE back into the optimizer:
    every engine carries a {!Cost.Feedback} correction store (on by
    default, empty until trained). {!analyze} runs a query through
    {!Rdbms.Exec.run_analyzed}, harvests the per-operator
    (est, actual) cardinality pairs into the store, and the next
    cost-based cover search — the "ext" estimator, the SIP gain
    threshold, GDL/EDL candidate ranking — prices reformulations with
    the observed factors instead of the uniformity assumptions.

    Cached cost-based plans carry the correction {e epoch} they were
    costed under. When an {!analyze} run finds a plan whose corrected
    root estimate still drifts past the q-error
    {!default_drift_threshold} {e and} the epoch has advanced, the
    plan-cache entry is dropped ([feedback.plan.reranks]) so the next
    call re-optimises — the paper's ε calibration as a feedback loop.
    Corrections never change answers: any cover's reformulation is
    answer-equivalent, so feedback only moves {e which} equivalent
    plan runs. *)

val feedback_store : engine -> Cost.Feedback.t option
(** The engine's correction store; [None] when feedback is disabled. *)

val set_feedback : engine -> bool -> unit
(** [set_feedback e false] detaches the store (subsequent searches are
    purely static); [set_feedback e true] re-attaches a fresh one if
    none is present (an existing store is kept). *)

val feedback_enabled : engine -> bool

val set_feedback_store : engine -> Cost.Feedback.t option -> unit
(** Attach a specific store — e.g. one rehydrated from disk with
    {!Cost.Feedback.load} ([obda_cli feedback load]). *)

val default_drift_threshold : float
(** [4.0]: the root q-error past which an analyzed cost-based plan is
    considered drifted. *)

type analysis = {
  a_outcome : outcome;  (** exactly what {!answer} would return *)
  a_stats : Rdbms.Exec.node_stats option;
      (** the EXPLAIN ANALYZE tree; [None] when the engine rejected
          the statement (size limit) and nothing ran *)
  a_q_error : float;
      (** root-cardinality q-error of the {e corrected} estimate
          against the observed answer count, priced before this run's
          harvest; [1.0] when nothing ran *)
  a_harvested : int;  (** (est, actual) pairs recorded into the store *)
  a_reranked : bool;
      (** this run invalidated the cached plan for drift: the next
          {!answer}/{!analyze} of this query re-optimises under the
          updated corrections *)
}

val analyze : engine -> Dllite.Tbox.t -> strategy -> Query.Cq.t -> analysis
(** {!answer} through the instrumented executor: the same {!prepare},
    so the same plan cache, SIP annotations and answers — plus the
    harvest and the drift check described above. It is also the
    EXPLAIN ANALYZE path of the CLI, the REPL and the server. This is
    the only path that trains the store; plain {!answer} never pays the
    instrumentation. *)
