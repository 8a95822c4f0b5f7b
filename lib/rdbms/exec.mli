(** Plan execution on the columnar batch engine: {!Plan} trees compile
    to pipelined {!Physical} operators over {!Batch} column windows, so
    scan->index-join->project chains never materialise intermediates,
    hash joins build once from columns and probe batch-at-a-time, and
    [Distinct] dedupes incrementally. The pipeline breakers are hash
    builds and merge-join sorts; the arms of a [Union] stream one
    after the other. A [Materialize] node marks a fragment boundary
    and compiles to its input: it breaks the pipeline only where a
    hash build or merge sort above it does. (The pre-columnar
    row-at-a-time engine survives in the test suite as the reference
    for differential tests.)

    The configuration models the engine-level runtime
    differences §6 of the paper observes between Postgres and DB2:
    DB2's buffer-locality optimisations for repeated scans ([21]) are
    modelled by caching scan results and join build tables across the
    arms of one query, which benefits exactly the large reformulated
    unions that re-read the same tables hundreds of times.

    Evaluation is sequential: one run is one thread. The scan/build
    caches are shared across the arms of one run (bounded
    {!Cache.Lru} instances, internally locked), and the counters may
    be shared by runs on different threads. *)

type config = {
  scan_cache : bool;  (** share identical atom scans within one query *)
  build_cache : bool;
      (** share hash-join build tables over identical base scans *)
}

val postgres_like : config
(** No sharing: every arm rescans and rebuilds. *)

val db2_like : config
(** Scan and build sharing. *)

type counters = {
  scans : int Atomic.t;  (** scans actually performed *)
  scan_hits : int Atomic.t;  (** scans served from cache *)
  builds : int Atomic.t;
  build_hits : int Atomic.t;
}
(** Atomic so runs on different threads may share one record. Each
    scan (resp. build) request increments exactly one of the pair, so
    [scans + scan_hits] equals the number of requests. A build-table
    miss reads its canonical scan without a scan request, so the
    totals are fixed by plan and data. *)

val default_run_cache_capacity : int

val set_run_cache_capacity : int -> unit
(** Bounds the per-run scan and build-table caches of subsequent
    {!run} calls (default {!default_run_cache_capacity}, generous
    enough that all arms of one reformulated union share; [<= 0]
    disables sharing entirely). *)

val run :
  ?config:config ->
  ?counters:counters ->
  Layout.t ->
  Plan.t ->
  Relation.t
(** Evaluates the plan and returns the result relation. *)

(** {2 Instrumented (EXPLAIN ANALYZE) execution} *)

(** What a node's scan or build-table access found in its cache.
    [Uncached] covers operators with no cache in play (joins over
    non-scan build sides, scans under the [postgres_like] config,
    RDF-layout role scans, and every [Materialize], [Project],
    [Distinct] and [Union] node). *)
type cache_outcome =
  | Hit
  | Miss
  | Uncached

type node_stats = {
  plan : Plan.t;  (** the operator this node instruments *)
  actual_rows : int;  (** output cardinality actually produced *)
  elapsed_ns : int64;  (** monotonic wall-clock, inclusive of children *)
  cache : cache_outcome;
  sip_pruned : int;
      (** rows dropped at this node by sideways reducer filters
          ({!Plan.Sip}); 0 when no reducer touched it *)
  sip_elided : int;
      (** union arms this node proved empty under a reducer and never
          opened *)
  sip_reducer : string option;
      (** the kind of reducer an annotated join built ([bitset] or
          [bloom]); [None] on unannotated nodes *)
  children : node_stats list;
      (** in plan order. A hash join whose build side is a cached base
          scan folds the build into the join node: it has one child
          (the probe side) and carries the build's cache outcome. An
          empty build side elides the probe child entirely. *)
}
(** Per-operator runtime statistics, mirroring the plan tree. Produced
    by {!run_analyzed}, rendered against the cost-model estimates by
    {!Explain.render_analyze}. *)

val run_analyzed :
  ?config:config ->
  ?counters:counters ->
  Layout.t ->
  Plan.t ->
  Relation.t * node_stats
(** Like {!run}, but also records per-operator actual cardinalities,
    cache outcomes and monotonic timings. {!run} and [run_analyzed]
    are one plan compiler under two instrumentation hooks, so they
    share every cache, counter and code path, and the returned
    relation is identical to [run]'s. An instrumented union opens all
    its arms up front, where {!run} opens them one at a time. *)

val answers :
  ?config:config ->
  Layout.t ->
  Plan.t ->
  string list list
(** Runs the plan and decodes the rows through the dictionary; sorted,
    duplicate-free. *)

val decode_rows : Layout.t -> Relation.t -> string list list
(** Decodes a result relation through the layout's dictionary; sorted,
    duplicate-free (the answer-shaping step of {!answers}, shared with
    the test suite's row-engine reference). One pass over the columns through a lock-free
    {!Dllite.Dict.decoder} snapshot, then one sort that also
    deduplicates, so the relation needs no {!Relation.distinct}
    first. *)

val fresh_counters : unit -> counters

val scan_signature : Query.Atom.t -> string
(** Variable-name-independent signature of an atom access — the key of
    the scan and build caches, also used by the cost estimators to
    recognise repeated scans. *)
