(** Pipelined physical operators over column batches.

    An [op] is an {e opened} iterator in the Volcano style, but
    vectorised: [next] yields {!Batch} windows (shared column arrays,
    optionally behind a selection vector) until [None]; [close]
    releases any held inputs (a no-op for every current operator, kept
    for interface fidelity). A scan->index-join->project chain built
    from these operators pipelines batch-at-a-time without
    materialising any intermediate relation.

    Pipeline breakers — hash-join build sides, merge-join sorts,
    [Materialize] fragments — are composed in {!Exec}, which owns the
    cache policy; this module is policy-free. *)

type op = {
  cols : string array;  (** output column names *)
  next : unit -> Batch.t option;
      (** the next non-deterministically sized (but bounded) batch *)
  close : unit -> unit;
}

val of_relation : ?batch_size:int -> Relation.t -> op
(** Streams a materialised relation as contiguous zero-copy windows of
    [batch_size] (default {!Batch.default_size}) rows. *)

val segments_scan :
  ?batch_size:int ->
  ?decoded:int array array ->
  ?tail:int array array ->
  cols:string array ->
  skip:(int -> bool) ->
  Colstore.t array ->
  op
(** Streams segment-aligned compressed columns (one {!Colstore.t} per
    output column) in zero-copy windows of at most [batch_size] rows.
    [skip i] is consulted once per segment {e before} decoding —
    returning [true] (e.g. because a sideways-information-passing
    reducer's key range misses the segment's zone map) drops all of
    segment [i]'s rows at the cost of a single predicate call. Both
    outcomes feed the {!Colstore} scan counters. A surviving segment is
    decoded once, as the scan enters it, and windowed; with [decoded]
    (the stores' full decoded columns, parallel to [stores]) the
    windows are cut from those arrays and nothing is decoded. [tail]
    (column arrays parallel to the stores — a table's pending delta
    rows) streams as one final pseudo-segment after the real ones,
    windowed in place, with [skip] consulted for it at index
    [Colstore.seg_count]; when absent or empty the scan is exactly the
    segments. *)

val to_relation : op -> Relation.t
(** Drains (and closes) an operator into a relation. A single whole
    batch adopts its backing arrays; otherwise the output columns are
    allocated exactly once at the drained size. *)

val project : op -> [ `Col of string | `Const of int ] list -> op
(** Pipelined projection. Without constants this is a per-batch column
    permutation sharing row data; constants force per-batch
    compaction. Constant columns are named positionally ([_const0],
    [_const1], ...) matching {!Plan.out_cols}. *)

val distinct : op -> op
(** Incremental duplicate elimination: a seen-set persists across
    batches and each batch shrinks to the selection vector of its
    first-occurrence rows — the input is never materialised. *)

val union : cols:string list -> op list -> op
(** Sequential concatenation of same-arity arms (validated up front),
    relabelling batches positionally to [cols]. *)

val union_delayed : cols:string list -> (unit -> op) list -> op
(** Like {!union}, but each arm is opened only when the previous arm
    is exhausted (arity checked as it opens). The sequential executor
    compiles union arms through this so that one arm's intermediates
    (build tables, materialised scans) are dropped before the next
    arm's are constructed — with hundreds of reformulated arms, eager
    opening keeps them all live at once and promotes them wholesale to
    the major heap. *)

val sip_filter : op -> col:string -> reducer:Sip.t -> tally:(int -> unit) -> op
(** Sideways-information-passing filter: keeps only the rows whose
    value in [col] may be in the reducer (selection-vector based,
    zero-copy). [tally] is called with the number of rows pruned from
    each batch — it feeds the [sip.rows_pruned] metric and the
    per-node EXPLAIN ANALYZE counter. *)

val probe :
  ?rename:(string -> string) ->
  op ->
  build:Relation.build_table ->
  on:string list ->
  op
(** Batch-at-a-time hash probe against a prebuilt (possibly cached)
    build table. Output columns: the input's, then the build side's
    non-join columns mapped through [rename]. Each input batch yields
    at most one exactly-sized output batch (empty ones are skipped).
    An {e empty} build table short-circuits: the probe subtree is
    never drained, only closed on the first pull. *)

val hash_join : op -> Relation.t -> on:string list -> op
(** [probe] after building the right side. *)

val index_join :
  ?keep:(int -> bool) * (int -> unit) ->
  lookup:(int -> int array) ->
  dict_find:(string -> int option) ->
  op ->
  Query.Atom.t ->
  string ->
  op
(** Index nested loop over a role atom: every row of each input batch
    probes [lookup] with its [probe_col] value, which returns the codes
    on the role's other side, sorted ascending ({!Layout.role_matches});
    membership tests binary-search them. A constant /
    bound-variable / self-loop opposite term filters the batch
    (selection vector); a fresh variable extends it with one new column
    (compact batches). With [keep = (pred, tally)], a matched code
    failing [pred] is dropped before its row is expanded, and [tally]
    receives each batch's count of dropped codes — the fused form of a
    {!sip_filter} on the new column. *)
