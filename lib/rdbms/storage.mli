(** The {e simple layout} of §6.1: one unary table per concept, one
    binary table per role, dictionary-encoded, deduplicated, with
    per-table statistics and hash indexes on each attribute.

    Every table is its sorted, duplicate-free [int] arrays, plus a
    small tail of pending inserts. Hash indexes and histograms are
    built lazily per table snapshot. A store can be persisted to a
    versioned binary file of compressed segments and read back — see
    {!save} and {!load}; segments exist only in the file. *)

type table_stats = {
  card : int;  (** number of (distinct) rows *)
  ndv : int array;  (** number of distinct values per attribute *)
}

type t

val of_abox : Dllite.Abox.t -> t
(** Load an ABox: dictionary-encode, sort, deduplicate (one in-place
    pass per column) and gather stats. *)

val dict : t -> Dllite.Dict.t
(** The dictionary mapping individual names to integer codes. *)

val concept_names : t -> string list
(** Concepts with at least one stored member. *)

val role_names : t -> string list
(** Roles with at least one stored pair. *)

val concept_rows : t -> string -> int array
(** Sorted, duplicate-free members of the concept ([||] if absent):
    the table's own array, or its lazily merged view while inserts are
    pending. Callers must not mutate it. *)

val role_rows : t -> string -> (int * int) array
(** Duplicate-free pairs of the role, sorted by (subject, object); a
    fresh array built from {!role_cols} (for tests and row-at-a-time
    reference code, not hot paths). *)

val role_cols : t -> string -> int array * int array
(** The role's (subjects, objects) as two column arrays, sorted by
    (subject, object): the table's own arrays, or their merged view
    while inserts are pending (built lazily once per table snapshot,
    safe to race from concurrent queries, replaced by
    {!insert_role}). Scan operators alias the arrays; callers must not
    mutate them. *)

val concept_stats : t -> string -> table_stats
(** Cardinality and distinct counts of a concept table. *)

val role_stats : t -> string -> table_stats
(** Cardinality and per-attribute distinct counts of a role table. *)

val role_matches : t -> string -> [ `Subject | `Object ] -> int -> int array
(** Index access: [role_matches t role side] resolves the role's index
    on [side] once; applied to a code, it returns the codes on the
    other side of the pairs whose [side] column holds that code, sorted
    ascending. The array is the index's own bucket — no per-lookup
    allocation; callers must not mutate it. The index (a packed
    {!Keytab} over codes) is built lazily on first use, safe to race
    from concurrent queries. Resolve per operator, not per row: an
    insert into the role may publish a new index. *)

val concept_mem : t -> string -> int -> bool
(** Index access: membership of an individual in a concept. *)

val total_facts : t -> int
(** Total stored facts across all tables. *)

val uid : t -> int
(** A process-unique stamp assigned when the store is built or
    loaded. *)

val empty_epoch : t -> int
(** Starts at [0] and advances on every insert that puts the first row
    into an empty (or absent) table — exactly when the set of empty
    predicates shrinks. Inserts into non-empty tables leave it
    unchanged. *)

val warm : t -> int
(** Forces every lazily-built hash index (concept member sets, role
    subject/object indexes) and every merged view of a pending tail,
    so that no query pays first-touch cost. {!load} already decodes
    every table; the indexes are built on first use, which makes the
    first timed query after open misleadingly slow. Returns the number
    of tables warmed. Safe to call concurrently with readers (the
    indexes are CAS-published). *)

val individual_count : t -> int
(** Number of distinct individuals in the dictionary. *)

val role_code_absent : t -> string -> [ `Subject | `Object ] -> int -> bool
(** [true] when the code provably does not occur in the role's
    [side] column: it lies outside the column's [min, max] and is not
    in the pending delta tail. [true] for an absent role. *)

(** {2 Delta tails}

    Inserts do not rebuild a table's arrays: they go into a small
    per-table tail, kept in the table's sort order and disjoint from
    the arrays by construction (duplicates are rejected at insert time
    against the hash indexes). Row views and indexes always present
    the merged table. Once a tail reaches {!delta_rows} entries the
    table is compacted: the merged view becomes its arrays. *)

val default_delta_rows : int

val delta_rows : t -> int
(** The per-table tail length that triggers a compaction (default
    {!default_delta_rows}). *)

val set_delta_rows : t -> int -> unit
(** Sets the compaction trigger (clamped to at least 1). Lowering it
    does not retroactively compact; call {!compact}. *)

val touched_predicates : t -> string list
(** Sorted names of the tables currently holding a non-empty delta
    tail — the predicates whose arrays do not yet hold every stored
    fact. *)

val delta_fact_count : t -> int
(** Total pending tail rows across all tables. *)

val compact : t -> unit
(** Makes every table's merged view (a linear merge per touched table,
    no full re-sort) its arrays and empties the tails. Not concurrent
    with query evaluation, like [insert_*]. *)

val column_bytes : t -> int
(** What the encoded columns take in the file {!save} would write:
    segment payload words plus per-segment and per-column directory
    bytes, computed by the writer's own sizing code. *)

val flat_bytes : t -> int
(** What the same values occupy as flat 8-byte-per-value arrays, the
    in-memory form — the baseline {!column_bytes} compresses. *)

(** {2 Incremental maintenance}

    Insertions keep tables deduplicated and update the live hash
    indexes and statistics in place, so a loaded database absorbs new
    facts without a reload. An accepted insert costs a hash-index
    duplicate probe (the index is forced on first insert, then
    maintained), a sorted splice into the delta tail (at most
    {!delta_rows} rows), and lazy invalidation of the merged view —
    never a per-fact table rebuild. Index buckets
    are maintained in sorted (subject, object) position, so an
    incrementally-grown store and one built from scratch on the final
    facts expose identical indexes, bucket order included. *)

val insert_concept : t -> concept:string -> ind:string -> bool
(** Asserts [concept(ind)]; returns [false] when the fact was already
    present. *)

val insert_role : t -> role:string -> subj:string -> obj:string -> bool
(** Asserts [role(subj, obj)]; returns [false] when already present. *)

val role_histogram : t -> string -> [ `Subject | `Object ] -> Histogram.t option
(** The equi-depth histogram of a role column, built lazily and
    invalidated by insertions; [None] for an absent role. *)

(** {2 Streaming builder}

    Ingest facts one at a time without materializing an intermediate
    {!Dllite.Abox.t}: assertions stream into growable unboxed buffers
    and [finish] sorts and deduplicates each table once.
    This is how the LUBM generator reaches tens of millions of facts
    without holding the row-form ABox in memory. *)

module Builder : sig
  type b

  val create : unit -> b

  val add_concept : b -> concept:string -> ind:string -> unit

  val add_role : b -> role:string -> subj:string -> obj:string -> unit

  val assertion_count : b -> int
  (** Assertions streamed in so far (duplicates included — the same
      accounting as {!Dllite.Abox.size}). *)

  val finish : b -> t
end

(** {2 Binary persistence}

    A versioned little-endian on-disk format ([OBDACOL1]): header,
    dictionary and per-table directory up front, then a page-aligned
    payload of compressed segments — runs of 65,536 rows per column,
    frame-of-reference encoded and bit-packed ({!Segment}). {!save}
    encodes every table and {!load} decodes every table, O(rows) each
    way. *)

val save : t -> string -> unit
(** Writes the store to [file], through a temporary file beside it
    that is renamed over [file], so a crash mid-save leaves either the
    old file or the new one. Pending delta tails are {!compact}ed
    first, so saving never drops an inserted fact. *)

val load : string -> (t, string) result
(** Reads a saved store, in any segment size a file header names. Any
    structural violation — bad magic, wrong version, truncation,
    out-of-range offsets, lengths, widths or codes, tables not sorted
    and duplicate-free — yields [Error], never a crash. *)

val load_exn : string -> t
(** {!load}, raising [Failure] on error. *)
