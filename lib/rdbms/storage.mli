(** The {e simple layout} of §6.1: one unary table per concept, one
    binary table per role, dictionary-encoded, deduplicated, with
    per-table statistics and hash indexes on each attribute.

    Since PR 6 the ground truth of every table is a compressed
    segmented column ({!Colstore}): frame-of-reference + bit-packed
    runs with per-segment zone maps. Flat arrays, hash indexes and
    histograms are decoded views, built lazily per table snapshot.
    A store can be persisted to a versioned binary file and reopened
    by mmap in O(segments) — see {!save} and {!load}. *)

type table_stats = {
  card : int;  (** number of (distinct) rows *)
  ndv : int array;  (** number of distinct values per attribute *)
}

type t

val of_abox : ?segment_rows:int -> Dllite.Abox.t -> t
(** Load an ABox: dictionary-encode, sort, deduplicate (one in-place
    pass per column), gather stats, and compress into segments of
    [segment_rows] rows (default {!Colstore.default_segment_rows}). *)

val dict : t -> Dllite.Dict.t
(** The dictionary mapping individual names to integer codes. *)

val concept_names : t -> string list
(** Concepts with at least one stored member. *)

val role_names : t -> string list
(** Roles with at least one stored pair. *)

val concept_rows : t -> string -> int array
(** Sorted, duplicate-free members of the concept ([||] if absent).
    Decoded lazily from the segments; callers must not mutate. *)

val role_rows : t -> string -> (int * int) array
(** Duplicate-free pairs of the role, sorted by (subject, object); a
    fresh array built from {!role_cols} (for tests and row-at-a-time
    reference code, not hot paths). *)

val role_cols : t -> string -> int array * int array
(** The role's (subjects, objects) as two column arrays — the decoded
    columnar projection of the stored segments, built lazily once per
    table snapshot (safe to race from parallel plan arms, replaced by
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
    from parallel plan arms. Resolve per operator, not per row: an
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
(** Forces every lazily-decoded column array and lazily-built hash
    index (concept member sets, role subject/object indexes) so that
    no query pays first-touch decoding cost. A store reopened with
    {!load} is {e cold}: segments are mmapped but nothing is decoded
    until a scan or index probe needs it, which makes the first timed
    query after open misleadingly slow. Returns the number of tables
    warmed. Safe to call concurrently with readers (the indexes are
    CAS-published). *)

val individual_count : t -> int
(** Number of distinct individuals in the dictionary. *)

(** {2 Segment access}

    Direct access to the compressed columns, for zone-map-pruned scan
    operators and segment-aware cardinality estimation. *)

val concept_col : t -> string -> Colstore.t option
(** The concept's compressed (sorted) member column. *)

val role_colstores : t -> string -> (Colstore.t * Colstore.t) option
(** The role's compressed (subject, object) columns; segment-aligned,
    so segment [i] of both covers the same row range. *)

val concept_decoded : t -> string -> int array option
(** The concept's decoded member array, only when it is already built
    and the table has no pending tail — then it is exactly the
    segments' decode, concatenated, and a segment scan can window it
    instead of decoding. *)

val role_decoded : t -> string -> (int array * int array) option
(** {!concept_decoded} for a role's (subject, object) columns. *)

val role_eq_zone_rows : t -> string -> [ `Subject | `Object ] -> int -> int option
(** Zone-map upper estimate of the rows whose [side] column equals a
    code ({!Colstore.eq_rows_est}), plus the exact count of matching
    rows in the pending delta tail; [Some 0] means the code provably
    does not occur, [None] an absent role. *)

(** {2 Delta tails}

    Inserts do not rebuild segments: they append to a small unsorted
    per-table tail, disjoint from the encoded segments by construction
    (duplicates are rejected at insert time against the hash indexes).
    Decoded views and indexes always present the merged table; scan
    operators that stream raw segments must additionally read the tail
    ({!concept_tail} / {!role_tail}) as a final mini-segment. Once a
    tail reaches {!delta_rows} entries the table is compacted back
    into proper FOR/bit-packed segments. *)

val default_delta_rows : int

val delta_rows : t -> int
(** The per-table tail length that triggers a compaction (default
    {!default_delta_rows}). *)

val set_delta_rows : t -> int -> unit
(** Sets the compaction trigger (clamped to at least 1). Lowering it
    does not retroactively compact; call {!compact}. *)

val concept_tail : t -> string -> int array
(** The concept's pending (unsorted, duplicate-free) inserted codes —
    rows present in no segment yet. A fresh copy; [[||]] when none. *)

val role_tail : t -> string -> int array * int array
(** The role's pending inserted (subjects, objects), parallel arrays in
    insertion order. Fresh copies; [([||], [||])] when none. *)

val touched_predicates : t -> string list
(** Sorted names of the tables currently holding a non-empty delta
    tail — the predicates whose segment set does not yet reflect every
    stored fact. *)

val delta_fact_count : t -> int
(** Total pending tail rows across all tables. *)

val compact : t -> unit
(** Merges every pending tail into freshly encoded segments (a linear
    merge per touched table, no full re-sort) and empties the tails.
    Not concurrent with query evaluation, like [insert_*]. *)

val column_bytes : t -> int
(** Encoded footprint of all stored columns (segment payload words
    plus per-segment metadata). *)

val flat_bytes : t -> int
(** What the same values would occupy as flat 8-byte-per-value arrays
    — the PR 5 representation, kept as the compression baseline. *)

(** {2 Incremental maintenance}

    Insertions keep tables deduplicated and update the live hash
    indexes and statistics in place, so a loaded database absorbs new
    facts without a reload. An accepted insert is O(1) amortised: a
    hash-index duplicate probe (the index is forced on first insert,
    then maintained), a delta-tail push, and lazy invalidation of the
    decoded views — never a per-fact segment rebuild. Index buckets
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
    and [finish] sorts, deduplicates and compresses each column once.
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

  val finish : ?segment_rows:int -> b -> t
end

(** {2 Binary persistence}

    A versioned little-endian on-disk format ([OBDACOL1]): header,
    dictionary and per-table directory with zone maps up front, then a
    page-aligned payload of raw segment words. {!load} parses the
    small front matter, maps the payload with [Unix.map_file], and
    slices every segment out of the mapping zero-copy — opening a
    store is O(dictionary + segments), not O(rows). *)

val save : t -> string -> unit
(** Writes the store to [file] (overwriting it). Pending delta tails
    are {!compact}ed first — the format stores only encoded segments,
    so saving never drops an inserted fact. *)

val load : string -> (t, string) result
(** Opens a saved store. Any structural violation — bad magic, wrong
    version, truncation, out-of-range codes or offsets — yields
    [Error], never a crash. *)

val load_exn : string -> t
(** {!load}, raising [Failure] on error. *)
