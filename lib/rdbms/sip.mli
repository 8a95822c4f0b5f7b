(** Semijoin reducers for sideways information passing: an immutable,
    compact summary of the join-key values on one side of a join,
    pushed sideways into the other side's subtree by {!Exec} so scans
    and union arms drop rows that cannot survive the join.

    Representation is chosen by the dictionary domain size: an exact
    bitvector over dictionary codes when the domain is small, a Bloom
    filter (k = 3, ~10 bits/key) above the threshold. A Bloom filter
    may report false positives but never false negatives, so pruning
    rows with [not (mem r v)] is always sound. Reducers are never
    mutated after construction — sharing one across union arms needs
    no copying. *)

type t

val of_array : domain:int -> int array -> t
(** [of_array ~domain keys] summarises the key multiset. [domain] is
    the dictionary size (codes are in [0, domain)); it selects the
    representation. *)

val of_iter : domain:int -> count:int -> ((int -> unit) -> unit) -> t
(** [of_iter ~domain ~count iter] builds from a key producer without an
    intermediate array: [iter f] calls [f] once per key (duplicates
    fine); [count] bounds the number of calls (Bloom sizing). *)

val bitset_of_array : domain:int -> int array -> t
(** Forces the exact bitvector representation (tests). *)

val bloom_of_array : int array -> t
(** Forces the Bloom representation (tests). *)

val mem : t -> int -> bool
(** Whether the key may be present. Exact for a bitset; one-sided for
    a Bloom filter (no false negatives). *)

val intersects : t -> int array -> bool
(** Whether any value of the column may be in the reducer — the union
    arm elision test. Early-exits on the first (possible) member;
    [false] proves the filtered column empty. *)

val is_empty : t -> bool
(** No key was inserted: everything is pruned. *)

val key_count : t -> int
(** Distinct keys (bitset) or insertions (Bloom, an upper bound). *)

val kind_name : t -> string
(** ["bitset"] or ["bloom"] — surfaced by EXPLAIN ANALYZE. *)

val id : t -> int
(** Process-unique identity, keying the executor's per-run
    arm-emptiness memo. *)

val range : t -> (int * int) option
(** The exact [min, max] of the inserted keys; [None] when empty.
    Exact for both representations (tracked from the insert stream,
    not read off the filter bits), so it is a sound necessary
    condition: a storage segment whose zone map does not overlap the
    range cannot contain any reducer key. *)

val overlaps_range : t -> lo:int -> hi:int -> bool
(** Whether any inserted key may lie in [[lo, hi]] — the zone-map
    pruning test. [false] proves no key of the reducer is in the
    interval (and thus a segment with that zone map can be skipped
    without decoding). *)
