(** CQ-to-UCQ reformulation for DL-LiteR — the pioneering technique of
    Calvanese et al. {e [13]} presented in §2.2 of the paper.

    Two operations are applied exhaustively, to a fixpoint:
    - {e atom specialisation}: backward application of a negation-free
      TBox constraint to one atom (Table 3 forms);
    - {e reduce}: replacing two atoms by their most general unifier.

    The union of the input CQ and of all generated CQs is a FOL
    (in fact UCQ) reformulation of the input w.r.t. the TBox: its
    evaluation over any T-consistent ABox computes the certain
    answers. *)

val specializations : Dllite.Tbox.t -> Query.Cq.t -> int -> Query.Cq.t list
(** [specializations tbox q i] is the list of CQs obtained from [q] by
    applying some applicable TBox constraint backward to the [i]-th
    body atom. Exposed for unit testing. *)

val fixpoint : Dllite.Tbox.t -> Query.Cq.t -> Query.Ucq.t
(** The exhaustive fixpoint, without containment-based minimisation
    (duplicates modulo canonical renaming are removed; every disjunct
    but the first is in canonical form). The input CQ is always the
    first disjunct. Runs on a per-TBox axiom index with a
    hash-consed canonical-form seen-set; observes
    [reform.fixpoint_ms]. *)

val reformulate : Dllite.Tbox.t -> Query.Cq.t -> Query.Ucq.t
(** The production path: {!fixpoint} followed by {!Minimize.minimize}.
    Returns the same UCQ as the textbook fixpoint followed by pairwise
    containment minimisation, measurably faster; the test suite keeps
    that unoptimised pipeline, on a frozen canonical form, as its
    oracle. *)

val reformulate_cached : Dllite.Tbox.t -> Query.Cq.t -> Query.Ucq.t
(** Same as {!reformulate}, with memoisation keyed on
    [Dllite.Tbox.uid] and the rendering of the query — the
    cover-search algorithms reformulate the same fragment queries
    repeatedly. The cache is a bounded, process-wide
    {!Cache.Lru} (default capacity {!default_cache_capacity}). *)

val default_cache_capacity : int

val set_cache_capacity : int -> unit
(** Resizes the reformulation cache; [<= 0] disables it. *)

val cache_stats : unit -> Cache.Lru.stats

val clear_cache : unit -> unit
