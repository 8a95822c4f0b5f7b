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

val fixpoint : ?data:Emptiness.t -> Dllite.Tbox.t -> Query.Cq.t -> Query.Ucq.t
(** The exhaustive fixpoint, without containment-based minimisation
    (duplicates modulo canonical renaming are removed; every disjunct
    but the input CQ is in canonical form). Without pruning, the input
    CQ is always the first disjunct. Runs on a per-TBox axiom index with a
    hash-consed canonical-form seen-set; observes
    [reform.fixpoint_ms].

    With a [data] snapshot that {!Emptiness.prunes}, the result is
    exactly the unpruned fixpoint with every disjunct that has an atom
    over an empty predicate removed, in the same order — or the input
    CQ alone when no disjunct is left. The loop never builds the CQs
    over hopeless predicates; the dropped ones are counted in
    [reform.cq.pruned]. [Invalid_argument] for a snapshot of another
    TBox. *)

val reformulate : ?data:Emptiness.t -> Dllite.Tbox.t -> Query.Cq.t -> Query.Ucq.t
(** The production path: {!fixpoint} followed by {!Minimize.minimize}.
    Without [data], returns the same UCQ as the textbook fixpoint
    followed by pairwise containment minimisation, measurably faster;
    the test suite keeps that unoptimised pipeline, on a frozen
    canonical form, as its oracle. With [data], the result is that UCQ
    with every disjunct over an empty predicate removed (containment
    minimisation commutes with the filter), or the minimised input CQ
    alone when none is left. *)

val reformulate_cached : ?data:Emptiness.t -> Dllite.Tbox.t -> Query.Cq.t -> Query.Ucq.t
(** Same as {!reformulate}, with memoisation keyed on
    [Dllite.Tbox.uid], the snapshot's {!Emptiness.digest} and the
    rendering of the query — the cover-search algorithms reformulate
    the same fragment queries repeatedly. The cache is a bounded,
    process-wide {!Cache.Lru} (default capacity
    {!default_cache_capacity}). *)

val default_cache_capacity : int

val set_cache_capacity : int -> unit
(** Resizes the reformulation cache; [<= 0] disables it. *)

val cache_stats : unit -> Cache.Lru.stats

val clear_cache : unit -> unit
