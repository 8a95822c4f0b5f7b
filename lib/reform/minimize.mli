(** Fast UCQ minimisation — same result as naive pairwise containment
    minimisation (byte-identical survivor list; the test suite keeps
    the naive loop as its differential oracle), with the quadratic
    containment phase pruned
    by hash-consed canonical-form dedup, predicate/constant/head
    prefilters and a containment memo keyed by union-find
    equivalence-class roots ({!Query.Unionfind}).

    Instruments [reform.dedup_hits], [reform.containment.checks],
    [reform.containment.skipped], [reform.containment.memo_hits] and
    the [reform.minimize_ms] histogram. *)

val rendered_key : Query.Cq.t -> string
(** Kind-aware hash key of a CQ as-is: variables and constants carry
    distinct sigils, so same-named variables and constants never
    collide. Callers hashing modulo renaming canonicalize first (or
    use {!canonical_key}). *)

val canonical_key : Query.Cq.t -> string
(** [rendered_key] of {!Query.Cq.canonicalize}. *)

val minimize_cq : Query.Cq.t -> Query.Cq.t
(** {!Query.Cq.minimize} with an exact skip of atoms whose predicate
    occurs only once in the body (no homomorphism target exists for
    the drop). *)

val minimize : Query.Ucq.t -> Query.Ucq.t

val m_dedup_hits : Obs.Metrics.counter
(** Shared with the PerfectRef fixpoint, which counts its
    canonical-form duplicate suppressions against the same
    [reform.dedup_hits] instrument. *)
