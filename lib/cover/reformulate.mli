(** Cover-based reformulation (Definition 3, Theorems 1 and 3):
    reformulate every fragment query independently and join the
    results. With CQ-to-UCQ fragment reformulation the result is a
    JUCQ; with CQ-to-USCQ it is a JUSCQ. *)

type fragment_language =
  | Ucq_fragments  (** reformulate each fragment into a UCQ (JUCQ) *)
  | Uscq_fragments  (** reformulate each fragment into a USCQ (JUSCQ) *)

val ucq : Dllite.Tbox.t -> Query.Cq.t -> Query.Fol.t
(** The plain (single-fragment) UCQ reformulation, as a FOL query. *)

val of_cover :
  ?language:fragment_language -> ?jobs:int -> Dllite.Tbox.t -> Cover.t -> Query.Fol.t
(** The cover-based reformulation of the cover's query: a join of the
    reformulated fragment queries, projected on the query head. When
    the cover is safe, this is a FOL reformulation (Theorem 1); the
    function does not check safety — unsafe covers produce a FOL query
    that may miss answers (Example 7), which the test-suite exercises
    deliberately. *)

val of_generalized : ?jobs:int -> Dllite.Tbox.t -> Generalized.t -> Query.Fol.t
(** The generalized cover-based reformulation (Theorem 3), with every
    fragment reformulated into a UCQ (a JUCQ). [jobs]
    bounds the per-fragment reformulation fan-out on the {!Parallel}
    pool (default {!Parallel.default_jobs}; order-preserving, so the
    result never depends on it). *)

val fragment : ?data:Reform.Emptiness.t -> Dllite.Tbox.t -> Query.Cq.t -> Query.Fol.t
(** One fragment query reformulated into a UCQ leaf (PerfectRef,
    through its shared cache): the per-fragment step of
    {!of_generalized}. With [data], PerfectRef prunes the arms over
    empty predicates ({!Reform.Perfectref.reformulate}); the cost-based
    cover searches pass their snapshot here. *)

val join : Query.Cq.t -> Query.Fol.t list -> Query.Fol.t
(** [join q parts] combines reformulated fragments of [q] exactly as
    {!of_generalized} does: a single part already projected on [q]'s
    head is returned as is (physically), otherwise the parts are joined
    on [q]'s head. *)
