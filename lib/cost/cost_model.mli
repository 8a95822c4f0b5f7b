(** The external ("ext") cost estimation of §6.1: textbook formulas
    over table statistics (cardinalities and per-attribute distinct
    counts), under the uniform-distribution and independent-predicates
    assumptions. Joins are assumed linear in their input sizes (hash
    joins); data access compares the applicable indexes. Unlike the
    engines' native estimators it treats queries of all sizes
    uniformly — no sampling shortcut — which is why it beats Postgres'
    estimation on the very large reformulations of Q9–Q11 (§6.3). *)

type t = {
  c_access : float;  (** per row retrieved from a base table *)
  c_join : float;  (** per input row of a (linear-time) join *)
  c_out : float;  (** per output row of any operator *)
  c_distinct : float;  (** per row of duplicate elimination *)
  c_mat : float;  (** per materialised row (WITH fragments) *)
}

val default : t

val calibrated : [ `Pglite | `Db2lite ] -> t
(** Constants empirically calibrated per target engine, as the paper
    calibrates its Java cost model for Postgres and DB2. *)

(** {2 Estimates}

    One bottom-up pass prices a FOL reformulation: every node is
    summarised once, from its children's summaries, into its estimated
    answer rows and its evaluation cost. Each arm (CQ) estimates each
    of its atoms once and shares the estimates between the join order,
    the cost fold and the row fold. How rows combine — the body fold,
    the union sum, the fragment-join minimum and the fragment order —
    is {!Rdbms.Estimate}'s; this module adds the access and per-row
    cost constants and the cross-product rows of a disconnected
    fragment join.

    With [?feedback], every cardinality the formulas consume — atom
    accesses, join-fold prefixes, fragment unions, whole-node outputs —
    is corrected by the store's observed factors ({!Feedback}); without
    it (or while the store has no trained key) this is the paper's
    purely static "ext" model. *)

type node = {
  rows : float;  (** estimated answer rows (corrected under feedback) *)
  raw_rows : float;
      (** the uncorrected static estimate of the same rows: the base a
          whole-node correction of an ancestor scales *)
  cost : float;
      (** estimated evaluation cost, including fragment
          materialisation, the joins and duplicate elimination *)
}

val node : ?feedback:Feedback.t -> t -> Rdbms.Layout.t -> Query.Fol.t -> node
(** The summary of a reformulation's root. *)

val join : ?feedback:Feedback.t -> t -> Query.Fol.t -> node list -> node
(** [join model fol parts] summarises a [Join] node from the summaries
    of its parts, in order — the same value {!node} computes, without
    revisiting the parts. This is how a cover search prices a candidate
    whose fragments it has already summarised. [Invalid_argument] when
    [fol] is not a [Join]. *)

val note_leaf : reused:bool -> unit
(** Bumps [cost.leaves.reused] or [cost.leaves.estimated]: a cover
    search's scope ([Optimizer.Estimator.open_search]) reports whether
    a scored fragment came from its memo or was reformulated and
    summarised afresh. *)
