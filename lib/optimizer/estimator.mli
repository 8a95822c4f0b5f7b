(** Cost estimation sources ε for the cover search (§5.3): either the
    target RDBMS's own estimation (the paper's [explain] / [db2expln]
    route) or the external textbook cost model (§6.1's "ext"). *)

type pricing
(** How {!score} prices a cover: the whole reformulation at once, or
    fragment by fragment through {!Cost.Cost_model.node}. *)

type t = private {
  name : string;  (** ["rdbms"] or ["ext"] *)
  estimate : Query.Fol.t -> float;
      (** estimated evaluation cost of a reformulation *)
  pricing : pricing;
  layout : Rdbms.Layout.t;  (** the store whose statistics it reads *)
}

val rdbms : Rdbms.Explain.profile -> Rdbms.Layout.t -> t
(** Plans the reformulation and prices it with the engine's native
    estimator, including its quirks (sampling shortcuts, repeated-scan
    discounts). Feedback corrections calibrate {e our} external model,
    not the engine's black box, so none apply here. *)

val ext : ?feedback:Cost.Feedback.t -> Cost.Cost_model.t -> Rdbms.Layout.t -> t
(** The external cost model over the same statistics, one bottom-up
    {!Cost.Cost_model.node} pass per estimate. With [feedback], every
    estimate consults that {!Cost.Feedback} correction store, so it
    reflects observed cardinalities. *)

(** {2 Scoring the covers of one search}

    A search scores many covers that share most of their fragments.
    A search scope memoises, per distinct fragment query, its
    reformulation and (under "ext") its {!Cost.Cost_model.node}
    summary, so a candidate pays only for its new fragments plus the
    join of its parts.

    Fragments are reformulated data-aware: the scope reads the layout's
    {!emptiness} snapshot once, and PerfectRef never generates,
    minimises or prices an arm with an atom over an empty predicate.
    Every score equals, bit for bit, [estimate] of the join (as
    {!Covers.Reformulate.join}) of the cover's unpruned fragment UCQs
    ({!Covers.Reformulate.of_generalized}'s leaves) with those arms
    filtered out, each leaf falling back to its minimised fragment query
    alone when no arm is left. Such a reformulation returns the same
    answers as the unpruned one on the data the snapshot describes.

    A scope lives for one search and no longer: the statistics, the
    emptiness snapshot and the feedback store it reads may change
    between searches (inserts, EXPLAIN ANALYZE harvests), and a new
    scope sees the change. The feedback store is read as of
    {!open_search}: an untrained store counts as none for the whole
    search.

    {b Instruments} (registry {!Obs.Metrics}): [cost.leaves.estimated]
    (distinct fragments reformulated and summarised) and
    [cost.leaves.reused] (fragments served from the memo instead). *)

val emptiness : Dllite.Tbox.t -> Rdbms.Layout.t -> Reform.Emptiness.t
(** The TBox names with no stored fact in the layout (a name is empty
    when it holds neither a concept nor a role fact). Computed once per
    (TBox, store, {!Rdbms.Layout.empty_epoch}) and shared. *)

type search

val open_search : t -> Dllite.Tbox.t -> Query.Cq.t -> search
(** A fresh scope for covers of the given query. *)

type scored = {
  cost : float;  (** the ε estimate of the cover's reformulation *)
  reformulation : Query.Fol.t;
  reform_time : float;
      (** seconds spent reformulating new fragments and joining the
          parts *)
  cost_time : float;  (** seconds spent in the estimator alone *)
}

val score : search -> Covers.Generalized.t -> scored
(** Reformulates and prices one cover. Safe to call from several
    domains at once (the memo is locked); the result does not depend
    on the interleaving. [Invalid_argument] for a cover of another
    query than the scope's. *)
