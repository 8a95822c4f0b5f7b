(** Cost estimation sources ε for the cover search (§5.3): either the
    target RDBMS's own estimation (the paper's [explain] / [db2expln]
    route) or the external textbook cost model (§6.1's "ext"). *)

type t = {
  name : string;  (** ["rdbms"] or ["ext"] *)
  estimate : Query.Fol.t -> float;
      (** estimated evaluation cost of a reformulation *)
}

val rdbms : Rdbms.Explain.profile -> Rdbms.Layout.t -> t
(** Plans the reformulation and prices it with the engine's native
    estimator, including its quirks (sampling shortcuts, repeated-scan
    discounts). Feedback corrections calibrate {e our} external model,
    not the engine's black box, so none apply here. *)

val ext : ?feedback:Cost.Feedback.t -> Cost.Cost_model.t -> Rdbms.Layout.t -> t
(** The external cost model over the same statistics. With [feedback],
    every estimate consults that {!Cost.Feedback} correction store
    through {!Cost.Cost_model.fol_cost}, so it reflects observed
    cardinalities. *)
