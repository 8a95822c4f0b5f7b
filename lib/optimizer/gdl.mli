(** GDL — Greedy Cover search for DL-LiteR (Algorithm 1 of the paper).

    Starting from the root cover, the search repeatedly applies the
    best cost-improving move among:
    - {e union} two fragments (coarsen the safe cover);
    - {e enlarge} one fragment with a connected atom (semijoin
      reducer, moving into the generalized space [Gq]).

    It stops when no move improves the estimated cost of the current
    cover's reformulation, or when the optional time budget runs out
    (the {e time-limited GDL} of §6.4). *)

type result = {
  cover : Covers.Generalized.t;  (** best cover found *)
  reformulation : Query.Fol.t;
  est_cost : float;
  explored_simple : int;  (** distinct simple ([Lq]) covers estimated *)
  explored_total : int;  (** distinct covers estimated, incl. generalized *)
  moves : int;  (** moves applied *)
  search_time : float;  (** seconds, including cost estimation *)
  cost_time : float;  (** seconds spent in the estimator alone *)
  reform_time : float;
      (** seconds spent reformulating fragments and joining them *)
  timed_out : bool;
}

val search :
  ?time_budget:float ->
  ?space:[ `Gq | `Lq ] ->
  ?jobs:int ->
  Dllite.Tbox.t ->
  Estimator.t ->
  Query.Cq.t ->
  result
(** [search tbox estimator q] returns the greedy-optimal cover and its
    reformulation. [time_budget] (seconds) bounds the search as in the
    time-limited GDL experiment (e.g. [0.02] for 20 ms); [space = `Lq]
    disables the enlarge move, restricting the search to simple safe
    covers (the generalized-cover ablation). Each step's candidate
    moves cost-estimate in parallel on the {!Parallel} pool ([jobs], default {!Parallel.default_jobs});
    without a time budget the chosen cover and the exploration counts
    are independent of the job count. The search scores through one
    {!Estimator.open_search} scope, so each distinct fragment is
    reformulated and estimated once per search. *)
