(** EDL — Exhaustive Cover search for DL-LiteR (§5.3): enumerates the
    whole generalized cover space [Gq] (capped, as in the paper's Table
    6 experiment where the enumeration on A6 was stopped at 20,003
    covers) and returns a cover with minimal estimated cost. Impractical
    beyond very small queries — which is exactly the paper's point. *)

type result = {
  cover : Covers.Generalized.t;
  reformulation : Query.Fol.t;
  est_cost : float;
  covers_examined : int;
  capped : bool;  (** whether the enumeration cap was hit *)
  search_time : float;
}

val search :
  ?max_covers:int -> ?jobs:int -> Dllite.Tbox.t -> Estimator.t -> Query.Cq.t -> result
(** Default [max_covers] is 20,000. Candidate covers cost-estimate in
    parallel on the {!Parallel} pool ([jobs], default
    {!Parallel.default_jobs}); the returned cover is independent of the
    job count (ties resolve to the earliest enumerated cover). All
    candidates score through one {!Estimator.open_search} scope. *)
