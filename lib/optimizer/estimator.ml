type t = {
  name : string;
  estimate : Query.Fol.t -> float;
}

let rdbms profile layout =
  {
    name = "rdbms";
    estimate =
      (* the engine's own estimator: its quirks are the point, so
         feedback corrections (ours, not the engine's) don't apply *)
      (fun fol ->
        let plan = Rdbms.Planner.of_fol layout fol in
        (Rdbms.Explain.cost profile layout plan).Rdbms.Explain.total_cost);
  }

let ext ?feedback model layout =
  { name = "ext"; estimate = Cost.Cost_model.fol_cost ?feedback model layout }
