open Covers

type result = {
  cover : Generalized.t;
  reformulation : Query.Fol.t;
  est_cost : float;
  covers_examined : int;
  capped : bool;
  search_time : float;
}

let m_searches = Obs.Metrics.counter ~help:"EDL searches run" "edl.searches"

let m_examined =
  Obs.Metrics.counter
    ~help:"covers enumerated and cost-estimated by EDL"
    "edl.covers.examined"

let search ?(max_covers = 20_000) ?jobs tbox estimator q =
  (* Monotonic clock: wall clock can step backwards under NTP and
     report a negative search_time. *)
  let t0 = Obs.Mclock.now_ns () in
  Obs.Metrics.incr m_searches;
  let covers = Generalized.enumerate ~max_count:max_covers tbox q in
  let examined = List.length covers in
  Obs.Metrics.add m_examined examined;
  (* Reformulating and cost-estimating a cover touches only the
     scope's domain-safe memo, so every candidate scores on the domain
     pool; the winner is then picked by the same first-minimum fold as
     the sequential search (ties keep the earliest cover), making the
     result independent of the job count. *)
  let scope = Estimator.open_search estimator tbox q in
  let scored =
    Parallel.map ?jobs
      (fun cover ->
        let s = Estimator.score scope cover in
        cover, s.Estimator.reformulation, s.Estimator.cost)
      covers
  in
  (* Trace emission happens after the parallel scoring pass, in
     enumeration order, so traces are deterministic at any job count. *)
  if Obs.Trace.enabled () then
    List.iter
      (fun (cover, _, cost) ->
        Obs.Trace.emit ~source:"edl" ~step:0 ~verdict:Obs.Trace.Candidate ~cost
          (Fmt.str "%a" Generalized.pp cover))
      scored;
  let best =
    List.fold_left
      (fun best (cover, fol, cost) ->
        match best with
        | Some (_, _, c) when c <= cost -> best
        | _ -> Some (cover, fol, cost))
      None scored
  in
  match best with
  | None -> invalid_arg "Edl.search: no cover (empty query?)"
  | Some (cover, reformulation, est_cost) ->
    if Obs.Trace.enabled () then
      Obs.Trace.emit ~source:"edl" ~step:0 ~verdict:Obs.Trace.Chosen
        ~cost:est_cost
        (Fmt.str "%a" Generalized.pp cover);
    {
      cover;
      reformulation;
      est_cost;
      covers_examined = examined;
      capped = examined >= max_covers;
      search_time = Int64.to_float (Obs.Mclock.elapsed_ns ~since:t0) /. 1e9;
    }
