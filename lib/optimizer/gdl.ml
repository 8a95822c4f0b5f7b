open Covers

type result = {
  cover : Generalized.t;
  reformulation : Query.Fol.t;
  est_cost : float;
  explored_simple : int;
  explored_total : int;
  moves : int;
  search_time : float;
  cost_time : float;
  reform_time : float;
  timed_out : bool;
}

type search_state = {
  scope : Estimator.search;
  cost_cache : (string, float * Query.Fol.t) Hashtbl.t;
  mutable simple_seen : int;
  mutable total_seen : int;
  mutable cost_seconds : float;
  mutable reform_seconds : float;
  mutable step : int;  (** current move number, for trace events *)
  deadline : int64 option;  (** absolute monotonic ns ({!Obs.Mclock}) *)
}

let m_searches = Obs.Metrics.counter ~help:"GDL searches run" "gdl.searches"

let m_scored =
  Obs.Metrics.counter
    ~help:"covers reformulated and cost-estimated by GDL"
    "gdl.covers.scored"

let m_pruned =
  Obs.Metrics.counter
    ~help:"candidate covers skipped by GDL because already memoised"
    "gdl.covers.pruned"

let m_moves = Obs.Metrics.counter ~help:"GDL moves accepted" "gdl.moves"

(* Covers memoise under their canonical structural key, not a
   pretty-printed form: a printer may truncate or elide, and a key
   collision would silently reuse another cover's cost and
   reformulation. *)
let cover_key = Generalized.structural_key

(* Deadlines and timings run on the monotonic clock: wall-clock
   ([Unix.gettimeofday]) can jump under NTP adjustment, firing or
   starving a time-limited search and producing negative timings. *)
let seconds_since t0 = Int64.to_float (Obs.Mclock.elapsed_ns ~since:t0) /. 1e9

let out_of_time st =
  match st.deadline with
  | None -> false
  | Some d -> Int64.compare (Obs.Mclock.now_ns ()) d > 0

(* Always called sequentially (in candidate order after a parallel
   scoring batch), so the Candidate trace stream is deterministic. *)
let record st cover (s : Estimator.scored) =
  let c = s.cost and fol = s.reformulation in
  st.cost_seconds <- st.cost_seconds +. s.cost_time;
  st.reform_seconds <- st.reform_seconds +. s.reform_time;
  st.total_seen <- st.total_seen + 1;
  if Generalized.is_simple cover then st.simple_seen <- st.simple_seen + 1;
  Obs.Metrics.incr m_scored;
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~source:"gdl" ~step:st.step ~verdict:Obs.Trace.Candidate
      ~cost:c
      (Fmt.str "%a" Generalized.pp cover);
  Hashtbl.add st.cost_cache (cover_key cover) (c, fol)

(* Estimated cost of a cover's reformulation, memoised per cover. *)
let cover_cost st cover =
  let key = cover_key cover in
  match Hashtbl.find_opt st.cost_cache key with
  | Some (c, fol) -> c, fol
  | None ->
    let scored = Estimator.score st.scope cover in
    record st cover scored;
    scored.cost, scored.reformulation

(* Cost-estimate one search step's candidates: the not-yet-memoised
   covers (deduplicated, first occurrence wins) score in parallel —
   the search scope's memo is the only shared state, and it is
   domain-safe — then the cache and counters update sequentially in candidate
   order — so exploration statistics match the sequential search
   exactly. Arms observe the deadline on entry; a cover skipped for
   time is simply absent from the cache, as it would be sequentially. *)
let batch_costs ?jobs st candidates =
  let seen = Hashtbl.create 32 in
  let fresh =
    List.filter
      (fun cover ->
        let key = cover_key cover in
        if Hashtbl.mem st.cost_cache key || Hashtbl.mem seen key then begin
          Obs.Metrics.incr m_pruned;
          false
        end
        else begin
          Hashtbl.add seen key ();
          true
        end)
      candidates
  in
  let scored =
    Parallel.map ?jobs
      (fun cover ->
        if out_of_time st then None else Some (Estimator.score st.scope cover))
      fresh
  in
  List.iter2
    (fun cover -> function Some s -> record st cover s | None -> ())
    fresh scored

(* All covers reachable from [cover] in one move. With [space = `Lq]
   the enlarge move is disabled and the search stays within the simple
   safe-cover lattice (used by the ablation benchmark). *)
let candidate_moves ?(space = `Gq) cover =
  let frags = Generalized.fragments cover in
  let unions =
    let rec pairs = function
      | [] -> []
      | f :: rest ->
        List.filter_map
          (fun f' ->
            if Generalized.mergeable cover f f' then
              (* a union that would swallow a third (enlarged) fragment
                 is no generalized cover: skipped, like an enlargement *)
              match Generalized.merge cover f f' with
              | c -> Some c
              | exception Invalid_argument _ -> None
            else None)
          rest
        @ pairs rest
    in
    pairs frags
  in
  let enlargements =
    match space with
    | `Lq -> []
    | `Gq ->
      List.concat_map
        (fun f ->
          List.filter_map
            (fun a ->
              match Generalized.enlarge cover f a with
              | c -> Some c
              | exception Invalid_argument _ -> None)
            (Generalized.enlargeable_atoms cover f))
        frags
  in
  unions @ enlargements

let search ?time_budget ?(space = `Gq) ?jobs tbox estimator q =
  let t0 = Obs.Mclock.now_ns () in
  Obs.Metrics.incr m_searches;
  let st =
    {
      scope = Estimator.open_search estimator tbox q;
      cost_cache = Hashtbl.create 64;
      simple_seen = 0;
      total_seen = 0;
      cost_seconds = 0.;
      reform_seconds = 0.;
      step = 0;
      deadline =
        Option.map
          (fun b -> Int64.add t0 (Int64.of_float (b *. 1e9)))
          time_budget;
    }
  in
  let start = Generalized.of_cover (Safety.root_cover tbox q) in
  let rec loop cover cost moves =
    if out_of_time st then cover, cost, moves, true
    else begin
      st.step <- moves + 1;
      let candidates = candidate_moves ~space cover in
      batch_costs ?jobs st candidates;
      let best =
        List.fold_left
          (fun best candidate ->
            match Hashtbl.find_opt st.cost_cache (cover_key candidate) with
            | None -> best (* the deadline cut this candidate's estimation *)
            | Some (c, _) -> (
              match best with
              | Some (_, bc) when bc <= c -> best
              | _ -> Some (candidate, c)))
          None candidates
      in
      (* Accept the best move when it does not degrade the estimated
         cost; both move kinds strictly shrink the fragment count or
         grow a fragment, so the walk always terminates. *)
      match best with
      | Some (next, c) when c <= cost ->
        Obs.Metrics.incr m_moves;
        if Obs.Trace.enabled () then
          Obs.Trace.emit ~source:"gdl" ~step:st.step
            ~verdict:Obs.Trace.Accepted ~cost:c
            (Fmt.str "%a" Generalized.pp next);
        loop next c (moves + 1)
      | best ->
        if Obs.Trace.enabled () then
          Option.iter
            (fun (cand, c) ->
              Obs.Trace.emit ~source:"gdl" ~step:st.step
                ~verdict:Obs.Trace.Rejected ~cost:c
                (Fmt.str "%a" Generalized.pp cand))
            best;
        cover, cost, moves, out_of_time st
    end
  in
  let cost0, _ = cover_cost st start in
  let cover, est_cost, moves, timed_out = loop start cost0 0 in
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~source:"gdl" ~step:moves ~verdict:Obs.Trace.Chosen
      ~cost:est_cost
      (Fmt.str "%a" Generalized.pp cover);
  let _, reformulation = cover_cost st cover in
  {
    cover;
    reformulation;
    est_cost;
    explored_simple = st.simple_seen;
    explored_total = st.total_seen;
    moves;
    search_time = seconds_since t0;
    cost_time = st.cost_seconds;
    reform_time = st.reform_seconds;
    timed_out;
  }
