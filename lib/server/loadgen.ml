type mode = Closed | Open_loop of float

type config = {
  host : string;
  port : int;
  sessions : int;
  mode : mode;
  duration_s : float;
  warmup_s : float;
  seed : int;
  strategy : string option;
  deadline_ms : float option;
  answer_limit : int;
  writer_period_s : float option;
}

let default_config =
  { host = "127.0.0.1";
    port = 7777;
    sessions = 4;
    mode = Closed;
    duration_s = 2.0;
    warmup_s = 0.5;
    seed = 1;
    strategy = None;
    deadline_ms = None;
    answer_limit = 0;
    writer_period_s = None }

type report = {
  r_mode : string;
  offered_qps : float;
  r_sessions : int;
  r_duration_s : float;
  r_warmup_s : float;
  warmup_requests : int;
  requests : int;
  r_ok : int;
  r_shed : int;
  r_timeouts : int;
  r_errors : int;
  achieved_qps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
  max_ms : float;
  plan_hits : int;
  hit_rate : float;
  writer_updates : int;
  generation_end : int;
}

(* {1 Client plumbing} *)

let connect host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let answer_request ~id ~qname ~strategy ~deadline_ms ~limit =
  let fields =
    [ "op", Wire.String "ANSWER";
      "id", Wire.Int id;
      "query", Wire.String qname;
      "limit", Wire.Int limit ]
  in
  let fields =
    match strategy with Some s -> fields @ [ "strategy", Wire.String s ] | None -> fields
  in
  let fields =
    match deadline_ms with
    | Some d -> fields @ [ "deadline_ms", Wire.Float d ]
    | None -> fields
  in
  Wire.to_string (Wire.Obj fields)

type kind = K_ok of float * bool  (** latency ms, plan_cached *) | K_shed | K_timeout | K_error

type sample = { s_measured : bool; s_kind : kind }

let classify line =
  match Wire.of_string line with
  | Error _ -> `Error
  | Ok j -> (
    match Option.bind (Wire.member "status" j) Wire.to_string_opt with
    | Some "OK" ->
      let cached =
        match Option.bind (Wire.member "plan_cached" j) Wire.to_bool_opt with
        | Some b -> b
        | None -> false
      in
      `Ok cached
    | Some "OVERLOADED" -> `Shed
    | Some "TIMEOUT" -> `Timeout
    | _ -> `Error)

(* The request stream: Zipf weight 1/rank over Q1..Q13; each session
   derives its own RNG so the draw is deterministic per (seed, k). *)
let make_pick cfg k =
  let entries = Array.of_list Lubm.Workload.queries in
  let n = Array.length entries in
  let weights = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let rng = Random.State.make [| cfg.seed; k; 0x10AD |] in
  fun () ->
    let r = Random.State.float rng total in
    let rec go i acc =
      let acc = acc +. weights.(i) in
      if r < acc || i = n - 1 then i else go (i + 1) acc
    in
    entries.(go 0 0.).Lubm.Workload.name

(* {1 Session loops}

   All clocks below are seconds since [start_ns], shared by every
   session so "scheduled arrival" and "warmup window" mean the same
   instant everywhere. *)

let run_session cfg ~start_ns ~k out =
  let elapsed () = Obs.Mclock.ns_to_ms (Obs.Mclock.elapsed_ns ~since:start_ns) /. 1000. in
  let pick = make_pick cfg k in
  let record measured kind = out := { s_measured = measured; s_kind = kind } :: !out in
  match connect cfg.host cfg.port with
  | exception Unix.Unix_error _ -> record false K_error
  | fd, ic, oc ->
    let id = ref 0 in
    let roundtrip () =
      incr id;
      let line =
        answer_request ~id:!id ~qname:(pick ()) ~strategy:cfg.strategy
          ~deadline_ms:cfg.deadline_ms ~limit:cfg.answer_limit
      in
      send_line oc line;
      classify (input_line ic)
    in
    (try
       (match cfg.mode with
       | Closed ->
         let hard_stop = cfg.duration_s in
         let rec loop () =
           let sent_at = elapsed () in
           if sent_at < hard_stop then begin
             let r = roundtrip () in
             let latency = (elapsed () -. sent_at) *. 1000. in
             let measured = sent_at >= cfg.warmup_s in
             (match r with
             | `Ok cached -> record measured (K_ok (latency, cached))
             | `Shed -> record measured K_shed
             | `Timeout -> record measured K_timeout
             | `Error -> record measured K_error);
             loop ()
           end
         in
         loop ()
       | Open_loop qps ->
         let qps = Float.max qps 0.001 in
         let global_interval = 1. /. qps in
         let session_interval = float_of_int cfg.sessions /. qps in
         let hard_stop = cfg.duration_s +. Float.max 1.0 cfg.duration_s in
         let rec loop i =
           (* session k owns arrival slots k, k+S, k+2S, ... of the
              uniform grid at the offered rate *)
           let sched = (float_of_int k *. global_interval) +. (float_of_int i *. session_interval) in
           if sched < cfg.duration_s && elapsed () < hard_stop then begin
             let now = elapsed () in
             if now < sched then Thread.delay (sched -. now);
             let r = roundtrip () in
             (* from the scheduled arrival, not the (possibly late)
                send: a slow server cannot hide its queueing delay *)
             let latency = (elapsed () -. sched) *. 1000. in
             let measured = sched >= cfg.warmup_s in
             (match r with
             | `Ok cached -> record measured (K_ok (latency, cached))
             | `Shed -> record measured K_shed
             | `Timeout -> record measured K_timeout
             | `Error -> record measured K_error);
             loop (i + 1)
           end
         in
         loop 0)
     with End_of_file | Sys_error _ | Unix.Unix_error _ -> record (elapsed () >= cfg.warmup_s) K_error);
    (try send_line oc "{\"op\":\"QUIT\"}" with _ -> ());
    (try Unix.close fd with _ -> ())

let run_writer cfg ~start_ns ~period updates =
  let elapsed () = Obs.Mclock.ns_to_ms (Obs.Mclock.elapsed_ns ~since:start_ns) /. 1000. in
  match connect cfg.host cfg.port with
  | exception Unix.Unix_error _ -> ()
  | fd, ic, oc ->
    let tag = Printf.sprintf "lg%Lx" start_ns in
    let i = ref 0 in
    (try
       while elapsed () < cfg.duration_s do
         Thread.delay period;
         if elapsed () < cfg.duration_s then begin
           incr i;
           let req =
             Wire.Obj
               [ "op", Wire.String "UPDATE";
                 "insert",
                 Wire.List
                   [ Wire.Obj
                       [ "concept", Wire.String "LoadgenMarker";
                         "ind", Wire.String (Printf.sprintf "%s_%d" tag !i) ] ] ]
           in
           send_line oc (Wire.to_string req);
           match classify (input_line ic) with
           | `Ok _ -> incr updates
           | _ -> ()
         end
       done
     with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
    (try send_line oc "{\"op\":\"QUIT\"}" with _ -> ());
    (try Unix.close fd with _ -> ())

let final_generation cfg =
  match connect cfg.host cfg.port with
  | exception Unix.Unix_error _ -> -1
  | fd, ic, oc -> (
    let gen =
      try
        send_line oc "{\"op\":\"HELLO\"}";
        match Wire.of_string (input_line ic) with
        | Ok j -> (
          match Option.bind (Wire.member "generation" j) Wire.to_int_opt with
          | Some g -> g
          | None -> -1)
        | Error _ -> -1
      with End_of_file | Sys_error _ | Unix.Unix_error _ -> -1
    in
    (try send_line oc "{\"op\":\"QUIT\"}" with _ -> ());
    (try Unix.close fd with _ -> ());
    gen)

(* {1 Statistics} *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let run cfg =
  let start_ns = Obs.Mclock.now_ns () in
  let outs = Array.init cfg.sessions (fun _ -> ref []) in
  let threads =
    List.init cfg.sessions (fun k ->
        Thread.create (fun () -> run_session cfg ~start_ns ~k outs.(k)) ())
  in
  let writer_updates = ref 0 in
  let writer_thread =
    match cfg.writer_period_s with
    | Some period ->
      Some (Thread.create (fun () -> run_writer cfg ~start_ns ~period writer_updates) ())
    | None -> None
  in
  List.iter Thread.join threads;
  Option.iter Thread.join writer_thread;
  let samples = Array.to_list outs |> List.concat_map (fun r -> !r) in
  let measured = List.filter (fun s -> s.s_measured) samples in
  let warmup_requests = List.length samples - List.length measured in
  let count p = List.length (List.filter p measured) in
  let oks = List.filter_map (fun s -> match s.s_kind with K_ok (l, c) -> Some (l, c) | _ -> None) measured in
  let lat = List.map fst oks |> Array.of_list in
  Array.sort compare lat;
  let n_ok = Array.length lat in
  let plan_hits = List.length (List.filter snd oks) in
  let measured_s = Float.max 0.001 (cfg.duration_s -. cfg.warmup_s) in
  { r_mode = (match cfg.mode with Closed -> "closed" | Open_loop _ -> "open");
    offered_qps = (match cfg.mode with Closed -> 0. | Open_loop q -> q);
    r_sessions = cfg.sessions;
    r_duration_s = cfg.duration_s;
    r_warmup_s = cfg.warmup_s;
    warmup_requests;
    requests = List.length measured;
    r_ok = n_ok;
    r_shed = count (fun s -> s.s_kind = K_shed);
    r_timeouts = count (fun s -> s.s_kind = K_timeout);
    r_errors = count (fun s -> s.s_kind = K_error);
    achieved_qps = float_of_int n_ok /. measured_s;
    p50_ms = percentile lat 50.;
    p95_ms = percentile lat 95.;
    p99_ms = percentile lat 99.;
    mean_ms =
      (if n_ok = 0 then nan else Array.fold_left ( +. ) 0. lat /. float_of_int n_ok);
    max_ms = (if n_ok = 0 then nan else lat.(n_ok - 1));
    plan_hits;
    hit_rate = (if n_ok = 0 then nan else float_of_int plan_hits /. float_of_int n_ok);
    writer_updates = !writer_updates;
    generation_end = final_generation cfg }

let pp_report ppf r =
  Fmt.pf ppf "mode          : %s@." r.r_mode;
  if r.offered_qps > 0. then Fmt.pf ppf "offered qps   : %.1f@." r.offered_qps;
  Fmt.pf ppf "sessions      : %d@." r.r_sessions;
  Fmt.pf ppf "duration      : %.1fs (%.1fs warmup discarded)@." r.r_duration_s r.r_warmup_s;
  Fmt.pf ppf "requests      : %d measured (+%d warmup)@." r.requests r.warmup_requests;
  Fmt.pf ppf "ok/shed/to/err: %d/%d/%d/%d@." r.r_ok r.r_shed r.r_timeouts r.r_errors;
  Fmt.pf ppf "achieved qps  : %.1f@." r.achieved_qps;
  Fmt.pf ppf "latency ms    : p50 %.2f  p95 %.2f  p99 %.2f  mean %.2f  max %.2f@."
    r.p50_ms r.p95_ms r.p99_ms r.mean_ms r.max_ms;
  Fmt.pf ppf "plan hit rate : %.3f (%d/%d)@." r.hit_rate r.plan_hits r.r_ok;
  if r.writer_updates > 0 then
    Fmt.pf ppf "writer        : %d updates, generation %d@." r.writer_updates r.generation_end
  else Fmt.pf ppf "generation    : %d@." r.generation_end
