(* obda_bench: the end-to-end benchmark, one workload per process.

     obda_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
                [--out FILE] [--spans FILE] [--server EXE]

   Every workload answers the E14/E18 Zipf stream (weight 1/rank over
   Q1-Q13) under the production defaults: PgLite profile, simple
   layout, GDL with the external cost model, SIP on, fragment views
   off, feedback store attached. Each workload stresses a different
   layer (README.md says which and why):

     warm-100k    100k facts, plan cache warm: executor, storage, decode
     cold-5k      5k facts, plan and reformulation caches cleared
                  before every call: PerfectRef and GDL
     ingest-100k  100k facts, reads alternating with 32-fact insert
                  batches taken further along the generator stream
     server-5k    a spawned obda_server on a saved 5k-fact store,
                  400 req/s open loop from 2 sessions: the serving path

   The untraced run ([--trace 0]) prints every end-to-end metric as
   "name value unit"; the traced run ([--trace 1]) replays the same
   stream through [Mirror] and prints the per-layer metrics instead.
   Every answer is checked against an oracle outside the timed
   regions; on any divergence the run exits 1 and prints no metrics.
   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics; [--out] also writes it,
   with the workload, seed and trace flag, for compare.exe. *)

module W = Server.Wire

let tbox = Lubm.Ontology.tbox

(* the server's default strategy *)
let strategy = Obda.Gdl Obda.Ext_cost

let queries = Array.of_list Lubm.Workload.queries

(* {1 Arguments} *)

let workload = ref ""

let seed = ref 1

let seconds = ref 20.

let trace = ref false

let out_file = ref None

let spans_file = ref None

let server_exe = ref "_build/default/bin/obda_server.exe"

(* Set-up runs this many times per process and [setup_s] reports the
   median: a single set-up is too noisy to bound. *)
let setups = 3

exception Diverged of string

let diverged fmt = Printf.ksprintf (fun s -> raise (Diverged s)) fmt

(* {1 Clocks and memory} *)

let elapsed_s t0 = Int64.to_float (Obs.Mclock.elapsed_ns ~since:t0) /. 1e9

let timed f =
  let t0 = Obs.Mclock.now_ns () in
  let v = f () in
  v, elapsed_s t0

(* VmHWM of a process, in MB: the peak resident set. *)
let rss_peak_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* {1 Inputs} *)

(* The E14 request stream: Zipf weight 1/rank over Q1..Q13, dealt in
   blocks of [block] reads whose counts follow the weights exactly
   (largest remainder) and whose order the seed shuffles. Every block
   has the same mix, so the seed moves the order of the requests and
   never their proportions: drawn independently, the rare slow queries
   alone would move a run's throughput by several percent. *)
let block = 200

let block_mix =
  let n = Array.length queries in
  let weights = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let exact = Array.map (fun w -> w /. total *. float_of_int block) weights in
  let counts = Array.map (fun x -> int_of_float (floor x)) exact in
  let short = block - Array.fold_left ( + ) 0 counts in
  let rem i = exact.(i) -. floor exact.(i) in
  List.init n Fun.id
  |> List.sort (fun i j -> compare (rem j) (rem i))
  |> List.iteri (fun k i -> if k < short then counts.(i) <- counts.(i) + 1);
  Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) counts))

let zipf_stream seed =
  let rng = Random.State.make [| 0xE14; seed |] in
  let order = Array.copy block_mix and next = ref block in
  fun () ->
    if !next = block then begin
      for i = block - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      next := 0
    end;
    incr next;
    order.(!next - 1)

type fact =
  | Concept of string * string
  | Role of string * string * string

(* The data is the same in every run: the generator's default seed.
   Generated from the run's seed, the median latency of Q1, the most
   frequent query, differed by up to 30% between seeds, more than the
   bounds allow; the seed moves the request stream instead. *)
let data_seed = 42

(* The first [n] assertions of the LUBM generator stream. *)
let generate n =
  let acc = ref [] and k = ref 0 in
  let keep f =
    if !k < n then begin
      acc := f :: !acc;
      incr k
    end
  in
  ignore
    (Lubm.Generator.generate_into ~seed:data_seed ~target_facts:n
       ~add_concept:(fun ~concept ~ind -> keep (Concept (concept, ind)))
       ~add_role:(fun ~role ~subj ~obj -> keep (Role (role, subj, obj)))
       ());
  Array.of_list (List.rev !acc)

let build_store facts n =
  let b = Rdbms.Storage.Builder.create () in
  for i = 0 to n - 1 do
    match facts.(i) with
    | Concept (concept, ind) -> Rdbms.Storage.Builder.add_concept b ~concept ~ind
    | Role (role, subj, obj) -> Rdbms.Storage.Builder.add_role b ~role ~subj ~obj
  done;
  Rdbms.Storage.Builder.finish b

let abox_of facts n =
  let abox = Dllite.Abox.create () in
  for i = 0 to n - 1 do
    match facts.(i) with
    | Concept (concept, ind) -> Dllite.Abox.add_concept abox ~concept ~ind
    | Role (role, subj, obj) -> Dllite.Abox.add_role abox ~role ~subj ~obj
  done;
  abox

let insert engine = function
  | Concept (concept, ind) -> ignore (Obda.insert_concept engine ~concept ~ind)
  | Role (role, subj, obj) -> ignore (Obda.insert_role engine ~role ~subj ~obj)

(* {1 Oracles} *)

let check_same ~what expected got =
  if expected <> got then
    diverged "%s: %d answers, the oracle has %d" what (List.length got)
      (List.length expected)

(* Certain answers from the chase: the ground truth at 5k facts. *)
let check_against_chase ~abox answers =
  Array.iteri
    (fun i e ->
      check_same ~what:(e.Lubm.Workload.name ^ " vs chase")
        (Dllite.Chase.certain_answers tbox abox e.Lubm.Workload.query)
        answers.(i))
    queries

(* The plain UCQ on a separately built engine with SIP off: the
   reference at 100k facts, where the chase is too slow. *)
let check_against_ucq ~facts ~n answers =
  let oracle =
    Obda.make_engine_of_layout `Pglite (Rdbms.Layout.of_storage (build_store facts n))
  in
  Obda.set_sip oracle false;
  Array.iteri
    (fun i e ->
      check_same ~what:(e.Lubm.Workload.name ^ " vs ucq")
        (Obda.answers_exn oracle tbox Obda.Ucq e.Lubm.Workload.query)
        answers.(i))
    queries

(* {1 Registry snapshots}

   The same JSON reader serves the local registry and a server's
   METRICS reply, so both sides derive their counts identically. *)

let snapshot_of_json json =
  let tbl = Hashtbl.create 64 in
  let each kind f =
    match Option.bind (W.member kind json) W.to_list_opt with
    | Some items ->
      List.iter
        (fun item ->
          match Option.bind (W.member "name" item) W.to_string_opt with
          | Some name -> f name item
          | None -> ())
        items
    | None -> ()
  in
  let num item field =
    Option.value ~default:0. (Option.bind (W.member field item) W.to_float_opt)
  in
  each "counters" (fun name item -> Hashtbl.replace tbl name (num item "value"));
  each "histograms" (fun name item ->
      Hashtbl.replace tbl (name ^ ".count") (num item "count");
      Hashtbl.replace tbl (name ^ ".sum") (num item "sum"));
  tbl

let local_snapshot () =
  match W.of_string (Obs.Metrics.to_json ()) with
  | Ok json -> snapshot_of_json json
  | Error e -> failwith ("registry JSON: " ^ e)

let delta before after name =
  let get t = Option.value ~default:0. (Hashtbl.find_opt t name) in
  get after -. get before

(* {1 Set-up} *)

type setup_times = {
  generate_s : float;
  build_s : float;
  warm_s : float;
}

let setup_total t = t.generate_s +. t.build_s +. t.warm_s

(* Runs [once] [setups] times, keeping the last state. [before] runs
   untimed ahead of each set-up (cache clears, stopping a previous
   server), so every set-up starts from the same state. *)
let repeat_setup ~before once =
  let rec go k acc =
    before ();
    let state, times = once () in
    if k = 1 then state, List.rev (times :: acc) else go (k - 1) (times :: acc)
  in
  go setups []

let clear_caches () =
  Obda.clear_plan_cache ();
  Reform.Perfectref.clear_cache ()

type engine_setup = {
  facts : fact array;
  base : int;  (* facts loaded at set-up; the rest feed inserts *)
  store : Rdbms.Storage.t;
  engine : Obda.engine;
  reference : string list list array;  (* warm-pass answers, per query *)
}

let answer_exn engine q =
  match (Obda.answer engine tbox strategy q).Obda.answers with
  | Ok a -> a
  | Error e -> failwith ("engine error: " ^ e)

(* Generation, storage build and a warm pass that answers every
   query once (filling the plan and reformulation caches and forcing
   the lazily built indexes). *)
let setup_engine ~total ~base () =
  let facts, generate_s = timed (fun () -> generate total) in
  let (store, engine), build_s =
    timed (fun () ->
        let store = build_store facts base in
        store, Obda.make_engine_of_layout `Pglite (Rdbms.Layout.of_storage store))
  in
  let reference, warm_s =
    timed (fun () -> Array.map (fun e -> answer_exn engine e.Lubm.Workload.query) queries)
  in
  { facts; base; store; engine; reference }, { generate_s; build_s; warm_s }

(* {1 Results} *)

type metric = string * float * string

type run = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

let setup_metrics times =
  let med f = Stats.median (List.map f times) in
  [ "setup_s", med setup_total, "s" ], [
    "lubm.generate_s", med (fun t -> t.generate_s), "s";
    "storage.build_s", med (fun t -> t.build_s), "s";
    "obda.warm_s", med (fun t -> t.warm_s), "s" ]

(* The stages of the read and write paths, in pipeline order. The
   read-path stages run on every read, so their self-time medians
   exist on every workload; the search runs only on plan-cache misses
   and the insert only on ingest-100k, so those two report their share
   and allocation alone. *)
let read_stages =
  [ "obda.plan_lookup"; "sql.render"; "rdbms.plan"; "cost.sip"; "rdbms.exec"; "rdbms.decode" ]

let all_stages = read_stages @ [ "optimizer.search"; "storage.insert" ]

type trace_state = {
  spans : Spans.t;
  mirror : Mirror.t;
  registry0 : (string, float) Hashtbl.t;
  gc0 : Gc.stat;
}

let start_trace engine =
  let spans = Spans.create () in
  let mirror = Mirror.create engine tbox strategy spans in
  (* fill the mirror's plan memo the way the set-up filled the
     engine's plan cache, outside the measured phase *)
  Array.iteri
    (fun i e -> ignore (Mirror.answer mirror ~req:(-1 - i) e.Lubm.Workload.query))
    queries;
  Spans.clear spans;
  Mirror.reset_counts mirror;
  Gc.compact ();
  { spans; mirror; registry0 = local_snapshot (); gc0 = Gc.quick_stat () }

(* Per-layer metrics of a traced phase of [ops] operations, [reads] of
   them reads. Taken right after the phase, before any oracle work
   moves the registry or the heap. *)
let layer_metrics tr ~ops ~reads ~compactions =
  let registry1 = local_snapshot () and gc1 = Gc.quick_stat () in
  Option.iter (Spans.write tr.spans) !spans_file;
  let d = delta tr.registry0 registry1 in
  let per_op x = Stats.ratio x (float_of_int ops) in
  let stage, root_ms, stage_ms = Spans.summarise tr.spans in
  let m = tr.mirror in
  List.map (fun s -> s ^ ".self_ms_p50", (stage s).Spans.self_ms_p50, "ms") read_stages
  @ List.map (fun s -> s ^ ".share", (stage s).Spans.share, "frac") all_stages
  @ List.map (fun s -> s ^ ".minor_words", (stage s).Spans.minor_words, "words") all_stages
  @ [ "cache.plan.hit_ratio",
      Stats.ratio (float_of_int m.Mirror.hits) (float_of_int m.Mirror.lookups), "frac";
      "cache.plan.invalidations", per_op (float_of_int m.Mirror.invalidations), "count/op";
      "reform.cache.hit_ratio",
      Stats.ratio (d "reform.cache.hits") (d "reform.cache.requests"), "frac";
      "reform.cq.generated", per_op (d "reform.cq.generated"), "count/op";
      "gdl.covers.scored", per_op (d "gdl.covers.scored"), "count/op";
      "gdl.moves", per_op (d "gdl.moves"), "count/op";
      "exec.scan.hit_ratio",
      Stats.ratio (d "exec.scan.cache_hits") (d "exec.scan.requests"), "frac";
      "exec.union.arms", per_op (d "exec.union.arms"), "count/op";
      "sip.rows_pruned", per_op (d "sip.rows_pruned"), "count/op";
      "sip.arms_elided", per_op (d "sip.arms_elided"), "count/op";
      "storage.segments.skip_ratio",
      Stats.ratio (d "storage.segments_skipped")
        (d "storage.segments_skipped" +. d "storage.segments_scanned"),
      "frac";
      "storage.compactions", float_of_int compactions, "count";
      "sql.bytes", Stats.ratio (float_of_int m.Mirror.sql_bytes) (float_of_int reads), "bytes";
      "gc.minor_words_per_op", per_op (gc1.Gc.minor_words -. tr.gc0.Gc.minor_words), "words";
      "gc.major_collections",
      float_of_int (gc1.Gc.major_collections - tr.gc0.Gc.major_collections), "count";
      "trace.latency_p50_ms",
      Stats.percentile (Stats.sorted_array (Spans.root_durations tr.spans "read")) 50., "ms";
      "trace.stage_sum_ratio", Stats.ratio stage_ms root_ms, "frac" ]

(* The mirror must return what the engine it mirrors returns. *)
let check_mirror tr engine =
  Array.iter
    (fun e ->
      let q = e.Lubm.Workload.query in
      match Mirror.answer tr.mirror ~req:(-1) q with
      | Ok a ->
        check_same ~what:(e.Lubm.Workload.name ^ " mirror vs engine") (answer_exn engine q) a
      | Error err -> diverged "%s: mirror error %s" e.Lubm.Workload.name err)
    queries

(* The end-to-end metrics every workload reports besides setup_s. *)
let end_to_end ~throughput ~p50 ~p99 ~rss ~store_bytes_per_fact =
  [ "throughput_qps", throughput, "1/s";
    "latency_p50_ms", p50, "ms";
    "latency_p99_ms", p99, "ms";
    "rss_peak_mb", rss, "MB";
    "store_bytes_per_fact", store_bytes_per_fact, "B" ]

(* In-process workloads have no server between client and engine. *)
let no_server =
  [ "server.queue_wait.share", 0., "frac";
    "server.engine.share", 0., "frac";
    "server.wire.share", 0., "frac" ]

let bytes_per_fact store facts =
  float_of_int (Rdbms.Storage.column_bytes store) /. float_of_int facts

(* {1 In-process workloads} *)

(* Per block of the stream: operations per timed second, and the read
   latency percentiles. Every block has the same query mix, so blocks
   are like-for-like samples; the run reports their medians, which a
   few seconds of interference on the host do not move. *)
type block_stats = {
  qps : float;
  p50_ms : float;
  p99_ms : float;
}

type measured = {
  ops : int;
  reads : int;
  blocks : block_stats list;
  write_ms : float list;
}

(* One closed-loop client. [step i] runs operation [i] and returns
   whether it was a read and its timed duration; untimed work (cache
   clears, answer checks) happens inside [step] outside that duration.
   Runs whole blocks of the stream until [seconds] of wall time have
   passed, or until [step] returns [None]. *)
let closed_loop step =
  let t0 = Obs.Mclock.now_ns () in
  let rec go i ~ops ~busy ~block_reads m =
    match step i with
    | None -> m
    | Some (false, s) ->
      go (i + 1) ~ops:(ops + 1) ~busy:(busy +. s) ~block_reads
        { m with ops = m.ops + 1; write_ms = (s *. 1000.) :: m.write_ms }
    | Some (true, s) ->
      let ops = ops + 1 and busy = busy +. s and block_reads = (s *. 1000.) :: block_reads in
      let m = { m with ops = m.ops + 1; reads = m.reads + 1 } in
      if m.reads mod block <> 0 then go (i + 1) ~ops ~busy ~block_reads m
      else
        let sorted = Stats.sorted_array block_reads in
        let b =
          { qps = float_of_int ops /. busy;
            p50_ms = Stats.percentile sorted 50.;
            p99_ms = Stats.percentile sorted 99. }
        in
        let m = { m with blocks = b :: m.blocks } in
        if elapsed_s t0 >= !seconds then m else go (i + 1) ~ops:0 ~busy:0. ~block_reads:[] m
  in
  go 0 ~ops:0 ~busy:0. ~block_reads:[] { ops = 0; reads = 0; blocks = []; write_ms = [] }

(* A read through the engine or, traced, through the mirror. *)
let read ~trace_state ~req engine qi =
  let q = queries.(qi).Lubm.Workload.query in
  timed (fun () ->
      match trace_state with
      | Some tr -> Mirror.answer tr.mirror ~req q
      | None -> (Obda.answer engine tbox strategy q).Obda.answers)

let checked_read ~trace_state ~req (es : engine_setup) qi =
  let answers, s = read ~trace_state ~req es.engine qi in
  (match answers with
  | Ok a -> check_same ~what:queries.(qi).Lubm.Workload.name es.reference.(qi) a
  | Error e -> diverged "%s: engine error %s" queries.(qi).Lubm.Workload.name e);
  s

(* The metrics of an in-process run, read right after its measured
   phase: the peak RSS before any oracle engine is built. *)
let in_process_metrics ~times ~trace_state ~compactions ~store_bytes_per_fact m =
  let setup, setup_layers = setup_metrics times in
  match trace_state with
  | None ->
    let med f = Stats.median (List.map f m.blocks) in
    end_to_end
      ~throughput:(med (fun b -> b.qps))
      ~p50:(med (fun b -> b.p50_ms)) ~p99:(med (fun b -> b.p99_ms))
      ~rss:(rss_peak_mb "self") ~store_bytes_per_fact
    @ setup
  | Some tr ->
    layer_metrics tr ~ops:m.ops ~reads:m.reads ~compactions
    @ setup_layers @ no_server

(* Reads of the Zipf stream through [es] until [closed_loop] stops, or
   after [limit] reads. A [cold] loop clears every plan and
   reformulation cache, untimed, before each read. *)
let read_loop ?(limit = max_int) ~cold ~trace_state es =
  let pick = zipf_stream !seed in
  closed_loop (fun i ->
      if i >= limit then None
      else begin
        let qi = pick () in
        if cold then begin
          clear_caches ();
          Option.iter (fun tr -> Mirror.reset_plans tr.mirror) trace_state
        end;
        Some (true, checked_read ~trace_state ~req:i es qi)
      end)

let run_read_only ~facts ~cold ~oracle =
  let es, times =
    repeat_setup ~before:clear_caches (setup_engine ~total:facts ~base:facts)
  in
  let trace_state = if !trace then Some (start_trace es.engine) else None in
  Gc.compact ();
  let store_bytes_per_fact = bytes_per_fact es.store facts in
  let m = read_loop ~cold ~trace_state es in
  let metrics = in_process_metrics ~times ~trace_state ~compactions:0 ~store_bytes_per_fact m in
  oracle es;
  Option.iter (fun tr -> check_mirror tr es.engine) trace_state;
  { attempted = m.ops; failed = 0; metrics }

let warm_100k () =
  run_read_only ~facts:100_000 ~cold:false ~oracle:(fun es ->
      check_against_ucq ~facts:es.facts ~n:es.base es.reference)

let cold_5k () =
  run_read_only ~facts:5_000 ~cold:true ~oracle:(fun es ->
      check_against_chase ~abox:(abox_of es.facts es.base) es.reference)

let batch = 32

let ingest_100k () =
  let base = 100_000 in
  (* One batch per read, for whole blocks at up to 150 reads/s plus the
     block that ends the run: more than this engine sustains. *)
  let reads = block * (2 + int_of_float (150. *. !seconds /. float_of_int block)) in
  let total = base + (batch * reads) in
  let es, times = repeat_setup ~before:clear_caches (setup_engine ~total ~base) in
  let trace_state = if !trace then Some (start_trace es.engine) else None in
  Gc.compact ();
  let pick = zipf_stream !seed in
  let next = ref base and compactions = ref 0 in
  let pending = ref (Rdbms.Layout.delta_fact_count (Obda.layout es.engine)) in
  let write ~req =
    let lo = !next in
    next := lo + batch;
    let go () = for i = lo to lo + batch - 1 do insert es.engine es.facts.(i) done in
    let (), s =
      timed (fun () ->
          match trace_state with
          | Some tr ->
            let root = Spans.enter tr.spans ~req ~parent:(-1) "write" in
            Spans.span tr.spans ~req ~parent:root.Spans.id "storage.insert" go;
            Spans.leave root
          | None -> go ())
    in
    (* a compaction empties the delta tails it merges *)
    let now = Rdbms.Layout.delta_fact_count (Obda.layout es.engine) in
    if now < !pending then incr compactions;
    pending := now;
    s
  in
  let step i =
    if i mod 2 = 0 then begin
      let qi = pick () in
      match read ~trace_state ~req:i es.engine qi with
      | Ok _, s -> Some (true, s)
      | Error e, _ -> diverged "%s: engine error %s" queries.(qi).Lubm.Workload.name e
    end
    else if !next + batch <= Array.length es.facts then Some (false, write ~req:i)
    else None
  in
  (* of the loaded store, before inserts and compactions reshape it *)
  let store_bytes_per_fact = bytes_per_fact es.store base in
  let m = closed_loop step in
  let metrics =
    in_process_metrics ~times ~trace_state ~compactions:!compactions ~store_bytes_per_fact m
  in
  (* the grown engine against one built fresh from the same facts *)
  let grown = Array.map (fun e -> answer_exn es.engine e.Lubm.Workload.query) queries in
  check_against_ucq ~facts:es.facts ~n:!next grown;
  Option.iter (fun tr -> check_mirror tr es.engine) trace_state;
  if Option.is_none trace_state then begin
    let sorted = Stats.sorted_array m.write_ms in
    List.iter
      (fun p ->
        Printf.printf "# write_p%.0f_ms %.4f ms (printed only, not bounded)\n" p
          (Stats.percentile sorted p))
      [ 50.; 99. ]
  end;
  { attempted = m.ops; failed = 0; metrics }

(* {1 The server workload} *)

type server = {
  pid : int;
  mutable port : int;
  out : in_channel;
  store_file : string;
}

let live_servers : server list ref = ref []

let stop_server s =
  if List.memq s !live_servers then begin
    live_servers := List.filter (fun x -> x != s) !live_servers;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let t0 = Obs.Mclock.now_ns () in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when elapsed_s t0 < 10. ->
        Unix.sleepf 0.02;
        reap ()
      | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ();
    close_in_noerr s.out;
    (try Sys.remove s.store_file with Sys_error _ -> ())
  end

let () = at_exit (fun () -> List.iter stop_server !live_servers)

(* Starts obda_server on a saved store and waits until it listens; the
   port comes from its "listening on HOST:PORT" line. *)
let spawn_server store_file =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process !server_exe
      [| !server_exe; "--store"; store_file; "--port"; "0"; "--max-rows"; "1000000000" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let s = { pid; port = 0; out; store_file } in
  live_servers := s :: !live_servers;
  let line = try input_line out with End_of_file -> failwith "obda_server exited at start" in
  (try s.port <- Scanf.sscanf line "obda-server: %_s listening on %_[^:]:%d" Fun.id
   with Scanf.Scan_failure _ | Failure _ | End_of_file -> failwith ("obda_server: " ^ line));
  s

let with_connection port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  f (fun request ->
      output_string oc (W.to_string request);
      output_char oc '\n';
      flush oc;
      match W.of_string (input_line ic) with
      | Ok reply
        when Option.bind (W.member "status" reply) W.to_string_opt
             = Some "OK" -> reply
      | Ok reply -> failwith ("obda_server replied " ^ W.to_string reply)
      | Error e -> failwith ("obda_server reply: " ^ e))

let answer_request name limit =
  W.Obj
    [ "op", W.String "ANSWER";
      "query", W.String name;
      "limit", W.Int limit ]

let registry_snapshot port =
  with_connection port (fun call ->
      let reply =
        call (W.Obj [ "op", W.String "METRICS"; "scope", W.String "registry" ])
      in
      match W.member "registry" reply with
      | Some json -> snapshot_of_json json
      | None -> failwith "METRICS reply without a registry")

let server_answers port =
  with_connection port (fun call ->
      Array.map
        (fun e ->
          let reply = call (answer_request e.Lubm.Workload.name 1_000_000_000) in
          let rows = Option.bind (W.member "answers" reply) W.to_list_opt in
          let row r =
            List.map
              (fun v -> Option.value ~default:"" (W.to_string_opt v))
              (Option.value ~default:[] (W.to_list_opt r))
          in
          List.map row (Option.value ~default:[] rows))
        queries)

let server_rate = 400.

(* At 400 req/s over a 20 s run, windows of 1000 requests: ten
   samples beyond each window's p99. *)
let windows = 8

let server_5k () =
  let facts = 5_000 in
  let store_file = Printf.sprintf ".obda_bench-%d.col" (Unix.getpid ()) in
  let previous = ref None in
  let before () = Option.iter stop_server !previous in
  let once () =
    let facts_arr, generate_s = timed (fun () -> generate facts) in
    let (store, server), build_s =
      timed (fun () ->
          let store = build_store facts_arr facts in
          Rdbms.Storage.save store store_file;
          store, spawn_server store_file)
    in
    previous := Some server;
    let (), warm_s =
      timed (fun () ->
          with_connection server.port (fun call ->
              Array.iter
                (fun e -> ignore (call (answer_request e.Lubm.Workload.name 0)))
                queries))
    in
    (facts_arr, store, server), { generate_s; build_s; warm_s }
  in
  let (facts_arr, store, server), times = repeat_setup ~before once in
  let registry0 = if !trace then Some (registry_snapshot server.port) else None in
  (* The load runs in [windows] back-to-back windows of equal length,
     each with its own stream seed; latency percentiles are the medians
     of the windows', for the same reason in-process runs report block
     medians. Only the first window starts with a warm-up second. *)
  let reports, wall_s =
    List.split
      (List.init windows (fun w ->
           let warmup_s = if w = 0 then 1. else 0. in
           let report, wall_s =
             timed (fun () ->
                 Server.Loadgen.run
                   { Server.Loadgen.default_config with
                     port = server.port;
                     sessions = 2;
                     mode = Server.Loadgen.Open_loop server_rate;
                     duration_s = warmup_s +. (!seconds /. float_of_int windows);
                     warmup_s;
                     seed = (!seed * windows) + w;
                     answer_limit = 0 })
           in
           report, wall_s -. warmup_s))
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let med f = Stats.median (List.map f reports) in
  (* The loadgen's own achieved rate divides by the scheduled window,
     which an open loop fills exactly; replies per second of wall time
     also count a server that falls behind and drains late. *)
  let throughput =
    float_of_int (sum (fun r -> r.Server.Loadgen.r_ok)) /. List.fold_left ( +. ) 0. wall_s
  in
  let rss = rss_peak_mb (string_of_int server.pid) in
  let registry1 = if !trace then Some (registry_snapshot server.port) else None in
  (* verification over TCP with a limit above every answer size *)
  let served = server_answers server.port in
  stop_server server;
  let abox = abox_of facts_arr facts in
  check_against_chase ~abox served;
  let failed =
    sum (fun r ->
        r.Server.Loadgen.r_shed + r.Server.Loadgen.r_timeouts + r.Server.Loadgen.r_errors)
  in
  let setup, setup_layers = setup_metrics times in
  let metrics =
    match registry0, registry1 with
    | Some r0, Some r1 ->
      (* Shares of the mean client latency: queue wait and engine time
         from the server's histograms, the rest (both socket hops and
         the client's own scheduling) is wire. *)
      let mean name = Stats.ratio (delta r0 r1 (name ^ ".sum")) (delta r0 r1 (name ^ ".count")) in
      let client =
        List.fold_left
          (fun acc r -> acc +. (r.Server.Loadgen.mean_ms *. float_of_int r.Server.Loadgen.r_ok))
          0. reports
        /. float_of_int (sum (fun r -> r.Server.Loadgen.r_ok))
      in
      let queue = mean "server.queue.wait_ms" and served_ms = mean "server.answer.latency_ms" in
      let server_layers =
        [ "server.queue_wait.share", Stats.ratio queue client, "frac";
          "server.engine.share", Stats.ratio (served_ms -. queue) client, "frac";
          "server.wire.share", Stats.ratio (client -. served_ms) client, "frac" ]
      in
      (* The engine layers: the server's request count replayed in
         process through the mirror, on an engine over the same store. *)
      clear_caches ();
      let engine = Obda.make_engine_of_layout `Pglite (Rdbms.Layout.of_storage store) in
      let reference = Array.map (fun e -> answer_exn engine e.Lubm.Workload.query) queries in
      Array.iteri
        (fun i a ->
          check_same
            ~what:(queries.(i).Lubm.Workload.name ^ " in process vs server")
            served.(i) a)
        reference;
      let es = { facts = facts_arr; base = facts; store; engine; reference } in
      let tr = start_trace engine in
      let m =
        read_loop ~limit:(sum (fun r -> r.Server.Loadgen.requests)) ~cold:false
          ~trace_state:(Some tr) es
      in
      let layers = layer_metrics tr ~ops:m.ops ~reads:m.reads ~compactions:0 in
      check_mirror tr engine;
      layers @ setup_layers @ server_layers
    | _ ->
      end_to_end ~throughput ~p50:(med (fun r -> r.Server.Loadgen.p50_ms))
        ~p99:(med (fun r -> r.Server.Loadgen.p99_ms)) ~rss
        ~store_bytes_per_fact:(bytes_per_fact store facts)
      @ setup
  in
  { attempted = sum (fun r -> r.Server.Loadgen.requests); failed; metrics }

(* {1 Main} *)

let workloads =
  [ "warm-100k", warm_100k;
    "cold-5k", cold_5k;
    "ingest-100k", ingest_100k;
    "server-5k", server_5k ]

let result_json ~extra r =
  let metric (name, value, unit) =
    if not (Float.is_finite value) then failwith (Printf.sprintf "metric %s is %f" name value);
    name, W.Obj [ "value", W.Float value; "unit", W.String unit ]
  in
  W.to_string
    (W.Obj
       (extra
       @ [ "correct", W.Bool true;
           "attempted", W.Int r.attempted;
           "failed", W.Int r.failed;
           "metrics", W.Obj (List.map metric r.metrics) ]))

let () =
  let spec =
    [ "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N seed of the request stream";
      "--seconds", Arg.Set_float seconds, "S measured duration (default 20)";
      "--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 per-layer traced run";
      "--out", Arg.String (fun f -> out_file := Some f), "FILE also write the result JSON here";
      "--spans", Arg.String (fun f -> spans_file := Some f), "FILE write the traced spans here";
      "--server", Arg.Set_string server_exe, "EXE obda_server executable" ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "obda_bench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]";
  (* sequential evaluation, the default of obda_server and obda_cli *)
  Parallel.set_default_jobs 1;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "obda_bench: unknown workload %S (one of %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  match run () with
  | exception Diverged msg ->
    Printf.eprintf "obda_bench: %s: answers diverged from the oracle: %s\n" !workload msg;
    exit 1
  | r ->
    List.iter (fun (name, value, unit) -> Printf.printf "%s %.6g %s\n" name value unit) r.metrics;
    Option.iter
      (fun file ->
        let oc = open_out file in
        output_string oc
          (result_json
             ~extra:
               [ "workload", W.String !workload;
                 "seed", W.Int !seed;
                 "trace", W.Bool !trace ]
             r);
        output_char oc '\n';
        close_out oc)
      !out_file;
    print_endline (result_json ~extra:[] r)
