(* obda-loadgen: drive a running obda-server.

   Default mode replays a Zipf-skewed workload stream over N
   concurrent sessions — closed loop (--qps 0) or open loop at a
   target offered rate — and prints the latency/throughput report.
   --watch polls the server's METRICS verb instead, for the third
   terminal of the README walkthrough. *)

open Cmdliner

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")

let port_arg =
  Arg.(value & opt int 7777 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Server port.")

let qps_arg =
  Arg.(value & opt float 0.
       & info [ "qps" ] ~docv:"QPS"
           ~doc:"Offered requests/second (open loop). $(b,0) = closed loop: each session \
                 keeps one request outstanding and throughput finds server capacity.")

let sessions_arg =
  Arg.(value & opt int 4 & info [ "sessions"; "c" ] ~docv:"N" ~doc:"Concurrent client sessions.")

let duration_arg =
  Arg.(value & opt float 5.0 & info [ "duration"; "d" ] ~docv:"SECS" ~doc:"Run length, warmup included.")

let warmup_arg =
  Arg.(value & opt float 1.0
       & info [ "warmup" ] ~docv:"SECS" ~doc:"Leading slice excluded from the statistics.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Request-stream seed.")

let strategy_arg =
  Arg.(value & opt (some string) None
       & info [ "strategy"; "s" ] ~docv:"STRATEGY"
           ~doc:"Strategy sent with each request (default: let the server choose).")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline sent with each request.")

let limit_arg =
  Arg.(value & opt int 0
       & info [ "limit" ] ~docv:"K"
           ~doc:"Answer rows requested per reply ($(b,0) = count-only, the cheapest wire format).")

let writer_arg =
  Arg.(value & opt (some float) None
       & info [ "writer" ] ~docv:"SECS"
           ~doc:"Also run a writer session inserting one fresh fact every $(docv) seconds, \
                 bumping the KB generation under the readers.")

let watch_arg =
  Arg.(value & opt (some float) None
       & info [ "watch" ] ~docv:"SECS"
           ~doc:"Do not generate load; poll the server's METRICS verb every $(docv) seconds \
                 until interrupted.")

let watch_metrics host port period =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let stop = ref false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  (try
     while not !stop do
       output_string oc "{\"op\":\"METRICS\",\"scope\":\"server\"}\n";
       flush oc;
       Fmt.pr "%s@." (input_line ic);
       Thread.delay period
     done
   with End_of_file | Sys_error _ -> Fmt.epr "obda-loadgen: server closed the connection@.");
  (try Unix.close fd with _ -> ())

let run_cmd =
  let run host port qps sessions duration warmup seed strategy deadline_ms limit writer watch =
    match watch with
    | Some period -> watch_metrics host port period
    | None ->
      let cfg =
        { Server.Loadgen.host;
          port;
          sessions;
          mode = (if qps > 0. then Server.Loadgen.Open_loop qps else Server.Loadgen.Closed);
          duration_s = duration;
          warmup_s = warmup;
          seed;
          strategy;
          deadline_ms;
          answer_limit = limit;
          writer_period_s = writer }
      in
      let report = Server.Loadgen.run cfg in
      Fmt.pr "%a" Server.Loadgen.pp_report report;
      if report.Server.Loadgen.requests = 0 then exit 1
  in
  Cmd.v
    (Cmd.info "obda-loadgen" ~version:"%%VERSION%%"
       ~doc:"Load-generate against obda-server: Zipf workload replay, closed or open loop.")
    Term.(const run $ host_arg $ port_arg $ qps_arg $ sessions_arg $ duration_arg $ warmup_arg
          $ seed_arg $ strategy_arg $ deadline_arg $ limit_arg $ writer_arg $ watch_arg)

let () = exit (Cmd.eval run_cmd)
