(* obda-server: the concurrent OBDA endpoint.

   Loads a knowledge base the same way obda-cli does (generated LUBMe,
   --data file, --rdf graph or an mmap --store), then serves the
   newline-delimited JSON protocol of lib/server until SIGINT/SIGTERM.
   See DESIGN.md §13 for the protocol and README "Running the server"
   for a walkthrough. *)

open Cmdliner
open Common

let store_arg =
  store_arg
    ~doc:"Open the ABox from a binary column store (mmap; implies the simple layout). \
          Overrides --data/--facts/--rdf."

let tbox_arg = tbox_arg ~doc:"Load the TBox from $(docv) instead of the built-in LUBMe ontology."

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")

let port_arg =
  Arg.(value & opt int 7777 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Listen port ($(b,0) = ephemeral).")

let workers_arg =
  Arg.(value & opt int 2
       & info [ "workers" ] ~docv:"N" ~doc:"Worker threads draining the request queue.")

let queue_depth_arg =
  Arg.(value & opt int 64
       & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Bound on queued requests; beyond it requests are shed with OVERLOADED.")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Default per-request deadline; requests still queued past it get TIMEOUT.")

let max_rows_arg =
  Arg.(value & opt int 1000
       & info [ "max-rows" ] ~docv:"N" ~doc:"Cap on answer rows returned per ANSWER reply.")

let strategy_arg =
  Arg.(value & opt string "gdl-ext"
       & info [ "strategy"; "s" ] ~docv:"STRATEGY"
           ~doc:("Default reformulation strategy for requests that name none: "
                 ^ strategy_list ^ "."))

let serve_cmd =
  let run facts seed data rdf store tbox_file engine_kind layout host port workers
      queue_depth deadline_ms max_rows strategy plan_cap reform_cap =
    apply_caches plan_cap reform_cap;
    let default_strategy =
      match Obda.strategy_of_name strategy with
      | Some s -> s
      | None ->
        fail "unknown strategy %s (one of %s)" strategy (String.concat ", " Obda.strategy_names)
    in
    let tbox, engine = load_engine store rdf tbox_file data facts seed engine_kind layout in
    let config =
      { Server.Core.host;
        port;
        workers;
        queue_depth;
        default_strategy;
        default_deadline_ms = deadline_ms;
        max_answer_rows = max_rows }
    in
    let t = Server.Core.start ~config ~engine ~tbox () in
    Fmt.pr "obda-server: %s listening on %s:%d (workers %d, queue %d, strategy %s)@."
      (Obda.engine_name engine) host (Server.Core.port t) workers queue_depth strategy;
    let stop_requested = ref false in
    let request_stop _ = stop_requested := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not !stop_requested do
      Thread.delay 0.25
    done;
    Fmt.pr "obda-server: shutting down@.";
    Server.Core.stop t;
    let st = Server.Core.stats t in
    Fmt.pr
      "obda-server: served %d sessions, %d requests (%d ok, %d shed, %d timeouts, %d errors)@."
      st.Server.Core.accepted_sessions st.Server.Core.completed st.Server.Core.ok
      st.Server.Core.shed st.Server.Core.timeouts st.Server.Core.protocol_errors
  in
  Cmd.v
    (Cmd.info "obda-server" ~version:"%%VERSION%%"
       ~doc:"Serve OBDA query answering over a line-delimited JSON TCP protocol.")
    Term.(const run $ facts_arg $ seed_arg $ data_arg $ rdf_arg $ store_arg $ tbox_arg
          $ engine_arg $ layout_arg $ host_arg $ port_arg $ workers_arg $ queue_depth_arg
          $ deadline_arg $ max_rows_arg $ strategy_arg $ plan_cache_arg
          $ reform_cache_arg)

let () = exit (Cmd.eval serve_cmd)
