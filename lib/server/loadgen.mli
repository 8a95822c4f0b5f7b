(** A closed- and open-loop load generator for the OBDA server.

    The request stream is a Zipf-skewed draw over the LUBM workload
    (weight [1/rank] over Q1–Q13), issued over TCP by [sessions]
    concurrent client connections against a running {!Core} server.

    {b Closed loop} ([Closed]): every session keeps exactly one
    request outstanding and sends the next the moment a reply lands.
    Throughput self-adjusts to server capacity; the achieved QPS of a
    closed run calibrates capacity before picking open-loop offered
    rates.

    {b Open loop} ([Open_loop qps]): arrivals are scheduled on a
    uniform grid at the offered rate (session [k] owns every
    [sessions]-th slot, staggered), and {e latency is measured from
    the scheduled arrival time}, not from the actual send — a session
    that falls behind issues catch-up sends back-to-back, so queueing
    delay the client itself caused still shows up in the percentiles
    (the coordinated-omission correction).

    Samples whose scheduled (open) or send (closed) time falls inside
    the warmup window are counted but excluded from latency and
    hit-rate statistics. OVERLOADED and TIMEOUT replies are counted
    separately and never enter the percentiles. *)

type mode =
  | Closed
  | Open_loop of float  (** offered requests/second across all sessions *)

type config = {
  host : string;
  port : int;
  sessions : int;  (** concurrent client connections *)
  mode : mode;
  duration_s : float;  (** measured window, warmup included *)
  warmup_s : float;  (** leading slice discarded from statistics *)
  seed : int;  (** stream seed; per-session RNGs derive from it *)
  strategy : string option;  (** strategy name sent with each ANSWER *)
  deadline_ms : float option;  (** deadline sent with each ANSWER *)
  answer_limit : int;  (** [limit] field; [0] = count-only replies *)
  writer_period_s : float option;
      (** when set, a concurrent writer connection sends one UPDATE
          (fresh individual, so never a duplicate) every period,
          bumping the KB generation under the readers *)
}

val default_config : config
(** Closed loop, 4 sessions, 2 s + 0.5 s warmup, seed 1, server
    defaults for strategy/deadline, count-only answers, no writer. *)

type report = {
  r_mode : string;  (** ["closed"] or ["open"] *)
  offered_qps : float;  (** [0.] for closed loop *)
  r_sessions : int;
  r_duration_s : float;
  r_warmup_s : float;
  warmup_requests : int;  (** replies inside the warmup window *)
  requests : int;  (** measured replies (warmup excluded) *)
  r_ok : int;
  r_shed : int;  (** OVERLOADED replies *)
  r_timeouts : int;  (** TIMEOUT replies *)
  r_errors : int;  (** ERROR replies and transport failures *)
  achieved_qps : float;  (** measured OK replies / measured seconds *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
  max_ms : float;
  plan_hits : int;  (** OK replies served from the plan cache *)
  hit_rate : float;  (** [plan_hits / r_ok]; [nan] when no OKs *)
  writer_updates : int;  (** UPDATEs acknowledged by the server *)
  generation_end : int;  (** KB generation after the run *)
}

val run : config -> report
(** Drives the server and blocks until the run completes (hard stop
    at [duration_s] plus a grace period). Percentiles are
    nearest-rank over the measured OK latencies. Raises
    [Unix.Unix_error] when the server cannot be reached at all. *)

val pp_report : Format.formatter -> report -> unit
(** A compact human-readable summary, one field per line. *)
