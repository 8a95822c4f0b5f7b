(** A process-wide metrics registry.

    Instruments record into named metrics of three kinds — monotonic
    {e counters}, last-value {e gauges} and fixed-bucket latency
    {e histograms} — and the registry exports everything as JSON or a
    one-screen text snapshot. All mutation is lock-free ([Atomic]),
    so instruments are safe to bump from the server's worker threads;
    registration (first lookup of a name) takes a mutex but sites
    obtain their instruments once, at module initialisation.

    Naming convention (see DESIGN.md §8): [<layer>.<subject>.<aspect>]
    with lowercase dot-separated segments, e.g.
    [exec.scan.requests] or [obda.answer.latency_ms]. Counters whose
    totals are fixed by plan and data carry no special marker in the
    name but are listed in DESIGN.md. *)

type counter

type gauge

type histogram

(** {2 Registration}

    Registration is idempotent: calling the constructor twice with the
    same name returns the same instrument (the [help] text of the
    first registration wins). A name registered as one kind cannot be
    re-registered as another ([Invalid_argument]). *)

val counter : ?help:string -> string -> counter
(** A monotonically increasing integer. *)

val gauge : ?help:string -> string -> gauge
(** A float holding the last value set. *)

val histogram : ?help:string -> ?buckets:float list -> string -> histogram
(** A histogram of float observations over fixed bucket upper bounds
    (strictly increasing; an implicit [+inf] bucket is appended).
    [buckets] defaults to {!default_latency_buckets_ms}. *)

val default_latency_buckets_ms : float list
(** [0.05 .. 10000] ms in a 1–2.5–5 progression — suited to the
    engine's per-query latencies. *)

(** {2 Recording} *)

val incr : counter -> unit

val add : counter -> int -> unit
(** [add c n] adds [n] (negative deltas are rejected with
    [Invalid_argument]: counters are monotonic; use a gauge). *)

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Records one observation: bumps the first bucket whose upper bound
    is [>= v] (or the overflow bucket) and accumulates count and sum. *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and observes its monotonic duration in
    milliseconds (also on exception). *)

(** {2 Reading} *)

val counter_value : counter -> int

val gauge_value : gauge -> float

val histogram_count : histogram -> int
(** Number of observations. *)

val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) list
(** [(upper_bound, count)] per bucket, non-cumulative, the overflow
    bucket last as [(infinity, n)]. *)

val find_counter : string -> counter option
(** Look a counter up by name without registering it. *)

val find_histogram : string -> histogram option
(** Look a histogram up by name without registering it. *)

(** {2 Export} *)

val to_json : unit -> string
(** The whole registry as one JSON object:
    [{"counters": [{"name","help","value"}...],
      "gauges": [...],
      "histograms": [{"name","help","count","sum","buckets":
        [{"le","count"}...]}...]}]
    Metrics are sorted by name; [le] of the overflow bucket is the
    string ["+inf"]; floats are printed with enough digits to
    round-trip. *)

val to_text : unit -> string
(** A one-screen plain-text snapshot: one line per counter and gauge,
    a compact [count/sum/mean + quantile] line per histogram. *)

val reset : unit -> unit
(** Zeroes every value (counters, gauges, histogram counts and sums).
    Registrations — names, help texts, bucket layouts — survive, so
    instruments held by instrumentation sites stay valid. Meant for
    tests and for per-run deltas in the bench. *)
