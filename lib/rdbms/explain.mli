(** Native cost estimation — what the paper obtains through Postgres'
    [EXPLAIN] and DB2's [db2expln]. Each engine profile has its own
    constants and, crucially, its own estimation {e quirks}:

    - {b PgLite} (Postgres-like) takes drastic shortcuts on very large
      queries: beyond [union_sample] arms, union arms are no longer
      estimated individually but extrapolated from a fixed default —
      exactly the behaviour §6.3 blames for the bad GDL/RDBMS choices
      on Q9–Q11;
    - {b Db2Lite} (DB2-like) estimates every arm, and discounts
      repeated scans of the same table thanks to its buffer-locality
      runtime ([21]), making its estimates more reliable on large
      reformulations. *)

type profile = {
  name : string;
  c_scan : float;  (** per cell probed by a scan *)
  c_build : float;  (** per row inserted in a join hash table *)
  c_probe : float;  (** per probe row *)
  c_out : float;  (** per output row of a join *)
  c_distinct : float;  (** per row hashed for duplicate elimination *)
  c_mat : float;  (** per row materialised (WITH fragments) *)
  union_sample : int option;
      (** PgLite: unions above this arm count are not estimated
          arm-by-arm *)
  default_arm_rows : float;
      (** rows assumed per arm once the sampling shortcut kicks in *)
  repeated_scan_discount : float;
      (** cost multiplier for repeated scans of the same table ([1.0] =
          no discount) *)
  exec_config : Exec.config;  (** matching runtime behaviour *)
  max_sql_bytes : int option;
      (** statement-size limit; [Some 2_000_000] for Db2Lite *)
}

val pglite : profile

val db2lite : profile

type estimate = {
  total_cost : float;
  est_rows : float;
}

val cost : profile -> Layout.t -> Plan.t -> estimate
(** Estimates the evaluation cost of a plan under the profile, in
    abstract work units (calibrated so that one unit ≈ one row
    operation). Each call starts with fresh repeated-scan discount
    state, so costing a subtree gives that operator's estimate in
    isolation of its siblings — the number EXPLAIN displays per
    operator and confronts with the actual cardinality under
    ANALYZE. *)

val q_error : est:float -> actual:int -> float
(** The q-error of a cardinality estimate:
    [max (est /. actual) (actual /. est)], both sides clamped below at
    one row so empty results don't produce infinities. [1.0] is a
    perfect estimate; the paper's §6.3 discussion of ε("ext") accuracy
    is this quantity aggregated over operators. *)

val render : profile -> Layout.t -> Plan.t -> string
(** An EXPLAIN-style rendering: the plan tree with the estimated
    cumulative cost and output cardinality of every operator. Unions
    are elided after four arms. *)

val render_json : profile -> Layout.t -> Plan.t -> string
(** {!render} as a JSON tree — one object per operator with [op],
    [label], [est_cost], [est_rows] and [children]; no union elision. *)

val render_analyze : profile -> Layout.t -> Exec.node_stats -> string
(** EXPLAIN ANALYZE rendering: one line per operator showing the
    estimate ([cost], [rows]) side by side with the recorded actuals
    ([rows], wall-clock [time], scan/build/view cache outcome) and the
    per-operator cardinality {!q_error}. Unions are elided after four
    arms, with the remainder aggregated on one line. *)

val render_analyze_json : profile -> Layout.t -> Exec.node_stats -> string
(** {!render_analyze} as a JSON tree — adds [actual_rows], [time_ms],
    [q_error] and [cache] (["hit"], ["miss"] or ["none"]) to each
    operator object; no union elision. *)
