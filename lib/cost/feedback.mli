(** Feedback-driven cardinality corrections: closing the loop from
    EXPLAIN ANALYZE back into the cost model.

    The paper's ε("ext") estimator (§6.1) prices reformulations from
    static table statistics under uniformity and independence — and
    E13 records how far those estimates drift from the cardinalities
    EXPLAIN ANALYZE actually observes (the per-operator q-error). This
    module {e uses} that record: a correction store harvests
    per-operator [(est_rows, actual_rows)] pairs from
    {!Rdbms.Exec.run_analyzed} trees, aggregates them into
    multiplicative correction factors keyed by {e (predicate,
    fragment shape)}, and the estimation stack
    ({!Cost_model.node},
    {!Sip_pass.annotate}, [Optimizer.Estimator.ext]) consults the
    factors on its next estimate — so the next EDL/GDL cover search
    ranks candidates with observed cardinalities.

    {b Keying.} Every correction is keyed by a canonical string naming
    the {e shape} of the operator output it corrects, built from the
    predicates accessed and the binding pattern of their terms —
    variable names are erased, so the same query shape shares
    corrections across renamings:
    - ["a:…"] one atom access (per predicate and constant positions);
    - ["j:…"] a join over a sorted atom-shape multiset (prefixes of a
      CQ's join fold get their own keys, and the planner and the cost
      model fold in the same {!Rdbms.Estimate.order_by} order);
    - ["u:…"] a union (one reformulated fragment) over the atom
      shapes of all its arms;
    - ["d:" ^ k] the duplicate-eliminated output of the operator keyed
      [k] — the root of every fragment and query plan.
    Long keys are replaced by a digest; keys stay deterministic.

    {b Aggregation.} Each observation contributes the sample
    [actual / est] (both clamped below at one row, as in
    {!Rdbms.Explain.q_error}). Samples fold into an exponentially
    weighted moving average per key, clamped into [[1/clamp, clamp]];
    a factor is only {e consulted} once its key has at least [min_obs]
    observations, so one noisy run cannot steer the optimizer. Every
    accepted observation advances the store's {e epoch} — the stamp
    cached plans carry so drifted ones can be re-ranked
    ([Obda.analyze]).

    All operations are thread-safe (one mutex per store); factor
    lookups are O(1).

    {b Instruments} (registry {!Obs.Metrics}): [feedback.observations]
    (pairs harvested), [feedback.corrections.applied] (factor lookups
    that returned a correction), [feedback.plan.reranks] (cached plans
    invalidated for drift), and the [feedback.epoch] gauge (epoch of
    the store that last changed). *)

type t

val create : ?alpha:float -> ?clamp:float -> ?min_obs:int -> unit -> t
(** A fresh, empty store. [alpha] (default [0.5]) is the EWMA weight
    of the newest sample; [clamp] (default [256.]) bounds factors into
    [[1/clamp, clamp]]; [min_obs] (default [2]) is the number of
    observations a key needs before its factor is consulted.
    [Invalid_argument] unless [0 < alpha <= 1], [clamp >= 1] and
    [min_obs >= 1]. *)

val epoch : t -> int
(** Starts at [0]; advances on every accepted observation (and on
    {!clear}). A cached plan costed under epoch [e] is stale once
    [epoch t > e] {e and} its recorded q-error drifts. *)

val clear : t -> unit
(** Drops every correction (the epoch still advances: consumers must
    not keep trusting plans costed under the dropped factors). *)

(** {2 Keys} *)

val atom_key : Query.Atom.t -> string

val atoms_key : tag:string -> Query.Atom.t list -> string
(** Key of a multi-atom shape: the sorted multiset of the atoms' shape
    strings under a one-letter [tag] (["j"] join, ["u"] union). *)

val distinct_key : string -> string
(** The duplicate-eliminated output of the operator keyed by the
    argument. *)

val fol_key : Query.Fol.t -> string
(** The key of the {e root} operator of the plan {!Rdbms.Planner}
    builds for this reformulation node — what {!harvest} records the
    observed answer cardinality under. *)

(** {2 Recording} *)

val observe : t -> key:string -> est:float -> actual:int -> unit
(** Folds one [(est, actual)] pair into the key's factor. *)

val harvest : t -> Rdbms.Layout.t -> Rdbms.Exec.node_stats -> int
(** Walks an EXPLAIN ANALYZE tree, pairing each operator's recorded
    actual cardinality with its {e uncorrected} static estimate, and
    records one observation per operator whose key differs from its
    parent's (scans, join prefixes, unions, distinct roots — pure
    pass-through operators are skipped). Returns the number of
    observations recorded. *)

(** {2 Consulting} *)

val factor : t -> string -> float option
(** The clamped EWMA correction for a key, or [None] below the
    [min_obs] threshold. Bumps [feedback.corrections.applied] on a
    hit. *)

val lookup : t option -> string -> float option
(** [factor] through an optional store ([None] store: no correction) —
    the shape every [?feedback] parameter threads through the
    estimation stack. *)

val trained : t option -> bool
(** Whether any key has reached the [min_obs] threshold — one atomic
    read, no lock. Consulting sites use it (and the lazy-key variants
    below) so an absent or untrained store costs the cover-search hot
    path nothing, not even key construction. *)

val lookup_atoms : t option -> tag:string -> Query.Atom.t list -> float option
(** [lookup] of {!atoms_key}, building the key only when {!trained}. *)

val lookup_fol : t option -> Query.Fol.t -> float option
(** [lookup] of {!fol_key}, building the key only when {!trained}. *)

val scale : Rdbms.Estimate.est -> float -> Rdbms.Estimate.est
(** Scales an estimate's row count by a correction factor, clamping
    each per-column distinct count to the corrected row count. *)

val atom_est : ?feedback:t -> Rdbms.Layout.t -> Query.Atom.t -> Rdbms.Estimate.est
(** {!Rdbms.Estimate.atom} with the atom-key correction applied. *)

val plan_est : ?feedback:t -> Rdbms.Layout.t -> Rdbms.Plan.t -> Rdbms.Estimate.est
(** Cardinality estimate of a physical plan: {!Rdbms.Estimate}'s
    atom, join and union rules folded over the tree, with the correction for the
    {e outermost} matching key applied to each subtree. With no
    [?feedback] this is the uncorrected static estimate — the base the
    factors were learned against (and the estimate {!Sip_pass} always
    used). *)

val root_q_error :
  ?feedback:t -> Rdbms.Layout.t -> Rdbms.Exec.node_stats -> float
(** The {!Rdbms.Explain.q_error} of the (corrected) root-cardinality
    estimate against the actually observed answer count. *)

val note_rerank : unit -> unit
(** Bumps [feedback.plan.reranks] — called by the plan cache when it
    invalidates a drifted entry. *)

(** {2 Statistics} *)

type stats = {
  keys : int;  (** distinct correction keys stored *)
  ready : int;  (** keys at or above the [min_obs] threshold *)
  observations : int;  (** total pairs folded in *)
  epoch : int;
  min_obs : int;
  alpha : float;
  clamp : float;
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit

val entries : t -> (string * float * int) list
(** [(key, factor, observations)] for every stored key, sorted by key
    — the repl's [feedback stats] listing and the golden save
    format. *)

(** {2 Persistence}

    A versioned, line-oriented on-disk format ([OBDAFBK1]), following
    the [OBDACOL1] discipline: a magic/version header, fully validated
    fields, and a {!load} that returns [Error] on {e any} malformed
    input — never an exception — so a corrupt or truncated file can't
    crash a server that warms its corrections from disk. *)

val save : t -> string -> unit
(** Writes the store atomically (temp file + rename). [Sys_error] on
    I/O failure, like {!Rdbms.Storage.save}. *)

val load : string -> (t, string) result
(** Reads a store written by {!save}, revalidating every line: magic,
    version, parameter ranges, entry count, factor bounds. *)

val load_exn : string -> t
(** [Failure] on error; for tests and the bench. *)
