(** Textbook cardinality estimation: per-table cardinalities and
    distinct counts, uniform distributions, independent predicates.

    This module is the one place that says how rows combine — atoms,
    joins, conjunctive bodies, unions, fragment joins and the greedy
    fragment order. The planner, the engines' native estimators
    ({!Explain}) and the external cost model ([Cost.Cost_model],
    [Cost.Feedback], [Cost.Sip_pass]) call these rules; they add only
    their own cost constants, quirks and corrections. *)

type est = {
  rows : float;  (** estimated output cardinality *)
  ndv : (string * float) list;  (** per column, estimated distinct count *)
}

val ndv_of : est -> string -> float
(** Distinct-count estimate of a column (defaults to [rows]). *)

val atom : Layout.t -> Query.Atom.t -> est
(** Estimate for a single atom access. *)

val join : est -> est -> est
(** Natural-join estimate on the columns shared by the two inputs
    ([|L ⋈ R| = |L|·|R| / Π max(V(L,c), V(R,c))]). *)

val body_rows : ('a -> est) -> 'a list -> float
(** Rows of a conjunctive body: the estimates of its atoms (read
    through the projection, once each) combined with {!join} in body
    order; [0.] for an empty body. *)

val cq_rows : Layout.t -> Query.Atom.t list -> float
(** {!body_rows} of the atoms' {!atom} estimates. *)

val order_by : atom:('a -> Query.Atom.t) -> est:('a -> est) -> 'a list -> 'a list
(** Greedy join order of a body whose items carry an atom and its
    already-computed {!atom} estimate: start from the smallest atom,
    then repeatedly add the connected atom minimising the estimated
    intermediate size. *)

(** {2 Unions and fragment joins} *)

val union_rows : ('a -> float) -> 'a list -> float
(** Rows of a union — a UCQ's CQs, a union plan's inputs, a FOL union's
    branches: the sum of its arms' rows. An answer two arms share is
    counted twice. *)

val union : float -> est
(** The estimate of a union of that many rows. No per-column distinct
    count survives a union, so {!ndv_of} falls back to the row count.
    This deliberately biases the SIP pass ([Cost.Sip_pass]) toward
    [Probe_to_build] into unions. *)

val fragments_rows : ('a -> float) -> 'a list -> float
(** Rows of a join of materialised fragments: the minimum over its
    parts ([infinity] for none). *)

val fold_fragments :
  cols:('a -> string list) ->
  rows:('a -> float) ->
  first:('a -> 'acc) ->
  next:('acc -> 'a -> connected:bool -> 'acc) ->
  'a list ->
  'acc
(** The greedy fragment order of a join, folded: start from the part
    with the fewest [rows], then repeatedly add the smallest remaining
    part that shares one of its [cols] with a part already added. A
    part joins [~connected:false] (a cross product) only when no
    remaining part is connected. Ties go to the earliest part. Each
    part's [cols] and [rows] are read once. [Invalid_argument] on an
    empty list. *)

val reformulation_rows : Layout.t -> Query.Fol.t -> float
(** Static rows of a reformulation: {!cq_rows} per CQ, {!union_rows}
    over a leaf's CQs and a union's branches, {!fragments_rows} over a
    join's parts. *)

(** {2 Plans} *)

val scale : est -> float -> est
(** Scales an estimate's row count by a correction factor, clamping
    each per-column distinct count to the corrected row count. *)

val plan : correct:(Plan.t -> float option) -> Layout.t -> Plan.t -> est
(** Cardinality estimate of a physical plan: {!atom}, {!join} and
    {!union} folded over the tree; [Project], [Distinct],
    [Materialize] and [Sip] pass their input's estimate through.
    [correct] is asked for a factor at each node, outermost first.
    Where it gives one, the node's estimate is its uncorrected
    estimate {!scale}d by the factor, and the subtree is not asked
    again; otherwise the children are estimated, and corrected,
    independently. An index join's probed atom is asked as a [Scan]
    of that atom. [~correct:(fun _ -> None)] gives the static
    estimate. *)
