(** Physical query plans. Plans are built by {!Planner} from FOL query
    trees, executed by {!Exec}, and costed by {!Explain}. *)

type out_col =
  [ `Col of string  (** forward a column *)
  | `Const of string  (** emit a constant (head constants of CQs) *) ]

(** Which side of an annotated join seeds the semijoin reducer
    ({!Sip}). [Build_to_probe]: the reducer summarises the build
    side's join keys and prunes the probe subtree. [Probe_to_build]:
    the probe side is materialised first and its keys prune the build
    subtree — the direction that reaches into a reformulated union's
    arms before their rows are built. *)
type sip_dir =
  | Build_to_probe
  | Probe_to_build

type t =
  | Scan of Query.Atom.t
      (** one atom access: full scan, index lookup when a term is a
          constant, self-join filter when a variable repeats *)
  | Hash_join of { left : t; right : t; on : string list }
      (** natural join on shared column names; the right side is the
          build side *)
  | Merge_join of { left : t; right : t; on : string list }
      (** sort-merge join on shared column names *)
  | Index_join of { left : t; atom : Query.Atom.t; probe_col : string }
      (** index nested loop: for every left row, look the role atom up
          through the index on the side bound by [probe_col] (the
          paper's layouts index both role attributes) *)
  | Project of { input : t; out : out_col list }
  | Distinct of t
  | Union of { cols : string list; inputs : t list }
      (** positional union; [cols] names the output *)
  | Materialize of t
      (** fragment boundary: the WITH subqueries of the paper's SQL *)
  | Sip of { join : t; dir : sip_dir }
      (** sideways-information-passing annotation on a join ([join]
          must be a [Hash_join], [Merge_join] or [Index_join]): the
          executor builds a {!Sip.t} reducer from the [dir] source
          side and pushes it into the other side's subtree. Purely
          advisory — evaluation without the annotation returns the
          same answers. *)

val scan_cols : Query.Atom.t -> string list
(** Output column names of an atom scan: the distinct variables of the
    atom, in term order. *)

val out_cols : t -> string list
(** Output column names of a plan. Constant projection outputs are
    named positionally ([_const0], [_const1], ...), matching
    {!Relation.project}. *)

val predicates : t -> string list
(** Sorted, duplicate-free concept/role names the plan reads — the
    base data any cached result of (a fragment of) the plan depends
    on. Drives predicate-scoped invalidation of materialised views
    after updates. *)

val structural_key : t -> string
(** An injective serialisation of the plan (length-prefixed,
    term-tagged — a prefix code): equal keys imply equal plans. Keys
    the executor's materialised-view store; unlike {!pp}, it never
    conflates a variable with an equally-named constant. *)

val scan_count : t -> int

val union_arms : t -> int
(** Maximum number of inputs of a union in the plan. *)

val pp : Format.formatter -> t -> unit
