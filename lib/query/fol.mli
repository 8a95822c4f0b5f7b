(** FOL queries built from unions and joins of CQs — the reformulation
    dialects of Table 4 of the paper: UCQ, SCQ, USCQ, JUCQ, JUSCQ. All
    of them translate directly to SQL.

    Every node carries its nominal output terms [out]: the answer
    variables (or constants) of the subquery, aligned positionally with
    the heads of the underlying CQ disjuncts. Joins combine parts on
    the variables their outputs share, by name. *)

type t =
  | Leaf of { out : Term.t list; ucq : Ucq.t }
      (** a union of CQs whose heads all align with [out] *)
  | Join of { out : Term.t list; parts : t list }
      (** natural join of the parts, projected on [out] *)
  | Union of { out : Term.t list; branches : t list }
      (** positional union of same-arity branches *)

val leaf : out:Term.t list -> Ucq.t -> t
(** Raises [Invalid_argument] when the UCQ arity differs from the
    length of [out]. *)

val of_cq : Cq.t -> t

val of_ucq : Ucq.t -> t
(** Uses the head of the first disjunct as nominal output. Raises
    [Invalid_argument] on a UCQ with no disjuncts (which {!Ucq.make}
    cannot build, but an unsatisfiable-fragment reformulation path
    must not crash the process with an assertion failure). *)

val join : out:Term.t list -> t list -> t
(** Raises [Invalid_argument] when some variable of [out] appears in no
    part output, or when [parts] is empty. *)

val union : t list -> t
(** Raises [Invalid_argument] on an empty list or arity mismatch; the
    nominal output of the first branch is used. *)

val out : t -> Term.t list

val arity : t -> int

val cq_count : t -> int
(** Total number of CQ disjuncts in the tree. *)

val total_atoms : t -> int

val join_width : t -> int
(** Maximum number of parts of a join node (1 for union-only trees). *)

val is_cq : t -> bool

val is_ucq : t -> bool

val is_scq : t -> bool
(** Semi-conjunctive query: a join of unions of single-atom CQs. *)

val is_jucq : t -> bool

val is_uscq : t -> bool

val is_juscq : t -> bool

val dialect : t -> string
(** The narrowest of ["UCQ"], ["JUCQ"], ["JUSCQ"], or ["FOL"]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
