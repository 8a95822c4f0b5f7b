(** Factorising product-shaped UCQ leaves into joins of unions
    (DESIGN §15.6).

    PerfectRef reformulates every atom of a fragment independently, so
    a fragment leaf is often the cross product of its atoms'
    alternatives: Q6's [Lecturer(x) ∧ coAuthorWith(x,y) ∧ Student(y)]
    becomes 2 × 10 × 9 = 180 arms. By distributivity of ∧ over ∨ such
    a leaf equals the join of three short unions (2 + 10 + 9 CQs),
    which the executor evaluates once per part instead of once per
    arm.

    Each arm is split into groups of atoms connected through
    existential variables (variables outside the leaf's output). A
    group that touches exactly one output variable [v] belongs to the
    unary part of [v]; every other group belongs to the core. The
    leaf is rewritten to [Join (core union, one unary union per
    variable)] only when
    - the arms are exactly the product of the distinct parts (compared
      on canonical forms), which is what makes the join equivalent to
      the leaf, and
    - the join has strictly fewer CQs than the leaf.

    Every other leaf is returned unchanged. *)

type stat = {
  arms : int;  (** CQs of the leaf *)
  parts : int list;
      (** distinct parts per union of the join: the core first (when
          the arms have one), then the unary parts in output order *)
}

val leaf : Query.Term.t list -> Query.Ucq.t -> (Query.Fol.t list * stat) option
(** [leaf out ucq] splits the leaf [Leaf {out; ucq}]: the parts of its
    join (each a leaf over a subset of [out]) and their counts, or
    [None] when the leaf is not an exact product or the join would not
    be smaller. Requires [out] to be pairwise distinct variables equal
    to every arm's head; any other leaf gives [None]. *)

val factorise : Query.Fol.t -> Query.Fol.t * stat list
(** Factorises a UCQ or JUCQ: a leaf becomes a join of its parts, and
    the factorised leaves of a join are spliced into that join, so
    the result stays a JUCQ and the planner orders every part at
    once. Returns the input physically unchanged, with [[]], when no
    leaf factorises; otherwise one {!stat} per factorised leaf, in
    leaf order. Adds the CQs saved to [reform.factorised.arms_saved]. *)

val pp_stat : Format.formatter -> stat -> unit
(** [180 arms → 21 (2 + 10 + 9)]. *)
