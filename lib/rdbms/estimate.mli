(** Textbook cardinality estimation used for join ordering and by the
    native cost estimators: per-table cardinalities and distinct
    counts, uniform distributions, independent predicates. *)

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

val cq_rows : Layout.t -> Query.Atom.t list -> float
(** Estimated cardinality of a conjunctive body. *)

val order_atoms : Layout.t -> Query.Atom.t list -> Query.Atom.t list
(** Greedy join order: start from the smallest atom, repeatedly add the
    connected atom minimising the estimated intermediate size. *)

val order_by : atom:('a -> Query.Atom.t) -> est:('a -> est) -> 'a list -> 'a list
(** {!order_atoms} over items that carry an atom and its
    already-computed {!atom} estimate, so a caller that needs the
    estimates anyway computes each one once. *)
