(** Which predicates of a TBox have no stored fact: the snapshot the
    data-aware PerfectRef prunes with (DESIGN §15.4).

    A name is {e empty} when the data holds no fact over it. It is
    {e hopeless} when it and every name of its {!Dllite.Tbox.dep}
    closure are empty: no CQ derived from an atom over it can ever
    return a row, because a specialisation only replaces an atom by one
    over a name of that closure and a reduce keeps the predicate.

    Only names the TBox mentions are ever empty; a query atom over any
    other name is treated as non-empty. A snapshot is immutable, so
    concurrent readers need no lock. *)

type t

val none : t
(** Nothing is empty: PerfectRef's data-independent output. *)

val make : Dllite.Tbox.t -> empty:(string -> bool) -> t
(** [make tbox ~empty] asks [empty n] once for every concept and role
    name of [tbox]. *)

val is_empty : t -> string -> bool

val is_hopeless : t -> string -> bool

val prunes : t -> bool
(** Some name is empty. [false] for {!none}. *)

val empty_count : t -> int

val hopeless_count : t -> int

val digest : t -> string
(** A digest of the empty set, [""] when nothing is empty. Two
    snapshots of one TBox with the same digest prune identically;
    reformulation caches put it in their keys. *)

val check : t -> Dllite.Tbox.t -> unit
(** [Invalid_argument] when the snapshot prunes and was made for
    another TBox (its hopeless names follow that TBox's closures). *)
