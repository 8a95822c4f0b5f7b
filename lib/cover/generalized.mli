(** Generalized covers (Section 5.2 of the paper): fragments [f‖g]
    where [g] is the semantic core (a fragment of a safe cover) and
    [f ⊇ g] adds extra atoms acting as semijoin reducers — they filter
    the fragment's answers without enlarging its head.

    A generalized cover belongs to the space [Gq] when the cover
    [{g1,…,gm}] is safe and each [fi] induces a connected atom
    graph. Every [Gq] cover yields a FOL reformulation (Theorem 3). *)

module Iset = Cover.Iset

type gfragment = private {
  f : Iset.t;  (** all atoms of the fragment query body *)
  g : Iset.t;  (** the atoms determining the head, [g ⊆ f] *)
}

type t = private {
  query : Query.Cq.t;
  fragments : gfragment list;
}

val make : Query.Cq.t -> (int list * int list) list -> t
(** [(f, g)] pairs of atom indexes. Raises [Invalid_argument] when
    [g ⊄ f], when some [g] is empty, when the [f]s do not cover the
    atoms or are not an antichain, or when the [g]s are not a partition
    of the atoms. *)

val of_cover : Cover.t -> t
(** Embeds a simple partition cover ([f = g] everywhere). *)

val base_cover : t -> Cover.t
(** The safe-cover skeleton [{g1,…,gm}]. *)

val is_simple : t -> bool
(** Whether [f = g] for every fragment. *)

val fragments : t -> gfragment list

val fragment_count : t -> int

val in_gq : Dllite.Tbox.t -> t -> bool
(** Membership in [Gq]: base cover safe and every [f] connected. *)

val fragment_query : t -> gfragment -> Query.Cq.t
(** The generalized fragment query [q|f‖g] (Definition 7): body = atoms
    of [f]; head = free variables of the query in atoms of [g], plus
    variables of [g]-atoms shared with [g]-atoms of other fragments. *)

val fragment_queries : t -> Query.Cq.t list

val merge : t -> gfragment -> gfragment -> t
(** The [union] move of GDL: [(f1 ∪ f2)‖(g1 ∪ g2)]. *)

val mergeable : t -> gfragment -> gfragment -> bool
(** Whether the union of the two fragments is join-connected, i.e. the
    merge stays inside [Gq]. *)

val enlarge : t -> gfragment -> int -> t
(** The [enlarge] move of GDL: add one atom, connected to [f], to [f]
    only. Raises [Invalid_argument] if the atom does not share a
    variable with [f], is already in [f], or if adding it would make
    [f] a superset of another fragment. *)

val enlargeable_atoms : t -> gfragment -> int list
(** Atoms usable by {!enlarge} on this fragment. *)

val enumerate : ?max_count:int -> Dllite.Tbox.t -> Query.Cq.t -> t list
(** The space [Gq]: for every safe cover of [Lq], every way of
    extending its fragments with connected atoms (an antichain of
    connected supersets). Capped at [max_count] covers (default
    20,000, as in the paper's experiment on A6). *)

val gq_count : ?max_count:int -> Dllite.Tbox.t -> Query.Cq.t -> int * bool
(** [(count, capped)]: the size of [Gq], and whether the cap was hit. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val structural_key : t -> string
(** A canonical, injective rendering of the cover {e structure} (the
    sorted [f]/[g] index sets of every fragment), independent of any
    pretty-printer: ["f0|g0;f1|g1;…"] with indices comma-separated.
    Two covers of the same query receive equal keys iff they are
    {!equal} — safe as a memoisation key (unlike {!pp}, whose output
    format may elide or change). *)

val pp : Format.formatter -> t -> unit
