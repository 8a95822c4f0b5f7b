(** Safe covers for query answering (Definitions 5–6, Theorem 2).

    A cover is {e safe} w.r.t. a TBox when it is a partition of the
    query atoms such that any two atoms whose predicates depend on a
    common concept or role name (Definition 4) are in the same
    fragment. Safe covers guarantee that the cover-based reformulation
    is a FOL reformulation (Theorem 1).

    The safe covers of a query form a lattice [Lq]: the {e root cover}
    [Croot] is its finest element, the single-fragment cover its
    coarsest, and every safe cover's fragments are unions of root
    fragments (Theorem 2). *)

val root_cover : Dllite.Tbox.t -> Query.Cq.t -> Cover.t
(** The root cover [Croot] (Definition 6): the finest partition where
    dep-overlapping atoms share a fragment. When a dependency-merged
    fragment is not join-connected, it is further merged with a
    variable-sharing fragment so that condition (iii) of Definition 1
    holds (coarsening preserves safety). *)

val is_safe : Dllite.Tbox.t -> Cover.t -> bool
(** Definition 5 check. *)

val safe_covers : ?max_count:int -> Dllite.Tbox.t -> Query.Cq.t -> Cover.t list
(** All covers of the lattice [Lq]: partitions of the root-cover
    fragments whose fragments are join-connected (Definition 1 (iii)).
    The enumeration stops after [max_count] covers (default unlimited);
    the root cover comes first. *)

val safe_cover_count : ?max_count:int -> Dllite.Tbox.t -> Query.Cq.t -> int
(** [|Lq|], capped at [max_count] when provided. *)
