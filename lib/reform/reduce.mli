(** TBox-redundant atom elimination: the query-elimination step of
    Gottlob, Orsi and Pieris, run before the cost-based cover searches
    (DESIGN §15.5).

    An atom [a] of [q] is {e redundant} when the rest of the body
    entails it under the TBox's positive inclusions, with the
    variables [a] shares with the rest (and the head) fixed: some
    disjunct of the unpruned {!Perfectref.fixpoint} of [q_a(shared) ←
    a] maps homomorphically into [q_a(shared) ← rest]. Then [q] and
    [q] without [a] have the same certain answers over every
    T-consistent ABox, and so the same PerfectRef reformulation up to
    containment. The test never chases. *)

val reduce : Dllite.Tbox.t -> Query.Cq.t -> Query.Cq.t * Query.Atom.t list
(** [reduce tbox q] drops redundant atoms greedily, to a fixpoint:
    each pass tries the atoms in body order against the body as it
    stands, and passes repeat while one drops an atom (dropping one
    atom can make another redundant). An atom is only tried when some
    predicate of the rest is in the [Tbox.dep] closure of its own, and
    never when its removal would leave a head variable out of the body
    or the body empty.

    Returns the reduced CQ (same name and head, surviving atoms in
    their order) and the dropped atoms in body order; [q] itself when
    nothing is dropped. Counts the dropped atoms in
    [reform.atoms.dropped] and observes [reform.reduce_ms]. *)
