(** DL-LiteR TBoxes: a finite set of axioms, with precomputed
    saturation (entailed inclusions), entailed disjointness,
    unsatisfiable concepts, and the predicate-dependency analysis
    [dep(N)] of Definition 4 of the paper. *)

type t

val of_axioms : Axiom.t list -> t
(** Builds a TBox and saturates it. Duplicate axioms are removed. *)

val empty : t

val uid : t -> int
(** A process-unique stamp assigned at construction. TBoxes are
    immutable, so the stamp identifies the constraint set for the
    lifetime of the process — caches use it as the "TBox version"
    component of their keys. *)

val axioms : t -> Axiom.t list

val positive_axioms : t -> Axiom.t list

val negative_axioms : t -> Axiom.t list

val axiom_count : t -> int

val concept_names : t -> string list
(** Concept names mentioned in the axioms, sorted. *)

val role_names : t -> string list
(** Role names mentioned in the axioms, sorted. *)

val mem_concept_name : t -> string -> bool

val mem_role_name : t -> string -> bool

(** {2 Entailed inclusions} *)

val subsumers_of_concept : t -> Concept.t -> Concept.Set.t
(** All basic concepts [B'] with [T ⊨ B ⊑ B'], including [B] itself. *)

val subsumees_of_concept : t -> Concept.t -> Concept.Set.t
(** All basic concepts [B'] with [T ⊨ B' ⊑ B], including [B] itself. *)

val subsumers_of_role : t -> Role.t -> Role.Set.t

val subsumees_of_role : t -> Role.t -> Role.Set.t

val entails_concept_sub : t -> Concept.t -> Concept.t -> bool

val entails_role_sub : t -> Role.t -> Role.t -> bool

(** {2 Entailed disjointness and unsatisfiability} *)

val disjoint_concepts : t -> Concept.t -> Concept.t -> bool
(** Whether [T ⊨ B1 ⊑ ¬B2]. *)

val disjoint_roles : t -> Role.t -> Role.t -> bool

val unsatisfiable_concepts : t -> Concept.Set.t
(** Basic concepts that can have no instance in any model of [T]
    (e.g. because two of their subsumers are disjoint, possibly through
    an existential chain). *)

val is_unsatisfiable : t -> Concept.t -> bool

(** {2 Predicate dependencies (Definition 4)} *)

module String_set : Set.S with type elt = string

val dep : t -> string -> String_set.t
(** [dep tbox n] is the set of concept and role names on which the
    predicate name [n] depends w.r.t. the TBox: the fixpoint of
    [dep0(N) = {N}], [depk(N) = depk-1(N) ∪ {cr(Y) | Y ⊑ X ∈ T, cr(X) ∈
    depk-1(N)}]. Every closure is computed by {!of_axioms}, so reads
    are lock-free and safe from concurrent threads; a name the TBox
    does not mention gets the singleton [{n}]. *)

val dep_overlap : t -> string -> string -> bool
(** Whether the two predicate names depend on a common name — the
    condition forcing two query atoms into the same fragment of a safe
    cover (Definition 5). *)

val pp : Format.formatter -> t -> unit
