(** Conjunctive queries (select-project-join queries).

    A CQ [q(x̄) ← a1 ∧ … ∧ an] has a head listing answer terms (usually
    variables, but substitutions applied during reformulation may
    introduce constants or repeated variables) and a body of atoms. *)

type t = private {
  name : string;  (** query name, e.g. ["q"] — cosmetic *)
  head : Term.t list;  (** answer terms [x̄] *)
  body : Atom.t list;  (** atoms [a1 … an] *)
}

val make : ?name:string -> head:Term.t list -> body:Atom.t list -> unit -> t
(** Builds a CQ. Raises [Invalid_argument] if the body is empty or if a
    head variable does not occur in the body (unsafe query). *)

val arity : t -> int

val atoms : t -> Atom.t list

val atom_count : t -> int

val vars : t -> Term.Set.t
(** All variables of the body. *)

val head_vars : t -> Term.Set.t
(** Variables occurring in the head. *)

val existential_vars : t -> Term.Set.t
(** Body variables not occurring in the head. *)

val is_head_var : t -> string -> bool

val is_unbound_var : t -> Term.t -> bool
(** [is_unbound_var q t] holds when [t] is an existential variable with
    a single occurrence in the body — the "unbound" (⊥-replaceable)
    variables of the PerfectRef algorithm {e [13]}. *)

val is_connected : t -> bool
(** Whether the body atoms form a connected graph through shared
    variables (the paper considers only connected queries). *)

val substitute : Subst.t -> t -> t
(** Applies a substitution to head and body, removing duplicate atoms
    that the substitution may create. *)

val replace_atom : t -> int -> Atom.t -> t
(** [replace_atom q i a] replaces the [i]-th body atom by [a]. When [a]
    keeps every head variable of the atom it replaces (as every
    PerfectRef specialisation does) the result is built without
    {!make}'s safety scan; otherwise it goes through {!make} and raises
    like it. *)

val rename_apart : avoid:Term.Set.t -> t -> t
(** Renames existential variables so that they avoid the given set. *)

val canonicalize : t -> t
(** Renames existential variables to a canonical sequence ([_c0],
    [_c1] …, skipping any name a head variable uses) determined by a
    deterministic atom ordering, and sorts the body. Two CQs that are
    syntactically identical up to existential renaming receive the same
    canonical form (the converse may fail for rare symmetric bodies,
    which is harmless for its use as a duplicate filter); equal
    canonical forms mean the two CQs are renamings of each other.
    Idempotent except on bodies whose renaming passes meet no cycle
    within the walk's fuel (long chains of existential variables). *)

val canonical_body : head:Term.t list -> Atom.t list -> Atom.t list
(** One pass of {!canonicalize} over a body, without building a CQ:
    the variables outside [head] are existential. Equal results mean
    the two bodies are renamings of each other that fix [head]; two
    renamings of a symmetric body may give different results. *)

val compare : t -> t -> int
(** Syntactic comparison (use after {!canonicalize} for set semantics). *)

val equal : t -> t -> bool

val exists_hom : from_q:t -> to_q:t -> bool
(** [exists_hom ~from_q ~to_q] decides whether there is a homomorphism
    from [from_q] to [to_q]: a mapping of terms, identity on constants,
    sending the head of [from_q] elementwise onto the head of [to_q] and
    every body atom of [from_q] onto a body atom of [to_q]. *)

val contained_in : t -> t -> bool
(** [contained_in q1 q2] decides [q1 ⊑ q2] (every answer of [q1] is an
    answer of [q2] over any database), i.e. a homomorphism from [q2] to
    [q1] exists. The two queries must have the same arity. *)

val equivalent : t -> t -> bool

val reduce : t -> int -> int -> t option
(** [reduce q i j] unifies the [i]-th and [j]-th body atoms with their
    most general unifier and applies it to the whole query (the
    [reduce] step of PerfectRef); [None] when the atoms do not unify. *)

val fresh_var : unit -> Term.t
(** A globally fresh existential variable (named ["_e<n>"]). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
