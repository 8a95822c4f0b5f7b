(** Unions of conjunctive queries (UCQ): disjunctions of CQs with the
    same arity. This is the target language of the CQ-to-UCQ
    reformulation of {e Calvanese et al. [13]}. *)

type t = private {
  arity : int;
  disjuncts : Cq.t list;  (** at least one disjunct *)
}

val make : Cq.t list -> t
(** Raises [Invalid_argument] on an empty list or on arity mismatch. *)

val of_cq : Cq.t -> t

val disjuncts : t -> Cq.t list

val size : t -> int
(** Number of disjuncts — the paper's rough complexity measure for a
    reformulation. *)

val arity : t -> int

val total_atoms : t -> int

val dedup : t -> t
(** Removes syntactic duplicates (after canonicalisation of each CQ). *)

val union : t -> t -> t

val pp : Format.formatter -> t -> unit
