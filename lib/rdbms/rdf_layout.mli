(** A DB2RDF-style {e RDF layout} (Bornea et al., SIGMOD'13 [9]):
    role assertions are bundled into a wide {e direct primary hash}
    (DPH) table — one row per subject holding up to [k] (predicate,
    object) column pairs, predicates hashed to columns, with spill rows
    on collision — and a {e reverse primary hash} (RPH) table keyed by
    object. Concept assertions live in a type table.

    Reading one role then requires probing every predicate column of
    every DPH row (the CASE/OR pattern of the generated SQL), which
    makes plain CQs cheaper (fewer joins) but reformulated queries much
    more expensive — the effect §6.3 of the paper observes. *)

type t

val default_width : int
(** Number of (predicate, object) column pairs per row (8). *)

val of_abox : ?width:int -> Dllite.Abox.t -> t
(** Load an ABox into DPH/RPH/type tables ([width] defaults to
    {!default_width}). *)

val width : t -> int
(** The layout's (predicate, object) pairs per row. *)

val dict : t -> Dllite.Dict.t
(** The dictionary encoding individuals as integer codes. *)

val dph_row_count : t -> int
(** Rows of the subject-keyed wide table (including spill rows). *)

val rph_row_count : t -> int
(** Rows of the object-keyed wide table. *)

val type_row_count : t -> int
(** Rows of the type (concept-membership) table. *)

val spill_row_count : t -> int
(** DPH rows beyond the first for some subject (hash collisions). *)

val concept_rows : t -> string -> int array
(** Scans the type table. *)

val role_rows : t -> string -> (int * int) array
(** Scans the whole DPH table, probing every predicate column — the
    expensive access path this layout imposes on reformulations. *)

val role_cols : t -> string -> int array * int array
(** The same scan, emitted as (subjects, objects) column arrays for
    the columnar executor. Fresh arrays per call — the wide-table
    probing cost is paid on every scan by design. *)

val role_lookup_subject_arr : t -> string -> int -> (int * int) array
(** Primary-key access: only the DPH rows of the subject are probed.
    Fresh arrays; callers may keep them. *)

val role_lookup_object_arr : t -> string -> int -> (int * int) array
(** Primary-key access on the RPH table. *)

val concept_names : t -> string list
(** Concepts with at least one type triple. *)

val role_names : t -> string list
(** Roles with at least one stored pair. *)

val concept_card : t -> string -> int
(** Number of members of a concept. *)

val role_card : t -> string -> int
(** Number of pairs of a role. *)

val role_ndv : t -> string -> int * int
(** Distinct subjects and objects of a role (collected at load). *)

val total_facts : t -> int
(** Total stored facts (type triples + role pairs). *)

val uid : t -> int
(** A process-unique stamp among RDF-layout stores. *)

val empty_epoch : t -> int
(** As {!Storage.empty_epoch}: advances only when an insert puts the
    first fact into an empty predicate. *)

val individual_count : t -> int
(** Number of distinct individuals in the dictionary. *)

val insert_concept : t -> concept:string -> ind:string -> bool
(** Adds a type triple; returns [false] when already present. *)

val insert_role : t -> role:string -> subj:string -> obj:string -> bool
(** Inserts into the DPH and RPH wide tables (spilling on column
    collisions as at load time) and updates the statistics. *)
