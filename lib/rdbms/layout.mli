(** Storage layouts the engines evaluate against: the {e simple layout}
    (one table per concept/role) or the DB2RDF-style {e RDF layout}.
    Both expose the same access paths; their costs differ. *)

type t =
  | Simple of Storage.t
  | Rdf of Rdf_layout.t

val simple_of_abox : Dllite.Abox.t -> t
(** Load an ABox into the simple layout (one deduped table per
    concept/role). *)

val of_storage : Storage.t -> t
(** Wrap an already-built simple-layout store (e.g. one streamed in
    through {!Storage.Builder} or reopened with {!Storage.load}). *)

val rdf_of_abox : ?width:int -> Dllite.Abox.t -> t
(** Load an ABox into the DB2RDF-style wide tables ([width] = number of
    predicate/object column pairs per row; defaults in
    {!Rdf_layout}). *)

val name : t -> string
(** ["simple"] or ["rdf"]. *)

val dict : t -> Dllite.Dict.t
(** The shared dictionary encoding individuals as integer codes. *)

val concept_rows : t -> string -> int array
(** All member codes of a concept, one full scan. *)

val role_rows : t -> string -> (int * int) array
(** All (subject, object) pairs of a role, one full scan. *)

val role_cols : t -> string -> int array * int array
(** The role as (subjects, objects) column arrays — what the columnar
    scan operators consume. On the simple layout the arrays are a
    lazily-built shared projection (do not mutate); on the RDF layout
    each call re-pays the wide-table probe. *)

val role_matches : t -> string -> [ `Subject | `Object ] -> int -> int array
(** Index probe, resolved once per operator: [role_matches t role side]
    applied to a code returns the codes on the other side of the role
    rows whose [side] column holds it, sorted ascending. On the simple
    layout the result is the packed index's own bucket (no allocation,
    do not mutate); on the RDF layout every probe re-reads the wide
    table. *)

val concept_mem : t -> string -> int -> bool
(** Membership test of a code in a concept. *)

val concept_card : t -> string -> int
(** Number of stored members of a concept. *)

val role_card : t -> string -> int
(** Number of stored pairs of a role. *)

val role_ndv : t -> string -> int * int
(** Distinct subjects and objects of a role. *)

val scan_work : t -> [ `Concept of string | `Role of string ] -> int
(** Number of cell probes one full scan of the predicate performs —
    the quantity native cost estimators charge for. On the simple
    layout this is the table cardinality; on the RDF layout a role scan
    probes every predicate column of every DPH row. *)

val total_facts : t -> int
(** Total number of stored facts across all predicates. *)

val uid : t -> int
(** A process-unique stamp of the store behind the layout. *)

val empty_epoch : t -> int
(** Advances exactly when an insert puts the first fact into an empty
    predicate ({!Storage.empty_epoch}), so (uid, epoch) names the set
    of empty predicates: caches of data-aware reformulations key on
    it. *)

val individual_count : t -> int
(** Number of distinct individuals in the dictionary. *)

val role_eq_rows : t -> string -> [ `Subject | `Object ] -> int -> float option
(** Histogram-based estimate of the rows of a role whose subject or
    object equals the given code. On the simple layout it is an exact
    [0.] when the code is provably absent ({!Storage.role_code_absent}).
    [None] when no histogram exists — notably on the RDF layout. *)

val compact : t -> unit
(** Folds any pending delta tails into the tables' arrays
    ({!Storage.compact}); a no-op on the RDF layout, which has no
    delta tails. *)

val delta_fact_count : t -> int
(** Pending (uncompacted) inserted facts ({!Storage.delta_fact_count});
    [0] on the RDF layout. *)

val insert_concept : t -> concept:string -> ind:string -> bool
(** Incrementally asserts a concept fact; [false] if already stored. *)

val insert_role : t -> role:string -> subj:string -> obj:string -> bool
(** Incrementally asserts a role fact; [false] if already stored. *)
