(** The legacy materialised-row execution engine, retained after the
    columnar refactor as an independent implementation of plan
    semantics for the batch engine's qcheck equivalence properties.
    Sequential, uncached, one boxed array per intermediate row. Not an
    answering path; {!Rdbms.Exec} is the engine. *)

open Rdbms

val run : Layout.t -> Plan.t -> Relation.t
(** Evaluates the plan row-at-a-time with full materialisation between
    operators. Produces the same bag of rows as {!Rdbms.Exec.run} (modulo
    row order). *)

val answers : Layout.t -> Plan.t -> string list list
(** Like {!Rdbms.Exec.answers}: distinct, dictionary-decoded, sorted. *)
