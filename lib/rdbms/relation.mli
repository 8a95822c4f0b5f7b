(** Materialised relations: named columns over dictionary-encoded
    integer values, stored {e column-major} — one unboxed [int array]
    per column. The unit of data exchanged between physical operators
    (batch views into these columns are cut by {!Batch}).

    Relations are immutable by convention: no function in this module
    (or anywhere in the engine) writes into a relation's columns after
    construction, which lets operators alias columns instead of
    copying (projection, renames, build-side payloads). *)

type t = {
  cols : string array;  (** column names (query variable names) *)
  columns : int array array;
      (** [columns.(i)] is column [i]; every column has length
          [nrows]. Treat as read-only. *)
  nrows : int;  (** number of rows *)
}

val of_columns : cols:string list -> int array array -> t
(** A relation adopting the given column arrays (no copying). Raises
    [Invalid_argument] on a name/column count mismatch or ragged
    columns. *)

val make : cols:string list -> rows:int array list -> t
(** A relation from row-major tuples (transposed into columns). *)

val empty : cols:string list -> t
(** The empty relation over the given columns. *)

val boolean : bool -> t
(** The two zero-arity relations: [true] is the single empty tuple. *)

val arity : t -> int
(** Number of columns. *)

val cardinality : t -> int
(** Number of rows (a bag count — apply {!distinct} for set
    semantics). O(1). *)

val bytes : t -> int
(** Byte footprint of the column storage (words per cell plus array
    headers) — the cost the LRU stores charge for a cached relation. *)

val row : t -> int -> int array
(** [row r i] materialises row [i] as a fresh tuple. *)

val rows : t -> int array list
(** All rows, row-major (materialised — for tests, decoding and
    debugging, not for hot paths). *)

val col_index : t -> string -> int
(** Raises [Not_found] when the column does not exist. *)

val mem_col : t -> string -> bool
(** Whether the relation has a column of that name. *)

val common_cols : t -> t -> string list
(** Column names present in both relations, in first-relation order. *)

val gather : t -> int array -> t
(** [gather r idxs] keeps exactly the rows whose indexes are listed,
    in list order (fresh columns). *)

val project : t -> [ `Col of string | `Const of int ] list -> t
(** Projection; [`Col] forwards (aliases) a column, [`Const] emits a
    constant column (used for head constants introduced by
    reformulation). Constant columns are named positionally
    ([_const0], [_const1], ...) matching {!Plan.out_cols}. *)

val distinct : t -> t
(** Set semantics: keeps the first occurrence of every row, in row
    order (a packed {!Keytab} seen-set). *)

val union_all : cols:string list -> t list -> t
(** Positional union of same-arity relations. *)

val filter_const : t -> string -> int -> t
(** Keeps rows whose column equals the constant. *)

val filter_eq_cols : t -> string -> string -> t
(** Keeps rows where the two columns are equal. *)

type groups =
  | Unique  (** no key repeats: group [g] is build row [g] *)
  | Grouped of {
      starts : int array;
      rows : int array;
    }
      (** group [g]'s build rows are [rows.(starts.(g))] up to
          [rows.(starts.(g + 1) - 1)] *)

type build_table = {
  keys : Keytab.t;  (** join key -> group id *)
  groups : groups;
  payload_cols : string array;  (** non-join columns of the build side *)
  payload : int array array;
      (** their column arrays, aliased from the build relation *)
}
(** A hash table built on the join key of one relation, reusable across
    probes (DB2-style repeated-scan/build sharing): a packed key table
    ({!Keytab}) and, unless every key is unique, the build rows laid
    out contiguously per key. The fields are exposed read-only for the
    batch-at-a-time probe operator in {!Physical}. *)

val group_count : build_table -> int
(** Distinct join keys in the table; [0] exactly when the build side
    was empty. *)

val build : t -> on:string list -> build_table
(** Builds the join hash table of a relation on the given columns. *)

val probe :
  left:t -> right_build:build_table -> on:string list -> t
(** Probes a prebuilt table with the left relation. Output columns: all
    left columns, then the non-join columns of the build side. *)

val hash_join : t -> t -> on:string list -> t
(** [probe] after [build] on the right side. *)

val merge_join : t -> t -> on:string list -> t
(** Sort-merge join on the shared columns: both inputs are sorted on
    the key, then merged with group-wise products on equal keys. Same
    output columns as {!hash_join}. *)

val pp : Format.formatter -> t -> unit
(** Tabular debug rendering (codes, not dictionary-decoded names). *)
