(** Column batches: the unit of data flowing between physical
    operators ({!Physical}). A batch is a window of at most
    {!default_size} rows over shared column arrays — either a
    contiguous slice ([off], [len]) or an explicit {e selection
    vector} of absolute row indexes. Filters and distinct emit
    selection-vector batches over the same backing arrays (zero
    copying); joins and constant projections emit fresh compact
    batches. *)

type t = {
  cols : string array;  (** column names *)
  data : int array array;
      (** backing column arrays, usually longer than the window *)
  sel : int array option;
      (** when set: absolute row indexes into [data], overriding
          [off] *)
  off : int;  (** window start when [sel = None] *)
  len : int;  (** number of rows in the window *)
}

val default_size : int
(** Rows per batch cut by the scan sources (1024). *)

val length : t -> int

val index : t -> int -> int
(** [index b i] maps window position [i < length b] to the absolute
    row index in [data]. *)

val get : t -> int -> int -> int
(** [get b c i] reads column [c] at window position [i]. *)

val of_relation : ?off:int -> ?len:int -> Relation.t -> t
(** A contiguous window over a relation's columns (default: all rows).
    No copying. *)

val select : t -> int array -> t
(** [select b idxs] keeps the window positions listed in [idxs]
    (composes with an existing selection vector; column data is
    shared). *)

val select_buf : t -> Ibuf.t -> t
(** {!select} over the positions held in a buffer (the operators'
    reusable scratch), allocating only the selection vector. *)

val rename : t -> string array -> t
(** Replaces the column names (positional — for union arms). *)

val map_cols : t -> cols:string array -> idxs:int array -> t
(** Column permutation/duplication by index, sharing row data:
    constant-free projection. *)

val is_whole : t -> bool
(** Whether the batch covers its backing store exactly (convertible to
    a relation without copying). *)

val compact : t -> t
(** Resolves [sel]/[off] into fresh exactly-sized columns (identity on
    a {!is_whole} batch). *)

val to_relation : t -> Relation.t
(** The batch as a standalone relation ({!compact}ed; zero-copy when
    {!is_whole}). *)
