(** Dictionary encoding of individual names into dense integers, as
    customary in efficient Semantic Web stores (§6.1 of the paper). *)

type t

val create : unit -> t

val encode : t -> string -> int
(** Returns the code of the string, allocating a fresh one if needed. *)

val find : t -> string -> int option
(** Looks up a code without allocating. *)

val decode : t -> int -> string
(** Raises [Invalid_argument] on an unknown code. *)

val decoder : t -> int -> string
(** [decoder d] snapshots the codes allocated so far and returns a
    lock-free {!decode} for them, for loops that decode many codes
    (answer decoding). Codes allocated after the snapshot raise
    [Invalid_argument], like unknown ones. *)

val size : t -> int
(** Number of distinct encoded strings. *)
