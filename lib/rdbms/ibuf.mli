(** Growable unboxed [int] buffers — the scratch structure the columnar
    operators append into when an output cardinality is not known in
    advance (index-join expansions, merge-join products, RDF wide-table
    scans). Amortised O(1) push, no per-element boxing. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty buffer (initial capacity 64 unless given). *)

val length : t -> int

val push : t -> int -> unit

val insert : t -> int -> int -> unit
(** [insert b i x] puts [x] at position [i <= length b], shifting the
    elements from [i] on one place up: O(length b - i). *)

val get : t -> int -> int
(** [get b i] reads position [i < length b] (unchecked beyond array
    bounds). *)

val clear : t -> unit
(** Empties the buffer, keeping its capacity: operators reuse one
    scratch buffer across batches. *)

val to_array : t -> int array
(** The first [length b] elements, as a fresh exactly-sized array. *)
