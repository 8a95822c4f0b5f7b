(** Packed int tables: hash tables over tuples of dictionary codes,
    the executor's replacement for [Hashtbl] wherever a key is a tuple
    of ints (DISTINCT seen-sets, hash-join build tables, the storage
    indexes).

    A table interns tuples of a fixed [arity]. Each distinct tuple gets
    a dense id — [0], [1], … in first-insertion order — and is stored
    packed in one flat [int array]; callers keep per-key data in arrays
    indexed by id. Lookups and insertions read the key straight out of
    the caller's column arrays, so neither allocates (growth is
    amortised). Not thread-safe: a table is built by one domain, and
    after that only read. *)

type t

val create : ?expected:int -> int -> t
(** [create ~expected arity] is an empty table of [arity]-tuples sized
    for about [expected] keys without growing. Arity 0 is allowed: its
    one key is the empty tuple. *)

val length : t -> int
(** Distinct keys interned so far; ids are [0 .. length - 1]. *)

val arity : t -> int

val key : t -> int -> int -> int
(** [key t id c] is component [c] of the tuple with id [id]. *)

val find1 : t -> int -> int
(** Arity-1 lookup: the id of the key, or [-1]. *)

val intern1 : t -> int -> int
(** Arity-1 insertion: the id of the key, adding it if absent. The key
    was new exactly when the result equals [length] before the call. *)

val find : t -> int array array -> int array -> int -> int
(** [find t cols idx r] looks up the tuple [cols.(idx.(0)).(r), …,
    cols.(idx.(arity - 1)).(r)]: its id, or [-1]. *)

val intern : t -> int array array -> int array -> int -> int
(** Insertion counterpart of {!find}, with {!intern1}'s result. *)
