(** Undoable union-find over dense integer nodes, with path
    compression and union by rank.

    Every structural write — including the parent rewrites done by path
    compression — is recorded on an undo trail, so {!rollback} restores
    the {e exact} forest a {!snapshot} observed. This is the core the
    union-find term unifier ({!Subst.Unifier}) is built on; root covers
    and UCQ minimisation use it for their equivalence classes. *)

type t

type snapshot

val create : ?capacity:int -> unit -> t
(** An empty store. [capacity] pre-sizes the arrays; the store grows
    on demand. *)

val make : t -> int
(** A fresh node, in its own singleton class. Nodes are dense: the
    [k]-th call returns [k]. *)

val count : t -> int
(** Number of live nodes. *)

val find : t -> int -> int
(** Representative (root) of the node's class, compressing the path.
    Raises [Invalid_argument] on an out-of-range node. *)

val equiv : t -> int -> int -> bool
(** Whether two nodes are in the same class. *)

val union : t -> int -> int -> bool
(** Merge the two classes (by rank). Returns [false] when the nodes
    were already equivalent, [true] when a merge happened. *)

val snapshot : t -> snapshot
(** O(1) mark of the current state. *)

val rollback : t -> snapshot -> unit
(** Rewind to a snapshot: unions (and compressions) performed since are
    undone, nodes made since are discarded. Raises [Invalid_argument]
    when the snapshot is newer than the store's state. *)

val classes : t -> int list list
(** The current partition, each class listing its members in
    ascending order. For tests and debugging. *)
