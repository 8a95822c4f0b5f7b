(** A generic, thread-safe, bounded LRU cache.

    Every memoisation table in the engine (the PerfectRef
    reformulation cache, the executor's per-run scan and build-table
    caches, the OBDA plan cache) is an instance of this module, so
    that a long-running process serving repeated-query traffic has a
    bounded memory footprint and a uniform invalidation story.

    Bound: a {e capacity} by entry count. When it is exceeded the
    least-recently-used entries are evicted. A per-value [cost_of]
    estimate of the byte footprint is summed and reported in
    {!stats}; it does not bound the cache.

    Invalidation: the caller decides what is stale. {!invalidate_if}
    drops every entry whose key matches a predicate (the plan cache
    drops the plan of a query whose analyze run showed its estimates
    drifted), and [find ~valid] drops the one entry it finds when its
    value no longer holds (the plan cache drops a cost-based plan
    whose data moved since its search).

    Observability: each cache registers four counters in the
    {!Obs.Metrics} registry — [cache.<name>.hits], [.misses],
    [.evictions] and [.invalidations] — and additionally keeps
    private per-instance totals readable via {!stats} (two instances
    may share a metric [name]; their {!stats} stay distinct).

    All operations take the cache's mutex and are safe to call from
    the server's worker threads at once. Lookups and insertions are O(1)
    (hash table + intrusive doubly-linked recency list). *)

type ('k, 'v) t

type stats = {
  name : string;
  entries : int;
  cost : int;  (** summed [cost_of] of the live entries *)
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
      (** {!invalidate_if} calls that dropped an entry, plus entries
          [find ~valid] dropped *)
}

val create :
  ?cost_of:('v -> int) ->
  name:string ->
  capacity:int ->
  unit ->
  ('k, 'v) t
(** [create ~name ~capacity ()] makes an empty cache holding at most
    [capacity] entries ([capacity <= 0] disables the cache: every
    lookup misses and insertions are dropped). [cost_of] estimates a
    value's byte footprint (default [fun _ -> 0]), summed into
    [stats.cost]. Registers the [cache.<name>.*] metrics. *)

val set_capacity : ('k, 'v) t -> int -> unit
(** Changes the entry bound, evicting LRU entries as needed. Setting
    [<= 0] empties and disables the cache. *)

val length : ('k, 'v) t -> int

val find : ?valid:('v -> bool) -> ('k, 'v) t -> 'k -> 'v option
(** Looks a key up, refreshing its recency on a hit. A found value
    that fails [valid] is dropped and counted as an invalidation and a
    miss, not a hit. Like {!invalidate_if}'s predicate, [valid] runs
    with the cache lock held: it must be pure and cheap, and must not
    reenter the cache. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts (or replaces) a binding as most-recently used, then
    evicts from the LRU end while over capacity. *)

val add_if_absent : ('k, 'v) t -> 'k -> 'v -> 'v
(** Like {!add}, but an existing binding wins: returns the stored
    value (refreshed), or stores and returns [v]. This is the
    first-writer-wins publication step for racing computations of the
    same key on different threads. *)

val clear : ('k, 'v) t -> unit
(** Drops every entry (counted neither as eviction nor invalidation). *)

val invalidate_if : ('k, 'v) t -> ('k -> bool) -> int
(** Drops every entry whose key satisfies the predicate and returns
    how many were dropped (counted as one {e invalidation} when any
    were). The predicate runs with the cache lock held: it must be
    pure and cheap, and must not reenter the cache. *)

val stats : ('k, 'v) t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** One line: name, entries/capacity, cost, hit rate, evictions,
    invalidations. *)
