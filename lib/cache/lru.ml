(* Hash table + intrusive doubly-linked recency list; every operation
   holds the per-cache mutex, so the structure is consistent under the
   Parallel domain pool. Nodes are unlinked in O(1); the table maps a
   key to its node. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  cost : int;
  mutable prev : ('k, 'v) node option;  (* towards most-recent *)
  mutable next : ('k, 'v) node option;  (* towards least-recent *)
}

type ('k, 'v) t = {
  name : string;
  cost_of : 'v -> int;
  mutable capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable total_cost : int;
  lock : Mutex.t;
  (* private per-instance totals; the registry counters below may be
     shared between instances created with the same name *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  invalidations : int Atomic.t;
  m_hits : Obs.Metrics.counter;
  m_misses : Obs.Metrics.counter;
  m_evictions : Obs.Metrics.counter;
  m_invalidations : Obs.Metrics.counter;
}

type stats = {
  name : string;
  entries : int;
  cost : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

let create ?(cost_of = fun _ -> 0) ~name ~capacity () =
  let metric aspect help =
    Obs.Metrics.counter ~help (Printf.sprintf "cache.%s.%s" name aspect)
  in
  {
    name;
    cost_of;
    capacity;
    (* [capacity] is an eviction bound, not a size hint: start small
       and let the table grow — short-lived caches (per-run scan/build
       stores) would otherwise pay a full-capacity bucket array each. *)
    table = Hashtbl.create 16;
    head = None;
    tail = None;
    total_cost = 0;
    lock = Mutex.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    invalidations = Atomic.make 0;
    m_hits = metric "hits" ("hits in the " ^ name ^ " cache");
    m_misses = metric "misses" ("misses in the " ^ name ^ " cache");
    m_evictions = metric "evictions" ("LRU evictions from the " ^ name ^ " cache");
    m_invalidations =
      metric "invalidations" ("entries invalidated in the " ^ name ^ " cache");
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* {2 List surgery (call with the lock held)} *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop_node t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  t.total_cost <- t.total_cost - n.cost

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some n ->
    drop_node t n;
    Atomic.incr t.evictions;
    Obs.Metrics.incr t.m_evictions

let shrink_to_bounds t =
  while Hashtbl.length t.table > max 0 t.capacity && t.tail <> None do evict_tail t done

let drop_all t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.total_cost <- 0

(* {2 Public operations} *)

let length t = locked t (fun () -> Hashtbl.length t.table)

let set_capacity t c =
  locked t (fun () ->
      t.capacity <- c;
      if c <= 0 then drop_all t else shrink_to_bounds t)

let count_invalidation (t : (_, _) t) =
  Atomic.incr t.invalidations;
  Obs.Metrics.incr t.m_invalidations

let find ?(valid = fun _ -> true) t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some n when valid n.value ->
        unlink t n;
        push_front t n;
        Atomic.incr t.hits;
        Obs.Metrics.incr t.m_hits;
        Some n.value
      | stale ->
        Option.iter
          (fun n ->
            drop_node t n;
            count_invalidation t)
          stale;
        Atomic.incr t.misses;
        Obs.Metrics.incr t.m_misses;
        None)

(* Insert [k -> v] as most-recent, replacing any binding of [k]. *)
let insert t k v =
  (match Hashtbl.find_opt t.table k with Some old -> drop_node t old | None -> ());
  let n = { key = k; value = v; cost = t.cost_of v; prev = None; next = None } in
  Hashtbl.replace t.table k n;
  t.total_cost <- t.total_cost + n.cost;
  push_front t n;
  shrink_to_bounds t

let add t k v = locked t (fun () -> if t.capacity > 0 then insert t k v)

let add_if_absent t k v =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some n ->
        unlink t n;
        push_front t n;
        n.value
      | None ->
        if t.capacity > 0 then insert t k v;
        v)

let clear t = locked t (fun () -> drop_all t)

let invalidate_if t pred =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold (fun k n acc -> if pred k then n :: acc else acc) t.table []
      in
      if doomed <> [] then begin
        List.iter (drop_node t) doomed;
        count_invalidation t
      end;
      List.length doomed)

let stats t =
  locked t (fun () ->
      {
        name = t.name;
        entries = Hashtbl.length t.table;
        cost = t.total_cost;
        capacity = t.capacity;
        hits = Atomic.get t.hits;
        misses = Atomic.get t.misses;
        evictions = Atomic.get t.evictions;
        invalidations = Atomic.get t.invalidations;
      })

let pp_stats ppf s =
  let requests = s.hits + s.misses in
  let rate = if requests = 0 then 0. else 100. *. float s.hits /. float requests in
  Fmt.pf ppf "%-12s %5d/%-5d entries %8d bytes  %6d hits / %6d reqs (%5.1f%%)  %5d evicted  %3d invalidated"
    s.name s.entries s.capacity s.cost s.hits requests rate s.evictions
    s.invalidations
