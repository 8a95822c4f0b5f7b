(* Tests of the bounded LRU cache (lib/cache) underlying the
   reformulation, scan/build, view and plan caches. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let find_int c k : int option = Cache.Lru.find c k

let test_basic () =
  let c = Cache.Lru.create ~name:"t.basic" ~capacity:2 () in
  check_int "empty" 0 (Cache.Lru.length c);
  Alcotest.(check (option int)) "miss" None (find_int c "a");
  Cache.Lru.add c "a" 1;
  Cache.Lru.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (find_int c "a");
  (* a was just touched, so adding c evicts b (the LRU entry) *)
  Cache.Lru.add c "c" 3;
  check_int "still bounded" 2 (Cache.Lru.length c);
  Alcotest.(check (option int)) "b evicted" None (find_int c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (find_int c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (find_int c "c");
  let s = Cache.Lru.stats c in
  check_int "evictions counted" 1 s.Cache.Lru.evictions;
  check_int "hits counted" 3 s.Cache.Lru.hits;
  check_int "misses counted" 2 s.Cache.Lru.misses

let test_replace () =
  let c = Cache.Lru.create ~cost_of:(fun v -> v) ~name:"t.replace" ~capacity:2 () in
  Cache.Lru.add c "k" 1;
  Cache.Lru.add c "k" 2;
  check_int "no duplicate entry" 1 (Cache.Lru.length c);
  Alcotest.(check (option int)) "replaced" (Some 2) (find_int c "k");
  check_int "cost of the replacement only" 2 (Cache.Lru.stats c).Cache.Lru.cost;
  (* k is the LRU entry when m arrives, so it is evicted *)
  Cache.Lru.add c "j" 30;
  Cache.Lru.add c "m" 400;
  check_int "evicted" 1 (Cache.Lru.stats c).Cache.Lru.evictions;
  check_int "cost sums the live entries" 430 (Cache.Lru.stats c).Cache.Lru.cost

let test_disabled () =
  let c = Cache.Lru.create ~name:"t.disabled" ~capacity:0 () in
  Cache.Lru.add c "a" 1;
  check_int "insert dropped" 0 (Cache.Lru.length c);
  Alcotest.(check (option int)) "always miss" None (find_int c "a");
  Cache.Lru.set_capacity c 2;
  Cache.Lru.add c "a" 1;
  Alcotest.(check (option int)) "re-enabled" (Some 1) (find_int c "a");
  Cache.Lru.set_capacity c 0;
  check_int "shrink to disabled empties" 0 (Cache.Lru.length c)

let test_add_if_absent () =
  let c = Cache.Lru.create ~name:"t.race" ~capacity:4 () in
  check_int "stores on absent" 1 (Cache.Lru.add_if_absent c "k" 1);
  check_int "first writer wins" 1 (Cache.Lru.add_if_absent c "k" 2);
  Alcotest.(check (option int)) "stored value unchanged" (Some 1) (find_int c "k")

let test_find_valid () =
  let c = Cache.Lru.create ~name:"t.valid" ~capacity:4 () in
  Cache.Lru.add c "a" 1;
  Alcotest.(check (option int)) "valid entry served" (Some 1)
    (Cache.Lru.find ~valid:(fun v -> v = 1) c "a");
  Alcotest.(check (option int)) "invalid entry not served" None
    (Cache.Lru.find ~valid:(fun v -> v = 2) c "a");
  check_int "invalid entry dropped" 0 (Cache.Lru.length c);
  let s = Cache.Lru.stats c in
  check_int "one hit" 1 s.Cache.Lru.hits;
  check_int "one miss" 1 s.Cache.Lru.misses;
  check_int "one invalidation" 1 s.Cache.Lru.invalidations

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_stats_pp () =
  let c = Cache.Lru.create ~name:"t.pp" ~capacity:4 () in
  Cache.Lru.add c "a" 1;
  ignore (find_int c "a");
  let line = Fmt.str "%a" Cache.Lru.pp_stats (Cache.Lru.stats c) in
  check_bool "pp mentions the name" true (contains ~sub:"t.pp" line)

(* {1 Properties}

   The caching layer must be semantically invisible: a get-or-compute
   through a tiny cache (heavy eviction pressure) always returns what
   the computation itself returns, and a lookup whose [valid] check
   rejects an entry stamped with an older version never serves it. *)

let compute ~version k = (k * 97) + (version * 100_000)

let cached_get c ~version k =
  match Cache.Lru.find c k with
  | Some v -> v
  | None -> Cache.Lru.add_if_absent c k (compute ~version k)

let prop_bounded_equals_unbounded =
  QCheck2.Test.make ~name:"bounded cache = direct compute under eviction"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 3) (list_size (return 60) (int_bound 9)))
    (fun (capacity, keys) ->
      let c = Cache.Lru.create ~name:"t.prop.bounded" ~capacity () in
      List.for_all
        (fun k ->
          let v = cached_get c ~version:0 k in
          Cache.Lru.length c <= max 0 capacity && v = compute ~version:0 k)
        keys)

let prop_version_never_stale =
  (* ops: key to look up, paired with "bump the version first?". Each
     entry is stamped with the version it was computed under, and is
     valid while that stamp is current. *)
  QCheck2.Test.make ~name:"version change never serves pre-update entries"
    ~count:200
    QCheck2.Gen.(list_size (return 60) (pair (int_bound 9) bool))
    (fun ops ->
      let c = Cache.Lru.create ~name:"t.prop.version" ~capacity:8 () in
      let version = ref 0 in
      let get k =
        let valid (stamp, _) = stamp = !version in
        match Cache.Lru.find ~valid c k with
        | Some (_, v) -> v
        | None -> snd (Cache.Lru.add_if_absent c k (!version, compute ~version:!version k))
      in
      List.for_all
        (fun (k, bump) ->
          if bump then incr version;
          get k = compute ~version:!version k)
        ops)

let suite =
  [
    Alcotest.test_case "lru: add/find/evict" `Quick test_basic;
    Alcotest.test_case "lru: replace" `Quick test_replace;
    Alcotest.test_case "lru: capacity 0 disables" `Quick test_disabled;
    Alcotest.test_case "lru: add_if_absent race protocol" `Quick test_add_if_absent;
    Alcotest.test_case "lru: find ~valid drops a stale entry" `Quick test_find_valid;
    Alcotest.test_case "lru: stats rendering" `Quick test_stats_pp;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_bounded_equals_unbounded; prop_version_never_stale ]
