type table_stats = {
  card : int;
  ndv : int array;
}

(* Every table is its plain arrays: concept members sorted and
   deduplicated, role pairs sorted by (subject, object) and
   deduplicated (§6.1's one indexed table per concept and role). Each
   table also carries a small {e delta tail} of pending inserts, kept
   in the table's order and disjoint from the arrays by construction
   (duplicates are rejected at insert time): a single insert is a
   binary search and a shift of at most [delta_rows] tail rows, and a
   size-triggered [compact] adopts the merged table as the new
   arrays. The merged view (arrays ∪ tail), the hash
   indexes and the histograms are derived snapshots, built lazily and
   published through [Atomic.t] so concurrent queries can race on
   first use: both racers build the same value, a compare-and-set
   picks the winner, and the atomic write orders the contents before
   the pointer every reader dereferences. In-place maintenance
   ([insert_*], [compact]) is not concurrent with query evaluation by
   contract. The compressed segments of the file format exist only in
   [save] and [load]. *)
type concept_table = {
  mutable members : int array;  (* sorted, deduplicated codes *)
  mutable c_tail : Ibuf.t;  (* pending inserts, sorted, disjoint from [members] *)
  merged_c : int array option Atomic.t;  (* lazy members ∪ tail *)
  member_set : Keytab.t option Atomic.t;  (* lazy index *)
}

(* A role index on one side: a packed table from a code on that side
   to a bucket id, and per bucket the codes on the other side, sorted
   ascending (the (subject, object) order of the table restricted to
   one key). Buckets are replaced, never written, so a lookup result
   stays valid after later inserts. *)
type role_index = {
  ix_keys : Keytab.t;
  mutable buckets : int array array;
}

type role_table = {
  mutable subs : int array;  (* (s,o)-sorted, deduplicated pairs *)
  mutable objs : int array;
  mutable obj_range : int * int;  (* [objs]' (min, max); (1, 0) when empty *)
  mutable rs_tail : Ibuf.t;  (* pending subjects, parallel to ro_tail *)
  mutable ro_tail : Ibuf.t;  (* pending objects; pairs (s,o)-sorted *)
  mutable r_stats : table_stats;
  by_subject : role_index option Atomic.t;
  by_object : role_index option Atomic.t;
  hist_subject : Histogram.t option Atomic.t;  (* lazy column histograms *)
  hist_object : Histogram.t option Atomic.t;
  merged_r : (int array * int array) option Atomic.t;
      (* lazy (subs, objs) ∪ tail, shared zero-copy by every full scan *)
}

type t = {
  dict : Dllite.Dict.t;
  concepts : (string, concept_table) Hashtbl.t;
  roles : (string, role_table) Hashtbl.t;
  mutable total_facts : int;
  mutable delta_rows : int;  (* tail length that triggers a merge *)
  uid : int;  (* process-unique, like [Dllite.Tbox.uid] *)
  mutable empty_epoch : int;
      (* advanced by every insert that puts the first row into an empty
         table: the set of empty predicates changed *)
}

let default_delta_rows = 4096

let next_uid = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add next_uid 1

let m_load_ns =
  Obs.Metrics.counter ~help:"cumulative storage load/open time (ns)" "storage.load_ns"

let timed_load f =
  let t0 = Obs.Mclock.now_ns () in
  let r = f () in
  Obs.Metrics.add m_load_ns (Int64.to_int (Obs.Mclock.elapsed_ns ~since:t0));
  r

(* {1 Sorting and deduplication}

   One in-place sort followed by one compaction pass — no intermediate
   lists (the former [List.sort_uniq] round-trip dominated load time
   past a few million facts). *)

let dedup_sorted a =
  let n = Array.length a in
  if n = 0 then a
  else begin
    let w = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!w - 1) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let sort_dedup_ints a =
  Array.sort Int.compare a;
  dedup_sorted a

(* Pair columns sort through a packed 62-bit key (subject in the high
   bits) whenever codes fit 31 bits — one unboxed int sort instead of
   a polymorphic sort over boxed tuples. The tuple fallback keeps the
   same (s, o) lexicographic order for out-of-range codes. *)
let pack_limit = 1 lsl 31

let sort_dedup_pairs subs objs =
  let n = Array.length subs in
  if n = 0 then [||], [||]
  else begin
    let maxc = ref 0 in
    for i = 0 to n - 1 do
      if subs.(i) > !maxc then maxc := subs.(i);
      if objs.(i) > !maxc then maxc := objs.(i)
    done;
    if !maxc < pack_limit then begin
      let keys = Array.init n (fun i -> (subs.(i) lsl 31) lor objs.(i)) in
      let keys = sort_dedup_ints keys in
      let m = Array.length keys in
      let s = Array.make m 0 and o = Array.make m 0 in
      for i = 0 to m - 1 do
        s.(i) <- keys.(i) lsr 31;
        o.(i) <- keys.(i) land (pack_limit - 1)
      done;
      s, o
    end
    else begin
      let pairs = Array.init n (fun i -> subs.(i), objs.(i)) in
      Array.sort compare pairs;
      let w = ref 1 in
      for i = 1 to n - 1 do
        if pairs.(i) <> pairs.(!w - 1) then begin
          pairs.(!w) <- pairs.(i);
          incr w
        end
      done;
      Array.init !w (fun i -> fst pairs.(i)), Array.init !w (fun i -> snd pairs.(i))
    end
  end

let sorted_distinct a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let d = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(i - 1) then incr d
    done;
    !d
  end

let count_distinct_arr a =
  let seen = Keytab.create ~expected:(Array.length a) 1 in
  Array.iter (fun v -> ignore (Keytab.intern1 seen v)) a;
  Keytab.length seen

(* Linear merge of two sorted {e disjoint} arrays — how a merged view
   folds a sorted delta tail into the table's sorted arrays without a
   full re-sort. *)
let merge_ints a b =
  let na = Array.length a and nb = Array.length b in
  if nb = 0 then a
  else if na = 0 then b
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !j >= nb || (!i < na && a.(!i) < b.(!j)) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

(* Same merge over (s, o)-sorted disjoint pair columns. *)
let merge_pair_cols (asub, aobj) (bsub, bobj) =
  let na = Array.length asub and nb = Array.length bsub in
  if nb = 0 then asub, aobj
  else if na = 0 then bsub, bobj
  else begin
    let osub = Array.make (na + nb) 0 and oobj = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      let take_a =
        !j >= nb
        || (!i < na
           && (asub.(!i) < bsub.(!j)
              || (asub.(!i) = bsub.(!j) && aobj.(!i) < bobj.(!j))))
      in
      if take_a then begin
        osub.(k) <- asub.(!i);
        oobj.(k) <- aobj.(!i);
        incr i
      end
      else begin
        osub.(k) <- bsub.(!j);
        oobj.(k) <- bobj.(!j);
        incr j
      end
    done;
    osub, oobj
  end

(* {1 Table construction} *)

let range a =
  let n = Array.length a in
  if n = 0 then 1, 0
  else begin
    let lo = ref a.(0) and hi = ref a.(0) in
    for i = 1 to n - 1 do
      if a.(i) < !lo then lo := a.(i);
      if a.(i) > !hi then hi := a.(i)
    done;
    !lo, !hi
  end

let concept_table members =
  {
    members;
    c_tail = Ibuf.create ();
    merged_c = Atomic.make None;
    member_set = Atomic.make None;
  }

(* [subs]/[objs] must already be (s,o)-sorted and deduplicated. *)
let role_table ?ndv subs objs =
  let ndv =
    match ndv with
    | Some ndv -> ndv
    | None -> [| sorted_distinct subs; count_distinct_arr objs |]
  in
  {
    subs;
    objs;
    obj_range = range objs;
    rs_tail = Ibuf.create ();
    ro_tail = Ibuf.create ();
    r_stats = { card = Array.length subs; ndv };
    by_subject = Atomic.make None;
    by_object = Atomic.make None;
    hist_subject = Atomic.make None;
    hist_object = Atomic.make None;
    merged_r = Atomic.make None;
  }

let make ~dict ~concepts ~roles ~total_facts =
  {
    dict;
    concepts;
    roles;
    total_facts;
    delta_rows = default_delta_rows;
    uid = fresh_uid ();
    empty_epoch = 0;
  }

let of_abox abox =
  timed_load (fun () ->
      let concepts = Hashtbl.create 64 and roles = Hashtbl.create 64 in
      let total = ref 0 in
      List.iter
        (fun name ->
          let members = sort_dedup_ints (Dllite.Abox.concept_members abox name) in
          total := !total + Array.length members;
          Hashtbl.replace concepts name (concept_table members))
        (Dllite.Abox.concept_names abox);
      List.iter
        (fun name ->
          let pairs = Dllite.Abox.role_pairs abox name in
          let subs, objs =
            sort_dedup_pairs (Array.map fst pairs) (Array.map snd pairs)
          in
          total := !total + Array.length subs;
          Hashtbl.replace roles name (role_table subs objs))
        (Dllite.Abox.role_names abox);
      make ~dict:(Dllite.Abox.dict abox) ~concepts ~roles ~total_facts:!total)

let dict t = t.dict

let concept_names t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.concepts [])

let role_names t =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.roles [])

(* First reader builds and publishes; concurrent racers build the same
   value and the compare-and-set loser adopts the winner's copy. *)
let force_index cell build =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    let v = build () in
    if Atomic.compare_and_set cell None (Some v) then v
    else Option.get (Atomic.get cell)

(* A table with an empty tail is its arrays. Otherwise the view is the
   arrays linearly merged with the sorted tail: tail rows are disjoint
   from the arrays by construction, so the merge needs no dedup
   pass. *)
let concept_members ct =
  if Ibuf.length ct.c_tail = 0 then ct.members
  else
    force_index ct.merged_c (fun () -> merge_ints ct.members (Ibuf.to_array ct.c_tail))

let concept_rows t name =
  match Hashtbl.find_opt t.concepts name with
  | Some ct -> concept_members ct
  | None -> [||]

let empty_cols : int array * int array = [||], [||]

let role_columns rt =
  if Ibuf.length rt.rs_tail = 0 then rt.subs, rt.objs
  else
    force_index rt.merged_r (fun () ->
        merge_pair_cols (rt.subs, rt.objs) (Ibuf.to_array rt.rs_tail, Ibuf.to_array rt.ro_tail))

let role_cols t name =
  match Hashtbl.find_opt t.roles name with
  | None -> empty_cols
  | Some rt -> role_columns rt

let role_rows t name =
  let subs, objs = role_cols t name in
  Array.init (Array.length subs) (fun i -> subs.(i), objs.(i))

let concept_stats t name =
  match Hashtbl.find_opt t.concepts name with
  | Some ct ->
    let n = Array.length ct.members + Ibuf.length ct.c_tail in
    { card = n; ndv = [| n |] }
  | None -> { card = 0; ndv = [| 0 |] }

let role_stats t name =
  match Hashtbl.find_opt t.roles name with
  | Some rt -> rt.r_stats
  | None -> { card = 0; ndv = [| 0; 0 |] }

(* Group the rows by their [keys] code, each bucket holding the
   [others] codes in row order. The rows arrive (s, o)-sorted, so every
   bucket is sorted ascending. Incremental maintenance ([insert_role])
   preserves exactly this order, so an incrementally-updated index and
   a from-scratch rebuild are identical, buckets included. *)
let index_of keys others =
  let n = Array.length keys in
  let ix_keys = Keytab.create ~expected:n 1 in
  let bucket = Array.map (Keytab.intern1 ix_keys) keys in
  let sizes = Array.make (Keytab.length ix_keys) 0 in
  Array.iter (fun b -> sizes.(b) <- sizes.(b) + 1) bucket;
  let buckets = Array.map (fun k -> Array.make k 0) sizes in
  let fill = Array.make (Keytab.length ix_keys) 0 in
  Array.iteri
    (fun i b ->
      buckets.(b).(fill.(b)) <- others.(i);
      fill.(b) <- fill.(b) + 1)
    bucket;
  { ix_keys; buckets }

let no_codes : int array = [||]

let bucket ix code =
  let b = Keytab.find1 ix.ix_keys code in
  if b < 0 then no_codes else ix.buckets.(b)

let role_index rt side =
  match side with
  | `Subject ->
    force_index rt.by_subject (fun () ->
        let subs, objs = role_columns rt in
        index_of subs objs)
  | `Object ->
    force_index rt.by_object (fun () ->
        let subs, objs = role_columns rt in
        index_of objs subs)

let role_matches t name side =
  match Hashtbl.find_opt t.roles name with
  | None -> fun _ -> no_codes
  | Some rt ->
    let ix = role_index rt side in
    bucket ix

let member_set ct =
  force_index ct.member_set (fun () ->
      let members = concept_members ct in
      let set = Keytab.create ~expected:(Array.length members) 1 in
      Array.iter (fun m -> ignore (Keytab.intern1 set m)) members;
      set)

let concept_mem t name ind =
  match Hashtbl.find_opt t.concepts name with
  | None -> false
  | Some ct -> Keytab.find1 (member_set ct) ind >= 0

let total_facts t = t.total_facts

let uid t = t.uid

let empty_epoch t = t.empty_epoch

let individual_count t = Dllite.Dict.size t.dict

let warm t =
  (* merge every pending tail and build every lazy hash index up
     front; the probe key -1 never matches (codes are non-negative) but
     forces the index build all the same *)
  let tables = ref 0 in
  List.iter
    (fun c ->
      incr tables;
      ignore (concept_rows t c);
      ignore (concept_mem t c (-1)))
    (concept_names t);
  List.iter
    (fun r ->
      incr tables;
      ignore (role_cols t r);
      ignore (role_matches t r `Subject (-1));
      ignore (role_matches t r `Object (-1)))
    (role_names t);
  !tables

(* {1 Delta tails} *)

let touched_predicates t =
  let names = ref [] in
  Hashtbl.iter
    (fun name ct -> if Ibuf.length ct.c_tail > 0 then names := name :: !names)
    t.concepts;
  Hashtbl.iter
    (fun name rt -> if Ibuf.length rt.rs_tail > 0 then names := name :: !names)
    t.roles;
  List.sort_uniq String.compare !names

let delta_fact_count t =
  let acc = ref 0 in
  Hashtbl.iter (fun _ ct -> acc := !acc + Ibuf.length ct.c_tail) t.concepts;
  Hashtbl.iter (fun _ rt -> acc := !acc + Ibuf.length rt.rs_tail) t.roles;
  !acc

let set_delta_rows t n = t.delta_rows <- max 1 n

let delta_rows t = t.delta_rows

(* A [true] is a soundness claim ("provably absent") that must account
   for the rows of the pending tail too, at most [delta_rows] of
   them. *)
let role_code_absent t name side code =
  match Hashtbl.find_opt t.roles name with
  | None -> true
  | Some rt ->
    let (lo, hi), tail =
      match side with
      | `Subject ->
        let n = Array.length rt.subs in
        (if n = 0 then 1, 0 else rt.subs.(0), rt.subs.(n - 1)), rt.rs_tail
      | `Object -> rt.obj_range, rt.ro_tail
    in
    let in_tail = ref false in
    for i = 0 to Ibuf.length tail - 1 do
      if Ibuf.get tail i = code then in_tail := true
    done;
    (code < lo || code > hi) && not !in_tail

(* {1 Incremental maintenance}

   An accepted insert is O(1) amortised: a hash-index duplicate probe
   (forced once, then maintained), a push onto the table's delta tail,
   in-place index and statistics maintenance, and an invalidation of
   the merged view (rebuilt lazily by a linear merge, never a full
   re-sort). Once a tail reaches [delta_rows] entries the table
   compacts: the merged view becomes the table's arrays and the tail
   empties. *)

(* Where a row goes in a sorted run of [n] rows: the first position
   whose row is not [below] it. *)
let insertion_point n below =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if below mid then lo := mid + 1 else hi := mid
  done;
  !lo

let compact_concept ct =
  if Ibuf.length ct.c_tail > 0 then begin
    ct.members <- concept_members ct;
    ct.c_tail <- Ibuf.create ();
    Atomic.set ct.merged_c None
  end

let compact_role rt =
  if Ibuf.length rt.rs_tail > 0 then begin
    let subs, objs = role_columns rt in
    rt.subs <- subs;
    rt.objs <- objs;
    rt.obj_range <- range objs;
    rt.rs_tail <- Ibuf.create ();
    rt.ro_tail <- Ibuf.create ();
    Atomic.set rt.merged_r None;
    (* re-derive the stats from the merged columns: resyncs any drift
       the incremental ndv maintenance could accumulate *)
    rt.r_stats <-
      {
        card = Array.length subs;
        ndv = [| sorted_distinct subs; count_distinct_arr objs |];
      }
  end

let compact t =
  Hashtbl.iter (fun _ ct -> compact_concept ct) t.concepts;
  Hashtbl.iter (fun _ rt -> compact_role rt) t.roles

let insert_concept t ~concept ~ind =
  let code = Dllite.Dict.encode t.dict ind in
  let ct =
    match Hashtbl.find_opt t.concepts concept with
    | Some ct -> ct
    | None ->
      let ct = concept_table [||] in
      Hashtbl.add t.concepts concept ct;
      ct
  in
  (* duplicate probe against the member-set index (forced if absent),
     not a linear scan of the table *)
  let set = member_set ct in
  let fresh = Keytab.length set in
  if Keytab.intern1 set code < fresh then false
  else begin
    if fresh = 0 then t.empty_epoch <- t.empty_epoch + 1;
    let tail = ct.c_tail in
    Ibuf.insert tail (insertion_point (Ibuf.length tail) (fun i -> Ibuf.get tail i < code)) code;
    Atomic.set ct.merged_c None;
    t.total_facts <- t.total_facts + 1;
    if Ibuf.length ct.c_tail >= t.delta_rows then compact_concept ct;
    true
  end

(* Splice a code into a sorted bucket, so the bucket stays identical
   to what a from-scratch [index_of] over the merged table would
   build. [None] when the code is already there. *)
let bucket_insert arr v =
  let n = Array.length arr in
  let i = insertion_point n (fun m -> arr.(m) < v) in
  if i < n && arr.(i) = v then None
  else begin
    let out = Array.make (n + 1) v in
    Array.blit arr 0 out 0 i;
    Array.blit arr i out (i + 1) (n - i);
    Some out
  end

(* Adds [other] to [key]'s bucket; [None] when the pair was present.
   The second result says whether [key] is new to the index. *)
let index_insert ix key other =
  let fresh = Keytab.length ix.ix_keys in
  let b = Keytab.intern1 ix.ix_keys key in
  if b = fresh then begin
    if b >= Array.length ix.buckets then begin
      let grown = Array.make (2 * max 8 b) no_codes in
      Array.blit ix.buckets 0 grown 0 b;
      ix.buckets <- grown
    end;
    ix.buckets.(b) <- [| other |];
    Some true
  end
  else
    match bucket_insert ix.buckets.(b) other with
    | None -> None
    | Some arr ->
      ix.buckets.(b) <- arr;
      Some false

let insert_role t ~role ~subj ~obj =
  let s = Dllite.Dict.encode t.dict subj in
  let o = Dllite.Dict.encode t.dict obj in
  let rt =
    match Hashtbl.find_opt t.roles role with
    | Some rt -> rt
    | None ->
      let rt = role_table [||] [||] in
      Hashtbl.add t.roles role rt;
      rt
  in
  (* the subject index doubles as the duplicate probe (forced if
     absent): O(log bucket), not O(table) *)
  match index_insert (role_index rt `Subject) s o with
  | None -> false
  | Some new_subject ->
    if rt.r_stats.card = 0 then t.empty_epoch <- t.empty_epoch + 1;
    let new_object =
      match index_insert (role_index rt `Object) o s with
      | Some fresh -> fresh
      | None -> false
    in
    rt.r_stats <-
      {
        card = rt.r_stats.card + 1;
        ndv =
          [| (rt.r_stats.ndv.(0) + if new_subject then 1 else 0);
             (rt.r_stats.ndv.(1) + if new_object then 1 else 0) |];
      };
    let subs = rt.rs_tail and objs = rt.ro_tail in
    let i =
      insertion_point (Ibuf.length subs) (fun i ->
          let si = Ibuf.get subs i in
          si < s || (si = s && Ibuf.get objs i < o))
    in
    Ibuf.insert subs i s;
    Ibuf.insert objs i o;
    Atomic.set rt.merged_r None;
    (* histograms are derived snapshots; rebuild lazily after updates *)
    Atomic.set rt.hist_subject None;
    Atomic.set rt.hist_object None;
    t.total_facts <- t.total_facts + 1;
    if Ibuf.length rt.rs_tail >= t.delta_rows then compact_role rt;
    true

let role_histogram t name side =
  match Hashtbl.find_opt t.roles name with
  | None -> None
  | Some rt ->
    let cell, pick =
      match side with
      | `Subject -> rt.hist_subject, fst
      | `Object -> rt.hist_object, snd
    in
    Some (force_index cell (fun () -> Histogram.build (pick (role_cols t name))))

(* {1 Streaming builder}

   The multi-million-fact ingest path: assertions stream into growable
   unboxed buffers (one per table, no per-fact tuples or lists), then
   [finish] sorts and deduplicates each table once. *)

type storage = t

module Builder = struct
  type b = {
    b_dict : Dllite.Dict.t;
    b_concepts : (string, Ibuf.t) Hashtbl.t;
    b_roles : (string, Ibuf.t * Ibuf.t) Hashtbl.t;
    mutable b_assertions : int;
  }

  let create () =
    {
      b_dict = Dllite.Dict.create ();
      b_concepts = Hashtbl.create 64;
      b_roles = Hashtbl.create 64;
      b_assertions = 0;
    }

  let add_concept b ~concept ~ind =
    let buf =
      match Hashtbl.find_opt b.b_concepts concept with
      | Some buf -> buf
      | None ->
        let buf = Ibuf.create () in
        Hashtbl.add b.b_concepts concept buf;
        buf
    in
    Ibuf.push buf (Dllite.Dict.encode b.b_dict ind);
    b.b_assertions <- b.b_assertions + 1

  let add_role b ~role ~subj ~obj =
    let sb, ob =
      match Hashtbl.find_opt b.b_roles role with
      | Some bufs -> bufs
      | None ->
        let bufs = Ibuf.create (), Ibuf.create () in
        Hashtbl.add b.b_roles role bufs;
        bufs
    in
    Ibuf.push sb (Dllite.Dict.encode b.b_dict subj);
    Ibuf.push ob (Dllite.Dict.encode b.b_dict obj);
    b.b_assertions <- b.b_assertions + 1

  let assertion_count b = b.b_assertions

  let finish b : storage =
    timed_load (fun () ->
        let concepts = Hashtbl.create 64 and roles = Hashtbl.create 64 in
        let total = ref 0 in
        Hashtbl.iter
          (fun name buf ->
            let members = sort_dedup_ints (Ibuf.to_array buf) in
            total := !total + Array.length members;
            Hashtbl.replace concepts name (concept_table members))
          b.b_concepts;
        Hashtbl.iter
          (fun name (sb, ob) ->
            let subs, objs = sort_dedup_pairs (Ibuf.to_array sb) (Ibuf.to_array ob) in
            total := !total + Array.length subs;
            Hashtbl.replace roles name (role_table subs objs))
          b.b_roles;
        make ~dict:b.b_dict ~concepts ~roles ~total_facts:!total)
end

(* {1 Binary persistence}

   Versioned little-endian format. A small parsed part — header,
   dictionary, per-table directory — is followed by a page-aligned
   payload of packed words. Each column is cut into runs of
   [segment_rows] rows, and each run is frame-of-reference encoded
   and bit-packed ({!Segment}); its directory entry holds the run's
   word offset, minimum, width, length, maximum and distinct count.
   [save] encodes every run and [load] decodes every run, so a loaded
   store is the same plain arrays a built one is. [load] checks every
   field against the file before using it, and every decoded table
   against the invariants of the arrays (codes in the dictionary, rows
   sorted and distinct), so a corrupt or truncated file yields
   [Error _], not a crash. *)

let magic = "OBDACOL1"

let format_version = 1

let page_size = 4096

(* Rows per run the writer cuts; the reader takes the header's value. *)
let segment_rows = 65536

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

module Writer = struct
  let int64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

  let str buf s =
    int64 buf (String.length s);
    Buffer.add_string buf s
end

(* The runs of one column with the row each starts at: the writer's
   sizing, which [column_bytes] shares. *)
let runs a =
  let n = Array.length a in
  Array.init
    ((n + segment_rows - 1) / segment_rows)
    (fun i ->
      let off = i * segment_rows in
      off, Segment.frame a ~off ~len:(min segment_rows (n - off)))

(* Distinct values of one run: a boundary count on a sorted column, a
   small hash table otherwise. *)
let run_ndv ~sorted a ~off ~len =
  let run = Array.sub a off len in
  if sorted then sorted_distinct run else count_distinct_arr run

(* The directory entry of one column assigns its runs consecutive
   word offsets in the payload; [cursor] threads the running total. *)
let dir_column buf cursor (a, sorted, runs) =
  Writer.int64 buf (Array.length a);
  Writer.int64 buf (Array.length runs);
  Array.iter
    (fun (off, (s : Segment.t)) ->
      Writer.int64 buf !cursor;
      Writer.int64 buf s.base;
      Writer.int64 buf s.bits;
      Writer.int64 buf s.len;
      Writer.int64 buf s.zmax;
      Writer.int64 buf (run_ndv ~sorted a ~off ~len:s.len);
      cursor := !cursor + Segment.word_count s)
    runs

let write_column_words oc (a, _, runs) =
  Array.iter (fun (off, s) -> output_bytes oc (Segment.pack s a ~off)) runs

let save t file =
  (* the file holds whole tables: fold any pending delta tails into
     the arrays first so no fact is left behind *)
  compact t;
  let column ~sorted a = a, sorted, runs a in
  let concepts =
    List.map
      (fun name -> name, column ~sorted:true (Hashtbl.find t.concepts name).members)
      (concept_names t)
  in
  let roles =
    List.map
      (fun name ->
        let rt = Hashtbl.find t.roles name in
        name, rt.r_stats.ndv, column ~sorted:true rt.subs, column ~sorted:false rt.objs)
      (role_names t)
  in
  let dir = Buffer.create (1 lsl 16) in
  let n = Dllite.Dict.size t.dict in
  for c = 0 to n - 1 do
    Writer.str dir (Dllite.Dict.decode t.dict c)
  done;
  let cursor = ref 0 in
  List.iter
    (fun (name, col) ->
      Writer.str dir name;
      dir_column dir cursor col)
    concepts;
  List.iter
    (fun (name, ndv, scol, ocol) ->
      Writer.str dir name;
      Writer.int64 dir ndv.(0);
      Writer.int64 dir ndv.(1);
      dir_column dir cursor scol;
      dir_column dir cursor ocol)
    roles;
  let header_bytes = String.length magic + (8 * 8) in
  let payload_off =
    (header_bytes + Buffer.length dir + page_size - 1) / page_size * page_size
  in
  let header = Buffer.create header_bytes in
  Buffer.add_string header magic;
  Writer.int64 header format_version;
  Writer.int64 header payload_off;
  Writer.int64 header !cursor;
  Writer.int64 header n;
  Writer.int64 header (List.length concepts);
  Writer.int64 header (List.length roles);
  Writer.int64 header t.total_facts;
  Writer.int64 header segment_rows;
  (* written beside the target and renamed over it, so a crash
     mid-save never leaves a truncated store *)
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Buffer.output_buffer oc header;
        Buffer.output_buffer oc dir;
        output_string oc
          (String.make (payload_off - header_bytes - Buffer.length dir) '\000');
        List.iter (fun (_, col) -> write_column_words oc col) concepts;
        List.iter
          (fun (_, _, scol, ocol) ->
            write_column_words oc scol;
            write_column_words oc ocol)
          roles;
        close_out oc)
  with
  | () -> Sys.rename tmp file
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* {1 Footprint} *)

(* Per column: its runs' payload words and 48-byte entries, plus 32
   bytes for the column's length and run count and its share of the
   table's name and distinct counts. *)
let column_bytes t =
  let col a = Array.fold_left (fun acc (_, s) -> acc + Segment.bytes s) 32 (runs a) in
  let acc = ref 0 in
  Hashtbl.iter (fun _ ct -> acc := !acc + col (concept_members ct)) t.concepts;
  Hashtbl.iter
    (fun _ rt ->
      let subs, objs = role_columns rt in
      acc := !acc + col subs + col objs)
    t.roles;
  !acc

let flat_bytes t =
  let cells = ref 0 in
  Hashtbl.iter
    (fun _ ct -> cells := !cells + Array.length ct.members + Ibuf.length ct.c_tail)
    t.concepts;
  Hashtbl.iter
    (fun _ rt -> cells := !cells + (2 * (Array.length rt.subs + Ibuf.length rt.rs_tail)))
    t.roles;
  8 * !cells

module Reader = struct
  type r = {
    ic : in_channel;
    mutable pos : int;
    limit : int;
    scratch : Bytes.t;
  }

  let make ic ~limit = { ic; pos = 0; limit; scratch = Bytes.create 8 }

  let int64 r =
    if r.pos + 8 > r.limit then corrupt "truncated file";
    really_input r.ic r.scratch 0 8;
    r.pos <- r.pos + 8;
    let v = Int64.to_int (Bytes.get_int64_le r.scratch 0) in
    if v < 0 then corrupt "negative field" else v

  let str r =
    let len = int64 r in
    if len > r.limit - r.pos then corrupt "truncated string";
    let b = Bytes.create len in
    really_input r.ic b 0 len;
    r.pos <- r.pos + len;
    Bytes.unsafe_to_string b
end

(* A column's directory entry, every field checked against the file
   before anything is read through it: the column's length, and per
   run the file position of its payload words and its frame. *)
let read_column_dir r ~payload_off ~payload_words ~segment_rows ~max_code =
  let len = Reader.int64 r in
  let nsegs = Reader.int64 r in
  if nsegs <> (len / segment_rows) + if len mod segment_rows = 0 then 0 else 1 then
    corrupt "segment count does not tile the column";
  if nsegs > (r.Reader.limit - r.Reader.pos) / 48 then corrupt "truncated directory";
  let runs =
    Array.init nsegs (fun i ->
        let word_off = Reader.int64 r in
        let base = Reader.int64 r in
        let bits = Reader.int64 r in
        let slen = Reader.int64 r in
        let zmax = Reader.int64 r in
        let ndv = Reader.int64 r in
        if slen <> min segment_rows (len - (i * segment_rows)) then
          corrupt "segment lengths do not tile the column";
        if ndv > slen then corrupt "invalid distinct count";
        let s =
          match Segment.of_fields ~base ~bits ~len:slen ~zmax with
          | Ok s -> s
          | Error e -> corrupt e
        in
        if zmax > max_code then corrupt "code out of dictionary range";
        if word_off > payload_words - Segment.word_count s then
          corrupt "segment past payload";
        payload_off + (8 * word_off), s)
  in
  len, runs

(* [words] is a scratch buffer shared by every run of a load, grown to
   the largest run, so reading leaves no garbage but the arrays. *)
let read_column ic ~words ~max_code (len, runs) =
  let a = Array.make len 0 in
  let at = ref 0 in
  Array.iter
    (fun (pos, (s : Segment.t)) ->
      let n = 8 * Segment.word_count s in
      if Bytes.length !words < n then words := Bytes.create n;
      seek_in ic pos;
      really_input ic !words 0 n;
      Segment.unpack s !words a ~at:!at;
      at := !at + s.len)
    runs;
  Array.iter (fun v -> if v < 0 || v > max_code then corrupt "code out of dictionary range") a;
  a

let strictly_sorted a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then ok := false
  done;
  !ok

let pairs_strictly_sorted subs objs =
  let ok = ref true in
  for i = 1 to Array.length subs - 1 do
    if subs.(i) < subs.(i - 1) || (subs.(i) = subs.(i - 1) && objs.(i) <= objs.(i - 1))
    then ok := false
  done;
  !ok

let load file =
  timed_load (fun () ->
      match open_in_bin file with
      | exception Sys_error e -> Error e
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              let file_len = in_channel_length ic in
              let m = Bytes.create (String.length magic) in
              (try really_input ic m 0 (String.length magic)
               with End_of_file -> corrupt "truncated header");
              if Bytes.to_string m <> magic then corrupt "bad magic";
              let r = Reader.make ic ~limit:file_len in
              r.Reader.pos <- String.length magic;
              let version = Reader.int64 r in
              if version <> format_version then
                corrupt (Printf.sprintf "unsupported version %d" version);
              let payload_off = Reader.int64 r in
              let payload_words = Reader.int64 r in
              let dict_count = Reader.int64 r in
              let n_concepts = Reader.int64 r in
              let n_roles = Reader.int64 r in
              let total = Reader.int64 r in
              let segment_rows = Reader.int64 r in
              if segment_rows = 0 then corrupt "invalid segment size";
              if payload_off > file_len || payload_words > (file_len - payload_off) / 8 then
                corrupt "payload past end of file";
              (* every row of a valid file costs at least one payload
                 bit, or is a one-row run with its own 48-byte entry *)
              if total > 9 * file_len then corrupt "fact count exceeds the file";
              let dict = Dllite.Dict.create () in
              for c = 0 to dict_count - 1 do
                let s = Reader.str r in
                if Dllite.Dict.encode dict s <> c then corrupt "duplicate dictionary entry"
              done;
              let max_code = dict_count - 1 in
              let remaining = ref total in
              let column_dir () =
                let ((len, _) as col) =
                  read_column_dir r ~payload_off ~payload_words ~segment_rows ~max_code
                in
                if len > !remaining then corrupt "fact count mismatch";
                col
              in
              let concepts =
                List.init n_concepts (fun _ ->
                    let name = Reader.str r in
                    let ((len, _) as col) = column_dir () in
                    remaining := !remaining - len;
                    name, col)
              in
              let roles =
                List.init n_roles (fun _ ->
                    let name = Reader.str r in
                    let ndv_s = Reader.int64 r in
                    let ndv_o = Reader.int64 r in
                    let ((card, _) as scol) = column_dir () in
                    let ((ocard, _) as ocol) = column_dir () in
                    if ocard <> card then corrupt "role column lengths differ";
                    if ndv_s > card || ndv_o > card then
                      corrupt "distinct count exceeds cardinality";
                    remaining := !remaining - card;
                    name, [| ndv_s; ndv_o |], scol, ocol)
              in
              if !remaining <> 0 then corrupt "fact count mismatch";
              let decode = read_column ic ~words:(ref Bytes.empty) ~max_code in
              let ctables = Hashtbl.create 64 and rtables = Hashtbl.create 64 in
              let add tbl name v =
                if Hashtbl.mem tbl name then corrupt "duplicate table";
                Hashtbl.add tbl name v
              in
              List.iter
                (fun (name, col) ->
                  let members = decode col in
                  if not (strictly_sorted members) then
                    corrupt "concept members not sorted and distinct";
                  add ctables name (concept_table members))
                concepts;
              List.iter
                (fun (name, ndv, scol, ocol) ->
                  let subs = decode scol in
                  let objs = decode ocol in
                  if not (pairs_strictly_sorted subs objs) then
                    corrupt "role pairs not sorted and distinct";
                  add rtables name (role_table ~ndv subs objs))
                roles;
              Ok (make ~dict ~concepts:ctables ~roles:rtables ~total_facts:total)
            with
            | Corrupt msg -> Error (Printf.sprintf "%s: corrupt store (%s)" file msg)
            | End_of_file -> Error (Printf.sprintf "%s: corrupt store (truncated)" file)
            | Sys_error e -> Error (Printf.sprintf "%s: %s" file e)))

let load_exn file =
  match load file with Ok t -> t | Error msg -> failwith msg
