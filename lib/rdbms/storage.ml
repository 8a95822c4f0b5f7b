type table_stats = {
  card : int;
  ndv : int array;
}

(* The ground truth of every table is its compressed segmented
   column(s) ({!Colstore}): concept members sorted and deduplicated,
   role pairs sorted by (subject, object) and deduplicated, so the
   subject column is non-decreasing and frame-of-reference packs
   tightly. Since PR 8 each table also carries a small unsorted {e
   delta tail} of pending inserts, disjoint from the encoded segments
   by construction (duplicates are rejected at insert time): a single
   insert is an O(1) amortised buffer push, and a size-triggered
   [compact] merges the tail back into proper segments. Flat decoded
   arrays, hash indexes and histograms are all derived snapshots of
   the {e merged} table (segments ∪ tail), built lazily and published
   through [Atomic.t] so concurrent queries can race on first use:
   both racers build the same value, a compare-and-set picks the
   winner, and the atomic write orders the contents before the pointer
   every reader dereferences. In-place maintenance ([insert_*],
   [compact]) is not concurrent with query evaluation by contract. *)
type concept_table = {
  mutable col : Colstore.t;  (* sorted, deduplicated codes *)
  mutable c_tail : Ibuf.t;  (* pending inserts, disjoint from [col] *)
  members_c : int array option Atomic.t;  (* lazy merged decoded view *)
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
  mutable scol : Colstore.t;  (* subjects, (s,o)-sorted *)
  mutable ocol : Colstore.t;  (* objects, segment-aligned with scol *)
  mutable rs_tail : Ibuf.t;  (* pending subjects, parallel to ro_tail *)
  mutable ro_tail : Ibuf.t;  (* pending objects *)
  mutable r_stats : table_stats;
  by_subject : role_index option Atomic.t;
  by_object : role_index option Atomic.t;
  hist_subject : Histogram.t option Atomic.t;  (* lazy column histograms *)
  hist_object : Histogram.t option Atomic.t;
  columns : (int array * int array) option Atomic.t;
      (* lazy merged columnar projection: (subjects, objects), shared
         zero-copy by every full scan of the role *)
}

type t = {
  dict : Dllite.Dict.t;
  concepts : (string, concept_table) Hashtbl.t;
  roles : (string, role_table) Hashtbl.t;
  mutable total_facts : int;
  segment_rows : int;
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

(* Linear merge of two sorted {e disjoint} arrays — how a decoded view
   folds a sorted delta tail into the sorted segment decode without a
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

let fresh_concept_table ~segment_rows members =
  {
    col = Colstore.of_array ~segment_rows ~sorted:true members;
    c_tail = Ibuf.create ();
    members_c = Atomic.make (Some members);
    member_set = Atomic.make None;
  }

(* [subs]/[objs] must already be (s,o)-sorted and deduplicated. *)
let fresh_role_table ~segment_rows subs objs =
  let stats =
    {
      card = Array.length subs;
      ndv = [| sorted_distinct subs; count_distinct_arr objs |];
    }
  in
  {
    scol = Colstore.of_array ~segment_rows ~sorted:true subs;
    ocol = Colstore.of_array ~segment_rows objs;
    rs_tail = Ibuf.create ();
    ro_tail = Ibuf.create ();
    r_stats = stats;
    by_subject = Atomic.make None;
    by_object = Atomic.make None;
    hist_subject = Atomic.make None;
    hist_object = Atomic.make None;
    columns = Atomic.make (Some (subs, objs));
  }

let of_abox ?(segment_rows = Colstore.default_segment_rows) abox =
  timed_load (fun () ->
      let concepts = Hashtbl.create 64 and roles = Hashtbl.create 64 in
      let total = ref 0 in
      List.iter
        (fun name ->
          let members = sort_dedup_ints (Dllite.Abox.concept_members abox name) in
          total := !total + Array.length members;
          Hashtbl.replace concepts name (fresh_concept_table ~segment_rows members))
        (Dllite.Abox.concept_names abox);
      List.iter
        (fun name ->
          let pairs = Dllite.Abox.role_pairs abox name in
          let subs, objs =
            sort_dedup_pairs (Array.map fst pairs) (Array.map snd pairs)
          in
          total := !total + Array.length subs;
          Hashtbl.replace roles name (fresh_role_table ~segment_rows subs objs))
        (Dllite.Abox.role_names abox);
      {
        dict = Dllite.Abox.dict abox;
        concepts;
        roles;
        total_facts = !total;
        segment_rows;
        delta_rows = default_delta_rows;
        uid = fresh_uid ();
        empty_epoch = 0;
      })

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

(* Every decoded view presents the merged table: the sorted segment
   decode linearly merged with the (sorted, deduplicated) delta tail.
   Tail rows are disjoint from the segments by construction, so the
   merge needs no dedup pass. *)
let concept_members ct =
  force_index ct.members_c (fun () ->
      let base = Colstore.to_array ct.col in
      if Ibuf.length ct.c_tail = 0 then base
      else merge_ints base (sort_dedup_ints (Ibuf.to_array ct.c_tail)))

let concept_rows t name =
  match Hashtbl.find_opt t.concepts name with
  | Some ct -> concept_members ct
  | None -> [||]

let empty_cols : int array * int array = [||], [||]

let role_columns rt =
  force_index rt.columns (fun () ->
      let base = Colstore.to_array rt.scol, Colstore.to_array rt.ocol in
      if Ibuf.length rt.rs_tail = 0 then base
      else
        merge_pair_cols base
          (sort_dedup_pairs (Ibuf.to_array rt.rs_tail) (Ibuf.to_array rt.ro_tail)))

(* Decoded columnar projection of a role table, built once per table
   snapshot (CAS-published like the hash indexes, invalidated by
   insertion). Scan relations alias these arrays directly. *)
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
    let n = Colstore.length ct.col + Ibuf.length ct.c_tail in
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
  (* decode every column and build every lazy hash index up front; the
     probe key -1 never matches (codes are non-negative) but forces
     the index build all the same *)
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

(* {1 Segment access (zone-map pruned scans)} *)

let concept_col t name =
  Option.map (fun ct -> ct.col) (Hashtbl.find_opt t.concepts name)

let role_colstores t name =
  Option.map (fun rt -> rt.scol, rt.ocol) (Hashtbl.find_opt t.roles name)

(* With an empty tail the merged view is the segments' decode,
   concatenated: a segment scan can window it instead of decoding. *)
let concept_decoded t name =
  match Hashtbl.find_opt t.concepts name with
  | Some ct when Ibuf.length ct.c_tail = 0 -> Atomic.get ct.members_c
  | _ -> None

let role_decoded t name =
  match Hashtbl.find_opt t.roles name with
  | Some rt when Ibuf.length rt.rs_tail = 0 -> Atomic.get rt.columns
  | _ -> None

(* {1 Delta tails} *)

let empty_ints : int array = [||]

let concept_tail t name =
  match Hashtbl.find_opt t.concepts name with
  | Some ct when Ibuf.length ct.c_tail > 0 -> Ibuf.to_array ct.c_tail
  | _ -> empty_ints

let role_tail t name =
  match Hashtbl.find_opt t.roles name with
  | Some rt when Ibuf.length rt.rs_tail > 0 ->
    Ibuf.to_array rt.rs_tail, Ibuf.to_array rt.ro_tail
  | _ -> empty_ints, empty_ints

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

(* The zone estimate covers segments {e and} the pending tail: a
   [Some 0] is a soundness claim ("provably absent") that must account
   for rows not yet compacted into any segment. The tail contribution
   is an exact count — the tail is at most [delta_rows] entries. *)
let role_eq_zone_rows t name side code =
  match Hashtbl.find_opt t.roles name with
  | None -> None
  | Some rt ->
    let col, tail =
      match side with
      | `Subject -> rt.scol, rt.rs_tail
      | `Object -> rt.ocol, rt.ro_tail
    in
    let in_tail = ref 0 in
    for i = 0 to Ibuf.length tail - 1 do
      if Ibuf.get tail i = code then incr in_tail
    done;
    Some (Colstore.eq_rows_est col code + !in_tail)

(* {1 Footprint} *)

let column_bytes t =
  let acc = ref 0 in
  Hashtbl.iter
    (fun _ ct ->
      acc := !acc + Colstore.bytes ct.col + (8 * Ibuf.length ct.c_tail))
    t.concepts;
  Hashtbl.iter
    (fun _ rt ->
      acc :=
        !acc + Colstore.bytes rt.scol + Colstore.bytes rt.ocol
        + (16 * Ibuf.length rt.rs_tail))
    t.roles;
  !acc

let flat_bytes t =
  let cells = ref 0 in
  Hashtbl.iter
    (fun _ ct -> cells := !cells + Colstore.length ct.col + Ibuf.length ct.c_tail)
    t.concepts;
  Hashtbl.iter
    (fun _ rt ->
      cells := !cells + (2 * (Colstore.length rt.scol + Ibuf.length rt.rs_tail)))
    t.roles;
  8 * !cells

(* {1 Incremental maintenance}

   An accepted insert is O(1) amortised: a hash-index duplicate probe
   (forced once, then maintained), a push onto the table's delta tail,
   in-place index and statistics maintenance, and an invalidation of
   the decoded views (rebuilt lazily by a linear merge, never a full
   re-sort). Once a tail reaches [delta_rows] entries the table
   compacts: the merged view is re-encoded into proper FOR/bit-packed
   segments and the tail empties. *)

let compact_concept t ct =
  if Ibuf.length ct.c_tail > 0 then begin
    let members = concept_members ct in
    ct.col <- Colstore.of_array ~segment_rows:t.segment_rows ~sorted:true members;
    ct.c_tail <- Ibuf.create ();
    Atomic.set ct.members_c (Some members)
  end

let compact_role t rt =
  if Ibuf.length rt.rs_tail > 0 then begin
    let subs, objs = role_columns rt in
    rt.scol <- Colstore.of_array ~segment_rows:t.segment_rows ~sorted:true subs;
    rt.ocol <- Colstore.of_array ~segment_rows:t.segment_rows objs;
    rt.rs_tail <- Ibuf.create ();
    rt.ro_tail <- Ibuf.create ();
    Atomic.set rt.columns (Some (subs, objs));
    (* re-derive the stats from the merged columns: resyncs any drift
       the incremental ndv maintenance could accumulate *)
    rt.r_stats <-
      {
        card = Array.length subs;
        ndv = [| sorted_distinct subs; count_distinct_arr objs |];
      }
  end

let compact t =
  Hashtbl.iter (fun _ ct -> compact_concept t ct) t.concepts;
  Hashtbl.iter (fun _ rt -> compact_role t rt) t.roles

let insert_concept t ~concept ~ind =
  let code = Dllite.Dict.encode t.dict ind in
  let ct =
    match Hashtbl.find_opt t.concepts concept with
    | Some ct -> ct
    | None ->
      let ct = fresh_concept_table ~segment_rows:t.segment_rows [||] in
      Hashtbl.add t.concepts concept ct;
      ct
  in
  (* duplicate probe against the member-set index (forced if absent),
     not a linear scan of the decoded table *)
  let set = member_set ct in
  let fresh = Keytab.length set in
  if Keytab.intern1 set code < fresh then false
  else begin
    if fresh = 0 then t.empty_epoch <- t.empty_epoch + 1;
    Ibuf.push ct.c_tail code;
    Atomic.set ct.members_c None;
    t.total_facts <- t.total_facts + 1;
    if Ibuf.length ct.c_tail >= t.delta_rows then compact_concept t ct;
    true
  end

(* Splice a code into a sorted bucket, so the bucket stays identical
   to what a from-scratch [index_of] over the merged table would
   build. [None] when the code is already there. *)
let bucket_insert arr v =
  let n = Array.length arr in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < n && arr.(!lo) = v then None
  else begin
    let out = Array.make (n + 1) v in
    Array.blit arr 0 out 0 !lo;
    Array.blit arr !lo out (!lo + 1) (n - !lo);
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
      let rt = fresh_role_table ~segment_rows:t.segment_rows [||] [||] in
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
    Ibuf.push rt.rs_tail s;
    Ibuf.push rt.ro_tail o;
    Atomic.set rt.columns None;
    (* histograms are derived snapshots; rebuild lazily after updates *)
    Atomic.set rt.hist_subject None;
    Atomic.set rt.hist_object None;
    t.total_facts <- t.total_facts + 1;
    if Ibuf.length rt.rs_tail >= t.delta_rows then compact_role t rt;
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
   [finish] sorts, deduplicates and encodes each column once. *)

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

  let finish ?(segment_rows = Colstore.default_segment_rows) b : storage =
    timed_load (fun () ->
        let concepts = Hashtbl.create 64 and roles = Hashtbl.create 64 in
        let total = ref 0 in
        Hashtbl.iter
          (fun name buf ->
            let members = sort_dedup_ints (Ibuf.to_array buf) in
            total := !total + Array.length members;
            Hashtbl.replace concepts name (fresh_concept_table ~segment_rows members))
          b.b_concepts;
        Hashtbl.iter
          (fun name (sb, ob) ->
            let subs, objs = sort_dedup_pairs (Ibuf.to_array sb) (Ibuf.to_array ob) in
            total := !total + Array.length subs;
            Hashtbl.replace roles name (fresh_role_table ~segment_rows subs objs))
          b.b_roles;
        {
          dict = b.b_dict;
          concepts;
          roles;
          total_facts = !total;
          segment_rows;
          delta_rows = default_delta_rows;
          uid = fresh_uid ();
          empty_epoch = 0;
        })
end

(* {1 Binary persistence}

   Versioned little-endian format. A small parsed part — header,
   dictionary, per-table directory with zone maps — is followed by a
   page-aligned payload of raw segment words. [load] parses the small
   part, maps the payload once with [Unix.map_file], and hands every
   segment a zero-copy sub-slice of the mapping: opening a store is
   O(dictionary + segments), never O(rows), and two handles on one
   file share the physical pages. Every read is bounds-checked and
   every structural invariant revalidated, so a corrupt or truncated
   file yields [Error _], not a crash. *)

let magic = "OBDACOL1"

let format_version = 1

let page_size = 4096

exception Corrupt of string

module Writer = struct
  let int64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

  let str buf s =
    int64 buf (String.length s);
    Buffer.add_string buf s
end

(* The directory entry of one column assigns its segments consecutive
   word offsets in the payload; [cursor] threads the running total. *)
let dir_column buf cursor col =
  Writer.int64 buf (Colstore.length col);
  Writer.int64 buf (Colstore.seg_count col);
  for i = 0 to Colstore.seg_count col - 1 do
    let s = Colstore.seg col i in
    Writer.int64 buf !cursor;
    Writer.int64 buf s.Segment.base;
    Writer.int64 buf s.Segment.bits;
    Writer.int64 buf s.Segment.len;
    Writer.int64 buf s.Segment.zmax;
    Writer.int64 buf s.Segment.ndv;
    cursor := !cursor + Segment.word_count s
  done

let write_column_words oc col =
  for i = 0 to Colstore.seg_count col - 1 do
    let s = Colstore.seg col i in
    let nw = Segment.word_count s in
    if nw > 0 then begin
      let bytes = Bytes.create (8 * nw) in
      for w = 0 to nw - 1 do
        Bytes.set_int64_le bytes (8 * w) (Bigarray.Array1.get s.Segment.words w)
      done;
      output_bytes oc bytes
    end
  done

let save t file =
  (* the on-disk format stores only encoded segments: fold any pending
     delta tails into segments first so no fact is left behind *)
  compact t;
  let cnames = concept_names t and rnames = role_names t in
  let dir = Buffer.create (1 lsl 16) in
  let n = Dllite.Dict.size t.dict in
  for c = 0 to n - 1 do
    Writer.str dir (Dllite.Dict.decode t.dict c)
  done;
  let cursor = ref 0 in
  List.iter
    (fun name ->
      let ct = Hashtbl.find t.concepts name in
      Writer.str dir name;
      dir_column dir cursor ct.col)
    cnames;
  List.iter
    (fun name ->
      let rt = Hashtbl.find t.roles name in
      Writer.str dir name;
      Writer.int64 dir rt.r_stats.ndv.(0);
      Writer.int64 dir rt.r_stats.ndv.(1);
      dir_column dir cursor rt.scol;
      dir_column dir cursor rt.ocol)
    rnames;
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
  Writer.int64 header (List.length cnames);
  Writer.int64 header (List.length rnames);
  Writer.int64 header t.total_facts;
  Writer.int64 header t.segment_rows;
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Buffer.output_buffer oc header;
      Buffer.output_buffer oc dir;
      output_string oc
        (String.make (payload_off - header_bytes - Buffer.length dir) '\000');
      List.iter
        (fun name -> write_column_words oc (Hashtbl.find t.concepts name).col)
        cnames;
      List.iter
        (fun name ->
          let rt = Hashtbl.find t.roles name in
          write_column_words oc rt.scol;
          write_column_words oc rt.ocol)
        rnames)

module Reader = struct
  type r = {
    ic : in_channel;
    mutable pos : int;
    limit : int;
    scratch : Bytes.t;
  }

  let make ic ~limit = { ic; pos = 0; limit; scratch = Bytes.create 8 }

  let int64 r =
    if r.pos + 8 > r.limit then raise (Corrupt "truncated file");
    really_input r.ic r.scratch 0 8;
    r.pos <- r.pos + 8;
    let v = Int64.to_int (Bytes.get_int64_le r.scratch 0) in
    if v < 0 then raise (Corrupt "negative field") else v

  let str r =
    let len = int64 r in
    if len > r.limit - r.pos then raise (Corrupt "truncated string");
    let b = Bytes.create len in
    really_input r.ic b 0 len;
    r.pos <- r.pos + len;
    Bytes.unsafe_to_string b
end

let read_column r ~payload ~payload_words ~segment_rows ~max_code =
  let len = Reader.int64 r in
  let nsegs = Reader.int64 r in
  if nsegs > 1 + (len / max 1 segment_rows) then raise (Corrupt "segment count");
  let segs =
    Array.init nsegs (fun _ ->
        let word_off = Reader.int64 r in
        let base = Reader.int64 r in
        let bits = Reader.int64 r in
        let slen = Reader.int64 r in
        let zmax = Reader.int64 r in
        let ndv = Reader.int64 r in
        if zmax > max_code then raise (Corrupt "code out of dictionary range");
        let nw = ((slen * bits) + 63) / 64 in
        if word_off + nw > payload_words then raise (Corrupt "segment past payload");
        let words =
          if nw = 0 then
            Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0
          else Bigarray.Array1.sub payload word_off nw
        in
        match Segment.of_words ~base ~bits ~len:slen ~zmax ~ndv words with
        | Ok s -> s
        | Error e -> raise (Corrupt e))
  in
  match Colstore.of_segments ~segment_rows ~len segs with
  | Ok col -> col
  | Error e -> raise (Corrupt e)

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
               with End_of_file -> raise (Corrupt "truncated header"));
              if Bytes.to_string m <> magic then raise (Corrupt "bad magic");
              let r = Reader.make ic ~limit:file_len in
              r.Reader.pos <- String.length magic;
              let version = Reader.int64 r in
              if version <> format_version then
                raise (Corrupt (Printf.sprintf "unsupported version %d" version));
              let payload_off = Reader.int64 r in
              let payload_words = Reader.int64 r in
              let dict_count = Reader.int64 r in
              let n_concepts = Reader.int64 r in
              let n_roles = Reader.int64 r in
              let total = Reader.int64 r in
              let segment_rows = Reader.int64 r in
              if segment_rows <= 0 then raise (Corrupt "invalid segment size");
              if payload_off + (8 * payload_words) > file_len then
                raise (Corrupt "payload past end of file");
              let dict = Dllite.Dict.create () in
              for c = 0 to dict_count - 1 do
                let s = Reader.str r in
                if Dllite.Dict.encode dict s <> c then
                  raise (Corrupt "duplicate dictionary entry")
              done;
              let payload =
                if payload_words = 0 then
                  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0
                else begin
                  let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
                  Fun.protect
                    ~finally:(fun () -> Unix.close fd)
                    (fun () ->
                      Bigarray.array1_of_genarray
                        (Unix.map_file fd ~pos:(Int64.of_int payload_off)
                           Bigarray.int64 Bigarray.c_layout false
                           [| payload_words |]))
                end
              in
              let max_code = dict_count - 1 in
              let concepts = Hashtbl.create 64 and roles = Hashtbl.create 64 in
              let check = ref 0 in
              for _ = 1 to n_concepts do
                let name = Reader.str r in
                let col =
                  read_column r ~payload ~payload_words ~segment_rows ~max_code
                in
                check := !check + Colstore.length col;
                Hashtbl.replace concepts name
                  {
                    col;
                    c_tail = Ibuf.create ();
                    members_c = Atomic.make None;
                    member_set = Atomic.make None;
                  }
              done;
              for _ = 1 to n_roles do
                let name = Reader.str r in
                let ndv_s = Reader.int64 r in
                let ndv_o = Reader.int64 r in
                let scol =
                  read_column r ~payload ~payload_words ~segment_rows ~max_code
                in
                let ocol =
                  read_column r ~payload ~payload_words ~segment_rows ~max_code
                in
                let card = Colstore.length scol in
                if Colstore.length ocol <> card then
                  raise (Corrupt "role column lengths differ");
                if ndv_s > card || ndv_o > card then
                  raise (Corrupt "distinct count exceeds cardinality");
                check := !check + card;
                Hashtbl.replace roles name
                  {
                    scol;
                    ocol;
                    rs_tail = Ibuf.create ();
                    ro_tail = Ibuf.create ();
                    r_stats = { card; ndv = [| ndv_s; ndv_o |] };
                    by_subject = Atomic.make None;
                    by_object = Atomic.make None;
                    hist_subject = Atomic.make None;
                    hist_object = Atomic.make None;
                    columns = Atomic.make None;
                  }
              done;
              if !check <> total then raise (Corrupt "fact count mismatch");
              Ok
                {
                  dict;
                  concepts;
                  roles;
                  total_facts = total;
                  segment_rows;
                  delta_rows = default_delta_rows;
                  uid = fresh_uid ();
                  empty_epoch = 0;
                }
            with
            | Corrupt msg -> Error (Printf.sprintf "%s: corrupt store (%s)" file msg)
            | End_of_file -> Error (Printf.sprintf "%s: corrupt store (truncated)" file)
            | Sys_error e -> Error e
            | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)))

let load_exn file =
  match load file with Ok t -> t | Error msg -> failwith msg
