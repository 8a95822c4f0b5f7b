open Query

type config = {
  scan_cache : bool;
  build_cache : bool;
}

let postgres_like = { scan_cache = false; build_cache = false }

let db2_like = { scan_cache = true; build_cache = true }

(* Counters are atomic so that runs on different threads may share
   one record. Every scan/build request increments exactly one of
   (performed, hit). A build-table miss reads its canonical scan
   without issuing a scan request, so request totals are fixed by plan
   and data. *)
type counters = {
  scans : int Atomic.t;
  scan_hits : int Atomic.t;
  builds : int Atomic.t;
  build_hits : int Atomic.t;
}

(* Registry metrics with the same invariants: request totals are
   independent of scheduling, hit counts are not. *)
let m_scan_requests =
  Obs.Metrics.counter ~help:"atom scans requested (performed + cache hits)"
    "exec.scan.requests"

let m_scan_hits =
  Obs.Metrics.counter ~help:"atom scans served from the scan cache"
    "exec.scan.cache_hits"

let m_build_requests =
  Obs.Metrics.counter ~help:"join build tables requested (built + cache hits)"
    "exec.build.requests"

let m_build_hits =
  Obs.Metrics.counter ~help:"join build tables served from the build cache"
    "exec.build.cache_hits"

let m_union_arms =
  Obs.Metrics.counter ~help:"union arms evaluated" "exec.union.arms"

(* Sideways information passing: reducers built, rows their filters
   dropped, union arms never opened because a reducer proved them
   empty. All three are deterministic at any job count (reducers and
   elision decisions are functions of plan + data). *)
let m_sip_reducers =
  Obs.Metrics.counter ~help:"semijoin reducers built for sideways passing"
    "sip.reducers"

let m_sip_pruned =
  Obs.Metrics.counter ~help:"rows pruned by sideways reducer filters"
    "sip.rows_pruned"

let m_sip_elided =
  Obs.Metrics.counter ~help:"union arms elided as provably empty under a reducer"
    "sip.arms_elided"

let fresh_counters () =
  {
    scans = Atomic.make 0;
    scan_hits = Atomic.make 0;
    builds = Atomic.make 0;
    build_hits = Atomic.make 0;
  }

(* Keys carry the fragment's read set alongside the injective
   structural key, so an update can drop exactly the views that read a
   touched predicate and keep the rest warm. *)
type view_store = (string list * string, Relation.t) Cache.Lru.t

(* The LRU stores charge the exact byte footprint of the columnar
   storage ({!Relation.bytes}) — no more per-row overhead guessing. *)
let fresh_view_store () : view_store =
  Cache.Lru.create ~cost_of:Relation.bytes ~name:"views" ~capacity:256 ()

let view_key p = Plan.predicates p, Plan.structural_key p

let invalidate_views (store : view_store) touched =
  match touched with
  | [] -> 0
  | _ ->
    Cache.Lru.invalidate_if store (fun (preds, _) ->
        List.exists (fun p -> List.mem p touched) preds)

(* The per-run scan/build caches are bounded too, with a capacity
   generous enough that all arms of one reformulated union share their
   scans — the bound only matters as a memory backstop on adversarial
   plans. *)
let default_run_cache_capacity = 4096

let run_cache_capacity = Atomic.make default_run_cache_capacity

let set_run_cache_capacity n = Atomic.set run_cache_capacity n

type ctx = {
  layout : Layout.t;
  config : config;
  counters : counters;
  scans : (string, Relation.t) Cache.Lru.t;  (* canonical scan results *)
  builds : (string, Relation.build_table) Cache.Lru.t;
  views : view_store option;  (* cross-query materialised fragments *)
  sip_memo : (string, bool) Hashtbl.t;
      (* (reducer id, stored column) -> does the reducer intersect it?
         Shared across the arms of one run. *)
  sip_lock : Mutex.t;
}

let fresh_run_caches () =
  let capacity = Atomic.get run_cache_capacity in
  ( Cache.Lru.create ~cost_of:Relation.bytes ~name:"exec.scan" ~capacity (),
    Cache.Lru.create ~name:"exec.build" ~capacity () )

(* A scan signature independent of variable names, so that R(x,y) in
   one union arm and R(u,v) in another share the same cached result. *)
let scan_signature atom =
  match atom with
  | Atom.Ca (p, Term.Var _) -> Printf.sprintf "c:%s:V" p
  | Atom.Ca (p, Term.Cst k) -> Printf.sprintf "c:%s:K:%s" p k
  | Atom.Ra (p, Term.Var v1, Term.Var v2) ->
    if v1 = v2 then Printf.sprintf "r:%s:VS" p else Printf.sprintf "r:%s:VV" p
  | Atom.Ra (p, Term.Var _, Term.Cst k) -> Printf.sprintf "r:%s:VK:%s" p k
  | Atom.Ra (p, Term.Cst k, Term.Var _) -> Printf.sprintf "r:%s:KV:%s" p k
  | Atom.Ra (p, Term.Cst k1, Term.Cst k2) -> Printf.sprintf "r:%s:KK:%s:%s" p k1 k2

(* Canonical scan: output columns are position markers $0, $1. The
   results are columnar views of the storage layer — on the simple
   layout the column arrays alias the table's own lazily-split
   projections, so a full role or concept scan copies nothing. *)
let scan_canonical ctx atom =
  let layout = ctx.layout in
  let dict = Layout.dict layout in
  let code k = Dllite.Dict.find dict k in
  match atom with
  | Atom.Ca (p, Term.Var _) ->
    Relation.of_columns ~cols:[ "$0" ] [| Layout.concept_rows layout p |]
  | Atom.Ca (p, Term.Cst k) -> (
    match code k with
    | None -> Relation.boolean false
    | Some c -> Relation.boolean (Layout.concept_mem layout p c))
  | Atom.Ra (p, Term.Var v1, Term.Var v2) ->
    let subs, objs = Layout.role_cols layout p in
    if v1 = v2 then begin
      (* self-loop R(x,x): keep the subjects whose object equals them *)
      let keep = Ibuf.create () in
      for i = 0 to Array.length subs - 1 do
        if subs.(i) = objs.(i) then Ibuf.push keep subs.(i)
      done;
      Relation.of_columns ~cols:[ "$0" ] [| Ibuf.to_array keep |]
    end
    else Relation.of_columns ~cols:[ "$0"; "$1" ] [| subs; objs |]
  | Atom.Ra (p, Term.Var _, Term.Cst k) -> (
    match code k with
    | None -> Relation.empty ~cols:[ "$0" ]
    | Some c ->
      Relation.of_columns ~cols:[ "$0" ] [| Layout.role_matches layout p `Object c |])
  | Atom.Ra (p, Term.Cst k, Term.Var _) -> (
    match code k with
    | None -> Relation.empty ~cols:[ "$0" ]
    | Some c ->
      Relation.of_columns ~cols:[ "$0" ] [| Layout.role_matches layout p `Subject c |])
  | Atom.Ra (p, Term.Cst k1, Term.Cst k2) -> (
    match code k1, code k2 with
    | Some c1, Some c2 ->
      Relation.boolean (Array.mem c2 (Layout.role_matches layout p `Subject c1))
    | _ -> Relation.boolean false)

(* The caches model DB2's buffer-locality support for repeated scans
   ([21]): on the simple layout a repeated scan re-reads the same
   pages, so sharing the extracted relation is fair. On the RDF layout
   a role scan probes every predicate column of every DPH row — CPU
   work the engine performs again for every union arm (no CSE across
   union terms, as the paper verifies) — so role accesses are never
   cached there. *)
let cacheable ctx atom =
  match ctx.layout with
  | Layout.Simple _ -> true
  | Layout.Rdf _ -> not (Query.Atom.is_role atom)

type cache_outcome =
  | Hit
  | Miss
  | Uncached

(* Cache protocol: [Cache.Lru] locks internally for the lookup and
   insert, and the scan itself runs outside any lock. A recomputed
   canonical relation is identical, so the last writer wins
   (idempotent). [canonical] counts nothing; [scan_cached] is the
   counted request. *)
let canonical ctx atom =
  let use_cache = ctx.config.scan_cache && cacheable ctx atom in
  (* the signature sprintf only pays for itself when the cache is on *)
  let signature = if use_cache then scan_signature atom else "" in
  match if use_cache then Cache.Lru.find ctx.scans signature else None with
  | Some r -> r, Hit
  | None ->
    let r = scan_canonical ctx atom in
    if use_cache then Cache.Lru.add ctx.scans signature r;
    r, (if use_cache then Miss else Uncached)

let scan_cached ctx atom =
  Obs.Metrics.incr m_scan_requests;
  let r, outcome = canonical ctx atom in
  (match outcome with
  | Hit ->
    Atomic.incr ctx.counters.scan_hits;
    Obs.Metrics.incr m_scan_hits
  | Miss | Uncached -> Atomic.incr ctx.counters.scans);
  r, outcome

let scan ctx atom =
  let canonical, outcome = scan_cached ctx atom in
  let cols = Array.of_list (Plan.scan_cols atom) in
  { canonical with Relation.cols }, outcome

(* Build-side sharing: when the build side is a base scan, key the
   build table on the scan signature and the canonical positions of the
   join columns. Payload columns named $i come from the canonical scan
   and become the atom's actual variable at position i. *)
let payload_rename actual_cols c =
  if String.length c > 1 && c.[0] = '$' then
    actual_cols.(int_of_string (String.sub c 1 (String.length c - 1)))
  else c

(* A cached (or freshly built) build table for a base-scan build side,
   plus the rename mapping its canonical payload columns back to the
   atom's variables. The probe over it pipelines: the build is the
   only materialisation point. The stored table is always built from
   the {e unfiltered} canonical scan — sideways reducers must never
   leak into a cache entry keyed without them. A miss reads that scan
   through the scan cache but counts as a build, not a scan request. *)
let build_cached ctx atom on =
  let actual_cols = Array.of_list (Plan.scan_cols atom) in
  let position_of c =
    let rec find i =
      if i >= Array.length actual_cols then raise Not_found
      else if actual_cols.(i) = c then i
      else find (i + 1)
    in
    find 0
  in
  let positions = List.map position_of on in
  let key =
    scan_signature atom ^ ":on:" ^ String.concat "," (List.map string_of_int positions)
  in
  let use_cache = cacheable ctx atom in
  Obs.Metrics.incr m_build_requests;
  let build, outcome =
    match if use_cache then Cache.Lru.find ctx.builds key else None with
    | Some b ->
      Atomic.incr ctx.counters.build_hits;
      Obs.Metrics.incr m_build_hits;
      b, Hit
    | None ->
      Atomic.incr ctx.counters.builds;
      let rel, _ = canonical ctx atom in
      let canonical_on = List.map (fun p -> "$" ^ string_of_int p) positions in
      let b = Relation.build rel ~on:canonical_on in
      if use_cache then Cache.Lru.add ctx.builds key b;
      b, (if use_cache then Miss else Uncached)
  in
  build, outcome, payload_rename actual_cols

(* Index nested loop over a role atom: pipelined — every batch of the
   left stream probes the index on the side named by [probe_col]. *)
let index_join_op ?keep ctx left_op atom probe_col =
  let layout = ctx.layout in
  let dict = Layout.dict layout in
  let p, probe_side =
    match atom with
    | Query.Atom.Ra (p, Query.Term.Var v, _) when v = probe_col -> p, `Subject
    | Query.Atom.Ra (p, _, Query.Term.Var v) when v = probe_col -> p, `Object
    | _ -> Fmt.invalid_arg "Index_join: %s does not bind %a" probe_col Query.Atom.pp atom
  in
  Atomic.incr ctx.counters.scans;
  Obs.Metrics.incr m_scan_requests;
  Physical.index_join ?keep ~lookup:(Layout.role_matches layout p probe_side)
    ~dict_find:(Dllite.Dict.find dict) left_op atom probe_col

(* {2 Sideways information passing}

   A [Plan.Sip] annotation on a join makes the compiler build a
   compact key-set reducer ({!Sip.t}) from the source side's join
   column and push it into the other side's subtree as a reducer
   environment [senv]: column name -> reducer. At a [Scan] the
   matching bindings wrap the stream in selection-vector filters;
   [Project], [Distinct] and [Materialize] pass the environment
   through; at a [Union] it is remapped positionally into every arm,
   and an arm whose reducer-filtered base accesses are provably empty
   is never compiled at all. Reducers are immutable after
   construction, so every union arm shares them as they are. Every
   cache-write site (scan cache, build cache, view store) stores
   {e unfiltered} data, so dropping or adding a binding anywhere is
   sound: reducers only prune, never invent. *)

type senv = (string * Sip.t) list

let restrict (env : senv) cols = List.filter (fun (c, _) -> List.mem c cols) env

(* Union output column i is arm output column i. *)
let remap_env (env : senv) cols arm_cols : senv =
  List.filter_map
    (fun (c, r) ->
      let rec pos i = function
        | [] -> None
        | c' :: rest -> if String.equal c c' then Some i else pos (i + 1) rest
      in
      match pos 0 cols with
      | None -> None
      | Some i ->
        (match List.nth_opt arm_cols i with
        | Some ac -> Some (ac, r)
        | None -> None))
    env

let empty_op cols = Physical.of_relation (Relation.empty ~cols)

(* Rows a reducer dropped: the [sip.rows_pruned] metric, and through
   [on_pruned] the per-node EXPLAIN ANALYZE counter. *)
let sip_tally on_pruned n =
  Obs.Metrics.add m_sip_pruned n;
  match on_pruned with
  | Some f -> f n
  | None -> ()

(* Wrap [op] in one selection filter per binding that names one of its
   columns. *)
let apply_sip ?on_pruned (env : senv) op =
  List.fold_left
    (fun op (c, r) ->
      if Array.exists (String.equal c) op.Physical.cols then
        Physical.sip_filter op ~col:c ~reducer:r ~tally:(sip_tally on_pruned)
      else op)
    op env

let dict_domain ctx = Dllite.Dict.size (Layout.dict ctx.layout)

let reducer_of_array ctx keys =
  Obs.Metrics.incr m_sip_reducers;
  Sip.of_array ~domain:(dict_domain ctx) keys

let reducer_of_relation ctx rel c =
  reducer_of_array ctx rel.Relation.columns.(Relation.col_index rel c)

(* A reducer straight off a single-column build table's key set —
   exactly the distinct join keys, no rescan of the build relation.
   Multi-column keys never carry a SIP annotation. *)
let reducer_of_build ctx (b : Relation.build_table) =
  let keys = b.Relation.keys in
  if Keytab.arity keys <> 1 then None
  else begin
    Obs.Metrics.incr m_sip_reducers;
    let count = Keytab.length keys in
    Some
      (Sip.of_iter ~domain:(dict_domain ctx) ~count (fun f ->
           for id = 0 to count - 1 do
             f (Keytab.key keys id 0)
           done))
  end

(* The index side of an annotated index join: the reducer is the
   stored role's probe-side column. Simple layout only — on the RDF
   layout [role_cols] re-pays the wide-table extraction the index
   exists to avoid. *)
let index_reducer ctx atom probe_col =
  match ctx.layout with
  | Layout.Rdf _ -> None
  | Layout.Simple _ -> (
    match atom with
    | Atom.Ra (p, Term.Var v, _) when v = probe_col ->
      Some (reducer_of_array ctx (fst (Layout.role_cols ctx.layout p)))
    | Atom.Ra (p, _, Term.Var v) when v = probe_col ->
      Some (reducer_of_array ctx (snd (Layout.role_cols ctx.layout p)))
    | _ -> None)

(* Reducer-vs-stored-column emptiness, memoised per (reducer, stored
   column) so that the same reducer probing the same role across many
   union arms walks it once. The intersection test runs outside the
   lock ([Sip.intersects] is pure; a racing duplicate is idempotent). *)
let memo_intersects ctx r key col_thunk =
  let k = string_of_int (Sip.id r) ^ key in
  Mutex.lock ctx.sip_lock;
  let cached = Hashtbl.find_opt ctx.sip_memo k in
  Mutex.unlock ctx.sip_lock;
  match cached with
  | Some b -> b
  | None ->
    let b = Sip.intersects r (col_thunk ()) in
    Mutex.lock ctx.sip_lock;
    Hashtbl.replace ctx.sip_memo k b;
    Mutex.unlock ctx.sip_lock;
    b

(* Conservative static emptiness: [true] only when some reducer
   binding provably annihilates a base access of the (sub)plan.
   Simple layout only, where the stored column arrays are aliased
   (walking them costs no extraction and [Sip.intersects] early-exits
   on the first survivor). Everything unprovable answers [false]. *)
let scan_provably_empty ctx (env : senv) atom =
  match ctx.layout with
  | Layout.Rdf _ -> false
  | Layout.Simple _ -> (
    match atom with
    | Atom.Ca (p, Term.Var v) -> (
      match List.assoc_opt v env with
      | Some r ->
        not
          (memo_intersects ctx r (":c:" ^ p) (fun () ->
               Layout.concept_rows ctx.layout p))
      | None -> false)
    | Atom.Ra (p, Term.Var v1, Term.Var v2) when v1 <> v2 ->
      let side v key pick =
        match List.assoc_opt v env with
        | Some r ->
          not
            (memo_intersects ctx r (key ^ p) (fun () ->
                 pick (Layout.role_cols ctx.layout p)))
        | None -> false
      in
      side v1 ":rs:" fst || side v2 ":ro:" snd
    | _ -> false)

let rec provably_empty ctx (env : senv) plan =
  env <> []
  &&
  match plan with
  | Plan.Scan atom -> scan_provably_empty ctx env atom
  | Plan.Hash_join { left; right; _ } | Plan.Merge_join { left; right; _ } ->
    provably_empty ctx (restrict env (Plan.out_cols left)) left
    || provably_empty ctx (restrict env (Plan.out_cols right)) right
  | Plan.Index_join { left; _ } ->
    provably_empty ctx (restrict env (Plan.out_cols left)) left
  | Plan.Project { input; _ } ->
    provably_empty ctx (restrict env (Plan.out_cols input)) input
  | Plan.Distinct p | Plan.Materialize p -> provably_empty ctx env p
  | Plan.Union { cols; inputs } ->
    inputs <> []
    && List.for_all
         (fun p -> provably_empty ctx (remap_env env cols (Plan.out_cols p)) p)
         inputs
  | Plan.Sip { join; _ } -> provably_empty ctx env join

(* The single-column join key a [Sip] annotation can act on. *)
let sip_col on dir =
  match on with
  | [ c ] -> Some (c, dir)
  | _ -> None

(* Zone-map-pruned segmented scan: when a sideways reducer binds a
   column of a full variable scan on the simple layout, stream the
   stored compressed segments directly ({!Physical.segments_scan}) and
   let the reducer's exact key range discard whole segments off their
   zone maps before any decoding. The table's pending delta tail rides
   along as a final pseudo-segment (its min/max plays the zone map) —
   without it a segment-streaming scan would miss facts inserted since
   the last compaction. Only the uncached configuration takes this
   path — the scan cache must store the canonical unfiltered relation,
   so cached scans keep materialising. Row-level reducer filtering
   still applies on top ([apply_sip]); the zone test is the
   necessary-condition prefilter, never the membership test. *)
let array_range a =
  let n = Array.length a in
  if n = 0 then None
  else begin
    let lo = ref a.(0) and hi = ref a.(0) in
    for i = 1 to n - 1 do
      if a.(i) < !lo then lo := a.(i);
      if a.(i) > !hi then hi := a.(i)
    done;
    Some (!lo, !hi)
  end

let segmented_scan_op ctx (env : senv) atom =
  if ctx.config.scan_cache || env = [] then None
  else
    match ctx.layout with
    | Layout.Rdf _ -> None
    | Layout.Simple s -> (
      let zone_miss col r i =
        let lo, hi = Colstore.zone col i in
        not (Sip.overlaps_range r ~lo ~hi)
      in
      let range_miss range r =
        match range with
        | None -> true
        | Some (lo, hi) -> not (Sip.overlaps_range r ~lo ~hi)
      in
      let count_scan () =
        Atomic.incr ctx.counters.scans;
        Obs.Metrics.incr m_scan_requests
      in
      match atom with
      | Atom.Ca (p, Term.Var v) when List.mem_assoc v env -> (
        match Storage.concept_col s p with
        | None -> None
        | Some col ->
          let r = List.assoc v env in
          let tail_col = Storage.concept_tail s p in
          let tail_rng = array_range tail_col in
          let nsegs = Colstore.seg_count col in
          let skip i =
            if i < nsegs then zone_miss col r i else range_miss tail_rng r
          in
          let decoded = Option.map (fun a -> [| a |]) (Storage.concept_decoded s p) in
          count_scan ();
          Some
            (Physical.segments_scan ?decoded ~tail:[| tail_col |] ~cols:[| v |] ~skip
               [| col |]))
      | Atom.Ra (p, Term.Var v1, Term.Var v2)
        when v1 <> v2 && (List.mem_assoc v1 env || List.mem_assoc v2 env) -> (
        match Storage.role_colstores s p with
        | None -> None
        | Some (scol, ocol) ->
          let tail_s, tail_o = Storage.role_tail s p in
          let rng_s = array_range tail_s and rng_o = array_range tail_o in
          let nsegs = Colstore.seg_count scol in
          let side col rng v i =
            match List.assoc_opt v env with
            | None -> false
            | Some r -> if i < nsegs then zone_miss col r i else range_miss rng r
          in
          let skip i = side scol rng_s v1 i || side ocol rng_o v2 i in
          let decoded =
            Option.map (fun (subs, objs) -> [| subs; objs |]) (Storage.role_decoded s p)
          in
          count_scan ();
          Some
            (Physical.segments_scan ?decoded ~tail:[| tail_s; tail_o |]
               ~cols:[| v1; v2 |] ~skip [| scol; ocol |]))
      | _ -> None)

(* {2 Plan compilation}

   [compile] turns a logical plan into an opened physical operator
   tree. Scans materialise their (cached, canonical) relations at
   compile time and stream them in batches; index joins, probes over
   cached builds, projections and distinct pipeline on top without
   materialising. The pipeline breakers are exactly: hash-join build
   sides, merge joins (both sides sorted), [Materialize] fragments,
   and nothing else — a union streams its arms without a barrier.

   The one compiler serves plain and EXPLAIN ANALYZE runs alike. It
   takes an instrumentation hook: at each plan node it opens a frame
   before compiling the node's children, then closes the frame over
   the node's operator, its cache outcome, the union arms it elided,
   the reducer it built and its children's results. The [plain] hook
   returns every operator unchanged and allocates nothing per node;
   the [analyze] hook (below) wraps each one in a per-node
   accumulator. Both runs share every helper, and so every cache,
   counter and code path. *)

type 'n frame = {
  on_pruned : (int -> unit) option;
      (* per-node tally of the rows this node's reducer filters drop *)
  close :
    cache:cache_outcome ->
    elided:int ->
    reducer:Sip.t option ->
    Physical.op ->
    'n list ->
    Physical.op * 'n;
}

type 'n hook = {
  enter : Plan.t -> 'n frame;
  lazy_arms : bool;
      (* a sequential union opens arm i+1 only once arm i is exhausted,
         so arm i's build tables and scan extractions are garbage
         before arm i+1's exist; an instrumented run opens every arm up
         front, so that each arm's node exists when the union closes *)
}

let plain_frame =
  { on_pruned = None; close = (fun ~cache:_ ~elided:_ ~reducer:_ op _ -> op, ()) }

let plain = { enter = (fun _ -> plain_frame); lazy_arms = true }

let finish fr ?(cache = Uncached) ?(elided = 0) ?reducer op children =
  fr.close ~cache ~elided ~reducer op children

(* [env] with an annotated join's reducer bound to its column *)
let bind sip reducer env =
  match sip, reducer with
  | Some (c, _), Some r -> (c, r) :: env
  | _ -> env

let encode_out ctx out =
  let dict = Layout.dict ctx.layout in
  List.map
    (function
      | `Col c -> `Col c
      | `Const k -> `Const (Dllite.Dict.encode dict k))
    out

let rec compile h ctx env plan =
  let fr = h.enter plan in
  match plan with
  | Plan.Scan atom ->
    let op, cache =
      match segmented_scan_op ctx env atom with
      | Some op -> op, Uncached
      | None ->
        let rel, outcome = scan ctx atom in
        Physical.of_relation rel, outcome
    in
    finish fr ~cache (apply_sip ?on_pruned:fr.on_pruned env op) []
  | Plan.Hash_join { left; right; on } -> compile_hash h ctx env fr None left right on
  | Plan.Merge_join { left; right; on } -> compile_merge h ctx env fr None left right on
  | Plan.Index_join { left; atom; probe_col } ->
    compile_index h ctx env fr ~sip:false left atom probe_col
  | Plan.Project { input; out } ->
    let i, n = compile h ctx (restrict env (Plan.out_cols input)) input in
    finish fr (Physical.project i (encode_out ctx out)) [ n ]
  | Plan.Distinct p ->
    let i, n = compile h ctx env p in
    finish fr (Physical.distinct i) [ n ]
  | Plan.Union { cols; inputs } ->
    (* The hot path: a reformulated UCQ is one [Union] whose arms are
       independent. They stream one after the other in input order;
       arm elision is a pure function of plan + data, so it too is
       deterministic. *)
    let arms =
      List.filter_map
        (fun p ->
          let aenv = remap_env env cols (Plan.out_cols p) in
          if provably_empty ctx aenv p then begin
            Obs.Metrics.incr m_sip_elided;
            None
          end
          else Some (aenv, p))
        inputs
    in
    let elided = List.length inputs - List.length arms in
    Obs.Metrics.add m_union_arms (List.length arms);
    if h.lazy_arms then
      finish fr ~elided
        (Physical.union_delayed ~cols
           (List.map (fun (aenv, p) () -> fst (compile h ctx aenv p)) arms))
        []
    else
      let done_arms = List.map (fun (aenv, p) -> compile h ctx aenv p) arms in
      finish fr ~elided
        (Physical.union ~cols (List.map fst done_arms))
        (List.map snd done_arms)
  | Plan.Materialize p -> (
    match ctx.views with
    | None ->
      let i, n = compile h ctx env p in
      finish fr i [ n ]
    | Some store ->
      let key = view_key p in
      let cache, rel, children =
        match Cache.Lru.find store key with
        | Some rel -> Hit, rel, []
        | None ->
          (* the stored fragment is compiled {e without} the reducer
             environment — the view store is keyed on the fragment
             alone and outlives this query; filters go on top of the
             copy. The first stored copy wins if a concurrent query raced
             on the same store. *)
          let op, n = compile h ctx [] p in
          Miss, Cache.Lru.add_if_absent store key (Physical.to_relation op), [ n ]
      in
      finish fr ~cache
        (apply_sip ?on_pruned:fr.on_pruned env (Physical.of_relation rel))
        children)
  | Plan.Sip { join; dir } -> (
    (* the join compilers close the annotation's frame, so its node
       carries the annotation *)
    match join with
    | Plan.Hash_join { left; right; on } ->
      compile_hash h ctx env fr (sip_col on dir) left right on
    | Plan.Merge_join { left; right; on } ->
      compile_merge h ctx env fr (sip_col on dir) left right on
    | Plan.Index_join { left; atom; probe_col } ->
      compile_index h ctx env fr ~sip:(dir = Plan.Build_to_probe) left atom probe_col
    | other ->
      (* a stray annotation on a non-join is inert *)
      compile h ctx env other)

and compile_hash h ctx env fr sip left right on =
  let out = Plan.out_cols (Plan.Hash_join { left; right; on }) in
  let lenv = restrict env (Plan.out_cols left) in
  let renv = restrict env (Plan.out_cols right) in
  (* join-column bindings reach the output through the left side *)
  let renv_only = List.filter (fun (c, _) -> not (List.mem c on)) renv in
  match sip, right with
  | Some (c, Plan.Probe_to_build), _ ->
    (* materialise the probe side first; its key set prunes the build
       subtree — the direction that reaches into a reformulated
       union's arms before any of their rows exist *)
    let lop, ls = compile h ctx lenv left in
    let l_rel = Physical.to_relation lop in
    if Relation.cardinality l_rel = 0 then finish fr (empty_op out) [ ls ]
    else begin
      let reducer = reducer_of_relation ctx l_rel c in
      Atomic.incr ctx.counters.builds;
      let rop, rs = compile h ctx ((c, reducer) :: renv) right in
      finish fr ~reducer
        (Physical.hash_join (Physical.of_relation l_rel) (Physical.to_relation rop) ~on)
        [ ls; rs ]
    end
  | _, Plan.Scan atom when ctx.config.build_cache ->
    (* the build side folds into this node: its build outcome is the
       node's cache outcome, and it has no separate child. An empty
       build table yields nothing: the probe subtree is never even
       compiled. *)
    let build, cache, rename = build_cached ctx atom on in
    if Relation.group_count build = 0 then finish fr ~cache (empty_op out) []
    else begin
      let reducer =
        match sip with
        | Some (_, Plan.Build_to_probe) -> reducer_of_build ctx build
        | _ -> None
      in
      let l, ls = compile h ctx (bind sip reducer lenv) left in
      finish fr ~cache ?reducer
        (apply_sip ?on_pruned:fr.on_pruned renv_only (Physical.probe ~rename l ~build ~on))
        [ ls ]
    end
  | _ ->
    (* build side first for the same early exit *)
    Atomic.incr ctx.counters.builds;
    let rop, rs = compile h ctx renv right in
    let r_rel = Physical.to_relation rop in
    if Relation.cardinality r_rel = 0 then finish fr (empty_op out) [ rs ]
    else begin
      let reducer =
        match sip with
        | Some (c, Plan.Build_to_probe) -> Some (reducer_of_relation ctx r_rel c)
        | _ -> None
      in
      let l, ls = compile h ctx (bind sip reducer lenv) left in
      finish fr ?reducer (Physical.hash_join l r_rel ~on) [ ls; rs ]
    end

and compile_merge h ctx env fr sip left right on =
  let out = Plan.out_cols (Plan.Merge_join { left; right; on }) in
  let lenv = restrict env (Plan.out_cols left) in
  let renv = restrict env (Plan.out_cols right) in
  let side env p =
    let op, n = compile h ctx env p in
    Physical.to_relation op, n
  in
  let merged l r = Physical.of_relation (Relation.merge_join l r ~on) in
  match sip with
  | Some (c, Plan.Probe_to_build) ->
    let l, ls = side lenv left in
    if Relation.cardinality l = 0 then finish fr (empty_op out) [ ls ]
    else begin
      let reducer = reducer_of_relation ctx l c in
      let r, rs = side ((c, reducer) :: renv) right in
      finish fr ~reducer (merged l r) [ ls; rs ]
    end
  | Some (c, Plan.Build_to_probe) ->
    let r, rs = side renv right in
    if Relation.cardinality r = 0 then finish fr (empty_op out) [ rs ]
    else begin
      let reducer = reducer_of_relation ctx r c in
      let l, ls = side ((c, reducer) :: lenv) left in
      finish fr ~reducer (merged l r) [ ls; rs ]
    end
  | None ->
    let l, ls = side lenv left in
    let r, rs = side renv right in
    finish fr (merged l r) [ ls; rs ]

and compile_index h ctx env fr ~sip left atom probe_col =
  let lcols = Plan.out_cols left in
  let reducer = if sip then index_reducer ctx atom probe_col else None in
  let lenv = restrict env lcols in
  let lenv = match reducer with Some r -> (probe_col, r) :: lenv | None -> lenv in
  let l, ls = compile h ctx lenv left in
  (* Outer bindings on the fresh column the index join introduces
     test each matched code before its row is expanded, so a probe
     into a wide bucket emits only the survivors. *)
  let out = Plan.out_cols (Plan.Index_join { left; atom; probe_col }) in
  let keep =
    match List.filter (fun (c, _) -> List.mem c out && not (List.mem c lcols)) env with
    | [] -> None
    | fresh ->
      Some ((fun v -> List.for_all (fun (_, r) -> Sip.mem r v) fresh), sip_tally fr.on_pruned)
  in
  finish fr ?reducer (index_join_op ?keep ctx l atom probe_col) [ ls ]

(* {2 Instrumented (EXPLAIN ANALYZE) evaluation}

   The [analyze] hook attaches a mutable accumulator to every
   operator: the wrapped [next] adds its wall-clock and emitted rows
   to the node's accumulator, and compilation time (which includes any
   child materialised at compile time — builds, merge sorts,
   materialised fragments) is charged to the node up
   front. Because a parent's [next] calls its children's instrumented
   [next], every node's time is inclusive of its subtree. *)

type node_stats = {
  plan : Plan.t;
  actual_rows : int;
  elapsed_ns : int64;
  cache : cache_outcome;
  sip_pruned : int;  (* rows dropped by reducer filters at this node *)
  sip_elided : int;  (* union arms this node never opened *)
  sip_reducer : string option;  (* reducer kind built at this join *)
  children : node_stats list;
}

type acc = {
  a_plan : Plan.t;
  mutable a_rows : int;
  mutable a_ns : int64;
  a_cache : cache_outcome;
  a_pruned : int ref;
      (* a ref, not a mutable field: the tally closure is created
         before the accumulator exists *)
  a_elided : int;
  a_reducer : string option;
  a_children : acc list;
}

let rec stats_of acc =
  {
    plan = acc.a_plan;
    actual_rows = acc.a_rows;
    elapsed_ns = acc.a_ns;
    cache = acc.a_cache;
    sip_pruned = !(acc.a_pruned);
    sip_elided = acc.a_elided;
    sip_reducer = acc.a_reducer;
    children = List.map stats_of acc.a_children;
  }

let instrument acc (op : Physical.op) =
  let next () =
    let t0 = Obs.Mclock.now_ns () in
    let r = op.Physical.next () in
    acc.a_ns <- Int64.add acc.a_ns (Obs.Mclock.elapsed_ns ~since:t0);
    (match r with
    | Some b -> acc.a_rows <- acc.a_rows + Batch.length b
    | None -> ());
    r
  in
  { op with Physical.next }

let analyze =
  {
    lazy_arms = false;
    enter =
      (fun plan ->
        let t0 = Obs.Mclock.now_ns () in
        let pruned = ref 0 in
        {
          on_pruned = Some (fun n -> pruned := !pruned + n);
          close =
            (fun ~cache ~elided ~reducer op children ->
              let acc =
                {
                  a_plan = plan;
                  a_rows = 0;
                  a_ns = Obs.Mclock.elapsed_ns ~since:t0;
                  a_cache = cache;
                  a_pruned = pruned;
                  a_elided = elided;
                  a_reducer = Option.map Sip.kind_name reducer;
                  a_children = children;
                }
              in
              instrument acc op, acc);
        });
  }

(* Every access to the run caches is gated on the config flags
   ([canonical] checks [scan_cache]; [build_cached] is only reached
   under [build_cache]), so a config with both caches off can share
   one never-touched pair instead of paying two cache allocations and
   eight metrics-registry lookups per query. *)
let disabled_run_caches = fresh_run_caches ()

let make_ctx config counters views layout =
  let counters = Option.value ~default:(fresh_counters ()) counters in
  let scans, builds =
    if config.scan_cache || config.build_cache then fresh_run_caches ()
    else disabled_run_caches
  in
  {
    layout;
    config;
    counters;
    scans;
    builds;
    views;
    sip_memo = Hashtbl.create 16;
    sip_lock = Mutex.create ();
  }

let run ?(config = postgres_like) ?counters ?views layout plan =
  let ctx = make_ctx config counters views layout in
  Physical.to_relation (fst (compile plain ctx [] plan))

let run_analyzed ?(config = postgres_like) ?counters ?views layout plan =
  let ctx = make_ctx config counters views layout in
  let op, acc = compile analyze ctx [] plan in
  let rel = Physical.to_relation op in
  rel, stats_of acc

(* Rows as sorted, duplicate-free string tuples. Decoding is a
   bijection on codes, so deduplicating the decoded rows is
   deduplicating the codes: one pass builds each row's strings straight
   from the columns, and one sort orders and deduplicates them. The
   row comparison is [compare] on string lists, specialised. *)
let rec compare_row a b =
  match a, b with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a, y :: b ->
    let c = String.compare x y in
    if c <> 0 then c else compare_row a b

let decode_rows layout (rel : Relation.t) =
  let decode = Dllite.Dict.decoder (Layout.dict layout) in
  let columns = rel.Relation.columns in
  let rec row i c =
    if c = Array.length columns then [] else decode columns.(c).(i) :: row i (c + 1)
  in
  List.sort_uniq compare_row (List.init rel.Relation.nrows (fun i -> row i 0))

let answers ?config ?views layout plan =
  decode_rows layout (run ?config ?views layout plan)
