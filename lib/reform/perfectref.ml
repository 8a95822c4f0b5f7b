open Query

(* Backward application of a negation-free constraint to one atom
   (the [gr(g, I)] function of [13]). The produced atom set, per
   axiom, is at most one atom; fresh variables play the role of the
   unbound placeholder [⊥]. *)

let concept_as_atom lhs t =
  match lhs with
  | Dllite.Concept.Atomic a -> Atom.Ca (a, t)
  | Dllite.Concept.Exists (Dllite.Role.Named p) -> Atom.Ra (p, t, Cq.fresh_var ())
  | Dllite.Concept.Exists (Dllite.Role.Inverse p) -> Atom.Ra (p, Cq.fresh_var (), t)

let atom_specializations tbox q atom =
  let positives = Dllite.Tbox.positive_axioms tbox in
  match atom with
  | Atom.Ca (a, t) ->
    List.filter_map
      (function
        | Dllite.Axiom.Concept_sub (lhs, Dllite.Concept.Atomic a') when a' = a ->
          Some (concept_as_atom lhs t)
        | _ -> None)
      positives
  | Atom.Ra (p, t1, t2) ->
    let from_roles =
      List.filter_map
        (function
          | Dllite.Axiom.Role_sub (r1, r2) when Dllite.Role.name r2 = p ->
            let swap = Dllite.Role.is_inverse r2 in
            let s, o = if swap then t2, t1 else t1, t2 in
            Some
              (match r1 with
              | Dllite.Role.Named p' -> Atom.Ra (p', s, o)
              | Dllite.Role.Inverse p' -> Atom.Ra (p', o, s))
          | _ -> None)
        positives
    in
    let from_exists =
      let unbound2 = Cq.is_unbound_var q t2 and unbound1 = Cq.is_unbound_var q t1 in
      List.filter_map
        (function
          | Dllite.Axiom.Concept_sub (lhs, Dllite.Concept.Exists r)
            when Dllite.Role.name r = p ->
            if (not (Dllite.Role.is_inverse r)) && unbound2 then
              Some (concept_as_atom lhs t1)
            else if Dllite.Role.is_inverse r && unbound1 then
              Some (concept_as_atom lhs t2)
            else None
          | _ -> None)
        positives
    in
    from_roles @ from_exists

let replace_atom q i atom' =
  let body = List.mapi (fun j a -> if j = i then atom' else a) (Cq.atoms q) in
  Cq.make ~name:q.Cq.name ~head:q.Cq.head ~body ()

let specializations tbox q i =
  let atom = List.nth (Cq.atoms q) i in
  List.map (replace_atom q i) (atom_specializations tbox q atom)

let m_fixpoint_iterations =
  Obs.Metrics.counter
    ~help:"PerfectRef frontier CQs processed until fixpoint"
    "reform.fixpoint.iterations"

let m_cqs_generated =
  Obs.Metrics.counter
    ~help:"distinct CQs produced by PerfectRef (before minimisation)"
    "reform.cq.generated"

let m_cqs_pruned =
  Obs.Metrics.counter
    ~help:"CQs PerfectRef dropped before minimisation for an atom over an empty predicate"
    "reform.cq.pruned"

let m_cache_requests =
  Obs.Metrics.counter
    ~help:"reformulation-cache lookups (hits + misses)"
    "reform.cache.requests"

let m_cache_hits =
  Obs.Metrics.counter ~help:"reformulation-cache hits" "reform.cache.hits"

(* {2 The production fixpoint}

   A breadth-first search: pop a CQ, generate every specialisation of
   each of its atoms and every reduce of two of its atoms, and queue
   those new modulo canonical renaming. Constant factors removed from
   the textbook loop:

   - a per-TBox index buckets the positive axioms by the predicate
     they rewrite (bucket order preserves axiom order, so the CQs are
     generated in the same order);
   - each popped CQ's head variables and single-occurrence variables
     are found once, not once per atom;
   - a specialisation keeps every head variable, so its CQ is built
     without re-validating the body ({!Query.Cq.replace_atom});
   - reduce steps are tried only on same-predicate atom pairs (the
     only ones that unify);
   - the seen-set is keyed by the kind-aware rendering of the
     canonical form, written into one reused buffer.

   Under an emptiness snapshot ({!Emptiness}) the same loop never
   queues a CQ with an atom over a hopeless predicate (the input CQ
   included); a specialisation is the only step that introduces a new
   predicate, so it is the only one checked, before any CQ is built.
   The CQs left with an atom over an empty predicate are dropped at the
   end; when none is left, the input CQ stands alone (its answer is
   empty). DESIGN §15.4 shows this equals filtering the unpruned
   fixpoint, in the same order. *)

type spec_index = {
  by_concept : (string, Dllite.Axiom.t list) Hashtbl.t;
      (* axioms [lhs ⊑ A] keyed by [A] *)
  by_role : (string, Dllite.Axiom.t list) Hashtbl.t;
      (* axioms [r1 ⊑ r2] keyed by [name r2] *)
  by_exists : (string, Dllite.Axiom.t list) Hashtbl.t;
      (* axioms [lhs ⊑ ∃r] keyed by [name r] *)
}

let spec_index_build tbox =
  let by_concept = Hashtbl.create 64 in
  let by_role = Hashtbl.create 64 in
  let by_exists = Hashtbl.create 64 in
  let push tbl k ax =
    Hashtbl.replace tbl k (ax :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun ax ->
      match ax with
      | Dllite.Axiom.Concept_sub (_, Dllite.Concept.Atomic a) ->
        push by_concept a ax
      | Dllite.Axiom.Concept_sub (_, Dllite.Concept.Exists r) ->
        push by_exists (Dllite.Role.name r) ax
      | Dllite.Axiom.Role_sub (_, r2) -> push by_role (Dllite.Role.name r2) ax
      | _ -> ())
    (Dllite.Tbox.positive_axioms tbox);
  (* buckets were built by prepending: restore axiom order *)
  let rev tbl = Hashtbl.iter (fun k l -> Hashtbl.replace tbl k (List.rev l)) tbl in
  rev by_concept;
  rev by_role;
  rev by_exists;
  { by_concept; by_role; by_exists }

let spec_indexes : (int, spec_index) Hashtbl.t = Hashtbl.create 8

let spec_indexes_lock = Mutex.create ()

let spec_index_of tbox =
  let uid = Dllite.Tbox.uid tbox in
  Mutex.lock spec_indexes_lock;
  let cached = Hashtbl.find_opt spec_indexes uid in
  Mutex.unlock spec_indexes_lock;
  match cached with
  | Some idx -> idx
  | None ->
    let idx = spec_index_build tbox in
    Mutex.lock spec_indexes_lock;
    if Hashtbl.length spec_indexes >= 64 then Hashtbl.reset spec_indexes;
    if not (Hashtbl.mem spec_indexes uid) then Hashtbl.add spec_indexes uid idx;
    Mutex.unlock spec_indexes_lock;
    idx

let bucket tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

(* Calls [f] on exactly the atoms [atom_specializations] lists, in the
   same order: each loop below runs over the bucket holding exactly the
   axioms the original [List.filter_map] would have accepted, in axiom
   order. [unbound] is [Cq.is_unbound_var] of the CQ holding [atom]. *)
let iter_specializations idx ~unbound atom f =
  match atom with
  | Atom.Ca (a, t) ->
    List.iter
      (function
        | Dllite.Axiom.Concept_sub (lhs, Dllite.Concept.Atomic _) ->
          f (concept_as_atom lhs t)
        | _ -> ())
      (bucket idx.by_concept a)
  | Atom.Ra (p, t1, t2) ->
    List.iter
      (function
        | Dllite.Axiom.Role_sub (r1, r2) ->
          let swap = Dllite.Role.is_inverse r2 in
          let s, o = if swap then t2, t1 else t1, t2 in
          f
            (match r1 with
            | Dllite.Role.Named p' -> Atom.Ra (p', s, o)
            | Dllite.Role.Inverse p' -> Atom.Ra (p', o, s))
        | _ -> ())
      (bucket idx.by_role p);
    (match bucket idx.by_exists p with
    | [] -> ()
    | axioms ->
      let unbound2 = unbound t2 and unbound1 = unbound t1 in
      List.iter
        (function
          | Dllite.Axiom.Concept_sub (lhs, Dllite.Concept.Exists r) ->
            if (not (Dllite.Role.is_inverse r)) && unbound2 then
              f (concept_as_atom lhs t1)
            else if Dllite.Role.is_inverse r && unbound1 then
              f (concept_as_atom lhs t2)
          | _ -> ())
        axioms)

(* The variables of [atoms] that occur exactly once and not in [head]:
   the unbound variables of every atom of one CQ, found in one scan. *)
let single_occurrences head atoms =
  let once = ref [] and more = ref [] in
  let see = function
    | Term.Var v
      when not
             (List.exists
                (function Term.Var h -> String.equal h v | Term.Cst _ -> false)
                head) ->
      if List.exists (String.equal v) !more then ()
      else if List.exists (String.equal v) !once then begin
        once := List.filter (fun w -> not (String.equal v w)) !once;
        more := v :: !more
      end
      else once := v :: !once
    | Term.Var _ | Term.Cst _ -> ()
  in
  Array.iter
    (function
      | Atom.Ca (_, t) -> see t
      | Atom.Ra (_, t1, t2) ->
        see t1;
        see t2)
    atoms;
  !once

let same_predicate a b =
  match a, b with
  | Atom.Ca (p, _), Atom.Ca (p', _) | Atom.Ra (p, _, _), Atom.Ra (p', _, _) ->
    String.equal p p'
  | _ -> false

let m_fixpoint_ms =
  Obs.Metrics.histogram ~help:"PerfectRef fixpoint latency, before minimisation (ms)"
    "reform.fixpoint_ms"

let has_atom_over p cq = List.exists (fun a -> p (Atom.pred_name a)) (Cq.atoms cq)

let fixpoint ?(data = Emptiness.none) tbox q =
  Obs.Metrics.time m_fixpoint_ms @@ fun () ->
  Emptiness.check data tbox;
  let idx = spec_index_of tbox in
  let prunes = Emptiness.prunes data in
  let hopeless = Emptiness.is_hopeless data in
  (* The seen-set is keyed by the kind-aware rendering of the canonical
     form: string hashing stays uniform over thousands of structurally
     similar CQs, where the generic [Hashtbl.hash] on the CQ value
     itself samples too few nodes and degenerates to bucket scans. *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let buf = Buffer.create 128 in
  let key c =
    Buffer.clear buf;
    Minimize.add_key buf c;
    Buffer.contents buf
  in
  Hashtbl.add seen (key (Cq.canonicalize q)) ();
  let results = ref [ q ] and generated = ref 1 in
  let iterations = ref 0 and dedup_hits = ref 0 in
  let frontier = Queue.create () in
  if not (prunes && has_atom_over hopeless q) then Queue.add q frontier;
  let push cq =
    let c = Cq.canonicalize cq in
    let k = key c in
    if Hashtbl.mem seen k then incr dedup_hits
    else begin
      Hashtbl.add seen k ();
      results := c :: !results;
      incr generated;
      Queue.add c frontier
    end
  in
  while not (Queue.is_empty frontier) do
    incr iterations;
    let cur = Queue.pop frontier in
    let atoms = Array.of_list (Cq.atoms cur) in
    let n = Array.length atoms in
    let singles = single_occurrences cur.Cq.head atoms in
    let unbound = function
      | Term.Var v -> List.exists (String.equal v) singles
      | Term.Cst _ -> false
    in
    for i = 0 to n - 1 do
      iter_specializations idx ~unbound atoms.(i) (fun atom' ->
          if not (prunes && hopeless (Atom.pred_name atom')) then
            push (Cq.replace_atom cur i atom'))
    done;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if same_predicate atoms.(i) atoms.(j) then
          match Cq.reduce cur i j with
          | Some cq -> push cq
          | None -> ()
      done
    done
  done;
  Obs.Metrics.add m_fixpoint_iterations !iterations;
  Obs.Metrics.add Minimize.m_dedup_hits !dedup_hits;
  Obs.Metrics.add m_cqs_generated !generated;
  let results = List.rev !results in
  if not prunes then Ucq.make results
  else begin
    let empty = Emptiness.is_empty data in
    let live = List.filter (fun c -> not (has_atom_over empty c)) results in
    Obs.Metrics.add m_cqs_pruned (!generated - List.length live);
    Ucq.make (if live = [] then [ q ] else live)
  end

let reformulate ?data tbox q = Minimize.minimize (fixpoint ?data tbox q)

(* One bounded LRU for every TBox, keyed on the TBox uid stamp plus
   the rendering of the query — uids make entries from dead TBoxes
   unreachable, and the LRU bound reclaims them under pressure. The
   cache is shared across domains (fragment reformulation fans out
   during cover search); [Cache.Lru] locks internally, the
   reformulation itself runs outside the lock, and two domains missing
   on the same key simply compute the same UCQ twice, with the first
   writer winning ({!Cache.Lru.add_if_absent}). *)
let default_cache_capacity = 1024

let cache : (string, Ucq.t) Cache.Lru.t =
  Cache.Lru.create
    ~cost_of:(fun u -> Ucq.total_atoms u * 64)
    ~name:"reform" ~capacity:default_cache_capacity ()

let set_cache_capacity n = Cache.Lru.set_capacity cache n

let cache_stats () = Cache.Lru.stats cache

let clear_cache () = Cache.Lru.clear cache

(* The snapshot's digest is [""] when nothing is empty, so unpruned
   and nothing-to-prune reformulations share one entry. *)
let cache_key ~data tbox q =
  string_of_int (Dllite.Tbox.uid tbox) ^ "/" ^ Emptiness.digest data ^ "/" ^ Cq.to_string q

let reformulate_cached ?(data = Emptiness.none) tbox q =
  Obs.Metrics.incr m_cache_requests;
  let key = cache_key ~data tbox q in
  match Cache.Lru.find cache key with
  | Some u ->
    Obs.Metrics.incr m_cache_hits;
    u
  | None -> Cache.Lru.add_if_absent cache key (reformulate ~data tbox q)
