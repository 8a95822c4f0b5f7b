open Query
open Rdbms

(* ------------------------------------------------------------------ *)
(* Instruments (process-wide; stores are per-engine but the registry
   is global, so the epoch gauge shows the store that last changed).  *)

let m_observations =
  Obs.Metrics.counter
    ~help:"(est, actual) pairs harvested into feedback stores"
    "feedback.observations"

let m_applied =
  Obs.Metrics.counter
    ~help:"cardinality estimates corrected by a feedback factor"
    "feedback.corrections.applied"

let m_reranks =
  Obs.Metrics.counter
    ~help:"cached plans invalidated because their recorded q-error drifted"
    "feedback.plan.reranks"

let g_epoch =
  Obs.Metrics.gauge
    ~help:"correction epoch of the feedback store that last changed"
    "feedback.epoch"

let note_rerank () = Obs.Metrics.incr m_reranks

(* ------------------------------------------------------------------ *)
(* Keys: canonical shape strings. Variable names are erased (only the
   variable/constant pattern survives), so α-renamed copies of a query
   shape share corrections; constants are folded into their position,
   so corrections are per (predicate, binding pattern), not per
   individual. *)

let term_tag = function Term.Var _ -> '*' | Term.Cst _ -> '!'

let atom_shape = function
  | Atom.Ca (p, t) -> Printf.sprintf "c%c%s" (term_tag t) p
  | Atom.Ra (p, t1, t2) ->
    let self =
      match t1, t2 with Term.Var a, Term.Var b -> a = b | _ -> false
    in
    Printf.sprintf "r%c%c%s%s" (term_tag t1) (term_tag t2)
      (if self then "=" else "")
      p

let atom_key a = "a:" ^ atom_shape a

(* Very wide shapes (a union over hundreds of reformulation arms)
   would otherwise store kilobyte keys; a digest keeps them O(1) and
   deterministic. *)
let compress key =
  if String.length key <= 160 then key
  else String.sub key 0 2 ^ "#" ^ Digest.to_hex (Digest.string key)

let atoms_key ~tag atoms =
  compress
    (tag ^ ":"
    ^ String.concat "," (List.sort String.compare (List.map atom_shape atoms)))

let distinct_key key = "d:" ^ key

let cq_body_key = function
  | [ a ] -> atom_key a
  | atoms -> atoms_key ~tag:"j" atoms

let rec fol_atoms = function
  | Fol.Leaf { ucq; _ } -> List.concat_map Cq.atoms (Ucq.disjuncts ucq)
  | Fol.Union { branches; _ } -> List.concat_map fol_atoms branches
  | Fol.Join { parts; _ } -> List.concat_map fol_atoms parts

(* The key of the root operator {!Rdbms.Planner} emits for this node:
   Leaf -> Distinct over one arm or a Union of arms, Union -> Distinct
   over a Union of branch plans, Join -> Distinct over the top-level
   fragment join. [harvest] records the observed answer cardinality
   under exactly this key. *)
let fol_key = function
  | Fol.Leaf { ucq; _ } -> (
    match Ucq.disjuncts ucq with
    | [ single ] -> distinct_key (cq_body_key (Cq.atoms single))
    | ds -> distinct_key (atoms_key ~tag:"u" (List.concat_map Cq.atoms ds)))
  | Fol.Union _ as f -> distinct_key (atoms_key ~tag:"u" (fol_atoms f))
  | Fol.Join _ as f -> distinct_key (atoms_key ~tag:"j" (fol_atoms f))

let rec plan_atoms = function
  | Plan.Scan a -> [ a ]
  | Plan.Index_join { left; atom; _ } -> atom :: plan_atoms left
  | Plan.Hash_join { left; right; _ } | Plan.Merge_join { left; right; _ } ->
    plan_atoms left @ plan_atoms right
  | Plan.Project { input; _ } -> plan_atoms input
  | Plan.Distinct p | Plan.Materialize p -> plan_atoms p
  | Plan.Union { inputs; _ } -> List.concat_map plan_atoms inputs
  | Plan.Sip { join; _ } -> plan_atoms join

(* The correction key of a plan node, [None] for nodes that cannot
   carry one (never happens in planner output). Pure pass-through
   operators (Project / Materialize / Sip) share their input's key;
   Distinct changes the cardinality and gets its own ["d:"] key. *)
let rec node_key = function
  | Plan.Scan a -> Some (atom_key a)
  | (Plan.Hash_join _ | Plan.Merge_join _ | Plan.Index_join _) as p ->
    Some (atoms_key ~tag:"j" (plan_atoms p))
  | Plan.Union _ as p -> Some (atoms_key ~tag:"u" (plan_atoms p))
  | Plan.Distinct p -> Option.map distinct_key (node_key p)
  | Plan.Project { input; _ } -> node_key input
  | Plan.Materialize p -> node_key p
  | Plan.Sip { join; _ } -> node_key join

(* ------------------------------------------------------------------ *)
(* The store. *)

type entry = {
  mutable factor : float;  (* clamped EWMA of actual/est *)
  mutable count : int;
}

type t = {
  mu : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  alpha : float;
  clamp : float;
  min_obs : int;
  ready_keys : int Atomic.t;
      (* keys at/above min_obs — lock-free gate so an empty or
         untrained store costs consulting sites one atomic read *)
  mutable epoch : int;
  mutable observations : int;
}

type stats = {
  keys : int;
  ready : int;
  observations : int;
  epoch : int;
  min_obs : int;
  alpha : float;
  clamp : float;
}

let create ?(alpha = 0.5) ?(clamp = 256.) ?(min_obs = 2) () =
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Feedback.create: alpha must be in (0, 1]";
  if not (clamp >= 1.) then invalid_arg "Feedback.create: clamp must be >= 1";
  if min_obs < 1 then invalid_arg "Feedback.create: min_obs must be >= 1";
  {
    mu = Mutex.create ();
    tbl = Hashtbl.create 64;
    alpha;
    clamp;
    min_obs;
    ready_keys = Atomic.make 0;
    epoch = 0;
    observations = 0;
  }

let with_lock (t : t) f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let epoch (t : t) = with_lock t (fun () -> t.epoch)

let bump_epoch (t : t) =
  t.epoch <- t.epoch + 1;
  Obs.Metrics.set g_epoch (float_of_int t.epoch)

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.tbl;
      Atomic.set t.ready_keys 0;
      t.observations <- 0;
      bump_epoch t)

let clamped (t : t) f = Float.min t.clamp (Float.max (1. /. t.clamp) f)

let observe t ~key ~est ~actual =
  (* Both sides clamped below at one row, as in {!Explain.q_error}: an
     empty result corrects the estimate down to ~1 row, not to 0 — a
     zero factor would erase every estimate it ever scales. *)
  let sample =
    Float.max 1. (float_of_int actual) /. Float.max 1. est
  in
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some e ->
        e.factor <- clamped t (((1. -. t.alpha) *. e.factor) +. (t.alpha *. sample));
        e.count <- e.count + 1;
        if e.count = t.min_obs then Atomic.incr t.ready_keys
      | None ->
        Hashtbl.add t.tbl key { factor = clamped t sample; count = 1 };
        if t.min_obs = 1 then Atomic.incr t.ready_keys);
      t.observations <- t.observations + 1;
      bump_epoch t);
  Obs.Metrics.incr m_observations

let factor t key =
  if Atomic.get t.ready_keys = 0 then None
  else begin
    let hit =
      with_lock t (fun () ->
          match Hashtbl.find_opt t.tbl key with
          | Some e when e.count >= t.min_obs -> Some e.factor
          | _ -> None)
    in
    if hit <> None then Obs.Metrics.incr m_applied;
    hit
  end

let lookup feedback key =
  match feedback with None -> None | Some t -> factor t key

(* Lazy-key variants: consulting sites on the cover-search hot path
   must not even *build* a key string when no correction could
   apply. *)

let trained = function
  | None -> false
  | Some t -> Atomic.get t.ready_keys > 0

let lookup_atoms feedback ~tag atoms =
  match feedback with
  | Some t when Atomic.get t.ready_keys > 0 -> factor t (atoms_key ~tag atoms)
  | _ -> None

let lookup_fol feedback fol =
  match feedback with
  | Some t when Atomic.get t.ready_keys > 0 -> factor t (fol_key fol)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Consulting: corrected estimates. *)

let scale = Estimate.scale

let atom_est ?feedback layout a =
  let e = Estimate.atom layout a in
  if not (trained feedback) then e
  else
    match lookup feedback (atom_key a) with Some f -> scale e f | None -> e

(* A correction applies at the {e outermost} node whose key has one
   ({!Estimate.plan}); an untrained store is asked nothing, not even
   for a key. *)
let plan_est ?feedback layout p =
  let correct =
    match feedback with
    | Some fb when Atomic.get fb.ready_keys > 0 ->
      fun p -> Option.bind (node_key p) (factor fb)
    | _ -> fun _ -> None
  in
  Estimate.plan ~correct layout p

let plan_rows ?feedback layout p = (plan_est ?feedback layout p).Estimate.rows

(* ------------------------------------------------------------------ *)
(* Recording: walking an EXPLAIN ANALYZE tree. An observation lands at
   every node whose key differs from its parent's — scans, join
   prefixes, unions, distinct roots — pairing the recorded actual
   cardinality with the node's *uncorrected* static estimate, so a
   factor always expresses actual/static and re-harvesting under live
   corrections cannot compound. *)
let harvest t layout stats =
  let n = ref 0 in
  let rec go parent s =
    let key = node_key s.Exec.plan in
    (match key with
    | Some k when parent <> Some k ->
      let est = plan_rows layout s.Exec.plan in
      observe t ~key:k ~est ~actual:s.Exec.actual_rows;
      incr n
    | _ -> ());
    List.iter (go key) s.Exec.children
  in
  go None stats;
  !n

let root_q_error ?feedback layout stats =
  Explain.q_error
    ~est:(plan_rows ?feedback layout stats.Exec.plan)
    ~actual:stats.Exec.actual_rows

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let stats t =
  with_lock t (fun () ->
      let ready =
        Hashtbl.fold
          (fun _ e acc -> if e.count >= t.min_obs then acc + 1 else acc)
          t.tbl 0
      in
      {
        keys = Hashtbl.length t.tbl;
        ready;
        observations = t.observations;
        epoch = t.epoch;
        min_obs = t.min_obs;
        alpha = t.alpha;
        clamp = t.clamp;
      })

let pp_stats ppf s =
  Format.fprintf ppf
    "feedback: %d keys (%d ready at min_obs=%d), %d observations, epoch %d \
     (alpha=%g clamp=%g)"
    s.keys s.ready s.min_obs s.observations s.epoch s.alpha s.clamp

let entries t =
  with_lock t (fun () ->
      Hashtbl.fold (fun k e acc -> (k, e.factor, e.count) :: acc) t.tbl [])
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Persistence: the OBDAFBK1 line format. Header then one line per
   key; everything revalidated on load, and any malformed input yields
   [Error], never an exception (the OBDACOL1 discipline). *)

let magic = "OBDAFBK1"

let save t file =
  let lines = entries t and s = stats t in
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s 1\n" magic;
      Printf.fprintf oc "alpha %.17g\n" s.alpha;
      Printf.fprintf oc "clamp %.17g\n" s.clamp;
      Printf.fprintf oc "min_obs %d\n" s.min_obs;
      Printf.fprintf oc "epoch %d\n" s.epoch;
      Printf.fprintf oc "observations %d\n" s.observations;
      Printf.fprintf oc "entries %d\n" (List.length lines);
      List.iter
        (fun (key, factor, count) ->
          Printf.fprintf oc "%d %.17g %s\n" count factor key)
        lines);
  Sys.rename tmp file

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let field_line ic name =
  let line = try input_line ic with End_of_file -> corrupt "truncated" in
  match String.index_opt line ' ' with
  | Some i when String.sub line 0 i = name ->
    String.sub line (i + 1) (String.length line - i - 1)
  | _ -> corrupt "expected '%s' field" name

let int_field ic name =
  match int_of_string_opt (field_line ic name) with
  | Some v -> v
  | None -> corrupt "field '%s' is not an integer" name

let float_field ic name =
  match float_of_string_opt (field_line ic name) with
  | Some v when Float.is_finite v -> v
  | _ -> corrupt "field '%s' is not a finite number" name

let load file =
  match open_in_bin file with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match
          let header = try input_line ic with End_of_file -> corrupt "empty file" in
          if header <> magic ^ " 1" then corrupt "bad magic or version";
          let alpha = float_field ic "alpha" in
          let clamp = float_field ic "clamp" in
          let min_obs = int_field ic "min_obs" in
          let epoch = int_field ic "epoch" in
          let observations = int_field ic "observations" in
          let entries = int_field ic "entries" in
          if not (alpha > 0. && alpha <= 1.) then corrupt "alpha out of range";
          if not (clamp >= 1.) then corrupt "clamp out of range";
          if min_obs < 1 then corrupt "min_obs out of range";
          if epoch < 0 then corrupt "negative epoch";
          if observations < 0 then corrupt "negative observations";
          if entries < 0 then corrupt "negative entry count";
          let t = create ~alpha ~clamp ~min_obs () in
          for i = 1 to entries do
            let line =
              try input_line ic
              with End_of_file -> corrupt "truncated at entry %d/%d" i entries
            in
            let count, factor, key =
              match String.index_opt line ' ' with
              | None -> corrupt "malformed entry %d" i
              | Some a -> (
                match String.index_from_opt line (a + 1) ' ' with
                | None -> corrupt "malformed entry %d" i
                | Some b ->
                  ( String.sub line 0 a,
                    String.sub line (a + 1) (b - a - 1),
                    String.sub line (b + 1) (String.length line - b - 1) ))
            in
            let count =
              match int_of_string_opt count with
              | Some c when c >= 1 -> c
              | _ -> corrupt "entry %d: bad observation count" i
            in
            let factor =
              match float_of_string_opt factor with
              | Some f
                when Float.is_finite f
                     && f >= 1. /. clamp -. 1e-9
                     && f <= clamp +. 1e-9 ->
                f
              | _ -> corrupt "entry %d: factor out of clamp range" i
            in
            if key = "" then corrupt "entry %d: empty key" i;
            if Hashtbl.mem t.tbl key then corrupt "entry %d: duplicate key" i;
            Hashtbl.add t.tbl key { factor; count };
            if count >= min_obs then Atomic.incr t.ready_keys
          done;
          (match input_line ic with
          | _ -> corrupt "trailing data after %d entries" entries
          | exception End_of_file -> ());
          t.epoch <- epoch;
          t.observations <- observations;
          Obs.Metrics.set g_epoch (float_of_int epoch);
          t
        with
        | t -> Ok t
        | exception Corrupt msg ->
          Error (Printf.sprintf "%s: corrupt feedback store (%s)" file msg)
        | exception Sys_error e -> Error (Printf.sprintf "%s: %s" file e))

let load_exn file =
  match load file with Ok t -> t | Error msg -> failwith msg
