open Covers

type pricing =
  | Whole
  | Nodes of {
      model : Cost.Cost_model.t;
      feedback : Cost.Feedback.t option;
    }

type t = {
  name : string;
  estimate : Query.Fol.t -> float;
  pricing : pricing;
  layout : Rdbms.Layout.t;
}

let rdbms profile layout =
  {
    name = "rdbms";
    layout;
    estimate =
      (* the engine's own estimator: its quirks are the point, so
         feedback corrections (ours, not the engine's) don't apply *)
      (fun fol ->
        let plan = Rdbms.Planner.of_fol layout fol in
        (Rdbms.Explain.cost profile layout plan).Rdbms.Explain.total_cost);
    pricing = Whole;
  }

let ext ?feedback model layout =
  {
    name = "ext";
    estimate = (fun fol -> (Cost.Cost_model.node ?feedback model layout fol).cost);
    pricing = Nodes { model; feedback };
    layout;
  }

(* {1 Emptiness snapshots}

   One per (TBox, store, emptiness epoch): the epoch advances only when
   an insert fills an empty table, so most inserts keep the snapshot.
   Entries are tiny; the table is reset rather than evicted. *)

let snapshots : (int * int, int * Reform.Emptiness.t) Hashtbl.t = Hashtbl.create 8

let snapshots_lock = Mutex.create ()

let emptiness tbox layout =
  let key = Dllite.Tbox.uid tbox, Rdbms.Layout.uid layout in
  let epoch = Rdbms.Layout.empty_epoch layout in
  match Mutex.protect snapshots_lock (fun () -> Hashtbl.find_opt snapshots key) with
  | Some (e, snap) when e = epoch -> snap
  | _ ->
    let snap =
      Reform.Emptiness.make tbox ~empty:(fun n ->
          Rdbms.Layout.concept_card layout n = 0 && Rdbms.Layout.role_card layout n = 0)
    in
    Mutex.protect snapshots_lock (fun () ->
        if Hashtbl.length snapshots >= 64 then Hashtbl.reset snapshots;
        Hashtbl.replace snapshots key (epoch, snap));
    snap

(* {1 Search-scoped scoring} *)

type leaf = {
  fol : Query.Fol.t;
  node : Cost.Cost_model.node option;  (** [None] under [Whole] pricing *)
}

type search = {
  estimator : t;
  tbox : Dllite.Tbox.t;
  query : Query.Cq.t;
  feedback : Cost.Feedback.t option;
  data : Reform.Emptiness.t;
  memo : (string, leaf) Hashtbl.t;
  lock : Mutex.t;
}

type scored = {
  cost : float;
  reformulation : Query.Fol.t;
  reform_time : float;
  cost_time : float;
}

let open_search estimator tbox query =
  {
    estimator;
    tbox;
    query;
    (* one view of the store per search: an untrained store is dropped
       here, so corrections learned mid-search wait for the next one *)
    feedback =
      (match estimator.pricing with
      | Nodes { feedback; _ } when Cost.Feedback.trained feedback -> feedback
      | Nodes _ | Whole -> None);
    (* likewise one emptiness snapshot per search *)
    data = emptiness tbox estimator.layout;
    memo = Hashtbl.create 64;
    lock = Mutex.create ();
  }

let seconds ~since until = Int64.to_float (Int64.sub until since) /. 1e9

(* Within one query a fragment query is determined by its body's atom
   indexes and its head. *)
let fragment_key gf fq =
  String.concat "," (List.map string_of_int (Generalized.Iset.elements gf.Generalized.f))
  ^ "|"
  ^ String.concat "," (List.map Query.Term.to_string fq.Query.Cq.head)

(* A memo miss computes outside the lock and the first insert wins;
   the counters count inserts. *)
let leaf s (key, fq) =
  match Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.memo key) with
  | Some l ->
    Cost.Cost_model.note_leaf ~reused:true;
    l, 0., 0.
  | None ->
    let t0 = Obs.Mclock.now_ns () in
    let fol = Reformulate.fragment ~data:s.data s.tbox fq in
    let t1 = Obs.Mclock.now_ns () in
    let node =
      match s.estimator.pricing with
      | Whole -> None
      | Nodes { model; _ } ->
        Some (Cost.Cost_model.node ?feedback:s.feedback model s.estimator.layout fol)
    in
    let t2 = Obs.Mclock.now_ns () in
    let l =
      Mutex.protect s.lock (fun () ->
          match Hashtbl.find_opt s.memo key with
          | Some l ->
            Cost.Cost_model.note_leaf ~reused:true;
            l
          | None ->
            Hashtbl.add s.memo key { fol; node };
            Cost.Cost_model.note_leaf ~reused:false;
            { fol; node })
    in
    l, seconds ~since:t0 t1, seconds ~since:t1 t2

let score s cover =
  let q = cover.Generalized.query in
  if q != s.query then invalid_arg "Estimator.score: cover of another query";
  let frags =
    List.map2
      (fun gf fq -> fragment_key gf fq, fq)
      (Generalized.fragments cover)
      (Generalized.fragment_queries cover)
  in
  let leaves = List.map (leaf s) frags in
  let t0 = Obs.Mclock.now_ns () in
  let reformulation = Reformulate.join q (List.map (fun (l, _, _) -> l.fol) leaves) in
  let t1 = Obs.Mclock.now_ns () in
  let cost =
    match s.estimator.pricing, leaves with
    | Whole, _ -> s.estimator.estimate reformulation
    | Nodes _, [ ({ node = Some n; fol }, _, _) ] when fol == reformulation -> n.cost
    | Nodes { model; _ }, _ ->
      let nodes = List.map (fun (l, _, _) -> Option.get l.node) leaves in
      (Cost.Cost_model.join ?feedback:s.feedback model reformulation nodes).cost
  in
  let t2 = Obs.Mclock.now_ns () in
  let reform, estim =
    List.fold_left (fun (r, e) (_, r', e') -> r +. r', e +. e') (0., 0.) leaves
  in
  {
    cost;
    reformulation;
    reform_time = reform +. seconds ~since:t0 t1;
    cost_time = estim +. seconds ~since:t1 t2;
  }
