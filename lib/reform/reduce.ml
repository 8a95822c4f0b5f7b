open Query

let m_dropped =
  Obs.Metrics.counter
    ~help:"query atoms dropped as TBox-redundant before a cost-based cover search"
    "reform.atoms.dropped"

let m_reduce_ms =
  Obs.Metrics.histogram ~help:"TBox-redundant atom elimination latency (ms)"
    "reform.reduce_ms"

let vars_of atoms =
  List.fold_left (fun s a -> Term.Set.union s (Atom.vars a)) Term.Set.empty atoms

(* Whether [rest] entails [a] under the TBox with their shared
   variables fixed. Every disjunct of PerfectRef(q_a) only uses
   predicates of [dep(pred a)] (a specialisation stays in the closure,
   a reduce keeps the predicate), so without such a predicate in
   [rest] (an empty [rest] included) no disjunct can map and the
   fixpoint is skipped. *)
let redundant tbox ~head_vars a rest =
  (let dep = Dllite.Tbox.dep tbox (Atom.pred_name a) in
   List.exists (fun b -> Dllite.Tbox.String_set.mem (Atom.pred_name b) dep) rest)
  &&
  let rest_vars = vars_of rest and a_vars = Atom.vars a in
  Term.Set.subset (Term.Set.inter a_vars head_vars) rest_vars
  &&
  let shared = Term.Set.elements (Term.Set.inter a_vars rest_vars) in
  let target = Cq.make ~head:shared ~body:rest () in
  List.exists
    (fun d -> Cq.exists_hom ~from_q:d ~to_q:target)
    (Ucq.disjuncts (Perfectref.fixpoint tbox (Cq.make ~head:shared ~body:[ a ] ())))

let reduce tbox q =
  Obs.Metrics.time m_reduce_ms @@ fun () ->
  let head_vars = Cq.head_vars q in
  (* One pass over the index-tagged body, dropping as it goes; [kept]
     is reversed. *)
  let rec pass kept dropped_any = function
    | [] -> List.rev kept, dropped_any
    | ((_, a) as ia) :: todo ->
      let rest = List.rev_map snd kept @ List.map snd todo in
      if redundant tbox ~head_vars a rest then pass kept true todo
      else pass (ia :: kept) dropped_any todo
  in
  let rec fix body =
    match pass [] false body with
    | body', true -> fix body'
    | body', false -> body'
  in
  let indexed = List.mapi (fun i a -> i, a) (Cq.atoms q) in
  let kept = fix indexed in
  if List.compare_lengths kept indexed = 0 then q, []
  else begin
    let dropped =
      List.filter_map
        (fun (i, a) -> if List.mem_assoc i kept then None else Some a)
        indexed
    in
    Obs.Metrics.add m_dropped (List.length dropped);
    Cq.make ~name:q.Cq.name ~head:q.Cq.head ~body:(List.map snd kept) (), dropped
  end
