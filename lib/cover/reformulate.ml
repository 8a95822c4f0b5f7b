open Query

type fragment_language =
  | Ucq_fragments
  | Uscq_fragments

let m_fragments =
  Obs.Metrics.counter
    ~help:"cover fragment queries reformulated (incl. cache hits)"
    "cover.fragments.reformulated"

let ucq tbox q =
  let u = Reform.Perfectref.reformulate_cached tbox q in
  Fol.leaf ~out:q.Cq.head u

let reformulate_fragment ?data language tbox fq =
  Obs.Metrics.incr m_fragments;
  match language with
  | Ucq_fragments ->
    Fol.leaf ~out:fq.Cq.head (Reform.Perfectref.reformulate_cached ?data tbox fq)
  | Uscq_fragments -> Reform.Uscq_reform.reformulate tbox fq

let fragment ?data tbox fq = reformulate_fragment ?data Ucq_fragments tbox fq

let join q parts =
  match parts with
  | [ single ] when List.equal Term.equal (Fol.out single) q.Cq.head -> single
  | parts -> Fol.join ~out:q.Cq.head parts

(* Fragments reformulate independently (PerfectRef per fragment), in
   fragment order. *)
let of_cover ?(language = Ucq_fragments) tbox cover =
  let q = cover.Cover.query in
  join q (List.map (reformulate_fragment language tbox) (Cover.fragment_queries cover))

let of_generalized tbox gcover =
  let q = gcover.Generalized.query in
  join q (List.map (fragment tbox) (Generalized.fragment_queries gcover))
