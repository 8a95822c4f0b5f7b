open Query
module Iset = Cover.Iset

type gfragment = {
  f : Iset.t;
  g : Iset.t;
}

type t = {
  query : Cq.t;
  fragments : gfragment list;
}

let compare_gfragment gf1 gf2 =
  let c = Iset.compare gf1.f gf2.f in
  if c <> 0 then c else Iset.compare gf1.g gf2.g

let of_gfragments query fragments =
  let n = Cq.atom_count query in
  let fragments = List.sort_uniq compare_gfragment fragments in
  if fragments = [] then invalid_arg "Generalized.make: no fragments";
  List.iter
    (fun { f; g } ->
      if Iset.is_empty g then invalid_arg "Generalized.make: empty core";
      if not (Iset.subset g f) then invalid_arg "Generalized.make: g not within f";
      Iset.iter
        (fun i ->
          if i < 0 || i >= n then
            Fmt.invalid_arg "Generalized.make: atom index %d out of range" i)
        f)
    fragments;
  let covered = List.fold_left (fun acc { f; _ } -> Iset.union acc f) Iset.empty fragments in
  if Iset.cardinal covered <> n then invalid_arg "Generalized.make: atoms not covered";
  List.iteri
    (fun i { f; _ } ->
      List.iteri
        (fun j { f = f'; _ } ->
          if i <> j && Iset.subset f f' then
            invalid_arg "Generalized.make: fragment included in another")
        fragments)
    fragments;
  let g_total = List.fold_left (fun acc { g; _ } -> acc + Iset.cardinal g) 0 fragments in
  let g_union = List.fold_left (fun acc { g; _ } -> Iset.union acc g) Iset.empty fragments in
  if g_total <> n || Iset.cardinal g_union <> n then
    invalid_arg "Generalized.make: cores are not a partition";
  { query; fragments }

let make query pairs =
  of_gfragments query
    (List.map (fun (f, g) -> { f = Iset.of_list f; g = Iset.of_list g }) pairs)

let of_cover cover =
  of_gfragments cover.Cover.query
    (List.map (fun f -> { f; g = f }) (Cover.fragments cover))

let base_cover t = Cover.of_fragments t.query (List.map (fun { g; _ } -> g) t.fragments)

let is_simple t = List.for_all (fun { f; g } -> Iset.equal f g) t.fragments

let fragments t = t.fragments

let fragment_count t = List.length t.fragments

let atom_array t = Array.of_list (Cq.atoms t.query)

let connected_set atoms set =
  match Iset.elements set with
  | [] -> false
  | [ _ ] -> true
  | first :: _ as elems ->
    let seen = ref (Iset.singleton first) in
    let rec grow = function
      | [] -> ()
      | i :: rest ->
        let next = ref rest in
        List.iter
          (fun j ->
            if (not (Iset.mem j !seen)) && Atom.shares_var atoms.(i) atoms.(j) then begin
              seen := Iset.add j !seen;
              next := j :: !next
            end)
          elems;
        grow !next
    in
    grow [ first ];
    Iset.equal !seen set

let in_gq tbox t =
  Safety.is_safe tbox (base_cover t)
  &&
  let atoms = atom_array t in
  List.for_all (fun { f; _ } -> connected_set atoms f) t.fragments

(* Definition 7: the head is computed from the cores [g] only. *)
let fragment_query t gf =
  let atoms = atom_array t in
  let vars_of set =
    Iset.fold (fun i acc -> Term.Set.union acc (Atom.vars atoms.(i))) set Term.Set.empty
  in
  let own_g = vars_of gf.g in
  let head_vars = Cq.head_vars t.query in
  let other_g =
    List.fold_left
      (fun acc gf' ->
        if Iset.equal gf'.g gf.g then acc else Term.Set.union acc (vars_of gf'.g))
      Term.Set.empty t.fragments
  in
  let head =
    Term.Set.elements (Term.Set.inter own_g (Term.Set.union head_vars other_g))
  in
  let body = List.map (fun i -> atoms.(i)) (Iset.elements gf.f) in
  Cq.make ~name:(t.query.Cq.name ^ "_gf") ~head ~body ()

let fragment_queries t = List.map (fragment_query t) t.fragments

(* Canonical structural rendering: fragments are kept sorted by
   [of_gfragments] and [Iset.elements] is sorted, so equal covers have
   equal keys; distinct covers differ in some index set and so in the
   key. No pretty-printer is involved (a printer may elide). *)
let structural_key t =
  let set s = String.concat "," (List.map string_of_int (Iset.elements s)) in
  String.concat ";" (List.map (fun { f; g } -> set f ^ "|" ^ set g) t.fragments)

let mem_fragment t gf = List.exists (fun gf' -> compare_gfragment gf gf' = 0) t.fragments

let remove_fragment fs gf = List.filter (fun gf' -> compare_gfragment gf gf' <> 0) fs

let mergeable t gf1 gf2 =
  connected_set (atom_array t) (Iset.union gf1.f gf2.f)

let merge t gf1 gf2 =
  if not (mem_fragment t gf1 && mem_fragment t gf2) then
    invalid_arg "Generalized.merge: fragment not in cover";
  if compare_gfragment gf1 gf2 = 0 then invalid_arg "Generalized.merge: same fragment";
  let rest = remove_fragment (remove_fragment t.fragments gf1) gf2 in
  let merged = { f = Iset.union gf1.f gf2.f; g = Iset.union gf1.g gf2.g } in
  of_gfragments t.query (merged :: rest)

let enlargeable_atoms t gf =
  let atoms = atom_array t in
  let n = Array.length atoms in
  let candidates = ref [] in
  for i = n - 1 downto 0 do
    if
      (not (Iset.mem i gf.f))
      && Iset.exists (fun j -> Atom.shares_var atoms.(i) atoms.(j)) gf.f
      (* the enlarged fragment must not swallow another fragment *)
      && not
           (List.exists
              (fun gf' ->
                (not (Iset.equal gf'.f gf.f)) && Iset.subset gf'.f (Iset.add i gf.f))
              t.fragments)
    then candidates := i :: !candidates
  done;
  !candidates

let enlarge t gf i =
  if not (mem_fragment t gf) then invalid_arg "Generalized.enlarge: fragment not in cover";
  if not (List.mem i (enlargeable_atoms t gf)) then
    Fmt.invalid_arg "Generalized.enlarge: atom %d not addable" i;
  let rest = remove_fragment t.fragments gf in
  of_gfragments t.query ({ gf with f = Iset.add i gf.f } :: rest)

(* All connected supersets of [g] within the query atoms. [adj] is the
   precomputed variable-sharing graph ({!Cover.adjacency}). *)
let connected_supersets adj n g =
  let touches current j = not (Iset.disjoint adj.(j) current) in
  let results = ref [] in
  let rec extend current candidates =
    results := current :: !results;
    (* candidates: atoms > last considered that connect to current *)
    List.iteri
      (fun k i ->
        let rest = List.filteri (fun k' _ -> k' > k) candidates in
        let current' = Iset.add i current in
        let new_candidates =
          List.filter (fun j -> not (Iset.mem j current')) rest
          @ List.filter
              (fun j ->
                (not (Iset.mem j current'))
                && (not (List.mem j rest))
                && touches current' j)
              (List.init n Fun.id)
        in
        let new_candidates = List.sort_uniq Stdlib.compare new_candidates in
        extend current' new_candidates)
      candidates
  in
  let initial_candidates =
    List.filter
      (fun i -> (not (Iset.mem i g)) && touches g i)
      (List.init n Fun.id)
  in
  extend g initial_candidates;
  List.sort_uniq Iset.compare !results

let enumerate ?(max_count = 20_000) tbox q =
  let adj = Cover.adjacency q in
  let n = Cq.atom_count q in
  let safe = Safety.safe_covers tbox q in
  let results = ref [] and count = ref 0 in
  let seen = Hashtbl.create 256 in
  let record t =
    let key = structural_key t in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      results := t :: !results;
      incr count;
      if !count >= max_count then raise Exit
    end
  in
  (try
     (* the simple covers of Lq first, so a capped enumeration (the
        paper stops EDL at 20,000 covers on A6) covers at least the
        whole safe-cover lattice before generalized extensions *)
     List.iter (fun cover -> record (of_cover cover)) safe;
     List.iter
       (fun cover ->
         let gs = Cover.fragments cover in
         let options = List.map (fun g -> connected_supersets adj n g) gs in
         (* cartesian product over per-core extension choices *)
         let rec product chosen = function
           | [] ->
             let frags =
               List.map2 (fun f g -> { f; g }) (List.rev chosen) gs
             in
             (* antichain check, then record *)
             (try record (of_gfragments q frags) with Invalid_argument _ -> ())
           | opts :: rest ->
             List.iter (fun f -> product (f :: chosen) rest) opts
         in
         product [] options)
       safe
   with Exit -> ());
  List.rev !results

let gq_count ?(max_count = 20_000) tbox q =
  let l = enumerate ~max_count tbox q in
  let c = List.length l in
  c, c >= max_count

let compare t1 t2 = List.compare compare_gfragment t1.fragments t2.fragments

let equal t1 t2 = compare t1 t2 = 0

let pp_gfragment ppf { f; g } =
  let pp_set ppf s = Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ",") Fmt.int) (Iset.elements s) in
  if Iset.equal f g then pp_set ppf f else Fmt.pf ppf "%a||%a" pp_set f pp_set g

let pp ppf t =
  Fmt.pf ppf "gcover[%a]" (Fmt.list ~sep:(Fmt.any ";") pp_gfragment) t.fragments
