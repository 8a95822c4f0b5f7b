open Query
module Iset = Cover.Iset

(* Union-find over atom indexes, merging dep-overlapping atoms. When a
   dependency-merged fragment is not join-connected (condition (iii) of
   Definition 1 — e.g. Faculty(x) and Student(y) both depend on the
   advisor role without sharing a variable), it is further merged with
   a variable-sharing fragment: coarsening preserves safety. *)
let root_cover tbox q =
  let atoms = Array.of_list (Cq.atoms q) in
  let n = Array.length atoms in
  let overlap = Dllite.Tbox.dep_overlap tbox in
  let uf = Unionfind.create ~capacity:(max n 1) () in
  for _ = 1 to n do
    ignore (Unionfind.make uf)
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if overlap (Atom.pred_name atoms.(i)) (Atom.pred_name atoms.(j)) then
        ignore (Unionfind.union uf i j)
    done
  done;
  let groups () =
    let tbl = Hashtbl.create 8 in
    for i = 0 to n - 1 do
      let r = Unionfind.find uf i in
      let cur = Option.value ~default:Iset.empty (Hashtbl.find_opt tbl r) in
      Hashtbl.replace tbl r (Iset.add i cur)
    done;
    Hashtbl.fold (fun _ f acc -> f :: acc) tbl []
  in
  let cover_of fs = Cover.of_fragments q fs in
  let rec connect () =
    let cover = cover_of (groups ()) in
    let disconnected =
      List.find_opt
        (fun f -> not (Cover.fragment_connected cover f))
        (Cover.fragments cover)
    in
    match disconnected with
    | None -> cover
    | Some f ->
      let shares_var_with_f j =
        (not (Iset.mem j f))
        && Iset.exists (fun i -> Atom.shares_var atoms.(i) atoms.(j)) f
      in
      (match List.find_opt shares_var_with_f (List.init n Fun.id) with
      | Some j ->
        ignore (Unionfind.union uf (Iset.min_elt f) j);
        connect ()
      | None ->
        (* the query itself is disconnected; leave the cover as is *)
        cover)
  in
  connect ()

let is_safe tbox cover =
  Cover.is_partition cover
  &&
  let q = cover.Cover.query in
  let atoms = Array.of_list (Cq.atoms q) in
  let n = Array.length atoms in
  let overlap = Dllite.Tbox.dep_overlap tbox in
  let fragment_of = Array.make n (-1) in
  List.iteri
    (fun k f -> Iset.iter (fun i -> fragment_of.(i) <- k) f)
    (Cover.fragments cover);
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        fragment_of.(i) <> fragment_of.(j)
        && overlap (Atom.pred_name atoms.(i)) (Atom.pred_name atoms.(j))
      then ok := false
    done
  done;
  !ok

(* Enumerate the partitions of the root fragments: each root fragment
   is placed either in an existing group or in a new one (restricted
   growth strings). Only partitions satisfying [keep] are counted
   towards the cap. *)
let partitions_of_blocks ?max_count ~keep blocks =
  let results = ref [] and count = ref 0 in
  let capped () = match max_count with Some m -> !count >= m | None -> false in
  let rec place groups = function
    | [] ->
      if (not (capped ())) && keep groups then begin
        incr count;
        results := List.rev groups :: !results
      end
    | b :: rest ->
      if capped () then ()
      else begin
        (* into an existing group *)
        let rec try_groups prefix = function
          | [] -> ()
          | g :: gs ->
            place (List.rev_append prefix (Iset.union g b :: gs)) rest;
            try_groups (g :: prefix) gs
        in
        try_groups [] groups;
        (* or a new group *)
        place (b :: groups) rest
      end
  in
  place [] blocks;
  List.rev !results

let safe_covers ?max_count tbox q =
  let root = root_cover tbox q in
  let blocks = Cover.fragments root in
  (* Definition 1 (iii): keep only partitions whose fragments are
     join-connected (a union of root fragments need not be). The
     adjacency graph is shared across the whole enumeration. *)
  let adj = Cover.adjacency q in
  let keep groups = List.for_all (Cover.fragment_connected_adj adj) groups in
  let parts = partitions_of_blocks ?max_count ~keep blocks in
  let covers = List.map (fun groups -> Cover.of_fragments q groups) parts in
  (* Put the root cover first; it is the starting point of the search
     algorithms. *)
  let root_first =
    root :: List.filter (fun c -> not (Cover.equal c root)) covers
  in
  match max_count with
  | Some m -> List.filteri (fun i _ -> i < m) root_first
  | None -> root_first

let safe_cover_count ?max_count tbox q =
  List.length (safe_covers ?max_count tbox q)
