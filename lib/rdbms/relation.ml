(* Column-major storage: one unboxed [int array] per column, all of
   length [nrows]. Operators that merely rearrange columns (project
   without constants, column renames) alias the arrays instead of
   copying; nothing ever mutates a relation's columns after
   construction, so aliasing is safe. *)
type t = {
  cols : string array;
  columns : int array array;
  nrows : int;
}

let of_columns ~cols columns =
  let cols = Array.of_list cols in
  let nrows = if Array.length columns = 0 then 0 else Array.length columns.(0) in
  if Array.length cols <> Array.length columns then
    invalid_arg "Relation.of_columns: column-name/column-count mismatch";
  Array.iter
    (fun c ->
      if Array.length c <> nrows then
        invalid_arg "Relation.of_columns: ragged columns")
    columns;
  { cols; columns; nrows }

let make ~cols ~rows =
  let cols = Array.of_list cols in
  let a = Array.length cols in
  let nrows = List.length rows in
  let columns = Array.init a (fun _ -> Array.make nrows 0) in
  List.iteri
    (fun i row ->
      for c = 0 to a - 1 do
        columns.(c).(i) <- row.(c)
      done)
    rows;
  { cols; columns; nrows }

let empty ~cols = make ~cols ~rows:[]

let boolean b = { cols = [||]; columns = [||]; nrows = (if b then 1 else 0) }

let arity r = Array.length r.cols

let cardinality r = r.nrows

let row r i = Array.map (fun col -> col.(i)) r.columns

let rows r = List.init r.nrows (row r)

(* Byte footprint of the column arrays: the LRU stores charge this as
   the exact storage cost of a cached relation. One word per cell plus
   the per-column array headers and the record itself. *)
let bytes r = (8 * r.nrows * arity r) + (16 * arity r) + 64

let col_index r name =
  let rec go i =
    if i >= Array.length r.cols then raise Not_found
    else if String.equal r.cols.(i) name then i
    else go (i + 1)
  in
  go 0

let mem_col r name = Array.exists (String.equal name) r.cols

let common_cols r1 r2 =
  Array.to_list r1.cols |> List.filter (fun c -> mem_col r2 c)

(* Keep the rows whose (absolute) indexes are listed, in list order. *)
let gather r idxs =
  let k = Array.length idxs in
  {
    r with
    columns = Array.map (fun col -> Array.init k (fun j -> col.(idxs.(j)))) r.columns;
    nrows = k;
  }

(* Constant columns are named positionally (_const0, _const1, ...) so
   two constants in one projection never collide in [col_index]. The
   numbering must match {!Plan.out_cols}. *)
let const_name i = "_const" ^ string_of_int i

let project r out =
  let n = r.nrows in
  let _, rev =
    List.fold_left
      (fun (ci, acc) spec ->
        match spec with
        | `Col name -> ci, (name, r.columns.(col_index r name)) :: acc
        | `Const v -> ci + 1, (const_name ci, Array.make n v) :: acc)
      (0, []) out
  in
  let picked = List.rev rev in
  {
    cols = Array.of_list (List.map fst picked);
    columns = Array.of_list (List.map snd picked);
    nrows = n;
  }

let all_cols r = Array.init (arity r) Fun.id

(* First occurrences, in row order, through a packed seen-set: no
   per-row tuple copy, no polymorphic hash. *)
let distinct r =
  if r.nrows = 0 then r
  else begin
    let seen = Keytab.create ~expected:r.nrows (arity r) in
    let idx = all_cols r in
    let keep = Ibuf.create ~capacity:r.nrows () in
    for i = 0 to r.nrows - 1 do
      let fresh = Keytab.length seen in
      if Keytab.intern seen r.columns idx i = fresh then Ibuf.push keep i
    done;
    if Ibuf.length keep = r.nrows then r else gather r (Ibuf.to_array keep)
  end

(* The inputs are merged positionally, so arity compatibility is the
   load-bearing invariant — especially for the parallel union path,
   where a miscompiled arm would otherwise corrupt rows silently. The
   error names every offending input's columns. *)
let union_all ~cols rels =
  let a = List.length cols in
  let offending =
    List.filter (fun r -> arity r <> a) rels
    |> List.map (fun r ->
           Printf.sprintf "[%s]" (String.concat "," (Array.to_list r.cols)))
  in
  if offending <> [] then
    invalid_arg
      (Printf.sprintf
         "Relation.union_all: arity mismatch: expected %d columns [%s], got %s" a
         (String.concat "," cols)
         (String.concat " and " offending));
  let total = List.fold_left (fun n r -> n + r.nrows) 0 rels in
  let columns = Array.init a (fun _ -> Array.make total 0) in
  let off = ref 0 in
  List.iter
    (fun r ->
      for c = 0 to a - 1 do
        Array.blit r.columns.(c) 0 columns.(c) !off r.nrows
      done;
      off := !off + r.nrows)
    rels;
  { cols = Array.of_list cols; columns; nrows = total }

let filter_indexes r pred =
  let keep = Ibuf.create () in
  for i = 0 to r.nrows - 1 do
    if pred i then Ibuf.push keep i
  done;
  if Ibuf.length keep = r.nrows then r else gather r (Ibuf.to_array keep)

let filter_const r name v =
  let col = r.columns.(col_index r name) in
  filter_indexes r (fun i -> col.(i) = v)

let filter_eq_cols r n1 n2 =
  let c1 = r.columns.(col_index r n1) and c2 = r.columns.(col_index r n2) in
  filter_indexes r (fun i -> c1.(i) = c2.(i))

(* The build table keeps the build side columnar: a packed key table
   maps a join key to a group id, and the payload columns alias the
   build relation's non-join columns. When every key occurs once —
   concept scans, and role scans keyed on both columns — a group is
   its row and there is nothing else to build; otherwise the group's
   build-row indexes sit contiguously in [rows] (CSR, for every key
   arity, zero included). A probe allocates nothing per build row —
   matches are gathered straight out of the shared column arrays. *)
type groups =
  | Unique
  | Grouped of {
      starts : int array;
      rows : int array;
    }

type build_table = {
  keys : Keytab.t;  (* join key -> group id *)
  groups : groups;
  payload_cols : string array;  (* non-join columns of the build side *)
  payload : int array array;  (* their column arrays (aliased) *)
}

let group_count b = Keytab.length b.keys

(* Interning in row order hands out ids in row order, so when no key
   repeats, id [g] is row [g]. *)
let group_rows keys columns key_idx n =
  if Keytab.length keys = n then Unique
  else begin
    let gid = Array.init n (Keytab.find keys columns key_idx) in
    let groups = Keytab.length keys in
    let starts = Array.make (groups + 1) 0 in
    Array.iter (fun g -> starts.(g + 1) <- starts.(g + 1) + 1) gid;
    for g = 1 to groups do
      starts.(g) <- starts.(g) + starts.(g - 1)
    done;
    (* newest row first within a group: the order the probe emits *)
    let fill = Array.sub starts 0 groups and rows = Array.make n 0 in
    for i = n - 1 downto 0 do
      let g = gid.(i) in
      rows.(fill.(g)) <- i;
      fill.(g) <- fill.(g) + 1
    done;
    Grouped { starts; rows }
  end

let build r ~on =
  let key_idx = Array.of_list (List.map (col_index r) on) in
  let payload_idx =
    Array.to_list r.cols
    |> List.mapi (fun i c -> i, c)
    |> List.filter (fun (_, c) -> not (List.mem c on))
  in
  let payload_cols = Array.of_list (List.map snd payload_idx) in
  let payload =
    Array.of_list (List.map (fun (i, _) -> r.columns.(i)) payload_idx)
  in
  let keys = Keytab.create ~expected:r.nrows (Array.length key_idx) in
  for i = 0 to r.nrows - 1 do
    ignore (Keytab.intern keys r.columns key_idx i)
  done;
  { keys; groups = group_rows keys r.columns key_idx r.nrows; payload_cols; payload }

(* [f] on every build row matching group [g] *)
let iter_group b g f =
  match b.groups with
  | Unique -> f g
  | Grouped { starts; rows } ->
    for k = starts.(g) to starts.(g + 1) - 1 do
      f rows.(k)
    done

(* Two passes over the probe side: count the exact output cardinality,
   then fill exactly-sized output columns. *)
let probe ~left ~right_build ~on =
  let b = right_build in
  let key_idx = Array.of_list (List.map (col_index left) on) in
  let nl = arity left in
  let np = Array.length b.payload in
  let cols = Array.append left.cols b.payload_cols in
  let gid = Array.init left.nrows (Keytab.find b.keys left.columns key_idx) in
  let total = ref 0 in
  Array.iter (fun g -> if g >= 0 then iter_group b g (fun _ -> incr total)) gid;
  let columns = Array.init (nl + np) (fun _ -> Array.make !total 0) in
  let o = ref 0 in
  Array.iteri
    (fun i g ->
      if g >= 0 then
        iter_group b g (fun bi ->
            for c = 0 to nl - 1 do
              columns.(c).(!o) <- left.columns.(c).(i)
            done;
            for c = 0 to np - 1 do
              columns.(nl + c).(!o) <- b.payload.(c).(bi)
            done;
            incr o))
    gid;
  { cols; columns; nrows = !total }

let hash_join r1 r2 ~on = probe ~left:r1 ~right_build:(build r2 ~on) ~on

let merge_join r1 r2 ~on =
  let k1 = Array.of_list (List.map (col_index r1) on) in
  let k2 = Array.of_list (List.map (col_index r2) on) in
  let nk = Array.length k1 in
  let payload_idx =
    Array.to_list r2.cols
    |> List.mapi (fun i c -> i, c)
    |> List.filter (fun (_, c) -> not (List.mem c on))
  in
  let np = List.length payload_idx in
  let cols =
    Array.append r1.cols (Array.of_list (List.map snd payload_idx))
  in
  let payload =
    Array.of_list (List.map (fun (i, _) -> r2.columns.(i)) payload_idx)
  in
  (* sort row-index permutations of both sides by join key *)
  let key_cmp columns keys i j =
    let rec go c =
      if c >= nk then 0
      else
        let d = compare columns.(keys.(c)).(i) columns.(keys.(c)).(j) in
        if d <> 0 then d else go (c + 1)
    in
    go 0
  in
  let idx1 = Array.init r1.nrows Fun.id and idx2 = Array.init r2.nrows Fun.id in
  Array.sort (key_cmp r1.columns k1) idx1;
  Array.sort (key_cmp r2.columns k2) idx2;
  let cross_cmp i j =
    let rec go c =
      if c >= nk then 0
      else
        let d = compare r1.columns.(k1.(c)).(i) r2.columns.(k2.(c)).(j) in
        if d <> 0 then d else go (c + 1)
    in
    go 0
  in
  (* advance two cursors; on equal keys, emit the product of the two
     equal-key groups as (left row, right row) index pairs *)
  let li = Ibuf.create () and ri = Ibuf.create () in
  let n1 = Array.length idx1 and n2 = Array.length idx2 in
  let rec go i j =
    if i >= n1 || j >= n2 then ()
    else
      let c = cross_cmp idx1.(i) idx2.(j) in
      if c < 0 then go (i + 1) j
      else if c > 0 then go i (j + 1)
      else begin
        let rec group_end columns keys idx n at pos =
          if pos < n && key_cmp columns keys idx.(at) idx.(pos) = 0 then
            group_end columns keys idx n at (pos + 1)
          else pos
        in
        let i_end = group_end r1.columns k1 idx1 n1 i i in
        let j_end = group_end r2.columns k2 idx2 n2 j j in
        for a = i to i_end - 1 do
          for b = j to j_end - 1 do
            Ibuf.push li idx1.(a);
            Ibuf.push ri idx2.(b)
          done
        done;
        go i_end j_end
      end
  in
  go 0 0;
  let total = Ibuf.length li in
  let nl = arity r1 in
  let columns =
    Array.init (nl + np) (fun c ->
        if c < nl then
          Array.init total (fun o -> r1.columns.(c).(Ibuf.get li o))
        else Array.init total (fun o -> payload.(c - nl).(Ibuf.get ri o)))
  in
  { cols; columns; nrows = total }

let pp ppf r =
  Fmt.pf ppf "@[<v>%a (%d rows)@]"
    (Fmt.array ~sep:Fmt.comma Fmt.string)
    r.cols (cardinality r)
