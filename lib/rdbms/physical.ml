(* Pipelined physical operators: each operator is an open iterator
   (the [op] record is the opened state) whose [next] yields column
   batches until [None]. Scan->index-join->project chains pipeline
   batch-at-a-time without materialising intermediates; the pipeline
   breakers (hash-join builds, merge-join sorts, Materialize) live in
   {!Exec}, which composes these operators with the cache policy. *)

type op = {
  cols : string array;
  next : unit -> Batch.t option;
  close : unit -> unit;
}

let no_close = ignore

let col_index cols name =
  let rec go i =
    if i >= Array.length cols then raise Not_found
    else if String.equal cols.(i) name then i
    else go (i + 1)
  in
  go 0

(* {2 Sources and sinks} *)

let of_relation ?(batch_size = Batch.default_size) (r : Relation.t) =
  let pos = ref 0 in
  let next () =
    if !pos >= r.Relation.nrows then None
    else begin
      let len = min batch_size (r.Relation.nrows - !pos) in
      let b = Batch.of_relation ~off:!pos ~len r in
      pos := !pos + len;
      Some b
    end
  in
  { cols = r.Relation.cols; next; close = no_close }

(* Segment-at-a-time scan over compressed columns. Batches are
   zero-copy windows: over [decoded] (the stores' full decoded columns,
   when the caller already holds them — nothing is decoded at all),
   else over one decode of the current segment per column, made when
   the scan enters the segment. [skip] consults the zone maps {e
   before} any decoding — a skipped segment costs one predicate call,
   its rows are never unpacked. The stores must be segment-aligned
   (same [segment_rows], same length), which {!Storage} guarantees for
   a role's two columns. [tail] streams a table's pending delta rows
   (column arrays parallel to [stores]) as one final pseudo-segment,
   windowed in place: [skip] is consulted for it at index
   [seg_count], so reducers can range-test the tail the same way they
   zone-test real segments. *)
let segments_scan ?(batch_size = Batch.default_size) ?decoded ?(tail = [||]) ~cols
    ~skip stores =
  let nsegs =
    if Array.length stores = 0 then 0 else Colstore.seg_count stores.(0)
  in
  let tail_len = if Array.length tail = 0 then 0 else Array.length tail.(0) in
  let units = nsegs + if tail_len > 0 then 1 else 0 in
  (* unit [i]'s rows, as column arrays and the offset they start at *)
  let unit_data i =
    if i >= nsegs then tail, 0
    else
      match decoded with
      | Some full -> full, i * Colstore.segment_rows stores.(0)
      | None -> Array.map (fun st -> Segment.decode (Colstore.seg st i)) stores, 0
  in
  let unit_len i =
    if i < nsegs then Segment.length (Colstore.seg stores.(0) i) else tail_len
  in
  let si = ref 0 and off = ref 0 and data = ref [||] and base = ref 0 in
  let rec next () =
    if !si >= units then None
    else begin
      let seg_len = unit_len !si in
      if !off = 0 && skip !si then begin
        Colstore.note_segment ~skipped:true;
        incr si;
        next ()
      end
      else begin
        if !off = 0 then begin
          Colstore.note_segment ~skipped:false;
          let d, b = unit_data !si in
          data := d;
          base := b
        end;
        let len = min batch_size (seg_len - !off) in
        let b = { Batch.cols; data = !data; sel = None; off = !base + !off; len } in
        off := !off + len;
        if !off >= seg_len then begin
          incr si;
          off := 0
        end;
        Some b
      end
    end
  in
  { cols; next; close = no_close }

(* Draining sink. When the batches are contiguous windows that tile
   the same backing columns from row 0 to their end — a scan of a
   materialised relation or of decoded segments, renamed, projected or
   passed through a union — the relation adopts those columns with no
   copy. Otherwise the exact output size is known after the drain, so
   each column is filled once into an exactly-sized array. *)
let tiles columns total rev_batches =
  (Array.length columns = 0 || Array.length columns.(0) = total)
  && List.for_all
       (fun b ->
         Option.is_none b.Batch.sel
         && Array.length b.Batch.data = Array.length columns
         && Array.for_all2 ( == ) b.Batch.data columns)
       rev_batches
  && List.fold_left
       (fun stop b -> if b.Batch.off + b.Batch.len = stop then b.Batch.off else -1)
       total rev_batches
     = 0

let to_relation op =
  let batches = ref [] and total = ref 0 in
  let rec drain () =
    match op.next () with
    | None -> ()
    | Some b ->
      if Batch.length b > 0 then begin
        batches := b :: !batches;
        total := !total + Batch.length b
      end;
      drain ()
  in
  drain ();
  op.close ();
  let a = Array.length op.cols in
  match !batches with
  | [] -> { Relation.cols = op.cols; columns = Array.init a (fun _ -> [||]); nrows = 0 }
  | newest :: _ as rev_batches when tiles newest.Batch.data !total rev_batches ->
    { Relation.cols = op.cols; columns = newest.Batch.data; nrows = !total }
  | rev_batches ->
    let columns = Array.init a (fun _ -> Array.make !total 0) in
    let fill off b =
      match b.Batch.sel with
      | None ->
        for c = 0 to a - 1 do
          Array.blit b.Batch.data.(c) b.Batch.off columns.(c) off b.Batch.len
        done
      | Some s ->
        for c = 0 to a - 1 do
          let src = b.Batch.data.(c) and dst = columns.(c) in
          for i = 0 to b.Batch.len - 1 do
            dst.(off + i) <- src.(s.(i))
          done
        done
    in
    (* the batch list is newest-first: fill back-to-front *)
    let rec back_fill off = function
      | [] -> ()
      | b :: rest ->
        let off = off - Batch.length b in
        fill off b;
        back_fill off rest
    in
    back_fill !total rev_batches;
    { Relation.cols = op.cols; columns; nrows = !total }

(* {2 Pipelined operators} *)

(* Absolute-row-index resolver with the selection-vector match hoisted
   out of the per-row loops: operator inner loops pay one closure call
   per row instead of a variant match per cell. *)
let idx_fun b =
  match b.Batch.sel with
  | None ->
    let off = b.Batch.off in
    fun i -> off + i
  | Some s -> fun i -> s.(i)

let project op out =
  let resolve = col_index op.cols in
  let _, rev =
    List.fold_left
      (fun (ci, acc) spec ->
        match spec with
        | `Col name -> ci, (name, `Idx (resolve name)) :: acc
        | `Const v -> ci + 1, ("_const" ^ string_of_int ci, `Val v) :: acc)
      (0, []) out
  in
  let spec = Array.of_list (List.rev rev) in
  let cols = Array.map fst spec in
  let consts =
    Array.exists (fun (_, s) -> match s with `Val _ -> true | `Idx _ -> false) spec
  in
  if not consts then begin
    let idxs = Array.map (fun (_, s) -> match s with `Idx i -> i | `Val _ -> assert false) spec in
    let next () = Option.map (fun b -> Batch.map_cols b ~cols ~idxs) (op.next ()) in
    { cols; next; close = op.close }
  end
  else begin
    let next () =
      Option.map
        (fun b ->
          let n = Batch.length b in
          let abs = idx_fun b in
          let data =
            Array.map
              (fun (_, s) ->
                match s with
                | `Idx i ->
                  let src = b.Batch.data.(i) in
                  Array.init n (fun j -> src.(abs j))
                | `Val v -> Array.make n v)
              spec
          in
          { Batch.cols; data; sel = None; off = 0; len = n })
        (op.next ())
    in
    { cols; next; close = op.close }
  end

(* The filter shape shared by distinct, the SIP filter and the index
   join's filters: [fill b keep] pushes the window positions of [b]
   that survive into [keep], a scratch buffer reused across batches.
   A batch that loses no row passes through untouched, one that loses
   every row is skipped, and any other becomes a selection vector over
   the same columns. *)
let filtered op fill =
  let keep = Ibuf.create () in
  let rec next () =
    match op.next () with
    | None -> None
    | Some b ->
      Ibuf.clear keep;
      fill b keep;
      let kept = Ibuf.length keep in
      if kept = 0 then next ()
      else if kept = Batch.length b then Some b
      else Some (Batch.select_buf b keep)
  in
  { cols = op.cols; next; close = op.close }

(* Incremental distinct: a packed seen-set ({!Keytab}) persists across
   batches and keeps each batch's first-occurrence rows. Never
   materialises the input, and allocates nothing per row. *)
let distinct op =
  let a = Array.length op.cols in
  let seen = Keytab.create a in
  let all = Array.init a Fun.id in
  filtered op (fun b keep ->
      let abs = idx_fun b in
      if a = 1 then begin
        (* the common shape at the root of a reformulated union *)
        let src = b.Batch.data.(0) in
        for i = 0 to Batch.length b - 1 do
          let fresh = Keytab.length seen in
          if Keytab.intern1 seen src.(abs i) = fresh then Ibuf.push keep i
        done
      end
      else
        for i = 0 to Batch.length b - 1 do
          let fresh = Keytab.length seen in
          if Keytab.intern seen b.Batch.data all (abs i) = fresh then Ibuf.push keep i
        done)

(* Sideways-information-passing filter: drops the rows whose value in
   [col] cannot be in the reducer. Selection-vector based (zero-copy,
   same shape as the filters of {!index_join} and {!distinct});
   [tally] observes the number of pruned rows per batch, feeding the
   sip metrics and the per-node EXPLAIN ANALYZE counters. *)
let sip_filter op ~col ~reducer ~tally =
  let c_idx = col_index op.cols col in
  filtered op (fun b keep ->
      let n = Batch.length b in
      let abs = idx_fun b in
      let src = b.Batch.data.(c_idx) in
      for i = 0 to n - 1 do
        if Sip.mem reducer src.(abs i) then Ibuf.push keep i
      done;
      if Ibuf.length keep < n then tally (n - Ibuf.length keep))

(* Sequential concatenation whose arms open lazily: arm i+1's pipeline
   (and any compile-time materialisation inside it — build tables,
   merge sorts, scan extractions) is not constructed until arm i is
   exhausted. A reformulated union has hundreds of arms; opening them
   all up front keeps every arm's intermediates live at once, which
   promotes them wholesale to the major heap. Arities are validated as
   each arm opens, with the same message as {!Relation.union_all}. *)
let union_delayed ~cols arms =
  let a = List.length cols in
  let cols_arr = Array.of_list cols in
  let check op =
    if Array.length op.cols <> a then
      invalid_arg
        (Printf.sprintf
           "Physical.union: arity mismatch: expected %d columns [%s], got [%s]"
           a (String.concat "," cols)
           (String.concat "," (Array.to_list op.cols)));
    op
  in
  let current = ref None and rem = ref arms in
  let rec next () =
    match !current with
    | Some op -> (
      match op.next () with
      | Some b -> Some (Batch.rename b cols_arr)
      | None ->
        op.close ();
        current := None;
        next ())
    | None -> (
      match !rem with
      | [] -> None
      | mk :: rest ->
        rem := rest;
        current := Some (check (mk ()));
        next ())
  in
  let close () =
    (match !current with Some op -> op.close () | None -> ());
    current := None;
    rem := []
  in
  { cols = cols_arr; next; close }

(* Eager variant over already-opened arms (the EXPLAIN ANALYZE path):
   arity is validated up front, all offenders named. *)
let union ~cols ops =
  let a = List.length cols in
  let offending =
    List.filter (fun op -> Array.length op.cols <> a) ops
    |> List.map (fun op ->
           Printf.sprintf "[%s]" (String.concat "," (Array.to_list op.cols)))
  in
  if offending <> [] then
    invalid_arg
      (Printf.sprintf
         "Physical.union: arity mismatch: expected %d columns [%s], got %s" a
         (String.concat "," cols)
         (String.concat " and " offending));
  union_delayed ~cols (List.map (fun op () -> op) ops)

(* Batch-at-a-time hash probe against a prebuilt table
   ({!Relation.build_table}): one packed-table lookup per input row;
   the matched (left absolute row, build row) pairs accumulate in
   growable int buffers, then each output column is gathered in one
   pass from the batch and the build side's aliased payload columns.
   [rename] maps the build side's canonical payload names ($i) to
   actual variables. *)
let gather src idx n =
  let out = Array.make n 0 in
  for o = 0 to n - 1 do
    Array.unsafe_set out o src.(Ibuf.get idx o)
  done;
  out

let probe ?(rename = fun c -> c) left ~build ~on =
  let b = (build : Relation.build_table) in
  let key_idx = Array.of_list (List.map (col_index left.cols) on) in
  let nl = Array.length left.cols in
  let np = Array.length b.Relation.payload in
  let cols = Array.append left.cols (Array.map rename b.Relation.payload_cols) in
  if Relation.group_count b = 0 then begin
    (* an empty build side matches nothing: never drain the probe
       subtree, close it on first pull *)
    let closed = ref false in
    let close () =
      if not !closed then begin
        closed := true;
        left.close ()
      end
    in
    let next () =
      close ();
      None
    in
    { cols; next; close }
  end
  else
  let keys = b.Relation.keys in
  let li = Ibuf.create () and bi = Ibuf.create () in
  let rec next () =
    match left.next () with
    | None -> None
    | Some batch ->
      let n = Batch.length batch in
      let abs = idx_fun batch in
      let data = batch.Batch.data in
      Ibuf.clear li;
      Ibuf.clear bi;
      (match b.Relation.groups with
      | Relation.Unique ->
        for i = 0 to n - 1 do
          let ai = abs i in
          let g = Keytab.find keys data key_idx ai in
          if g >= 0 then begin
            Ibuf.push li ai;
            Ibuf.push bi g
          end
        done
      | Relation.Grouped { starts; rows } ->
        for i = 0 to n - 1 do
          let ai = abs i in
          let g = Keytab.find keys data key_idx ai in
          if g >= 0 then
            for k = starts.(g) to starts.(g + 1) - 1 do
              Ibuf.push li ai;
              Ibuf.push bi rows.(k)
            done
        done);
      let total = Ibuf.length li in
      if total = 0 then next ()
      else begin
        let out = Array.make (nl + np) [||] in
        for c = 0 to nl - 1 do
          out.(c) <- gather data.(c) li total
        done;
        for c = 0 to np - 1 do
          out.(nl + c) <- gather b.Relation.payload.(c) bi total
        done;
        Some { Batch.cols; data = out; sel = None; off = 0; len = total }
      end
  in
  { cols; next; close = left.close }

let hash_join left right ~on = probe left ~build:(Relation.build right ~on) ~on

(* Index nested loop over a role atom, batch-at-a-time: every row of
   the left batch probes the role index on [probe_col]'s side, whose
   [lookup] yields the codes on the opposite side, sorted; the opposite term
   either filters the row (constant / bound variable / self-loop) or
   extends it with the matched codes (fresh variable), dropping — and
   tallying — the codes [keep] rejects before they are expanded.
   Filters emit selection vectors; extension emits compact batches. *)
(* Membership in a sorted bucket: binary search, since a bucket is
   every member of a class or department for roles like [memberOf]. *)
let mem_sorted v a =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid < v then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && Array.unsafe_get a !lo = v

let index_join ?keep ~lookup ~dict_find left atom probe_col =
  let p_idx = col_index left.cols probe_col in
  let other_term =
    match (atom : Query.Atom.t) with
    | Query.Atom.Ra (_, Query.Term.Var v, other) when v = probe_col -> other
    | Query.Atom.Ra (_, other, Query.Term.Var v) when v = probe_col -> other
    | _ ->
      Fmt.invalid_arg "Index_join: %s does not bind %a" probe_col Query.Atom.pp
        atom
  in
  let filter keep_row =
    filtered left (fun b keep ->
        for i = 0 to Batch.length b - 1 do
          if keep_row b i then Ibuf.push keep i
        done)
  in
  match other_term with
  | Query.Term.Cst k -> (
    match dict_find k with
    | None -> filter (fun _ _ -> false)
    | Some c -> filter (fun b i -> mem_sorted c (lookup (Batch.get b p_idx i))))
  | Query.Term.Var w when w = probe_col ->
    (* self loop R(x,x) *)
    filter (fun b i ->
        let v = Batch.get b p_idx i in
        mem_sorted v (lookup v))
  | Query.Term.Var w when Array.exists (String.equal w) left.cols ->
    let w_idx = col_index left.cols w in
    filter (fun b i -> mem_sorted (Batch.get b w_idx i) (lookup (Batch.get b p_idx i)))
  | Query.Term.Var w ->
    let cols = Array.append left.cols [| w |] in
    let nl = Array.length left.cols in
    (* absolute left row index per match, plus the new column *)
    let rows = Ibuf.create () and vals = Ibuf.create () in
    let rec next () =
      match left.next () with
      | None -> None
      | Some b ->
        let n = Batch.length b in
        let abs = idx_fun b in
        let src = b.Batch.data in
        let probe_src = src.(p_idx) in
        Ibuf.clear rows;
        Ibuf.clear vals;
        (match keep with
        | None ->
          for i = 0 to n - 1 do
            let ai = abs i in
            let others = lookup probe_src.(ai) in
            for k = 0 to Array.length others - 1 do
              Ibuf.push rows ai;
              Ibuf.push vals others.(k)
            done
          done
        | Some (keep, tally) ->
          let dropped = ref 0 in
          for i = 0 to n - 1 do
            let ai = abs i in
            let others = lookup probe_src.(ai) in
            for k = 0 to Array.length others - 1 do
              if keep others.(k) then begin
                Ibuf.push rows ai;
                Ibuf.push vals others.(k)
              end
              else incr dropped
            done
          done;
          if !dropped > 0 then tally !dropped);
        let total = Ibuf.length rows in
        if total = 0 then next ()
        else begin
          let data =
            Array.init (nl + 1) (fun c ->
                if c < nl then gather src.(c) rows total else Ibuf.to_array vals)
          in
          Some { Batch.cols; data; sel = None; off = 0; len = total }
        end
    in
    { cols; next; close = left.close }
