let default_size = 1024

type t = {
  cols : string array;
  data : int array array;
  sel : int array option;
  off : int;
  len : int;
}

let length b = b.len

let index b i = match b.sel with None -> b.off + i | Some s -> s.(i)

let get b c i = b.data.(c).(index b i)

let of_relation ?(off = 0) ?len (r : Relation.t) =
  let len = Option.value ~default:(r.Relation.nrows - off) len in
  { cols = r.Relation.cols; data = r.Relation.columns; sel = None; off; len }

(* [idxs] are positions within [b]; composing through [index] keeps
   the stored selection vector absolute, so selections stack without
   copying column data. *)
let select_n b n pos =
  { b with sel = Some (Array.init n (fun i -> index b (pos i))); off = 0; len = n }

let select b idxs = select_n b (Array.length idxs) (Array.get idxs)

let select_buf b buf = select_n b (Ibuf.length buf) (Ibuf.get buf)

let rename b cols = { b with cols }

(* Column permutation without touching row data: projection with no
   constant outputs is free. *)
let map_cols b ~cols ~idxs =
  { b with cols; data = Array.map (fun i -> b.data.(i)) idxs }

(* Whether the batch is exactly its backing store: no selection, no
   offset, full column length. Such a batch converts to a relation
   with zero copying. *)
let is_whole b =
  b.sel = None && b.off = 0
  && (Array.length b.data = 0 || Array.length b.data.(0) = b.len)

let compact b =
  if is_whole b then b
  else
    {
      cols = b.cols;
      data =
        Array.map (fun col -> Array.init b.len (fun i -> col.(index b i))) b.data;
      sel = None;
      off = 0;
      len = b.len;
    }

let to_relation b =
  let c = compact b in
  { Relation.cols = c.cols; columns = c.data; nrows = c.len }
