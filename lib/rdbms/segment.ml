(* Frame-of-reference + bit-packing over an int64 Bigarray. The
   Bigarray (rather than Bytes or int array) is the load-bearing
   choice: Unix.map_file hands back exactly this type, so a segment
   decoded from disk is a zero-copy sub-slice of the mapping and the
   whole decode path below works unchanged on it. Codes are packed
   little-endian within and across words; a code never spans more
   than two words because widths are capped at 62 bits (OCaml ints). *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  base : int;
  bits : int;
  len : int;
  zmax : int;
  ndv : int;
  words : words;
}

let empty_words : words = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0

let width_for range =
  let rec go b = if range lsr b = 0 then b else go (b + 1) in
  if range = 0 then 0 else go 1

let words_for ~len ~bits = ((len * bits) + 63) / 64

let length t = t.len

let word_count t = Bigarray.Array1.dim t.words

(* 6 int64 metadata fields on disk; in memory the record + Bigarray
   header cost about the same, so one number serves both accountings. *)
let bytes t = (8 * word_count t) + 48

let exact_ndv a ~off ~len =
  let seen = Keytab.create ~expected:len 1 in
  for i = off to off + len - 1 do
    ignore (Keytab.intern1 seen a.(i))
  done;
  Keytab.length seen

let encode ?ndv a ~off ~len =
  if len = 0 then { base = 0; bits = 0; len = 0; zmax = 0; ndv = 0; words = empty_words }
  else begin
    let base = ref a.(off) and zmax = ref a.(off) in
    for i = off + 1 to off + len - 1 do
      let v = a.(i) in
      if v < !base then base := v;
      if v > !zmax then zmax := v
    done;
    let base = !base and zmax = !zmax in
    if base < 0 then invalid_arg "Segment.encode: negative value";
    let bits = width_for (zmax - base) in
    let ndv = match ndv with Some n -> n | None -> exact_ndv a ~off ~len in
    let nw = words_for ~len ~bits in
    let words = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout nw in
    Bigarray.Array1.fill words 0L;
    if bits > 0 then
      for i = 0 to len - 1 do
        let c = Int64.of_int (a.(off + i) - base) in
        let bitpos = i * bits in
        let w = bitpos lsr 6 and sh = bitpos land 63 in
        Bigarray.Array1.unsafe_set words w
          (Int64.logor (Bigarray.Array1.unsafe_get words w) (Int64.shift_left c sh));
        if sh + bits > 64 then
          Bigarray.Array1.unsafe_set words (w + 1)
            (Int64.logor
               (Bigarray.Array1.unsafe_get words (w + 1))
               (Int64.shift_right_logical c (64 - sh)))
      done;
    { base; bits; len; zmax; ndv; words }
  end

let of_words ~base ~bits ~len ~zmax ~ndv words =
  let nw = Bigarray.Array1.dim words in
  if len < 0 || bits < 0 || bits > 62 then Error "segment: invalid width or length"
  else if base < 0 || zmax < base then Error "segment: invalid zone map"
  else if ndv < 0 || ndv > len then Error "segment: invalid distinct count"
  else if bits = 0 && zmax <> base && len > 0 then
    Error "segment: zero-width run is not constant"
  else if zmax - base >= 1 lsl (max bits 1) && bits < 62 then
    Error "segment: zone range exceeds code width"
  else if nw <> words_for ~len ~bits then Error "segment: word count mismatch"
  else Ok { base; bits; len; zmax; ndv; words }

let mask bits = Int64.sub (Int64.shift_left 1L bits) 1L

let get t i =
  if t.bits = 0 then t.base
  else begin
    let bitpos = i * t.bits in
    let w = bitpos lsr 6 and sh = bitpos land 63 in
    let x = Int64.shift_right_logical (Bigarray.Array1.unsafe_get t.words w) sh in
    let x =
      if sh + t.bits > 64 then
        Int64.logor x
          (Int64.shift_left (Bigarray.Array1.unsafe_get t.words (w + 1)) (64 - sh))
      else x
    in
    t.base + Int64.to_int (Int64.logand x (mask t.bits))
  end

let decode_slice t ~off ~len =
  if len = 0 then [||]
  else if t.bits = 0 then Array.make len t.base
  else begin
    let out = Array.make len 0 in
    let bits = t.bits and base = t.base and words = t.words in
    let m = mask bits in
    let bitpos = ref (off * bits) in
    for i = 0 to len - 1 do
      let w = !bitpos lsr 6 and sh = !bitpos land 63 in
      let x = Int64.shift_right_logical (Bigarray.Array1.unsafe_get words w) sh in
      let x =
        if sh + bits > 64 then
          Int64.logor x
            (Int64.shift_left (Bigarray.Array1.unsafe_get words (w + 1)) (64 - sh))
        else x
      in
      Array.unsafe_set out i (base + Int64.to_int (Int64.logand x m));
      bitpos := !bitpos + bits
    done;
    out
  end

let decode t = decode_slice t ~off:0 ~len:t.len
