(* Frame-of-reference + bit-packing into little-endian 64-bit words.
   Codes are packed little-endian within and across words; a code
   never spans more than two words because widths are capped at 62
   bits (OCaml ints). *)

type t = {
  base : int;
  bits : int;
  len : int;
  zmax : int;
}

let width_for range =
  let rec go b = if range lsr b = 0 then b else go (b + 1) in
  if range = 0 then 0 else go 1

let word_count t = ((t.len * t.bits) + 63) / 64

let bytes t = (8 * word_count t) + 48

let frame a ~off ~len =
  if len = 0 then { base = 0; bits = 0; len = 0; zmax = 0 }
  else begin
    let base = ref a.(off) and zmax = ref a.(off) in
    for i = off + 1 to off + len - 1 do
      let v = a.(i) in
      if v < !base then base := v;
      if v > !zmax then zmax := v
    done;
    let base = !base and zmax = !zmax in
    if base < 0 then invalid_arg "Segment.frame: negative value";
    { base; bits = width_for (zmax - base); len; zmax }
  end

let of_fields ~base ~bits ~len ~zmax =
  if len < 0 || bits < 0 || bits > 62 then Error "segment: invalid width or length"
  else if len > (max_int - 63) / max 1 bits then Error "segment: length overflows"
  else if base < 0 || zmax < base then Error "segment: invalid value range"
  else if bits = 0 && zmax <> base && len > 0 then
    Error "segment: zero-width run is not constant"
  else if zmax - base >= 1 lsl (max bits 1) && bits < 62 then
    Error "segment: value range exceeds code width"
  else Ok { base; bits; len; zmax }

let mask bits = Int64.sub (Int64.shift_left 1L bits) 1L

let pack t a ~off =
  let words = Bytes.make (8 * word_count t) '\000' in
  let get w = Bytes.get_int64_le words (8 * w) in
  let set w v = Bytes.set_int64_le words (8 * w) v in
  if t.bits > 0 then
    for i = 0 to t.len - 1 do
      let c = Int64.of_int (a.(off + i) - t.base) in
      let bitpos = i * t.bits in
      let w = bitpos lsr 6 and sh = bitpos land 63 in
      set w (Int64.logor (get w) (Int64.shift_left c sh));
      if sh + t.bits > 64 then
        set (w + 1) (Int64.logor (get (w + 1)) (Int64.shift_right_logical c (64 - sh)))
    done;
  words

let unpack t words dst ~at =
  if t.bits = 0 then Array.fill dst at t.len t.base
  else begin
    let bits = t.bits and base = t.base in
    let m = mask bits in
    let get w = Bytes.get_int64_le words (8 * w) in
    let bitpos = ref 0 in
    for i = 0 to t.len - 1 do
      let w = !bitpos lsr 6 and sh = !bitpos land 63 in
      let x = Int64.shift_right_logical (get w) sh in
      let x = if sh + bits > 64 then Int64.logor x (Int64.shift_left (get (w + 1)) (64 - sh)) else x in
      dst.(at + i) <- base + Int64.to_int (Int64.logand x m);
      bitpos := !bitpos + bits
    done
  end
