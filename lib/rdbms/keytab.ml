(* Open addressing with linear probing over packed int tuples. Tuple
   [k] occupies [keys.(k * arity) .. keys.(k * arity + arity - 1)];
   [slots] holds tuple ids ([-1] = empty) and is kept at most half
   full, so a probe run is short. The slot of a key is the top bits of
   a multiplicative (Fibonacci) hash, which spreads dense runs of
   dictionary codes and strided ones alike. *)

type t = {
  arity : int;
  mutable keys : int array;
  mutable count : int;
  mutable slots : int array;
  mutable shift : int;  (* Sys.int_size - log2 (Array.length slots) *)
}

let golden = 0x278DDE6E5FD29E35

let empty = -1

let rec log2_at_least n b = if 1 lsl b >= n then b else log2_at_least n (b + 1)

let create ?(expected = 8) arity =
  if arity < 0 then invalid_arg "Keytab.create: negative arity";
  let bits = log2_at_least (2 * max 8 expected) 4 in
  {
    arity;
    keys = Array.make (max 1 (arity * max 8 expected)) 0;
    count = 0;
    slots = Array.make (1 lsl bits) empty;
    shift = Sys.int_size - bits;
  }

let length t = t.count

let arity t = t.arity

let key t id c = t.keys.((id * t.arity) + c)

let slot1 t v = (v * golden) lsr t.shift

(* The tuple hash folds each component in before the final multiply,
   so a stored tuple and the same tuple read out of caller columns
   hash alike. *)
let hash_stored t id =
  let h = ref 0 and base = id * t.arity in
  for c = 0 to t.arity - 1 do
    h := (!h + t.keys.(base + c)) * golden
  done;
  !h

let hash_row cols idx r =
  let h = ref 0 in
  for c = 0 to Array.length idx - 1 do
    h := (!h + cols.(idx.(c)).(r)) * golden
  done;
  !h

let slot_of_hash t h = (h * golden) lsr t.shift

let grow t =
  let bits = Sys.int_size - t.shift + 1 in
  let slots = Array.make (1 lsl bits) empty in
  t.slots <- slots;
  t.shift <- Sys.int_size - bits;
  let mask = Array.length slots - 1 in
  for id = 0 to t.count - 1 do
    let h = if t.arity = 1 then t.keys.(id) * golden else hash_stored t id * golden in
    let s = ref (h lsr t.shift) in
    while slots.(!s) <> empty do
      s := (!s + 1) land mask
    done;
    slots.(!s) <- id
  done

(* Room for one more tuple: returns the offset it is written at. *)
let reserve t =
  let a = t.arity and o = t.count * t.arity in
  if o + a > Array.length t.keys then begin
    let keys = Array.make (2 * max a (Array.length t.keys)) 0 in
    Array.blit t.keys 0 keys 0 o;
    t.keys <- keys
  end;
  o

(* Commits the tuple just written at [reserve]'s offset into the free
   slot [s] the probe stopped at (or rehashes, which places it too). *)
let commit t s =
  let id = t.count in
  t.count <- id + 1;
  if 2 * t.count > Array.length t.slots then grow t else t.slots.(s) <- id;
  id

(* The probe loops run on local refs, not local recursive functions:
   a closure capturing the key would be allocated on every call. *)

(* {1 Single-column keys} *)

(* The slot holding [v], or the empty slot where it would go. *)
let slot_of1 t v =
  let slots = t.slots and keys = t.keys in
  let mask = Array.length slots - 1 in
  let s = ref (slot1 t v) in
  while
    let id = Array.unsafe_get slots !s in
    id <> empty && Array.unsafe_get keys id <> v
  do
    s := (!s + 1) land mask
  done;
  !s

let find1 t v = Array.unsafe_get t.slots (slot_of1 t v)

let intern1 t v =
  let s = slot_of1 t v in
  let id = Array.unsafe_get t.slots s in
  if id <> empty then id
  else begin
    t.keys.(reserve t) <- v;
    commit t s
  end

(* {1 Tuple keys read out of column arrays} *)

let row_equal t id cols idx r =
  let base = id * t.arity and c = ref 0 in
  while !c < t.arity && t.keys.(base + !c) = cols.(idx.(!c)).(r) do
    incr c
  done;
  !c = t.arity

let slot_of t cols idx r =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let s = ref (slot_of_hash t (hash_row cols idx r)) in
  while
    let id = slots.(!s) in
    id <> empty && not (row_equal t id cols idx r)
  do
    s := (!s + 1) land mask
  done;
  !s

let find t cols idx r =
  if t.arity = 1 then find1 t cols.(idx.(0)).(r) else t.slots.(slot_of t cols idx r)

let intern t cols idx r =
  if t.arity = 1 then intern1 t cols.(idx.(0)).(r)
  else begin
    let s = slot_of t cols idx r in
    let id = t.slots.(s) in
    if id <> empty then id
    else begin
      let o = reserve t in
      for c = 0 to t.arity - 1 do
        t.keys.(o + c) <- cols.(idx.(c)).(r)
      done;
      commit t s
    end
  end
