(* Semijoin reducers for sideways information passing: a compact,
   immutable summary of the join-key values present on one side of a
   join, pushed into the other side's subtree so scans drop rows that
   cannot possibly survive the join. Two representations, chosen by
   the dictionary domain size: an exact bitvector over dictionary
   codes (small domains — membership is precise), and a Bloom filter
   (large domains — membership may report false positives, never
   false negatives, so pruning on [not (mem r v)] is always sound).

   Reducers are built once at plan-compile time and never mutated
   afterwards, which makes sharing one reducer across union arms safe
   without copies. *)

type repr =
  | Bitset of {
      bits : Bytes.t;
      domain : int;  (* codes are in [0, domain) *)
    }
  | Bloom of {
      bits : Bytes.t;
      mask : int;  (* bit count - 1; bit count is a power of two *)
    }

type t = {
  id : int;  (* process-unique, keys the executor's emptiness memo *)
  repr : repr;
  count : int;
      (* distinct keys for a bitset; insertions (an upper bound on
         distinct keys) for a Bloom filter *)
  key_min : int;  (* exact bounds of the inserted keys, tracked at *)
  key_max : int;  (* build time — sound for both representations *)
}

let next_id = Atomic.make 0

let id t = t.id

let key_count t = t.count

let is_empty t = t.count = 0

let kind_name t = match t.repr with Bitset _ -> "bitset" | Bloom _ -> "bloom"

(* Above this many dictionary codes the exact bitvector stops being
   compact (1M codes = 128 KB) and the Bloom filter takes over. *)
let bitset_max_domain = 1 lsl 20

let bit_get bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bits i =
  let j = i lsr 3 in
  Bytes.unsafe_set bits j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits j) lor (1 lsl (i land 7))))

(* A splitmix-style avalanche over the native int, masked positive.
   Two independent hash streams drive k = 3 double-hashed probes. *)
let mix v =
  let v = v lxor (v lsr 33) in
  let v = v * 0x9E3779B97F4A7C1 in
  let v = v lxor (v lsr 29) in
  let v = v * 0x85EBCA77C2B2AE3 in
  (v lxor (v lsr 32)) land max_int

let bloom_probes mask v =
  let h1 = mix v in
  let h2 = mix (v lxor 0x6A09E667F3BCC9) lor 1 in
  h1 land mask, (h1 + h2) land mask, (h1 + (2 * h2)) land mask

(* Bloom sizing: ~10 bits per expected key (false-positive rate under
   1% at k = 3), rounded up to a power of two so probes are masks. *)
let bloom_bit_count expected =
  let target = max 64 (10 * max 1 expected) in
  let rec pow2 n = if n >= target then n else pow2 (n * 2) in
  pow2 64

let next_id_value () = Atomic.fetch_and_add next_id 1

let make_bitset ~domain iter =
  let bits = Bytes.make ((max 1 domain + 7) lsr 3) '\000' in
  let distinct = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  iter (fun v ->
      if v >= 0 && v < domain then begin
        if v < !lo then lo := v;
        if v > !hi then hi := v;
        if not (bit_get bits v) then begin
          bit_set bits v;
          incr distinct
        end
      end);
  {
    id = next_id_value ();
    repr = Bitset { bits; domain };
    count = !distinct;
    key_min = !lo;
    key_max = !hi;
  }

let make_bloom ~count iter =
  let nbits = bloom_bit_count count in
  let mask = nbits - 1 in
  let bits = Bytes.make (nbits lsr 3) '\000' in
  let inserted = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  iter (fun v ->
      if v < !lo then lo := v;
      if v > !hi then hi := v;
      let p1, p2, p3 = bloom_probes mask v in
      bit_set bits p1;
      bit_set bits p2;
      bit_set bits p3;
      incr inserted);
  {
    id = next_id_value ();
    repr = Bloom { bits; mask };
    count = !inserted;
    key_min = !lo;
    key_max = !hi;
  }

(* [of_iter ~domain ~count iter] builds a reducer from a key producer:
   [iter f] must call [f] once per key (duplicates allowed); [count]
   is an upper bound on the number of calls, used for Bloom sizing. *)
let of_iter ~domain ~count iter =
  if domain <= bitset_max_domain then make_bitset ~domain iter
  else make_bloom ~count iter

let of_array ~domain keys =
  of_iter ~domain ~count:(Array.length keys) (fun f -> Array.iter f keys)

(* Forced representations, for the property tests. *)
let bitset_of_array ~domain keys = make_bitset ~domain (fun f -> Array.iter f keys)

let bloom_of_array keys =
  make_bloom ~count:(Array.length keys) (fun f -> Array.iter f keys)

let mem t v =
  match t.repr with
  | Bitset { bits; domain } -> v >= 0 && v < domain && bit_get bits v
  | Bloom { bits; mask } ->
    let p1, p2, p3 = bloom_probes mask v in
    bit_get bits p1 && bit_get bits p2 && bit_get bits p3

(* Early-exit intersection test against a stored column: the common
   case (the arm survives) usually exits within a few rows. *)
let intersects t values =
  let n = Array.length values in
  let rec go i = i < n && (mem t values.(i) || go (i + 1)) in
  not (is_empty t) && go 0

(* The exact [min, max] of the inserted keys: a membership-free
   necessary condition, so a scan can discard a whole storage segment
   whose zone map lies outside the range. Unlike [mem], the range is
   exact even for the Bloom representation — it is tracked from the
   actual insert stream, never from the filter bits. *)
let range t = if is_empty t then None else Some (t.key_min, t.key_max)

let overlaps_range t ~lo ~hi =
  match range t with
  | None -> false
  | Some (kmin, kmax) -> kmax >= lo && kmin <= hi
