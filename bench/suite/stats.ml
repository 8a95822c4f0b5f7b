(* Order statistics shared by the benchmark and the comparator. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in [0, 100]:
   the rule [Server.Loadgen] applies, so in-process and server
   latencies are read the same way. [0.] on an empty sample. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* The middle value (mean of the two middle values for an even count). *)
let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), the definition the acceptance
   rules are stated in. A single value is its own quartiles. *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld = 0 then nan, nan, nan
  else if ld = 1 then a.(0), a.(0), a.(0)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    q 1, q 2, q 3

let ratio num den = if den = 0. then 0. else num /. den
