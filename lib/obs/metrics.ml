type counter = {
  c_name : string;
  c_help : string;
  value : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_help : string;
  gvalue : float Atomic.t;
}

type histogram = {
  h_name : string;
  h_help : string;
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int Atomic.t array;  (* one per bound + overflow *)
  total : int Atomic.t;
  sum : float Atomic.t;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

(* The registry: a name-keyed table behind a mutex. Only registration
   and export take the lock; recording into an instrument is
   lock-free. *)
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register name make classify =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing -> (
        match classify existing with
        | Some i -> i
        | None ->
          Fmt.invalid_arg "Metrics: %s is already registered as a %s" name
            (kind_name existing))
      | None ->
        let i = make () in
        Hashtbl.replace registry name i;
        (match classify i with Some x -> x | None -> assert false))

let counter ?(help = "") name =
  register name
    (fun () -> Counter { c_name = name; c_help = help; value = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let gauge ?(help = "") name =
  register name
    (fun () -> Gauge { g_name = name; g_help = help; gvalue = Atomic.make 0. })
    (function Gauge g -> Some g | _ -> None)

let default_latency_buckets_ms =
  [ 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.;
    2500.; 5000.; 10000. ]

let histogram ?(help = "") ?(buckets = default_latency_buckets_ms) name =
  let bounds = Array.of_list buckets in
  let ok = ref (Array.length bounds > 0) in
  Array.iteri (fun i b -> if i > 0 && b <= bounds.(i - 1) then ok := false) bounds;
  if not !ok then
    Fmt.invalid_arg "Metrics.histogram %s: buckets must be strictly increasing" name;
  register name
    (fun () ->
      Histogram
        {
          h_name = name;
          h_help = help;
          bounds;
          counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          total = Atomic.make 0;
          sum = Atomic.make 0.;
        })
    (function Histogram h -> Some h | _ -> None)

let incr c = Atomic.incr c.value

let add c n =
  if n < 0 then Fmt.invalid_arg "Metrics.add %s: negative delta %d" c.c_name n;
  ignore (Atomic.fetch_and_add c.value n)

let set g v = Atomic.set g.gvalue v

(* Float accumulation via CAS retry (Atomic has no fetch-and-add for
   floats). Contention is negligible: one retry loop per observation. *)
let rec atomic_add_float a v =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. v)) then atomic_add_float a v

let bucket_index h v =
  let n = Array.length h.bounds in
  let rec find i = if i >= n then n else if v <= h.bounds.(i) then i else find (i + 1) in
  find 0

let observe h v =
  Atomic.incr h.counts.(bucket_index h v);
  Atomic.incr h.total;
  atomic_add_float h.sum v

let time h f =
  let t0 = Mclock.now_ns () in
  let finally () = observe h (Mclock.ns_to_ms (Mclock.elapsed_ns ~since:t0)) in
  match f () with
  | v ->
    finally ();
    v
  | exception e ->
    finally ();
    raise e

let counter_value c = Atomic.get c.value

let gauge_value g = Atomic.get g.gvalue

let histogram_count h = Atomic.get h.total

let histogram_sum h = Atomic.get h.sum

let histogram_buckets h =
  List.init
    (Array.length h.counts)
    (fun i ->
      let le = if i < Array.length h.bounds then h.bounds.(i) else infinity in
      le, Atomic.get h.counts.(i))

let find_counter name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> Some c
      | _ -> None)

let find_histogram name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Histogram h) -> Some h
      | _ -> None)

(* {2 Export} *)

let sorted_instruments () =
  let all = locked (fun () -> Hashtbl.fold (fun _ i acc -> i :: acc) registry []) in
  let name = function
    | Counter c -> c.c_name
    | Gauge g -> g.g_name
    | Histogram h -> h.h_name
  in
  List.sort (fun a b -> String.compare (name a) (name b)) all

(* JSON floats: %.17g round-trips any double; normalise the values JSON
   cannot represent. *)
let json_float v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s = Printf.sprintf "%S" s

let to_json () =
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) -> function
        | Counter c ->
          ( Printf.sprintf "{\"name\":%s,\"help\":%s,\"value\":%d}"
              (json_string c.c_name) (json_string c.c_help) (counter_value c)
            :: cs,
            gs, hs )
        | Gauge g ->
          ( cs,
            Printf.sprintf "{\"name\":%s,\"help\":%s,\"value\":%s}"
              (json_string g.g_name) (json_string g.g_help)
              (json_float (gauge_value g))
            :: gs,
            hs )
        | Histogram h ->
          let buckets =
            List.map
              (fun (le, n) ->
                let le_j =
                  if le = infinity then "\"+inf\"" else json_float le
                in
                Printf.sprintf "{\"le\":%s,\"count\":%d}" le_j n)
              (histogram_buckets h)
          in
          ( cs, gs,
            Printf.sprintf
              "{\"name\":%s,\"help\":%s,\"count\":%d,\"sum\":%s,\"buckets\":[%s]}"
              (json_string h.h_name) (json_string h.h_help) (histogram_count h)
              (json_float (histogram_sum h))
              (String.concat "," buckets)
            :: hs ))
      ([], [], []) (sorted_instruments ())
  in
  Printf.sprintf "{\"counters\":[%s],\"gauges\":[%s],\"histograms\":[%s]}"
    (String.concat "," (List.rev counters))
    (String.concat "," (List.rev gauges))
    (String.concat "," (List.rev histograms))

(* An approximate quantile from the bucket counts: the upper bound of
   the bucket holding the q-th observation. *)
let quantile h q =
  let total = histogram_count h in
  if total = 0 then nan
  else begin
    let target = int_of_float (Float.of_int total *. q) + 1 in
    let rec walk i acc =
      if i >= Array.length h.counts then infinity
      else
        let acc = acc + Atomic.get h.counts.(i) in
        if acc >= target then
          if i < Array.length h.bounds then h.bounds.(i) else infinity
        else walk (i + 1) acc
    in
    walk 0 0
  end

let to_text () =
  let buf = Buffer.create 1024 in
  List.iter
    (function
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%-42s %12d\n" c.c_name (counter_value c))
      | Gauge g ->
        Buffer.add_string buf (Printf.sprintf "%-42s %12.2f\n" g.g_name (gauge_value g))
      | Histogram h ->
        let n = histogram_count h in
        let mean = if n = 0 then 0. else histogram_sum h /. float_of_int n in
        Buffer.add_string buf
          (Printf.sprintf "%-42s %12d  sum %.1f  mean %.2f  p50<=%.2f  p95<=%.2f\n"
             h.h_name n (histogram_sum h) mean (quantile h 0.5) (quantile h 0.95)))
    (sorted_instruments ());
  Buffer.contents buf

let reset () =
  List.iter
    (function
      | Counter c -> Atomic.set c.value 0
      | Gauge g -> Atomic.set g.gvalue 0.
      | Histogram h ->
        Array.iter (fun a -> Atomic.set a 0) h.counts;
        Atomic.set h.total 0;
        Atomic.set h.sum 0.)
    (sorted_instruments ())
