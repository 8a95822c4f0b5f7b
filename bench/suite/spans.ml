(* The traced run's span log. A span is one call into a layer: the
   request it belongs to, its name, the span that caused it, start and
   end on the monotonic clock, and the minor-heap words allocated
   while it was open. Spans stay in memory until the run ends, so
   recording one costs a small allocation and two clock reads, and
   nothing is written while the clock runs. *)

type span = {
  id : int;
  req : int;
  name : string;
  parent : int;  (* -1 for a request's root span *)
  mutable start_ns : int;
  mutable stop_ns : int;
  mutable words : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
}

let create () = { spans = []; next_id = 0 }

let clear t =
  t.spans <- [];
  t.next_id <- 0

let now () = Int64.to_int (Obs.Mclock.now_ns ())

let enter t ~req ~parent name =
  let s = { id = t.next_id; req; name; parent; start_ns = 0; stop_ns = 0; words = 0. } in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  (* [words] holds the start reading until [leave] turns it into a delta *)
  s.words <- Gc.minor_words ();
  s.start_ns <- now ();
  s

let leave s =
  s.stop_ns <- now ();
  s.words <- Gc.minor_words () -. s.words

let span t ~req ~parent name f =
  let s = enter t ~req ~parent name in
  match f () with
  | v ->
    leave s;
    v
  | exception e ->
    leave s;
    raise e

let all t = Array.of_list (List.rev t.spans)

let duration_ms s = float_of_int (s.stop_ns - s.start_ns) /. 1e6

(* A span's self time: its duration minus the time its child spans
   cover (children of one span never overlap: the pipeline is
   sequential). Indexed by span id, which is the span's position in
   [all t]. *)
let self_ms spans =
  let self = Array.map duration_ms spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration_ms s)
    spans;
  self

type stage = {
  self_ms_p50 : float;  (* over the requests that entered the stage *)
  share : float;  (* of all root-span time *)
  minor_words : float;  (* per call *)
}

(* Per-stage summary of every non-root span name, plus the summed
   root-span time and the sum of all stage self times. *)
let summarise t =
  let spans = all t in
  let self = self_ms spans in
  let root_ms = ref 0. and stage_ms = ref 0. in
  let per_req : (string * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let calls : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      if s.parent < 0 then root_ms := !root_ms +. duration_ms s
      else begin
        stage_ms := !stage_ms +. self.(s.id);
        let key = s.name, s.req in
        Hashtbl.replace per_req key
          (self.(s.id) +. Option.value ~default:0. (Hashtbl.find_opt per_req key));
        let n, ms, w = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt calls s.name) in
        Hashtbl.replace calls s.name (n + 1, ms +. self.(s.id), w +. s.words)
      end)
    spans;
  let stage name =
    match Hashtbl.find_opt calls name with
    | None -> { self_ms_p50 = 0.; share = 0.; minor_words = 0. }
    | Some (n, ms, w) ->
      let samples =
        Hashtbl.fold (fun (nm, _) v acc -> if nm = name then v :: acc else acc) per_req []
      in
      { self_ms_p50 = Stats.percentile (Stats.sorted_array samples) 50.;
        share = Stats.ratio ms !root_ms;
        minor_words = w /. float_of_int n }
  in
  stage, !root_ms, !stage_ms

(* Root-span durations (ms) of the spans named [root]. *)
let root_durations t root =
  List.filter_map
    (fun s -> if s.parent < 0 && s.name = root then Some (duration_ms s) else None)
    t.spans

let write t file =
  let oc = open_out file in
  output_string oc "req\tid\tparent\tname\tstart_ns\tend_ns\tminor_words\n";
  let spans = all t in
  let t0 = if Array.length spans = 0 then 0 else spans.(0).start_ns in
  Array.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%.0f\n" s.req s.id s.parent s.name
        (s.start_ns - t0) (s.stop_ns - t0) s.words)
    spans;
  close_out oc
