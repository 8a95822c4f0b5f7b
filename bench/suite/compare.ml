(* compare.exe: decides, per workload and end-to-end metric, whether a
   change improved, regressed or left a result unchanged.

     compare.exe [--bench BENCHMARK.json] A/*.json B/*.json

   The result files (obda_bench --out) are grouped by directory: the
   first directory holds the parent's runs, the second the change's.
   Traced runs are skipped. Runs pair up by seed. For each pairing the
   verdict follows the bounds in BENCHMARK.json:

     regressed   the change's median is worse than the parent's by
                 more than the metric's bound
     improved    the change wins at least 9/10 of the pairs and the
                 medians differ by more than the parent's quartile
                 spread
     unresolved  the run-to-run spread exceeds the bound and not every
                 run of the change reads better than every parent run
     unchanged   otherwise

   More failed operations than the parent also count as a regression.
   Exits 1 when anything regressed. *)

module W = Server.Wire

type metric_spec = {
  name : string;
  lower_is_better : bool;
  bound : float;
}

type run = {
  workload : string;
  seed : int;
  failed : int;
  values : (string * float) list;
}

let read_json file =
  let ic = open_in_bin file in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  match W.of_string (String.trim text) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)

let field conv name j =
  match Option.bind (W.member name j) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing or malformed field %S" name)

let specs_of_bench file =
  List.map
    (fun m ->
      { name = field W.to_string_opt "name" m;
        lower_is_better = field W.to_string_opt "better" m = "lower";
        bound = field W.to_float_opt "bound" m })
    (field W.to_list_opt "end_to_end" (read_json file))

(* [None] for a traced run. *)
let run_of_file file =
  let j = read_json file in
  if Option.bind (W.member "trace" j) W.to_bool_opt = Some true then None
  else
    let metrics =
      match field Option.some "metrics" j with
      | W.Obj kvs -> List.map (fun (k, v) -> k, field W.to_float_opt "value" v) kvs
      | _ -> failwith (file ^ ": metrics is not an object")
    in
    Some
      { workload = field W.to_string_opt "workload" j;
        seed = field W.to_int_opt "seed" j;
        failed = field W.to_int_opt "failed" j;
        values = metrics }

type verdict = Improved | Regressed | Unresolved | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

let judge spec ~parent ~change =
  let better x y = if spec.lower_is_better then x < y else x > y in
  let values runs = List.map (fun r -> List.assoc spec.name r.values) runs in
  let a = values parent and b = values change in
  let med_a = Stats.median a and med_b = Stats.median b in
  let q1a, _, q3a = Stats.quartiles a and q1b, _, q3b = Stats.quartiles b in
  let worse_by =
    (if spec.lower_is_better then med_b -. med_a else med_a -. med_b) /. Float.abs med_a
  in
  let spread =
    Float.max ((q3a -. q1a) /. Float.abs med_a) ((q3b -. q1b) /. Float.abs med_b)
  in
  (* pairs by seed order: both sides ran the same seeds *)
  let pairs =
    let sort = List.sort (fun x y -> compare x.seed y.seed) in
    let rec zip xs ys =
      match xs, ys with
      | x :: xs, y :: ys -> (x, y) :: zip xs ys
      | _ -> []
    in
    zip (sort parent) (sort change)
  in
  let wins =
    List.length
      (List.filter
         (fun (p, c) -> better (List.assoc spec.name c.values) (List.assoc spec.name p.values))
         pairs)
  in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let verdict =
    if worse_by > spec.bound then Regressed
    else if
      pairs <> []
      && 10 * wins >= 9 * List.length pairs
      && better med_b med_a
      && Float.abs (med_b -. med_a) > q3a -. q1a
    then Improved
    else if spread > spec.bound && not all_better then Unresolved
    else Unchanged
  in
  Printf.printf "%-12s %-22s %11.5g [%9.5g %9.5g] %11.5g [%9.5g %9.5g] %+7.2f%% %3d/%-3d %s\n"
    (List.hd parent).workload spec.name med_a q1a q3a med_b q1b q3b (-100. *. worse_by) wins
    (List.length pairs) (verdict_name verdict);
  verdict

let () =
  let bench = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse
    [ "--bench", Arg.Set_string bench, "FILE the benchmark definition (default BENCHMARK.json)" ]
    (fun f -> files := f :: !files)
    "compare.exe [--bench BENCHMARK.json] A/*.json B/*.json";
  let files = List.rev !files in
  let dirs = List.sort_uniq compare (List.map Filename.dirname files) in
  let first_dir = match files with f :: _ -> Filename.dirname f | [] -> "" in
  if List.length dirs <> 2 then begin
    prerr_endline "compare.exe: expected result files from exactly two directories";
    exit 2
  end;
  let side dir =
    List.filter_map run_of_file (List.filter (fun f -> Filename.dirname f = dir) files)
  in
  let parent = side first_dir in
  let change = side (List.find (fun d -> d <> first_dir) dirs) in
  let specs = specs_of_bench !bench in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
  Printf.printf "%-12s %-22s %11s [%9s %9s] %11s [%9s %9s] %8s %7s %s\n" "workload" "metric"
    "parent" "q1" "q3" "change" "q1" "q3" "better" "wins" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      let of_w = List.filter (fun r -> r.workload = w) in
      match of_w parent, of_w change with
      | [], _ | _, [] -> Printf.printf "%-12s missing on one side\n" w
      | p, c ->
        List.iter
          (fun spec -> if judge spec ~parent:p ~change:c = Regressed then regressed := true)
          specs;
        let failed runs = List.fold_left (fun acc r -> acc + r.failed) 0 runs in
        if failed c * List.length p > failed p * List.length c then begin
          Printf.printf "%-12s %-22s parent %d, change %d failed ops: regressed\n" w "failed"
            (failed p) (failed c);
          regressed := true
        end)
    workloads;
  if !regressed then exit 1
