(* Benchmark executable. [run.py] builds it and calls it in three modes:

     perfbench measure --workload W --seed N --seconds S
       set-up time, then repeated timed workload runs for S seconds with
       every run checked; prints the end-to-end metrics.
     perfbench peak --workload W --seed N [--horizon H]
       one workload run, points in series, in a fresh process; prints
       its peak major heap.
     perfbench traced --workload W --seed N --out DIR
       the traced pass; prints the per-layer metrics and writes the host
       and simulated-time spans under DIR.

   Host times of [measure] are in reference seconds (see [Calibration]).
   Each mode prints a result line as its last line of output and exits
   1 when any correctness check failed. *)

open Workloads

let setup_samples = 15
let setups_per_sample = 8

(* Host seconds from parameter records to machines ready to execute,
   for every point of one workload run. One create takes 0.1-5 ms and
   its cost depends on the GC state it meets, so every sample starts
   from a fully collected heap and times a fixed number of set-ups; the
   figure is the median sample. *)
let setup_seconds w points =
  let sample () =
    Gc.full_major ();
    let t0 = now () in
    for _ = 1 to setups_per_sample do
      List.iter
        (fun p -> ignore (Sys.opaque_identity (create ~observed:w.observed p)))
        points
    done;
    (now () -. t0) /. float_of_int setups_per_sample
  in
  Report.median (List.init setup_samples (fun _ -> sample ()))

let sum f runs = List.fold_left (fun acc r -> acc +. f r) 0. runs

let measure w ~seed ~seconds =
  let points = w.points ~seed ~horizon:1. in
  let calibrate () = Calibration.measure ~jobs:w.jobs in
  let setup_s =
    let c0 = calibrate () in
    let raw = setup_seconds w points in
    let c1 = calibrate () in
    raw *. Calibration.scale ~measured:(Report.median [ c0; c1; calibrate () ])
  in
  let attempted = ref 0 and failed = ref 0 in
  let check_runs ?references runs =
    List.iteri
      (fun i run ->
        let reference = Option.map (fun refs -> List.nth refs i) references in
        incr attempted;
        match check ?reference run.result with
        | [] -> ()
        | errs ->
            incr failed;
            List.iter (Printf.printf "check failed (%s, point %d): %s\n" w.name i) errs)
      runs
  in
  (* The warm-up run fills lazily built state and is the reference every
     timed run must reproduce bit for bit. *)
  let warm, _ = run_workload w points in
  check_runs warm;
  let references = List.map (fun r -> r.result) warm in
  (* Each timed run is bracketed by two calibrations and scaled by
     their mean. *)
  let samples = ref [] in
  let start = now () in
  let before = ref (calibrate ()) in
  while now () -. start < seconds || List.length !samples < 3 do
    let runs, wall = run_workload w points in
    let after = calibrate () in
    let scale = Calibration.scale ~measured:((!before +. after) /. 2.) in
    before := after;
    let wall = wall *. scale in
    check_runs ~references runs;
    let events = sum (fun r -> float_of_int r.result.Ddbm.Sim_result.sim_events) runs in
    let commits = sum (fun r -> float_of_int r.result.Ddbm.Sim_result.commits) runs in
    samples :=
      ( wall,
        Report.ratio events (sum (fun r -> r.exec) runs *. scale),
        Report.ratio commits wall,
        Report.ratio (sum (fun r -> r.minor_words) runs) events )
      :: !samples
  done;
  let med f = Report.median (List.map f !samples) in
  Printf.printf "digest %s seed=%d: %s (%d timed runs of %d points)\n" w.name seed
    (digest references) (List.length !samples) (List.length points);
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("wall_s", med (fun (w, _, _, _) -> w), "s");
      ("events_per_s", med (fun (_, e, _, _) -> e), "1/s");
      ("commits_per_s", med (fun (_, _, c, _) -> c), "1/s");
      ("minor_words_per_event", med (fun (_, _, _, m) -> m), "words");
      ( "passed_runs",
        Report.ratio (float_of_int (!attempted - !failed)) (float_of_int !attempted),
        "ratio" );
    ]
  in
  print_endline
    (Report.result_line ~correct:(!failed = 0) ~attempted:!attempted
       ~failed:!failed metrics);
  !failed = 0

(* Peak major heap of one workload run, in a process that has run
   nothing else: [top_heap_words] is a process-lifetime high-water mark,
   so measuring it after other work would report that work's peak. The
   points run serially here even for the sweep: on two domains the peak
   depends on how their allocations interleave (17-23 MB over five runs
   of one sweep). *)
let peak w ~seed ~horizon =
  let base = (Gc.quick_stat ()).Gc.heap_words in
  let runs, _ = run_workload { w with jobs = 1 } (w.points ~seed ~horizon) in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  let errs = List.concat_map (fun r -> check r.result) runs in
  List.iter (Printf.printf "check failed (%s peak): %s\n" w.name) errs;
  let mb = float_of_int ((top - base) * (Sys.word_size / 8)) /. 1048576. in
  print_endline
    (Report.result_line ~correct:(errs = []) ~attempted:(List.length runs)
       ~failed:(if errs = [] then 0 else 1)
       [ ("peak_heap_mb", mb, "MB") ]);
  errs = []

let usage () =
  prerr_endline
    "usage: perfbench (measure|peak|traced) --workload NAME --seed N \
     [--seconds S] [--horizon H] [--out DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, opts = match args with m :: rest -> (m, rest) | [] -> usage () in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] opts in
  let get k conv default =
    match List.assoc_opt k opts with
    | Some v -> ( match conv v with Some x -> x | None -> usage ())
    | None -> ( match default with Some d -> d | None -> usage ())
  in
  let w =
    let name = get "workload" Option.some None in
    match find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2
  in
  let seed = get "seed" int_of_string_opt None in
  let ok =
    match mode with
    | "measure" -> measure w ~seed ~seconds:(get "seconds" float_of_string_opt (Some 10.))
    | "peak" -> peak w ~seed ~horizon:(get "horizon" float_of_string_opt (Some 1.))
    | "traced" -> Layers.traced w ~seed ~out:(get "out" Option.some None)
    | _ -> usage ()
  in
  exit (if ok then 0 else 1)
