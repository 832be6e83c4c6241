(* Figure driver.

   `main.exe` regenerates every table/figure of the paper's evaluation
   section (Figures 2-17 plus the variants described in the running text)
   as aligned text tables. See EXPERIMENTS.md for the comparison against
   the paper. The simulator's cost is measured by perfbench/ and pinned
   by the test suite's "golden cost pins". *)

(* The closing line reports the driver's own wall time. *)
(* lint: allow ambient file *)

open Cmdliner

let wall_now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let run_figures ~pool ~profile ~ids ~thinks ~csv_dir ~verbose =
  let cache = Ddbm.Experiment.create_cache ~verbose () in
  let started = wall_now () in
  let generators =
    match ids with
    | [] -> Ddbm.Figures.all
    | ids ->
        List.map
          (fun id ->
            match Ddbm.Figures.find id with
            | Some g -> (id, g)
            | None ->
                Printf.eprintf "unknown figure id %S\n" id;
                exit 2)
          ids
  in
  Printf.printf
    "Reproducing %d figures (profile %s; %d think-time points; %d jobs)\n\n%!"
    (List.length generators)
    (Ddbm.Experiment.profile_name profile)
    (List.length thinks) (Par.Pool.jobs pool);
  (* All simulation work happens here, fanned out over the pool; the
     per-figure pass below is then pure cache hits and formatting. *)
  let n_runs =
    Ddbm.Figures.prefill_cache cache pool ~profile ~thinks generators
  in
  let prefill_wall = wall_now () -. started in
  List.iter
    (fun (id, generate) ->
      let figure = generate cache ~profile ~thinks in
      print_string (Ddbm.Figure.to_table figure);
      print_newline ();
      match csv_dir with
      | None -> ()
      | Some dir ->
          let path = Filename.concat dir (id ^ ".csv") in
          let oc = open_out path in
          output_string oc (Ddbm.Figure.to_csv figure);
          close_out oc)
    generators;
  Printf.printf
    "Total: %.1f s wall (%.1f s simulating, %.1f s cpu), %d simulation runs \
     (%d cache hits) at %d jobs\n\
     %!"
    (wall_now () -. started)
    prefill_wall (Sys.time ()) n_runs cache.Ddbm.Experiment.hits
    (Par.Pool.jobs pool)

let profile_conv =
  let parse s =
    match Ddbm.Experiment.profile_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg "profile must be quick, standard or full")
  in
  Arg.conv (parse, fun fmt p ->
      Format.pp_print_string fmt (Ddbm.Experiment.profile_name p))

let main =
  let open Term.Syntax in
  let+ profile =
    Arg.(
      value
      & opt profile_conv Ddbm.Experiment.Quick
      & info [ "p"; "profile" ] ~docv:"PROFILE"
          ~doc:"Simulation length: quick, standard or full.")
  and+ ids =
    Arg.(
      value & opt (list string) []
      & info [ "figs" ] ~docv:"IDS"
          ~doc:"Comma-separated figure ids (default: all). E.g. fig2,fig5.")
  and+ thinks =
    Arg.(
      value
      & opt (list float) Ddbm.Experiment.default_think_times
      & info [ "thinks" ] ~docv:"T1,T2,..." ~doc:"Think times to sweep.")
  and+ csv_dir =
    Arg.(
      value & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Also write each figure as CSV.")
  and+ jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the figure suite (default: the number of \
                 cores).")
  and+ verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log each run.")
  in
  run_figures ~pool:(Par.Pool.create ?jobs ()) ~profile ~ids ~thinks ~csv_dir
    ~verbose

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "ddbm-bench" ~doc:"Regenerate the paper's figures")
          main))
