(* Regenerate the golden files used by test_observability:

     dune exec test/gen_golden.exe

   writes test/golden/trace_tiny.json, test/golden/results_tiny.csv and
   test/golden/cost_pins.csv (run from the repo root, in the default dev
   profile: the cost pins count minor words, which the profile changes).
   The trace run parameters here MUST match
   [Test_observability.golden_params]; the CSV and cost configurations
   live in [Golden_csv]. *)

open Ddbm_model

let golden_params =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 2;
        partitioning_degree = 2;
        file_size = 60;
      };
    workload =
      { d.Params.workload with Params.think_time = 0.; num_terminals = 2 };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm = Params.Twopl };
    run =
      {
        Params.seed = 3;
        warmup = 0.;
        measure = 1.5;
        restart_delay_floor = 0.5;
        fresh_restart_plan = false;
      };
    durability = Params.default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

let write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %d bytes to %s\n" (String.length contents) path

let () =
  let m = Ddbm.Machine.create golden_params in
  Ddbm.Machine.enable_sampler m ~interval:1.;
  let tracer = Ddbm.Machine.enable_events m in
  let buf = Buffer.create 4096 in
  let chrome =
    Ddbm.Trace_export.Chrome.create
      ~num_nodes:golden_params.Params.database.Params.num_proc_nodes
      (Buffer.add_string buf)
  in
  Tracer.attach tracer (Ddbm.Trace_export.Chrome.sink chrome);
  ignore (Ddbm.Machine.execute m : Ddbm.Sim_result.t);
  Ddbm.Trace_export.Chrome.close chrome;
  write "test/golden/trace_tiny.json" (Buffer.contents buf);
  write "test/golden/results_tiny.csv" (Golden_csv.render ());
  write "test/golden/cost_pins.csv" (Golden_csv.render_cost_pins ())
