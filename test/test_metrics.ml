(* Machine-level telemetry tests: tail quantiles in Sim_result, the typed
   metric registry and its Prometheus/JSON exposition, and the guarantee
   that histogram observers never perturb the simulation. *)

open Ddbm_model

let small_params ?(algorithm = Params.Twopl) ?(seed = 11) () =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 4;
        partitioning_degree = 4;
        file_size = 100;
      };
    workload =
      {
        d.Params.workload with
        Params.think_time = 1.;
        num_terminals = 32;
        exec_pattern = Params.Parallel;
      };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm };
    run =
      {
        Params.seed;
        warmup = 10.;
        measure = 40.;
        restart_delay_floor = 0.5;
        fresh_restart_plan = false;
      };
    durability = Params.default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

(* --- tail quantiles surface in Sim_result --------------------------- *)

let test_tail_quantiles_ordered () =
  let r = Ddbm.Machine.run (small_params ()) in
  let open Ddbm.Sim_result in
  Alcotest.(check bool) "p99 populated" true (r.response_p99 > 0.);
  Alcotest.(check bool) "p999 populated" true (r.response_p999 > 0.);
  Alcotest.(check bool) "p99 >= exact p95" true (r.response_p99 >= r.response_p95);
  Alcotest.(check bool) "p999 >= p99" true (r.response_p999 >= r.response_p99);
  (* the histogram quantile over-reports by at most one bucket width *)
  Alcotest.(check bool)
    "p99 within an order of magnitude of the mean" true
    (r.response_p99 < r.mean_response *. 100.)

let test_csv_has_tail_columns () =
  let header = Ddbm.Sim_result.csv_header in
  List.iter
    (fun col ->
      Alcotest.(check bool)
        (Printf.sprintf "csv header has %s" col)
        true
        (List.exists (String.equal col) (String.split_on_char ',' header)))
    [ "response_p99"; "response_p999" ]

(* --- registry exposition -------------------------------------------- *)

let run_registry () =
  let m = Ddbm.Machine.create (small_params ()) in
  let _ = Ddbm.Machine.execute m in
  Ddbm.Machine.registry m

let test_prometheus_exposition () =
  let text = Metric.to_prometheus (run_registry ()) in
  let has needle = Astring_contains.contains text needle in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" needle) true
        (has needle))
    [
      "# TYPE ddbm_commits_total counter";
      "# TYPE ddbm_response_seconds summary";
      "ddbm_response_seconds{quantile=\"0.99\"}";
      "ddbm_response_seconds{quantile=\"0.999\"}";
      "ddbm_response_seconds_count";
      "component=\"t_cpu\"";
      "component=\"t_2pc\"";
      "ddbm_node_cpu_utilization{node=\"0\"}";
      "ddbm_node_disk_queue{node=\"3\"}";
      "ddbm_log_force_seconds";
    ]

let test_json_exposition () =
  let json = Metric.to_json (run_registry ()) in
  (match Test_observability.Json_check.validate json with
  | () -> ()
  | exception Test_observability.Json_check.Bad msg ->
      Alcotest.failf "metrics JSON invalid: %s\n%s" msg json);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %S" needle) true
        (Astring_contains.contains json needle))
    [ "\"p999\""; "\"ddbm_response_seconds\""; "\"buckets\"" ]

(* --- histograms are pure observers ---------------------------------- *)

let test_histograms_off_bit_identical () =
  let params = small_params () in
  let with_h = Ddbm.Machine.run params in
  let m = Ddbm.Machine.create ~histograms:false params in
  let without = Ddbm.Machine.execute m in
  Alcotest.(check (float 0.)) "p99 reads 0 when off" 0.
    without.Ddbm.Sim_result.response_p99;
  Alcotest.(check bool)
    "results identical modulo tail fields" true
    (Ddbm.Sim_result.equal
       { with_h with Ddbm.Sim_result.response_p99 = 0.; response_p999 = 0. }
       without)

let test_per_algorithm_quantiles () =
  (* the tail metrics populate for an optimistic run too, where restarts
     dominate the tail *)
  let r = Ddbm.Machine.run (small_params ~algorithm:Params.Opt ()) in
  Alcotest.(check bool) "opt p999 populated" true
    (r.Ddbm.Sim_result.response_p999 > 0.)

let suite =
  [
    Alcotest.test_case "tail quantiles ordered" `Quick
      test_tail_quantiles_ordered;
    Alcotest.test_case "csv tail columns" `Quick test_csv_has_tail_columns;
    Alcotest.test_case "prometheus exposition" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "json exposition" `Quick test_json_exposition;
    Alcotest.test_case "histograms off is bit-identical" `Quick
      test_histograms_off_bit_identical;
    Alcotest.test_case "opt tail populated" `Quick test_per_algorithm_quantiles;
  ]
