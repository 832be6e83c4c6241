(* End-to-end machine tests: small but complete simulations for every
   algorithm, determinism, conservation properties, and configuration
   variants (sequential execution, 1-node system, partitioning degrees). *)

open Ddbm_model

let small_params ?(algorithm = Params.Twopl) ?(nodes = 4) ?(degree = 4)
    ?(think = 1.) ?(terminals = 32) ?(seed = 11) ?(measure = 40.)
    ?(exec_pattern = Params.Parallel) ?(file_size = 100) () =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = nodes;
        partitioning_degree = degree;
        file_size;
      };
    workload =
      {
        d.Params.workload with
        Params.think_time = think;
        num_terminals = terminals;
        exec_pattern;
      };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm };
    run = { Params.seed; warmup = 10.; measure; restart_delay_floor = 0.5; fresh_restart_plan = false };
      durability = Params.default_durability;
      faults = Fault_plan.zero;
      arrivals = Arrival.zero;
  }

let check_result_sane (r : Ddbm.Sim_result.t) =
  Alcotest.(check bool) "commits happened" true (r.Ddbm.Sim_result.commits > 0);
  Alcotest.(check bool) "throughput positive" true (r.Ddbm.Sim_result.throughput > 0.);
  Alcotest.(check bool) "response positive" true (r.Ddbm.Sim_result.mean_response > 0.);
  Alcotest.(check bool) "cpu util in [0,1]" true
    (r.Ddbm.Sim_result.proc_cpu_util >= 0. && r.Ddbm.Sim_result.proc_cpu_util <= 1.);
  Alcotest.(check bool) "disk util in [0,1]" true
    (r.Ddbm.Sim_result.proc_disk_util >= 0. && r.Ddbm.Sim_result.proc_disk_util <= 1.);
  Alcotest.(check bool) "host util in [0,1]" true
    (r.Ddbm.Sim_result.host_cpu_util >= 0. && r.Ddbm.Sim_result.host_cpu_util <= 1.);
  Alcotest.(check bool) "messages flowed" true (r.Ddbm.Sim_result.messages > 0);
  Alcotest.(check bool) "active transactions bounded by terminals" true
    (r.Ddbm.Sim_result.mean_active <= 32.1)

let test_runs_every_algorithm () =
  List.iter
    (fun algorithm ->
      let r = Ddbm.Machine.run (small_params ~algorithm ()) in
      check_result_sane r;
      match algorithm with
      | Params.No_dc ->
          Alcotest.(check int) "NO_DC never aborts" 0 r.Ddbm.Sim_result.aborts
      | Params.Twopl | Params.Wound_wait | Params.Bto | Params.Opt
      | Params.Wait_die | Params.Twopl_defer | Params.O2pl ->
          ())
    [
      Params.No_dc; Params.Twopl; Params.Wound_wait; Params.Bto; Params.Opt;
      Params.Wait_die; Params.Twopl_defer;
    ]

let test_determinism () =
  let p = small_params ~algorithm:Params.Twopl () in
  let a = Ddbm.Machine.run p and b = Ddbm.Machine.run p in
  Alcotest.(check int) "same commits" a.Ddbm.Sim_result.commits b.Ddbm.Sim_result.commits;
  Alcotest.(check int) "same aborts" a.Ddbm.Sim_result.aborts b.Ddbm.Sim_result.aborts;
  Alcotest.(check (float 0.)) "same response" a.Ddbm.Sim_result.mean_response
    b.Ddbm.Sim_result.mean_response;
  Alcotest.(check int) "same messages" a.Ddbm.Sim_result.messages
    b.Ddbm.Sim_result.messages;
  Alcotest.(check int) "same event count" a.Ddbm.Sim_result.sim_events
    b.Ddbm.Sim_result.sim_events

let test_seed_changes_trajectory () =
  let a = Ddbm.Machine.run (small_params ~seed:1 ()) in
  let b = Ddbm.Machine.run (small_params ~seed:2 ()) in
  Alcotest.(check bool) "different event streams" true
    (a.Ddbm.Sim_result.sim_events <> b.Ddbm.Sim_result.sim_events)

let test_sequential_execution () =
  let r =
    Ddbm.Machine.run
      (small_params ~algorithm:Params.Twopl ~exec_pattern:Params.Sequential ())
  in
  check_result_sane r

let test_one_node_machine () =
  let r =
    Ddbm.Machine.run
      (small_params ~algorithm:Params.Bto ~nodes:1 ~degree:1 ())
  in
  check_result_sane r

let test_degree_one_on_many_nodes () =
  let r =
    Ddbm.Machine.run
      (small_params ~algorithm:Params.Wound_wait ~nodes:4 ~degree:1 ())
  in
  check_result_sane r

let test_abort_reasons_match_algorithm () =
  let reasons algorithm =
    let r =
      Ddbm.Machine.run
        (small_params ~algorithm ~think:0. ~file_size:60 ~measure:30. ())
    in
    List.map fst r.Ddbm.Sim_result.abort_reasons
  in
  List.iter
    (fun reason ->
      Alcotest.(check bool)
        (reason ^ " valid for 2PL")
        true
        (List.mem reason [ "local-deadlock"; "global-deadlock" ]))
    (reasons Params.Twopl);
  List.iter
    (fun reason ->
      Alcotest.(check bool)
        (reason ^ " valid for WW")
        true
        (List.mem reason [ "wounded" ]))
    (reasons Params.Wound_wait);
  List.iter
    (fun reason ->
      Alcotest.(check bool)
        (reason ^ " valid for BTO")
        true
        (List.mem reason [ "bto-conflict" ]))
    (reasons Params.Bto);
  List.iter
    (fun reason ->
      Alcotest.(check bool)
        (reason ^ " valid for OPT")
        true
        (List.mem reason [ "cert-failed" ]))
    (reasons Params.Opt)

let test_no_dc_upper_bound () =
  (* NO_DC throughput dominates every algorithm under contention *)
  let tput algorithm =
    (Ddbm.Machine.run
       (small_params ~algorithm ~think:0. ~file_size:60 ~measure:30. ()))
      .Ddbm.Sim_result.throughput
  in
  let nodc = tput Params.No_dc in
  List.iter
    (fun algorithm ->
      let t = tput algorithm in
      Alcotest.(check bool)
        (Printf.sprintf "%s <= NO_DC (%.2f vs %.2f)"
           (Params.cc_algorithm_name algorithm) t nodc)
        true
        (t <= nodc *. 1.05))
    [ Params.Twopl; Params.Wound_wait; Params.Bto; Params.Opt ]

let test_contention_causes_aborts () =
  (* a tiny hot database must produce aborts for the abort-based schemes *)
  List.iter
    (fun algorithm ->
      let r =
        Ddbm.Machine.run
          (small_params ~algorithm ~think:0. ~file_size:60 ~measure:30. ())
      in
      Alcotest.(check bool)
        (Params.cc_algorithm_name algorithm ^ " aborts under contention")
        true (r.Ddbm.Sim_result.aborts > 0))
    [ Params.Wound_wait; Params.Bto; Params.Opt ]

let test_think_time_reduces_load () =
  let loaded =
    Ddbm.Machine.run (small_params ~algorithm:Params.No_dc ~think:0. ())
  in
  let idle =
    Ddbm.Machine.run (small_params ~algorithm:Params.No_dc ~think:30. ())
  in
  Alcotest.(check bool) "lighter load, lower utilization" true
    (idle.Ddbm.Sim_result.proc_disk_util < loaded.Ddbm.Sim_result.proc_disk_util);
  Alcotest.(check bool) "lighter load, faster responses" true
    (idle.Ddbm.Sim_result.mean_response < loaded.Ddbm.Sim_result.mean_response)

let test_more_nodes_more_throughput () =
  let t1 =
    (Ddbm.Machine.run
       (small_params ~algorithm:Params.No_dc ~nodes:1 ~degree:1 ~think:0. ()))
      .Ddbm.Sim_result.throughput
  in
  let t4 =
    (Ddbm.Machine.run
       (small_params ~algorithm:Params.No_dc ~nodes:4 ~degree:4 ~think:0. ()))
      .Ddbm.Sim_result.throughput
  in
  Alcotest.(check bool)
    (Printf.sprintf "4 nodes (%.2f) > 2x 1 node (%.2f)" t4 t1)
    true (t4 > 2. *. t1)

let test_o2pl_equals_2pl_without_replication () =
  (* without replicated copies the two algorithms are the same machine;
     determinism makes the equality exact *)
  let a = Ddbm.Machine.run (small_params ~algorithm:Params.Twopl ()) in
  let b = Ddbm.Machine.run (small_params ~algorithm:Params.O2pl ()) in
  Alcotest.(check int) "same commits" a.Ddbm.Sim_result.commits
    b.Ddbm.Sim_result.commits;
  Alcotest.(check int) "same events" a.Ddbm.Sim_result.sim_events
    b.Ddbm.Sim_result.sim_events

let test_logging_costs_throughput () =
  let with_logging logging =
    let p = small_params ~algorithm:Params.No_dc ~think:0. () in
    let p =
      {
        p with
        Params.resources =
          { p.Params.resources with Params.model_logging = logging };
      }
    in
    Ddbm.Machine.run p
  in
  let off = with_logging false and on = with_logging true in
  Alcotest.(check bool) "logging adds disk work" true
    (on.Ddbm.Sim_result.throughput <= off.Ddbm.Sim_result.throughput +. 0.2)

let test_sequential_audit () =
  let p =
    small_params ~algorithm:Params.Twopl ~exec_pattern:Params.Sequential
      ~file_size:60 ~think:0. ~measure:30. ()
  in
  let m = Ddbm.Machine.create p in
  let audit = Ddbm.Machine.enable_audit m in
  let r = Ddbm.Machine.execute m in
  Alcotest.(check bool) "commits" true (r.Ddbm.Sim_result.commits > 0);
  match Ddbm.Audit.check audit with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_validation_rejected () =
  let p = small_params ~nodes:2 ~degree:4 () in
  Alcotest.(check bool) "invalid config raises" true
    (try
       ignore (Ddbm.Machine.run p);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "runs every algorithm" `Slow test_runs_every_algorithm;
    Alcotest.test_case "determinism" `Slow test_determinism;
    Alcotest.test_case "seed sensitivity" `Slow test_seed_changes_trajectory;
    Alcotest.test_case "sequential execution" `Slow test_sequential_execution;
    Alcotest.test_case "one-node machine" `Slow test_one_node_machine;
    Alcotest.test_case "degree 1 on 4 nodes" `Slow test_degree_one_on_many_nodes;
    Alcotest.test_case "abort reasons per algorithm" `Slow
      test_abort_reasons_match_algorithm;
    Alcotest.test_case "NO_DC upper bound" `Slow test_no_dc_upper_bound;
    Alcotest.test_case "contention causes aborts" `Slow
      test_contention_causes_aborts;
    Alcotest.test_case "think time reduces load" `Slow
      test_think_time_reduces_load;
    Alcotest.test_case "more nodes more throughput" `Slow
      test_more_nodes_more_throughput;
    Alcotest.test_case "O2PL = 2PL without replication" `Slow
      test_o2pl_equals_2pl_without_replication;
    Alcotest.test_case "logging costs throughput" `Slow
      test_logging_costs_throughput;
    Alcotest.test_case "sequential execution serializable" `Slow
      test_sequential_audit;
    Alcotest.test_case "validation rejected" `Quick test_validation_rejected;
  ]
