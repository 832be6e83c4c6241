(* The machine's one event stream: typed-event dispatch through a
   {!Tracer}, the bounded tail that replay prints for a reproduced
   failure, and the lifecycle events of a live run. *)

open Ddbm_model

let tiny_params ?(algorithm = Params.Twopl) ?(terminals = 4) ?(seed = 3)
    ?(measure = 2.) () =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 4;
        partitioning_degree = 4;
        file_size = 60;
      };
    workload =
      { d.Params.workload with Params.think_time = 0.; num_terminals = terminals };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm };
    run =
      {
        Params.seed;
        warmup = 0.;
        measure;
        restart_delay_floor = 0.5;
        fresh_restart_plan = false;
      };
    durability = Params.default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

let test_emit_and_read () =
  let tr = Tracer.create () in
  let seen = ref [] in
  Tracer.attach tr (fun ~time ev -> seen := (time, ev) :: !seen);
  Tracer.emit tr ~time:0. (Event.Submit { tid = 1 });
  Tracer.emit tr ~time:1.5 (Event.Submit { tid = 2 });
  match List.rev !seen with
  | [ (t1, Event.Submit { tid = 1 }); (t2, Event.Submit { tid = 2 }) ] ->
      Alcotest.(check (float 0.)) "time 0" 0. t1;
      Alcotest.(check (float 0.)) "time 1.5" 1.5 t2
  | evs ->
      Alcotest.failf "expected the two submits in order, got %d events"
        (List.length evs)

let test_enabled_toggle () =
  (* the machine builds an event only while a sink is attached *)
  let tr = Tracer.create () in
  Alcotest.(check bool) "inactive without sinks" false (Tracer.active tr);
  Tracer.attach tr (fun ~time:_ _ -> ());
  Alcotest.(check bool) "active once a sink is attached" true
    (Tracer.active tr)

let test_sink () =
  let tr = Tracer.create () in
  let order = ref [] in
  Tracer.attach tr (fun ~time:_ _ -> order := "first" :: !order);
  Tracer.attach tr (fun ~time:_ _ -> order := "second" :: !order);
  Tracer.emit tr ~time:0. (Event.Submit { tid = 1 });
  Alcotest.(check (list string))
    "sinks observe in attachment order" [ "first"; "second" ]
    (List.rev !order)

(* Every event of a run, formatted as the replay tail prints it. *)
let run_with_tail ~capacity params =
  let all = ref [] in
  let instrument m =
    Tracer.attach (Ddbm.Machine.enable_events m) (fun ~time ev ->
        all := Format.asprintf "t=%.6f %a" time Event.pp ev :: !all)
  in
  let _, _, _, tail =
    Ddbm_check.Conformance.run_instrumented ~trace_capacity:capacity
      ~instrument params
  in
  (List.rev !all, tail)

let test_ring_bounded () =
  let all, tail = run_with_tail ~capacity:3 (tiny_params ()) in
  Alcotest.(check bool) "the run emits more than the ring holds" true
    (List.length all > 3);
  Alcotest.(check (list string))
    "the last three events are kept, oldest first"
    (List.filteri (fun i _ -> i >= List.length all - 3) all)
    tail

let test_format () =
  let _, tail = run_with_tail ~capacity:1_000_000 (tiny_params ()) in
  match tail with
  | first :: _ ->
      Alcotest.(check string) "time, event name, fields"
        "t=0.000000 submit tid=0" first
  | [] -> Alcotest.fail "empty tail"

let test_machine_trace () =
  let params =
    tiny_params ~algorithm:Params.Wound_wait ~terminals:32 ~seed:4
      ~measure:30. ()
  in
  let m = Ddbm.Machine.create params in
  let events = ref [] in
  Tracer.attach (Ddbm.Machine.enable_events m) (fun ~time:_ ev ->
      events := ev :: !events);
  let r = Ddbm.Machine.execute m in
  let count p = List.length (List.filter p !events) in
  Alcotest.(check bool) "a committed event per commit" true
    (count (function Event.Committed _ -> true | _ -> false)
    >= r.Ddbm.Sim_result.commits);
  Alcotest.(check bool) "wounds present" true
    (count (function Event.Wound _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "aborts present" true
    (count (function Event.Aborted _ -> true | _ -> false) > 0)

let suite =
  [
    Alcotest.test_case "emit and read" `Quick test_emit_and_read;
    Alcotest.test_case "ring bounded" `Quick test_ring_bounded;
    Alcotest.test_case "enabled toggle" `Quick test_enabled_toggle;
    Alcotest.test_case "sink" `Quick test_sink;
    Alcotest.test_case "format" `Quick test_format;
    Alcotest.test_case "machine trace" `Slow test_machine_trace;
  ]
