(** Assembly and execution of the distributed database machine
    (Sections 2.1 and 3 of the paper): one host node (terminals +
    coordinators) and [num_proc_nodes] processing nodes (data + cohorts),
    wired to the protocol roles {!Admission}, {!Coordinator}, {!Cohort}
    and {!Recovery}, which share the {!Runtime} record; plus result
    collection and the observers. *)

open Desim
open Ddbm_model
open Ids
open Runtime

type t = Runtime.t

let request_abort t ~from_node (txn : Txn.t) reason =
  (* Wounds (and any other abort demand) are ignored once the transaction
     has entered the second phase of its commit protocol. The doomed flag
     is set eagerly to suppress duplicate victimizations; the coordinator
     still learns of the abort only when the message arrives. *)
  if (not txn.Txn.doomed) && not (Txn.in_second_phase txn) then begin
    txn.Txn.doomed <- true;
    emit t (fun () ->
        Event.Wound
          {
            tid = txn.Txn.tid;
            attempt = txn.Txn.attempt;
            from_node;
            reason;
          });
    Net.send_async t.net ~src:(Proc from_node) ~dst:Host (fun () ->
        match Hashtbl.find_opt t.live txn.Txn.tid with
        | Some rt when Txn.same_attempt rt.Messages.txn txn ->
            Mailbox.send rt.Messages.coord_mb
              (Messages.Abort_request (txn, reason))
        | Some _ | None -> ())
  end

let create ?(histograms = true) (params : Params.t) =
  (match Params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.create: " ^ msg));
  (* The chaos registry is process-global; overwrite it wholesale from
     the plan so no state leaks between runs. *)
  (match Ddbm_cc.Fault.apply params.Params.faults.Fault_plan.chaos with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.create: " ^ msg));
  let eng = Engine.create () in
  let rng = Rng.create params.Params.run.Params.seed in
  let resources = params.Params.resources in
  let host =
    Node.create eng (Rng.split rng) ~node_ref:Host
      ~mips:resources.Params.host_mips ~resources
  in
  let procs =
    Array.init params.Params.database.Params.num_proc_nodes (fun i ->
        Node.create eng (Rng.split rng) ~node_ref:(Proc i)
          ~mips:resources.Params.node_mips ~resources)
  in
  let cpu_of = function
    | Host -> host.Node.cpu
    | Proc i -> procs.(i).Node.cpu
  in
  let net = Net.create ~eng ~inst_per_msg:resources.Params.inst_per_msg ~cpu_of () in
  let catalog = Catalog.create params.Params.database in
  let workload = Workload.create params catalog (Rng.split rng) in
  (* [think_rng] must be split before any durability stream so the
     offered load is unchanged by turning the log model on or off. *)
  let think_rng = Rng.split rng in
  let wal =
    let d = params.Params.durability in
    if d.Params.log_disk then begin
      let wal_rng = Rng.split rng in
      Some
        (Array.init (Array.length procs) (fun _ ->
             Wal.create eng (Rng.split wal_rng)
               ~min_time:d.Params.log_min_time
               ~max_time:d.Params.log_max_time))
    end
    else None
  in
  (* Open-loop arrival stream: split last, and only when the spec is
     open, so a closed spec performs zero extra splits and every existing
     stream (hence the committed pins and the golden trace) is
     unchanged. *)
  let arrivals =
    let a = params.Params.arrivals in
    if Arrival.open_loop a then
      Some
        {
          spec = a;
          arr_rng = Rng.split rng;
          queue = Queue.create ();
          in_flight = 0;
          next_seq = 0;
        }
    else None
  in
  let t =
    {
      eng;
      params;
      clock = Timestamp.Clock.create ();
      host;
      procs;
      net;
      metrics =
        Metrics.create ~quantiles:histograms eng
          ~restart_delay_floor:params.Params.run.Params.restart_delay_floor;
      catalog;
      workload;
      live = Hashtbl.create 256;
      think_rng;
      wal;
      next_tid = 0;
      recoveries = 0;
      recovery_time = 0.;
      recovery_chains = 0;
      recovery_degraded = 0;
      committed_cov = [];
      arrivals;
      faults = None;
      snoop = None;
      audit = None;
      events = None;
      result = None;
    }
  in
  let algorithm = params.Params.cc.Params.algorithm in
  Array.iteri
    (fun i node ->
      let charge_cc_request =
        let cost = resources.Params.inst_per_cc_req in
        if cost <= 0. then fun () -> ()
        else fun () -> Cpu.consume node.Node.cpu ~instructions:cost
      in
      let hooks =
        {
          Cc_intf.eng;
          clock = t.clock;
          charge_cc_request;
          request_abort = (fun txn reason -> request_abort t ~from_node:i txn reason);
        }
      in
      Node.install_cc node (Ddbm_cc.Registry.make algorithm hooks))
    procs;
  if Ddbm_cc.Registry.needs_snoop algorithm then
    t.snoop <-
      Some
        (Ddbm_cc.Snoop.create eng ~net
           ~num_nodes:(Array.length procs)
           ~detection_interval:params.Params.cc.Params.detection_interval
           ~edges_of:(fun i -> (Node.cc procs.(i)).Cc_intf.cc_edges ())
           ~request_abort:(fun ~from_node txn reason ->
             request_abort t ~from_node txn reason));
  if Fault_plan.active params.Params.faults then begin
    let plan = params.Params.faults in
    (* Dedicated fault RNG: the workload/think/node streams above are
       untouched, so two runs differing only in the fault plan share the
       same offered load (common random numbers). *)
    let frng = Rng.create plan.Fault_plan.fault_seed in
    let link_rng = Rng.split frng in
    let n = Array.length procs in
    (* split order matters for reproducibility: the crash streams must
       see the same splits as before the jitter stream existed *)
    let crash_rngs = Array.init n (fun _ -> Rng.split frng) in
    let jitter_rng = Rng.split frng in
    (* later additions keep appending: tear and recrash streams split
       after the jitter stream so link/crash/jitter draws are unchanged
       on plans that predate them *)
    let tear_rng = Rng.split frng in
    let recrash_rng = Rng.split frng in
    let f =
      {
        plan;
        link =
          Faults.Link.create link_rng ~loss:plan.Fault_plan.msg_loss
            ~dup:plan.Fault_plan.msg_dup ~delay:plan.Fault_plan.msg_delay;
        sites =
          Array.init (n + 1) (fun _ ->
              { state = Faults.Crashable.create (); down_since = None;
                downtime = 0. });
        crash_rngs;
        jitter_rng;
        tear_rng;
        recrash_rng;
        decisions = Hashtbl.create 256;
        host_down_until = 0.;
        timeouts = 0;
        retries = 0;
        msgs_dropped = 0;
        msgs_duplicated = 0;
        node_crashes = 0;
        orphaned = 0;
        failovers = 0;
        total_downtime = 0.;
      }
    in
    t.faults <- Some f;
    Net.set_judge t.net
      (Some
         (fun ~src ~dst ->
           match
             if up f src && up f dst then Faults.Link.judge f.link else []
           with
           | [] ->
               f.msgs_dropped <- f.msgs_dropped + 1;
               emit t (fun () -> Event.Msg_dropped { src; dst });
               []
           | [ _ ] as verdict -> verdict
           | verdict ->
               f.msgs_duplicated <- f.msgs_duplicated + 1;
               verdict))
  end;
  t

let reset_observation_windows t =
  Metrics.begin_window t.metrics;
  Node.reset_windows t.host;
  Array.iter Node.reset_windows t.procs;
  (match t.wal with
  | Some wals -> Array.iter Wal.reset_window wals
  | None -> ());
  Array.iter
    (fun node -> Stats.Tally.reset (Node.cc node).Cc_intf.cc_blocking)
    t.procs;
  (* availability is measured over the observation window: discard
     warm-up downtime and clip any open down-spell to the window start *)
  Option.iter
    (fun f ->
      let now = Engine.now t.eng in
      Array.iter
        (fun s ->
          s.downtime <- 0.;
          if s.down_since <> None then s.down_since <- Some now)
        f.sites)
    t.faults

let mean_over array f =
  if Array.length array = 0 then 0.
  else Array.fold_left (fun acc x -> acc +. f x) 0. array
       /. float_of_int (Array.length array)

let collect_result t ~wall_seconds =
  let blocking_total, blocking_count =
    Array.fold_left
      (fun (tot, cnt) node ->
        let tally = (Node.cc node).Cc_intf.cc_blocking in
        (tot +. Stats.Tally.total tally, cnt + Stats.Tally.count tally))
      (0., 0) t.procs
  in
  {
    Sim_result.algorithm = t.params.Params.cc.Params.algorithm;
    params = t.params;
    throughput = Metrics.throughput t.metrics;
    mean_response = Metrics.mean_response t.metrics;
    response_ci95 = Metrics.response_ci95 t.metrics;
    response_p50 = Metrics.response_percentile t.metrics 0.50;
    response_p95 = Metrics.response_percentile t.metrics 0.95;
    response_p99 = Metrics.response_quantile t.metrics 0.99;
    response_p999 = Metrics.response_quantile t.metrics 0.999;
    commits = Metrics.commits t.metrics;
    aborts = Metrics.aborts t.metrics;
    completions = Metrics.completions t.metrics;
    abort_ratio = Metrics.abort_ratio t.metrics;
    abort_reasons = Metrics.abort_reason_counts t.metrics;
    mean_blocking =
      (if blocking_count = 0 then 0.
       else blocking_total /. float_of_int blocking_count);
    blocked_requests = blocking_count;
    proc_cpu_util = mean_over t.procs Node.cpu_utilization;
    proc_disk_util = mean_over t.procs Node.disk_utilization;
    host_cpu_util = Node.cpu_utilization t.host;
    mean_active = Metrics.mean_active t.metrics;
    messages = Net.messages_sent t.net;
    availability = Recovery.availability t;
    goodput = Metrics.goodput t.metrics;
    timeouts = (match t.faults with None -> 0 | Some f -> f.timeouts);
    retries = (match t.faults with None -> 0 | Some f -> f.retries);
    msgs_dropped = (match t.faults with None -> 0 | Some f -> f.msgs_dropped);
    msgs_duplicated =
      (match t.faults with None -> 0 | Some f -> f.msgs_duplicated);
    node_crashes = (match t.faults with None -> 0 | Some f -> f.node_crashes);
    orphaned = (match t.faults with None -> 0 | Some f -> f.orphaned);
    log_forces =
      (match t.wal with
      | None -> 0
      | Some wals -> Array.fold_left (fun acc w -> acc + Wal.forces w) 0 wals);
    log_disk_util =
      (match t.wal with
      | None -> 0.
      | Some wals -> mean_over wals Wal.utilization);
    recoveries = t.recoveries;
    mean_recovery_time =
      (if t.recoveries = 0 then 0.
       else t.recovery_time /. float_of_int t.recoveries);
    recovery_chains = t.recovery_chains;
    recovery_degraded = t.recovery_degraded;
    wal_torn_tails =
      (match t.wal with
      | None -> 0
      | Some wals ->
          Array.fold_left (fun acc w -> acc + Wal.torn_tails w) 0 wals);
    failovers = (match t.faults with None -> 0 | Some f -> f.failovers);
    lost_commits = Recovery.lost_commits t;
    indoubt_mean = Metrics.indoubt_mean t.metrics;
    indoubt_open_at_end = Metrics.indoubt_open t.metrics;
    indoubt_overdue_at_end =
      (match t.faults with
      | None -> 0
      | Some f ->
          Metrics.indoubt_overdue t.metrics ~grace:(Recovery.indoubt_grace t f));
    decomp = Metrics.decomp_mean t.metrics;
    offered = Metrics.offered t.metrics;
    admitted = Metrics.admitted t.metrics;
    shed = Metrics.shed t.metrics;
    expired = Metrics.expired t.metrics;
    still_queued =
      (match t.arrivals with None -> 0 | Some a -> Queue.length a.queue);
    queue_depth_max = Metrics.queue_depth_max t.metrics;
    queue_depth_mean = Metrics.mean_queue_depth t.metrics;
    sim_events = Engine.events_processed t.eng;
    sim_end = Engine.now t.eng;
    wall_seconds;
    events_per_sec =
      (if wall_seconds > 0. then
         float_of_int (Engine.events_processed t.eng) /. wall_seconds
       else 0.);
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

(** Typed metric registry snapshot: the result's exposed columns as
    counters and gauges ({!Sim_result.metric_families}), the window
    length, per-node utilization and queue-depth rollups (the
    time-series sampler's quantities as end-of-run aggregates), and —
    when histograms are enabled — the tail-latency histogram families
    for response time, every {!Decomp} component, 2PC in-doubt duration,
    WAL force latency, recovery time and admission-queue wait. Build
    after {!execute}; serialize with {!Ddbm_model.Metric.to_prometheus} /
    {!Ddbm_model.Metric.to_json}. *)
let registry t : Metric.t =
  let m = t.metrics in
  let result =
    match t.result with
    | Some r -> r
    | None -> collect_result t ~wall_seconds:0.
  in
  let per_node ~name ~help get =
    Metric.family ~name ~help ~kind:Metric.Gauge
      (List.init (Array.length t.procs) (fun i ->
           Metric.sample
             ~labels:[ ("node", string_of_int i) ]
             (Metric.V (get t.procs.(i)))))
  in
  let rollups =
    [
      Metric.gauge ~name:"ddbm_window_seconds"
        ~help:"Measurement window duration" (Metrics.window_duration m);
      per_node ~name:"ddbm_node_cpu_utilization"
        ~help:"Per-node CPU utilization over the window" Node.cpu_utilization;
      per_node ~name:"ddbm_node_disk_utilization"
        ~help:"Per-node mean disk utilization over the window"
        Node.disk_utilization;
      per_node ~name:"ddbm_node_cpu_queue"
        ~help:"Instantaneous processor-sharing CPU load (jobs in service)"
        (fun node -> float_of_int (Cpu.ps_load node.Node.cpu));
      per_node ~name:"ddbm_node_disk_queue"
        ~help:
          "Instantaneous disk operations waiting or in service, summed \
           over the node's disks"
        (fun node -> float_of_int (Node.disk_queue node));
    ]
  in
  let histograms =
    if not (Metrics.quantiles_enabled m) then []
    else
      [
        Metric.histogram ~name:"ddbm_response_seconds"
          ~help:"Committed-transaction response time"
          (Metrics.response_hist m);
        Metric.family ~name:"ddbm_response_component_seconds"
          ~help:
            "Per-transaction response-time decomposition components \
             (additive; see Decomp)"
          ~kind:Metric.Histogram
          (List.map
             (fun (name, h) ->
               Metric.sample ~labels:[ ("component", name) ] (Metric.H h))
             (Metrics.component_hists m));
        Metric.histogram ~name:"ddbm_indoubt_seconds"
          ~help:"Closed 2PC in-doubt intervals (yes vote to decision)"
          (Metrics.indoubt_hist m);
        Metric.histogram ~name:"ddbm_log_force_seconds"
          ~help:"WAL force latency" (Metrics.log_force_hist m);
        Metric.histogram ~name:"ddbm_recovery_seconds"
          ~help:"Crash-recovery pass duration" (Metrics.recovery_hist m);
        Metric.histogram ~name:"ddbm_recovery_chain_seconds"
          ~help:"Per-chain redo replay duration (chain-parallel recovery)"
          (Metrics.chain_hist m);
      ]
      @
      if Option.is_none t.arrivals then []
      else
        [
          Metric.histogram ~name:"ddbm_admission_queue_wait_seconds"
            ~help:"Admission-queue wait of dispatched arrivals"
            (Metrics.queue_wait_hist m);
        ]
  in
  Sim_result.metric_families result @ rollups @ histograms

(** Attach (or retrieve) the typed-event tracer (before {!execute}).
    Idempotent: the first call creates the tracer and wires the network
    and Snoop observers; later calls return the same tracer, so several
    sinks can be attached. Without this call the machine emits no typed
    events and pays no tracing cost. *)
let enable_events t =
  match t.events with
  | Some tracer -> tracer
  | None ->
      let tracer = Tracer.create () in
      t.events <- Some tracer;
      let now () = Engine.now t.eng in
      Net.set_on_msg t.net
        (Some
           (fun ~sent ~src ~dst ->
             Tracer.emit tracer ~time:(now ())
               (if sent then Event.Msg_send { src; dst }
                else Event.Msg_recv { src; dst })));
      Option.iter
        (fun snoop ->
          Ddbm_cc.Snoop.set_on_round snoop
            (Some
               (fun ~node ~edges ~victims ->
                 Tracer.emit tracer ~time:(now ())
                   (Event.Snoop_round { node; edges; victims }))))
        t.snoop;
      tracer

(** Start the time-series sampler (before {!execute}): every [interval]
    simulated seconds, emit an {!Event.Sample} carrying the number of
    in-flight transactions, per-interval CPU and disk utilizations
    (differences of cumulative busy times, so they are exact over the
    interval regardless of observation-window resets), and instantaneous
    queue lengths. Implies {!enable_events}. *)
let enable_sampler t ~interval =
  if not (interval > 0.) then
    invalid_arg "Machine.enable_sampler: interval must be positive";
  let tracer = enable_events t in
  let n = Array.length t.procs in
  let prev_host_cpu = ref (Node.cpu_busy_time t.host) in
  let prev_cpu = Array.init n (fun i -> Node.cpu_busy_time t.procs.(i)) in
  let prev_disk = Array.init n (fun i -> Node.disk_busy_time t.procs.(i)) in
  let prev_time = ref (Engine.now t.eng) in
  let rec tick () =
    let now = Engine.now t.eng in
    let dt = now -. !prev_time in
    if dt > 0. then begin
      let host_busy = Node.cpu_busy_time t.host in
      let host_cpu_util = (host_busy -. !prev_host_cpu) /. dt in
      prev_host_cpu := host_busy;
      let nodes =
        Array.init n (fun i ->
            let node = t.procs.(i) in
            let cpu_busy = Node.cpu_busy_time node in
            let disk_busy = Node.disk_busy_time node in
            let num_disks = Array.length node.Node.disks in
            let sample =
              {
                Event.cpu_util = (cpu_busy -. prev_cpu.(i)) /. dt;
                disk_util =
                  (disk_busy -. prev_disk.(i))
                  /. (dt *. float_of_int num_disks);
                cpu_queue = Cpu.ps_load node.Node.cpu;
                disk_queue = Node.disk_queue node;
              }
            in
            prev_cpu.(i) <- cpu_busy;
            prev_disk.(i) <- disk_busy;
            sample)
      in
      prev_time := now;
      Tracer.emit tracer ~time:now
        (Event.Sample
           { active = Metrics.active t.metrics; host_cpu_util; nodes })
    end;
    ignore (Engine.schedule t.eng ~at:(now +. interval) tick : Engine.handle)
  in
  ignore
    (Engine.schedule t.eng
       ~at:(Engine.now t.eng +. interval)
       tick
      : Engine.handle)

(** Start logging per-terminal plan fingerprints (before {!execute});
    used by the conformance harness to check that the workload stream is
    independent of the concurrency control algorithm. *)
let enable_fingerprints t = Workload.enable_fingerprints t.workload

(** Per-terminal fingerprints of every plan generated so far (empty
    unless {!enable_fingerprints} was called). *)
let workload_fingerprints t = Workload.fingerprints t.workload

(** Attach a serializability auditor (before {!execute}); committed
    transactions' reads and installs are then recorded for
    {!Audit.check}. *)
let enable_audit t =
  let audit = Audit.create () in
  t.audit <- Some audit;
  audit

(** Run an assembled machine to the end of its measurement window and
    collect the result. *)
let execute ?(log = false) t =
  let run_params = t.params.Params.run in
  ignore
    (Engine.schedule t.eng ~at:run_params.Params.warmup (fun () ->
         reset_observation_windows t)
      : Engine.handle);
  (match t.arrivals with
  | None ->
      for index = 0 to t.params.Params.workload.Params.num_terminals - 1 do
        Admission.run_terminal t ~index
      done
  | Some a -> Admission.run_arrival_pump t a);
  Option.iter (fun f -> Recovery.schedule_faults t f) t.faults;
  Option.iter Ddbm_cc.Snoop.start t.snoop;
  (* Wall-clock cost is reported, never simulated; each worker domain
     reads its own interval. *)
  (* lint: allow ambient unsafe-stdlib *)
  let wall_start = Sys.time () in
  Engine.run ~until:(run_params.Params.warmup +. run_params.Params.measure)
    t.eng;
  let wall_seconds = Sys.time () -. wall_start in (* lint: allow ambient unsafe-stdlib *)
  let result = collect_result t ~wall_seconds in
  t.result <- Some result;
  (* Logging is off by default; only the serial CLI run path ever
     passes ~log:true, never a Par.Pool task. *)
  (* lint: allow unsafe-stdlib *)
  if log then Logs.info (fun m -> m "%a" Sim_result.pp result);
  result

(** Build and run a complete simulation; returns the measured result. *)
let run ?log (params : Params.t) = execute ?log (create params)
