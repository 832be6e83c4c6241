(* The benchmark's workload table, one workload run, and the correctness
   checks every timed run passes.

   A workload run is a fixed list of simulations ("points") derived from
   the seed. Serial workloads run their points one after another on the
   calling domain; the sweep runs them as [Par.Pool] tasks. The scored
   numbers are host costs; the simulated results are deterministic, so
   they are checked (invariants, bit-identity across repetitions), not
   scored. *)

open Ddbm_model

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  name : string;
  points : seed:int -> horizon:float -> Params.t list;
      (** the simulations of one workload run; [horizon] scales the
          simulated warm-up and measurement window (1.0 = as benchmarked) *)
  jobs : int;  (** pool domains; 1 runs the points serially *)
  observed : bool;
      (** each point carries a Chrome exporter and a sampler, and
          serialises its metric registry, as [ddbm sweep --trace-out
          --metrics-out --sample-interval] does *)
}

let machine ~seed ~horizon ~nodes ~file_size ~terminals ~think ~algorithm
    ~warmup ~measure =
  let d = Params.default in
  {
    d with
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = nodes;
        partitioning_degree = 8;
        file_size;
      };
    workload =
      { d.Params.workload with Params.think_time = think; num_terminals = terminals };
    cc = { d.Params.cc with Params.algorithm };
    run =
      {
        Params.seed;
        warmup = warmup *. horizon;
        measure = measure *. horizon;
        restart_delay_floor = 0.5;
        fresh_restart_plan = false;
      };
  }

(* Distinct --seed values never share a simulation seed. *)
let sub_seed seed j = (seed * 16) + j

(* ROADMAP's canonical BENCH_parallel batch: 2PL on 8 nodes, 8-way
   declustered 120-page files, 64 terminals thinking 1 s. Several seeds
   per run so that one seed's deadlock luck does not set the figure. *)
let batch_2pl ~seed ~horizon =
  List.init 4 (fun j ->
      machine ~seed:(sub_seed seed j) ~horizon ~nodes:8 ~file_size:120
        ~terminals:64 ~think:1. ~algorithm:Params.Twopl ~warmup:5.
        ~measure:30.)

(* ROADMAP's "one large machine": no data contention, so the CC layer
   does nothing and heap depth, PS-CPU and per-node costs dominate. *)
let large_nodc ~seed ~horizon =
  [
    machine ~seed:(sub_seed seed 0) ~horizon ~nodes:64 ~file_size:1200
      ~terminals:512 ~think:0. ~algorithm:Params.No_dc ~warmup:4. ~measure:12.;
  ]

(* OPT certification with the log disk forced at prepare, one backup
   per cohort, two redo workers, rate-driven crashes with torn tails and
   crash-during-recovery, and an open-loop rate above capacity so the
   admission queue sheds. One point commits only about 70 transactions
   and its event count varies by 7-12 % with the seed, hence eight
   points per run. *)
let overload_faults_opt ~seed ~horizon =
  let spec s = match Fault_plan.of_spec s with Ok f -> f | Error e -> failwith e in
  let arrivals =
    match Arrival.of_spec "qps=12,cap=32,mpl=48" with
    | Ok a -> a
    | Error e -> failwith e
  in
  List.init 8 (fun j ->
      let s = sub_seed seed j in
      let p =
        machine ~seed:s ~horizon ~nodes:8 ~file_size:120 ~terminals:64
          ~think:0. ~algorithm:Params.Opt ~warmup:3. ~measure:25.
      in
      {
        p with
        Params.durability =
          {
            Params.log_disk = true;
            log_min_time = 0.002;
            log_max_time = 0.006;
            log_force = Params.At_prepare;
            replicas = 1;
            recovery_jobs = 2;
          };
        faults =
          spec
            (Printf.sprintf
               "crash-rate=0.1,mttr=0.2,loss=0.002,timeout=0.5,timeout-cap=2,\
                retries=4,torn-tail=0.5,recrash=0.3,fault-seed=%d"
               (s + 31));
        arrivals;
      })

(* [ddbm sweep --jobs 2 --trace-out --metrics-out --sample-interval]:
   wound-wait over think times and seeds, fanned out on the pool, every
   point observed. *)
let sweep_traced ~seed ~horizon =
  List.concat_map
    (fun think ->
      List.init 3 (fun j ->
          machine ~seed:(sub_seed seed j) ~horizon ~nodes:8 ~file_size:120
            ~terminals:64 ~think ~algorithm:Params.Wound_wait ~warmup:2.
            ~measure:12.))
    [ 0.; 2.; 8. ]

let all =
  [
    { name = "batch-2pl"; points = batch_2pl; jobs = 1; observed = false };
    { name = "large-nodc"; points = large_nodc; jobs = 1; observed = false };
    {
      name = "overload-faults-opt";
      points = overload_faults_opt;
      jobs = 1;
      observed = false;
    };
    {
      name = "sweep-traced";
      points = sweep_traced;
      jobs = Stdlib.min 2 (Par.Pool.default_jobs ());
      observed = true;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* --- one simulation ----------------------------------------------- *)

let sample_interval = 1.0

(* Attach the sweep's observers: a Chrome exporter into memory and the
   sampler. The returned finaliser closes the trace and serialises the
   registry, returning the bytes produced. *)
let attach_observers m (p : Params.t) =
  let buf = Buffer.create (1 lsl 16) in
  let chrome =
    Ddbm.Trace_export.Chrome.create
      ~num_nodes:p.Params.database.Params.num_proc_nodes (Buffer.add_string buf)
  in
  Tracer.attach (Ddbm.Machine.enable_events m) (Ddbm.Trace_export.Chrome.sink chrome);
  Ddbm.Machine.enable_sampler m ~interval:sample_interval;
  fun () ->
    Ddbm.Trace_export.Chrome.close chrome;
    let reg = Ddbm.Machine.registry m in
    Buffer.length buf
    + String.length (Metric.to_json reg)
    + String.length (Metric.to_prometheus reg)

let create ~observed p =
  let m = Ddbm.Machine.create p in
  let finish = if observed then attach_observers m p else fun () -> 0 in
  (m, finish)

type run = {
  result : Ddbm.Sim_result.t;
  wall : float;  (** create + execute + observer finalisation, seconds *)
  exec : float;  (** [Machine.execute] alone, seconds *)
  minor_words : float;
      (** minor words allocated by the domain that ran this point, during
          [execute] *)
}

(* Allocation is read on the domain that runs the point, so pool tasks
   count their own words (OCaml 5 counters are per domain). A recovery
   pass with [recovery_jobs = 2] maps over a pool of its own; words its
   helper domain allocates are not counted, only the point's domain. *)
let run_point ~observed p =
  let t0 = now () in
  let m, finish = create ~observed p in
  let w0 = Gc.minor_words () in
  let t1 = now () in
  let result = Ddbm.Machine.execute m in
  let t2 = now () in
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity (finish ()) : int);
  let t3 = now () in
  { result; wall = t3 -. t0; exec = t2 -. t1; minor_words = w1 -. w0 }

(* One workload run: its runs in point order and its wall time (the
   makespan, for the pool). *)
let run_workload w points =
  let t0 = now () in
  let runs =
    if w.jobs = 1 then List.map (run_point ~observed:w.observed) points
    else
      Par.Pool.map (Par.Pool.create ~jobs:w.jobs ())
        (run_point ~observed:w.observed) points
  in
  (runs, now () -. t0)

(* --- correctness -------------------------------------------------- *)

(* Every violation of the result's own invariants, and of bit-identity
   with [reference] (an earlier run of the same point). *)
let check ?reference (r : Ddbm.Sim_result.t) =
  let open Ddbm.Sim_result in
  let errs = ref (Ddbm_check.Invariants.check r) in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if r.lost_commits <> 0 then add "lost_commits = %d" r.lost_commits;
  if r.indoubt_overdue_at_end <> 0 then
    add "indoubt_overdue_at_end = %d" r.indoubt_overdue_at_end;
  if r.offered <> r.admitted + r.shed + r.expired + r.still_queued then
    add "open-loop conservation: offered %d <> admitted %d + shed %d + \
         expired %d + queued %d"
      r.offered r.admitted r.shed r.expired r.still_queued;
  (match reference with
  | Some r0 when not (equal r0 r) ->
      add "not bit-identical to the first run: %s" (String.concat "; " (diff r0 r))
  | _ -> ());
  List.rev !errs

(* Digest of everything [Sim_result.diff] compares: the host-dependent
   fields are zeroed before hashing. *)
let digest results =
  let canon (r : Ddbm.Sim_result.t) =
    { r with Ddbm.Sim_result.wall_seconds = 0.; events_per_sec = 0.; top_heap_words = 0 }
  in
  Digest.to_hex
    (Digest.string (Marshal.to_string (List.map canon results) [ Marshal.No_sharing ]))
