(* The traced pass: per-layer metrics of one workload.

   Every layer is measured from outside, by timing the benchmark's own
   calls into its public functions:

   - the first point of the workload runs untraced, with histograms
     off, and with a capturing [Tracer] sink attached, interleaved three
     times; the captured typed-event stream yields the per-commit counts
     and the simulated-time spans;
   - layer replays push streams captured from that run (lock requests
     and releases, response samples, the event stream, the committed
     write sets) through the layer's public API, so that their ns/op and
     words/op reflect the workload and not a synthetic loop. Engine,
     PS-CPU and disk loads run at the concurrency the trace observed.

   Host-time spans around every call the benchmark makes into a layer
   are kept in memory and written out at the end with the simulated-time
   spans. *)

open Ddbm_model
open Workloads
module Engine = Desim.Engine
module Rng = Desim.Rng
module Sim_result = Ddbm.Sim_result
module Machine = Ddbm.Machine

(* --- host-time spans ------------------------------------------------ *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

let spans = ref []
let open_spans = ref []
let next_span = ref 0

let span name f =
  let id = !next_span in
  incr next_span;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let start = now () in
  let r = f () in
  let stop = now () in
  open_spans := List.tl !open_spans;
  spans := { id; name; parent; start; stop } :: !spans;
  r

(* ns and minor words per operation of [f], which performs [ops]
   operations per call; [f] is repeated until 50 ms have passed. *)
let per_op name ~ops f =
  span name (fun () ->
      let ops = Stdlib.max 1 ops in
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let reps = ref 0 in
      while !reps = 0 || now () -. t0 < 0.05 do
        f ();
        incr reps
      done;
      let t = now () -. t0 and w = Gc.minor_words () -. w0 in
      let n = float_of_int (ops * !reps) in
      (t *. 1e9 /. n, w /. n))

(* --- the machine runs ---------------------------------------------- *)

type obs = {
  result : Sim_result.t;
  machine : Machine.t;
  wall : float;  (** create + execute *)
  promoted : float;
  majors : int;
}

let observe ?(histograms = true) ?(setup = ignore) name p =
  span name (fun () ->
      let t0 = now () in
      let machine = span "machine.create" (fun () -> Machine.create ~histograms p) in
      setup machine;
      let s0 = Gc.quick_stat () in
      let result = span "machine.execute" (fun () -> Machine.execute machine) in
      let s1 = Gc.quick_stat () in
      {
        result;
        machine;
        wall = now () -. t0;
        promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
        majors = s1.Gc.major_collections - s0.Gc.major_collections;
      })

(* A sink that keeps every event of the last attached run in memory, in
   emission order. *)
let capture () =
  let evs = ref [] in
  let attach m =
    evs := [];
    Tracer.attach (Machine.enable_events m) (fun ~time ev -> evs := (time, ev) :: !evs)
  in
  (attach, fun () -> Array.of_list (List.rev !evs))

(* --- simulated-time spans ------------------------------------------ *)

type sim_span = {
  s_name : string;
  tid : int;
  attempt : int;
  node : int;
  s_start : float;
  s_stop : float;
}

(* Lock request -> grant, keyed by (tid, attempt, node, page); disk,
   CPU and log-force completions carry their duration; recovery and
   redo-chain start -> completion, keyed by node (and chain). *)
let sim_spans evs =
  let out = ref [] in
  let add s_name ~tid ~attempt ~node s_start s_stop =
    out := { s_name; tid; attempt; node; s_start; s_stop } :: !out
  in
  let pending = Hashtbl.create 1024 in
  Array.iter
    (fun (time, ev) ->
      match ev with
      | Event.Lock_request { tid; attempt; node; page; _ } ->
          Hashtbl.replace pending (`Lock (tid, attempt, node, page)) time
      | Event.Lock_grant { tid; attempt; node; page; mode; _ } -> (
          let k = `Lock (tid, attempt, node, page) in
          match Hashtbl.find_opt pending k with
          | Some t0 ->
              Hashtbl.remove pending k;
              add ("lock." ^ Event.lock_mode_name mode) ~tid ~attempt ~node t0 time
          | None -> ())
      | Event.Disk_access { tid; attempt; node; write; dur } ->
          add (if write then "disk.write" else "disk.read") ~tid ~attempt ~node
            (time -. dur) time
      | Event.Cpu_slice { tid; attempt; node; dur } ->
          add "cpu.slice" ~tid ~attempt ~node (time -. dur) time
      | Event.Log_forced { tid; attempt; node; dur } ->
          add "wal.force" ~tid ~attempt ~node (time -. dur) time
      | Event.Recovery_started { node } -> Hashtbl.replace pending (`Rec node) time
      | Event.Recovery_completed { node; _ } -> (
          match Hashtbl.find_opt pending (`Rec node) with
          | Some t0 ->
              Hashtbl.remove pending (`Rec node);
              add "recovery" ~tid:(-1) ~attempt:(-1) ~node t0 time
          | None -> ())
      | Event.Recovery_chain_started { node; chain; _ } ->
          Hashtbl.replace pending (`Chain (node, chain)) time
      | Event.Recovery_chain_completed { node; chain; _ } -> (
          match Hashtbl.find_opt pending (`Chain (node, chain)) with
          | Some t0 ->
              Hashtbl.remove pending (`Chain (node, chain));
              add "recovery.chain" ~tid:(-1) ~attempt:chain ~node t0 time
          | None -> ())
      | _ -> ())
    evs;
  List.rev !out

let write_spans ~out ~prefix sims =
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let path name = Filename.concat out (prefix ^ name) in
  let oc = open_out (path "-host-spans.jsonl") in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %s, \"parent\": %d, \"start_s\": %s, \"end_s\": %s}\n"
        s.id (Report.json_string s.name) s.parent (Report.json_float s.start)
        (Report.json_float s.stop))
    (List.rev !spans);
  close_out oc;
  let oc = open_out (path "-sim-spans.jsonl") in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\": %s, \"tid\": %d, \"attempt\": %d, \"node\": %d, \"start\": %s, \
         \"end\": %s}\n"
        (Report.json_string s.s_name) s.tid s.attempt s.node (Report.json_float s.s_start)
        (Report.json_float s.s_stop))
    sims;
  close_out oc;
  (path "-host-spans.jsonl", path "-sim-spans.jsonl")

(* --- layer replays -------------------------------------------------- *)

(* Timer chains at heap depth [depth]: every fired event schedules the
   next one. *)
let engine_schedule_fire ~depth =
  let ops = 200_000 in
  per_op "layer.engine.schedule_fire" ~ops (fun () ->
      let eng = Engine.create () in
      let rng = Rng.create 7 in
      let left = ref ops in
      let rec tick () =
        if !left > 0 then begin
          decr left;
          ignore (Engine.schedule_after eng ~delay:(Rng.exponential rng ~mean:1.) tick
                  : Engine.handle)
        end
      in
      for _ = 1 to depth do
        tick ()
      done;
      Engine.run eng)

(* [depth] processes that suspend and are resolved one per event. *)
let engine_suspend_resume ~depth =
  let ops = 100_000 in
  per_op "layer.engine.suspend_resume" ~ops (fun () ->
      let eng = Engine.create () in
      let waiting = Queue.create () in
      let left = ref ops in
      for _ = 1 to depth do
        Engine.spawn eng (fun () ->
            while !left > 0 do
              decr left;
              Engine.suspend (fun (r : unit Engine.resolver) -> Queue.push r waiting)
            done)
      done;
      let rec wake () =
        (match Queue.take_opt waiting with
        | Some r -> r.Engine.resolve ()
        | None -> ());
        if !left > 0 || not (Queue.is_empty waiting) then
          ignore (Engine.schedule_after eng ~delay:0.001 wake : Engine.handle)
      in
      ignore (Engine.schedule_after eng ~delay:0.001 wake : Engine.handle);
      Engine.run eng)

(* [concurrency] page-processing jobs kept in one PS-CPU's sharing class. *)
let cpu_ps_submit (p : Params.t) ~concurrency =
  let ops = 100_000 in
  per_op "layer.cpu.ps_submit" ~ops (fun () ->
      let eng = Engine.create () in
      let cpu =
        Desim.Cpu.create eng ~rate:(p.Params.resources.Params.node_mips *. 1e6)
      in
      let rng = Rng.create 5 in
      let mean = p.Params.workload.Params.inst_per_page in
      let left = ref ops in
      let rec job () =
        if !left > 0 then begin
          decr left;
          Desim.Cpu.submit cpu ~instructions:(Rng.exponential rng ~mean) job
        end
      in
      for _ = 1 to concurrency do
        job ()
      done;
      Engine.run eng)

(* [depth] outstanding operations on one disk, in the traced read/write mix. *)
let disk_submit (p : Params.t) ~depth ~write_frac =
  let ops = 100_000 in
  per_op "layer.disk.submit" ~ops (fun () ->
      let eng = Engine.create () in
      let rng = Rng.create 3 in
      let r = p.Params.resources in
      let disk =
        Desim.Disk.create eng (Rng.split rng) ~min_time:r.Params.min_disk_time
          ~max_time:r.Params.max_disk_time
      in
      let left = ref ops in
      let rec op () =
        if !left > 0 then begin
          decr left;
          if Rng.bool rng ~p:write_frac then Desim.Disk.submit_write disk op
          else Desim.Disk.submit_read disk op
        end
      in
      for _ = 1 to depth do
        op ()
      done;
      Engine.run eng)

let replay_txn =
  let plan = { Plan.relation = 0; cohorts = [] } in
  fun tid attempt ->
    let ts = { Timestamp.time = 0.; uniq = tid } in
    {
      Txn.tid;
      attempt;
      origin_time = 0.;
      attempt_time = 0.;
      startup_ts = ts;
      cc_ts = ts;
      commit_ts = None;
      plan;
      phase = Txn.Working;
      doomed = false;
    }

exception Replay_abort

(* The traced lock request/release stream against fresh per-node lock
   tables in an engine, each request issued at its traced time by its own
   process (a cohort blocks on at most one request). *)
let lock_table_replay (p : Params.t) evs ~requests =
  per_op "layer.cc.lock_table" ~ops:requests (fun () ->
      let eng = Engine.create () in
      let tables =
        Array.init p.Params.database.Params.num_proc_nodes (fun _ ->
            Ddbm_cc.Lock_table.create eng ~blocking:(Desim.Stats.Tally.create ()))
      in
      let txns = Hashtbl.create 1024 in
      let txn tid attempt =
        match Hashtbl.find_opt txns (tid, attempt) with
        | Some t -> t
        | None ->
            let t = replay_txn tid attempt in
            Hashtbl.add txns (tid, attempt) t;
            t
      in
      Array.iter
        (fun (time, ev) ->
          match ev with
          | Event.Lock_request { tid; attempt; node; page; mode } ->
              let t = txn tid attempt in
              let mode =
                match mode with Event.Read -> Ddbm_cc.Lock_table.S | Event.Write -> X
              in
              Engine.spawn eng (fun () ->
                  Engine.wait time;
                  try Ddbm_cc.Lock_table.request tables.(node) t page mode ~on_block:ignore
                  with Replay_abort -> ())
          | Event.Lock_release { tid; attempt; node } ->
              let t = txn tid attempt in
              ignore
                (Engine.schedule eng ~at:time (fun () ->
                     Ddbm_cc.Lock_table.release_all tables.(node) t ~reject:Replay_abort)
                  : Engine.handle)
          | _ -> ())
        evs;
      Engine.run eng)

(* The traced access stream through OPT certification managers built by
   [Registry.make Opt]: reads and writes as traced; at each release the
   attempt certifies and commits if it committed in the trace, else
   aborts. *)
let opt_cert_replay (p : Params.t) evs ~committed ~txns =
  per_op "layer.cc.opt_cert" ~ops:txns (fun () ->
      let eng = Engine.create () in
      let clock = Timestamp.Clock.create () in
      let hooks =
        {
          Cc_intf.eng;
          clock;
          charge_cc_request = ignore;
          request_abort = (fun _ _ -> ());
        }
      in
      let ccs =
        Array.init p.Params.database.Params.num_proc_nodes (fun _ ->
            Ddbm_cc.Registry.make Params.Opt hooks)
      in
      let live = Hashtbl.create 1024 in
      let txn tid attempt =
        match Hashtbl.find_opt live (tid, attempt) with
        | Some t -> t
        | None ->
            let t = replay_txn tid attempt in
            Hashtbl.add live (tid, attempt) t;
            t
      in
      Engine.spawn eng (fun () ->
          Array.iter
            (fun (time, ev) ->
              match ev with
              | Event.Lock_request { tid; attempt; node; page; mode } -> (
                  let t = txn tid attempt in
                  try
                    match mode with
                    | Event.Read -> ccs.(node).Cc_intf.cc_read t page
                    | Event.Write -> ccs.(node).Cc_intf.cc_write t page
                  with Txn.Aborted _ -> ())
              | Event.Lock_release { tid; attempt; node } ->
                  let t = txn tid attempt in
                  let cc = ccs.(node) in
                  if Hashtbl.mem committed (tid, attempt) then begin
                    if t.Txn.commit_ts = None then
                      t.Txn.commit_ts <- Some (Timestamp.Clock.make clock ~time);
                    if cc.Cc_intf.cc_prepare t then begin
                      ignore (cc.Cc_intf.cc_installed t : Ids.Page.t list);
                      cc.Cc_intf.cc_commit t
                    end
                    else cc.Cc_intf.cc_abort t
                  end
                  else cc.Cc_intf.cc_abort t
              | _ -> ())
            evs);
      Engine.run eng)

(* Dependency records a WAL would hold for the traced committed
   attempts: write set from the traced write requests, predecessors from
   the previous committed writer of each page, LSN in commit order. *)
let dep_records evs =
  let writes = Hashtbl.create 1024 in
  let last_writer = Hashtbl.create 1024 in
  let lsn = ref 0 in
  let out = ref [] in
  Array.iter
    (fun (_, ev) ->
      match ev with
      | Event.Lock_request { tid; attempt; page; mode = Event.Write; _ } ->
          let k = (tid, attempt) in
          let ps = Option.value ~default:[] (Hashtbl.find_opt writes k) in
          if not (List.exists (Ids.Page.equal page) ps) then
            Hashtbl.replace writes k (page :: ps)
      | Event.Committed { tid; attempt; _ } ->
          let k = (tid, attempt) in
          let pages = List.rev (Option.value ~default:[] (Hashtbl.find_opt writes k)) in
          let deps =
            List.sort_uniq compare
              (List.filter_map
                 (fun pg ->
                   match Hashtbl.find_opt last_writer pg with
                   | Some w when w <> k -> Some w
                   | _ -> None)
                 pages)
          in
          List.iter (fun pg -> Hashtbl.replace last_writer pg k) pages;
          incr lsn;
          out :=
            {
              Wal.Codec.tid;
              attempt;
              lsn = !lsn;
              pages = List.map (fun pg -> (pg.Ids.Page.file, pg.Ids.Page.index)) pages;
              deps;
            }
            :: !out
      | _ -> ())
    evs;
  List.rev !out

let chains_input records =
  List.map
    (fun (r : Wal.Codec.dep_record) ->
      {
        Wal.Chains.key = (r.tid, r.attempt);
        pages = List.map (fun (file, index) -> Ids.Page.make ~file ~index) r.pages;
        deps = r.deps;
        lsn = r.lsn;
      })
    records

(* --- the pass ------------------------------------------------------- *)

let reps = 3

let traced w ~seed ~out =
  let points = w.points ~seed ~horizon:1. in
  let p = List.hd points in
  let attempted = ref 0 and failures = ref [] and notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* one correctness check: [errs] lists its violations *)
  let verify what errs =
    incr attempted;
    if errs <> [] then
      failures := Printf.sprintf "%s: %s" what (String.concat "; " errs) :: !failures
  in
  let checked ?reference what (o : obs) =
    verify what (check ?reference o.result);
    o
  in
  let attach, stream = capture () in
  let runs =
    List.init reps (fun _ ->
        let base = checked "untraced" (observe "run.untraced" p) in
        let hist_off =
          checked "histograms off" (observe ~histograms:false "run.histograms_off" p)
        in
        verify "histograms off changed"
          (List.filter
             (fun d ->
               not
                 (String.starts_with ~prefix:"response_p99:" d
                 || String.starts_with ~prefix:"response_p999:" d))
             (Sim_result.diff base.result hist_off.result));
        let traced =
          checked ~reference:base.result "tracer only"
            (observe ~setup:attach "run.traced" p)
        in
        (base, hist_off, traced))
  in
  let evs = stream () in
  let audit = ref None in
  ignore
    (checked "audited"
       (observe ~setup:(fun m -> audit := Some (Machine.enable_audit m)) "run.audited" p)
      : obs);
  verify "audit"
    (match Option.map Ddbm.Audit.check !audit with
    | Some (Error msg) -> [ msg ]
    | Some (Ok _) | None -> []);
  let med f = Report.median (List.map f runs) in
  let base_wall = med (fun (b, _, _) -> b.wall) in
  let hist_off_wall = med (fun (_, h, _) -> h.wall) in
  let traced_wall = med (fun (_, _, t) -> t.wall) in
  let base, _, traced_run = List.nth runs (reps - 1) in
  let r = base.result in
  (* counts from the stream *)
  let count f = Array.fold_left (fun n (_, ev) -> if f ev then n + 1 else n) 0 evs in
  let sumf f = Array.fold_left (fun s (_, ev) -> s +. f ev) 0. evs in
  let commits = count (function Event.Committed _ -> true | _ -> false) in
  let per_commit n = Report.ratio (float_of_int n) (float_of_int commits) in
  let aborts = count (function Event.Aborted _ -> true | _ -> false) in
  let requests = count (function Event.Lock_request _ -> true | _ -> false) in
  let grants = count (function Event.Lock_grant _ -> true | _ -> false) in
  let blocked =
    count (function Event.Lock_grant { waited; _ } -> waited > 0. | _ -> false)
  in
  let rounds = count (function Event.Snoop_round _ -> true | _ -> false) in
  let edges =
    sumf (function Event.Snoop_round { edges; _ } -> float_of_int edges | _ -> 0.)
  in
  let slices = count (function Event.Cpu_slice _ -> true | _ -> false) in
  let accesses = count (function Event.Disk_access _ -> true | _ -> false) in
  let writes = count (function Event.Disk_access { write; _ } -> write | _ -> false) in
  let sends = count (function Event.Msg_send _ -> true | _ -> false) in
  let forces = count (function Event.Log_forced _ -> true | _ -> false) in
  let timeouts = count (function Event.Timeout_fired _ -> true | _ -> false) in
  let releases = count (function Event.Lock_release _ -> true | _ -> false) in
  let nodes = float_of_int p.Params.database.Params.num_proc_nodes in
  let horizon = r.Sim_result.sim_end in
  (* Little's law over the run: mean jobs in a node's PS class and mean
     operations queued or in service at one disk *)
  let ps_concurrency =
    Report.ratio (sumf (function Event.Cpu_slice { dur; _ } -> dur | _ -> 0.)) (nodes *. horizon)
  in
  let disk_depth =
    Report.ratio
      (sumf (function Event.Disk_access { dur; _ } -> dur | _ -> 0.))
      (nodes *. float_of_int p.Params.resources.Params.disks_per_node *. horizon)
  in
  let at_least_one x = Stdlib.max 1 (int_of_float (Float.round x)) in
  let depth = p.Params.workload.Params.num_terminals in
  let schedule_ns, schedule_words = engine_schedule_fire ~depth in
  let suspend_ns, suspend_words = engine_suspend_resume ~depth in
  let cpu_ns, cpu_words = cpu_ps_submit p ~concurrency:(at_least_one ps_concurrency) in
  let disk_ns, disk_words =
    disk_submit p ~depth:(at_least_one disk_depth)
      ~write_frac:(Report.ratio (float_of_int writes) (float_of_int accesses))
  in
  let lock_ns, lock_words = lock_table_replay p evs ~requests in
  let committed = Hashtbl.create 1024 in
  Array.iter
    (function
      | _, Event.Committed { tid; attempt; _ } -> Hashtbl.replace committed (tid, attempt) ()
      | _ -> ())
    evs;
  let opt_ns, opt_words = opt_cert_replay p evs ~committed ~txns:releases in
  (* response samples into a fresh histogram *)
  let responses =
    Array.of_list
      (List.filter_map
         (function _, Event.Committed { response; _ } -> Some response | _ -> None)
         (Array.to_list evs))
  in
  let hdr_ns, hdr_words =
    per_op "layer.stats.hdr_add" ~ops:(Array.length responses) (fun () ->
        let h = Desim.Stats.Hdr.create () in
        Array.iter (Desim.Stats.Hdr.add h) responses)
  in
  (* the event stream into the Chrome exporter *)
  let bytes = ref 0 in
  let export_ns, export_words =
    per_op "layer.trace_export.chrome" ~ops:(Array.length evs) (fun () ->
        let buf = Buffer.create (1 lsl 20) in
        let chrome =
          Ddbm.Trace_export.Chrome.create
            ~num_nodes:p.Params.database.Params.num_proc_nodes (Buffer.add_string buf)
        in
        let sink = Ddbm.Trace_export.Chrome.sink chrome in
        Array.iter (fun (time, ev) -> sink ~time ev) evs;
        Ddbm.Trace_export.Chrome.close chrome;
        bytes := Buffer.length buf)
  in
  (* dependency records through the WAL codec and the chain partitioner *)
  let records = dep_records evs in
  let n_records = List.length records in
  let log = ref "" in
  let encode_ns, encode_words =
    per_op "layer.wal.codec_encode" ~ops:n_records (fun () ->
        log := Wal.Codec.encode_log records)
  in
  let scanned = ref ([], 0) in
  let scan_ns, scan_words =
    per_op "layer.wal.codec_scan" ~ops:n_records (fun () ->
        scanned := Wal.Codec.scan_valid !log)
  in
  verify "Wal.Codec"
    (if !scanned = (records, 0) then []
     else [ "scan_valid does not return the encoded records" ]);
  let chain_txns = chains_input records in
  let chains = ref [] in
  let chains_ns, chains_words =
    per_op "layer.wal.chains_partition" ~ops:n_records (fun () ->
        chains := Wal.Chains.partition chain_txns)
  in
  verify "Wal.Chains"
    (if
       List.sort compare (List.concat !chains)
       = List.sort compare (List.map (fun t -> t.Wal.Chains.key) chain_txns)
     then []
     else [ "the chains do not cover the input keys exactly" ]);
  (* arrivals: the workload's own process, or a Poisson process at the
     traced throughput for closed-loop workloads *)
  let spec =
    if Arrival.open_loop p.Params.arrivals then p.Params.arrivals
    else
      {
        Arrival.zero with
        Arrival.process =
          Arrival.Qps (Stdlib.max 1. (Report.ratio (float_of_int commits) horizon));
      }
  in
  let arrival_ns, arrival_words =
    let ops = 100_000 in
    per_op "layer.arrival.next_arrival" ~ops (fun () ->
        let rng = Rng.create 11 in
        let t = ref 0. in
        for _ = 1 to ops do
          match Arrival.next_arrival spec rng ~now:!t ~horizon:Float.max_float with
          | Some x -> t := x
          | None -> ()
        done)
  in
  let registry_s =
    span "machine.registry" (fun () ->
        let t0 = now () in
        let reg = Machine.registry traced_run.machine in
        ignore (Sys.opaque_identity (Metric.to_json reg, Metric.to_prometheus reg));
        now () -. t0)
  in
  (* the pool: one observed workload run, per-task times against its
     makespan *)
  let speedup, efficiency, task_overhead_us =
    if w.jobs = 1 then begin
      note "pool.*: %s runs its points serially; no pool tasks to measure" w.name;
      (1., 1., 0.)
    end
    else
      let runs, makespan = span "pool.map" (fun () -> run_workload w points) in
      List.iter (fun (run : Workloads.run) -> verify "pool task" (check run.result)) runs;
      let busy = List.fold_left (fun s (run : Workloads.run) -> s +. run.wall) 0. runs in
      let jobs = float_of_int (Stdlib.min w.jobs (List.length runs)) in
      let speedup = Report.ratio busy makespan in
      ( speedup,
        speedup /. jobs,
        Report.ratio (((makespan *. jobs) -. busy) *. 1e6) (float_of_int (List.length runs)) )
  in
  if r.Sim_result.recoveries = 0 then
    note "recovery.degraded_ratio: no recovery ran in %s" w.name;
  let sims = sim_spans evs in
  let host_path, sim_path =
    write_spans ~out ~prefix:(Printf.sprintf "%s-seed%d" w.name seed) sims
  in
  note "spans: %s (%d host), %s (%d simulated)" host_path (List.length !spans) sim_path
    (List.length sims);
  note "traced point digest: %s" (digest [ traced_run.result ]);
  let events = float_of_int r.Sim_result.sim_events in
  let metrics =
    [
      ("engine.events_per_commit", per_commit r.Sim_result.sim_events, "count");
      ("engine.schedule_fire_ns", schedule_ns, "ns");
      ("engine.schedule_fire_words", schedule_words, "words");
      ("engine.suspend_resume_ns", suspend_ns, "ns");
      ("engine.suspend_resume_words", suspend_words, "words");
      ("cpu.slices_per_commit", per_commit slices, "count");
      ("cpu.ps_concurrency", ps_concurrency, "jobs");
      ("cpu.ps_submit_ns", cpu_ns, "ns");
      ("cpu.ps_submit_words", cpu_words, "words");
      ("disk.accesses_per_commit", per_commit accesses, "count");
      ("disk.submit_ns", disk_ns, "ns");
      ("disk.submit_words", disk_words, "words");
      ("cc.lock_requests_per_commit", per_commit requests, "count");
      ("cc.block_ratio", Report.ratio (float_of_int blocked) (float_of_int grants), "ratio");
      ("cc.snoop_edges_per_round", Report.ratio edges (float_of_int rounds), "count");
      ("cc.lock_table_ns_per_request", lock_ns, "ns");
      ("cc.lock_table_words_per_request", lock_words, "words");
      ( "cc.commit_ratio",
        Report.ratio (float_of_int commits) (float_of_int (commits + aborts)),
        "ratio" );
      ("cc.opt_cert_ns_per_txn", opt_ns, "ns");
      ("cc.opt_cert_words_per_txn", opt_words, "words");
      ("net.msgs_per_commit", per_commit sends, "count");
      ("wal.forces_per_commit", per_commit forces, "count");
      ("wal.codec_encode_ns_per_record", encode_ns, "ns");
      ("wal.codec_encode_words_per_record", encode_words, "words");
      ("wal.codec_scan_ns_per_record", scan_ns, "ns");
      ("wal.codec_scan_words_per_record", scan_words, "words");
      ("recovery.chains_partition_ns_per_txn", chains_ns, "ns");
      ("recovery.chains_partition_words_per_txn", chains_words, "words");
      ( "recovery.degraded_ratio",
        Report.ratio
          (float_of_int r.Sim_result.recovery_degraded)
          (float_of_int r.Sim_result.recoveries),
        "ratio" );
      ("faults.timeouts_per_commit", per_commit timeouts, "count");
      (* retries have no event: both counts from the measurement window *)
      ( "faults.retries_per_commit",
        Report.ratio
          (float_of_int r.Sim_result.retries)
          (float_of_int r.Sim_result.commits),
        "count" );
      ("arrival.next_arrival_ns", arrival_ns, "ns");
      ("arrival.next_arrival_words", arrival_words, "words");
      ( "admission.shed_ratio",
        Report.ratio (float_of_int r.Sim_result.shed) (float_of_int r.Sim_result.offered),
        "ratio" );
      ("stats.hdr_add_ns", hdr_ns, "ns");
      ("stats.hdr_add_words", hdr_words, "words");
      ("observer.histograms_overhead", Report.ratio base_wall hist_off_wall -. 1., "ratio");
      ("trace.events_per_commit", per_commit (Array.length evs), "count");
      ("trace.export_ns_per_event", export_ns, "ns");
      ("trace.export_words_per_event", export_words, "words");
      ( "trace.export_bytes_per_event",
        Report.ratio (float_of_int !bytes) (float_of_int (Array.length evs)),
        "B" );
      ("observer.trace_overhead", Report.ratio traced_wall base_wall -. 1., "ratio");
      ("observer.trace_overhead_s", traced_wall -. base_wall, "s");
      ("metric.registry_serialize_s", registry_s, "s");
      ("pool.speedup", speedup, "ratio");
      ("pool.efficiency", efficiency, "ratio");
      ("pool.task_overhead_us", task_overhead_us, "us");
      ("gc.promoted_words_per_event", Report.ratio base.promoted events, "words");
      ("gc.major_collections", float_of_int base.majors, "count");
    ]
  in
  List.iter print_endline (List.rev !notes);
  List.iter (Printf.printf "check failed (%s traced): %s\n" w.name) (List.rev !failures);
  let failed = List.length !failures in
  print_endline
    (Report.result_line ~correct:(failed = 0) ~attempted:!attempted ~failed metrics);
  failed = 0
