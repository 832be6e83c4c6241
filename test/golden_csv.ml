(* The configurations behind test/golden/results_tiny.csv: one
   closed-loop 2PL run, one open-loop run past capacity, one run with
   crashes, torn tails, the log disk and chain-parallel recovery, one
   sequential 2PL run whose plan crashes the host as well as processing
   nodes under message loss and duplication, so every CSV column and
   every coordinator timeout and crash path is exercised, and two runs
   with every file stored twice: parallel 2PL, which write-locks remote
   copies at access time by replica RPCs, and sequential O2PL, which
   defers them to prepare and so drives update-only cohorts.
   [gen_golden] writes the file and the observability suite reproduces
   it byte for byte. *)

open Ddbm_model

let base ?degree ?(file_size = 60) ?(warmup = 1.) ?(measure = 6.)
    ~algorithm ~nodes ~terminals ~think ~seed () =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = nodes;
        partitioning_degree = Option.value degree ~default:nodes;
        file_size;
      };
    workload =
      { d.Params.workload with Params.think_time = think; num_terminals = terminals };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm };
    run =
      {
        Params.seed;
        warmup;
        measure;
        restart_delay_floor = 0.5;
        fresh_restart_plan = false;
      };
    durability = Params.default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

let ok = function Ok v -> v | Error msg -> failwith msg

let configs =
  [
    base ~algorithm:Params.Twopl ~nodes:2 ~terminals:8 ~think:0. ~seed:3 ();
    {
      (base ~algorithm:Params.Wound_wait ~nodes:2 ~terminals:8 ~think:0.
         ~seed:5 ())
      with
      Params.arrivals = ok (Arrival.of_spec "qps=12,cap=6,mpl=4");
    };
    {
      (base ~algorithm:Params.Opt ~nodes:4 ~terminals:12 ~think:0.5 ~seed:7 ())
      with
      Params.durability =
        {
          Params.default_durability with
          Params.log_disk = true;
          replicas = 1;
          recovery_jobs = 2;
        };
      faults =
        ok
          (Fault_plan.of_spec
             "loss=0.05,crash=1@2+1,crash=2@4+0.5,torn-tail=0.5,recrash=0.3,\
              mttr=0.5,timeout=0.5,timeout-cap=2,retries=5,fault-seed=29");
    };
    (let b =
       base ~algorithm:Params.Twopl ~nodes:4 ~terminals:12 ~think:0. ~seed:3 ()
     in
     {
       b with
       Params.workload =
         { b.Params.workload with Params.exec_pattern = Params.Sequential };
       durability =
         {
           Params.default_durability with
           Params.log_disk = true;
           replicas = 1;
         };
       faults =
         ok
           (Fault_plan.of_spec
              "loss=0.02,dup=0.02,crash=host@4+0.5,crash=0@2.5+1,crash=2@5+1,\
               timeout=0.5,timeout-cap=2,retries=3,fault-seed=3");
     });
  ]
  @ List.map
      (fun (algorithm, exec_pattern) ->
        let b = base ~algorithm ~nodes:4 ~terminals:12 ~think:0. ~seed:3 () in
        {
          b with
          Params.database = { b.Params.database with Params.replication = 2 };
          workload = { b.Params.workload with Params.exec_pattern };
        })
      [ (Params.Twopl, Params.Parallel); (Params.O2pl, Params.Sequential) ]

(** Header plus one row per configuration, newline-terminated. *)
let render () =
  String.concat ""
    (List.map
       (fun line -> line ^ "\n")
       (Ddbm.Sim_result.csv_header
       :: List.map
            (fun p -> Ddbm.Sim_result.to_csv_row (Ddbm.Machine.run p))
            configs))

(* --- cost pins ---------------------------------------------------- *)

(* The configurations behind test/golden/cost_pins.csv, one shaped like
   each BENCHMARK.json workload: the 2PL probe machine, the large NO_DC
   machine, OPT under crashes, torn tails and open-loop overload, and
   wound-wait with a Chrome exporter and the sampler attached. Their
   event, commit and message counts are exact; their minor words per
   event are pinned within 1 % by the observability suite. *)
type cost_config = { name : string; params : Params.t; observed : bool }

let cost_configs =
  [
    {
      name = "probe-2pl";
      params =
        base ~degree:8 ~file_size:120 ~warmup:5. ~measure:30.
          ~algorithm:Params.Twopl ~nodes:8 ~terminals:64 ~think:1. ~seed:1 ();
      observed = false;
    };
    {
      name = "large-nodc";
      params =
        base ~degree:8 ~file_size:1200 ~warmup:4. ~measure:12.
          ~algorithm:Params.No_dc ~nodes:64 ~terminals:512 ~think:0. ~seed:16 ();
      observed = false;
    };
    {
      name = "overload-faults-opt";
      params =
        {
          (base ~degree:8 ~file_size:120 ~warmup:3. ~measure:25.
             ~algorithm:Params.Opt ~nodes:8 ~terminals:64 ~think:0. ~seed:16 ())
          with
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
            ok
              (Fault_plan.of_spec
                 "crash-rate=0.1,mttr=0.2,loss=0.002,timeout=0.5,\
                  timeout-cap=2,retries=4,torn-tail=0.5,recrash=0.3,\
                  fault-seed=47");
          arrivals = ok (Arrival.of_spec "qps=12,cap=32,mpl=48");
        };
      observed = false;
    };
    {
      name = "traced-ww";
      params =
        base ~degree:8 ~file_size:120 ~warmup:2. ~measure:12.
          ~algorithm:Params.Wound_wait ~nodes:8 ~terminals:64 ~think:0. ~seed:16
          ();
      observed = true;
    };
  ]

type cost = {
  sim_events : int;
  commits : int;
  messages : int;
  words_per_event : float;
}

(* Run one configuration and count the minor words [Machine.execute]
   allocates on the calling domain (OCaml 5 counts per domain). An
   observed run's exporter and sampler are attached before the count
   starts. *)
let cost c =
  let m = Ddbm.Machine.create c.params in
  if c.observed then begin
    let buf = Buffer.create (1 lsl 16) in
    let chrome =
      Ddbm.Trace_export.Chrome.create
        ~num_nodes:c.params.Params.database.Params.num_proc_nodes
        (Buffer.add_string buf)
    in
    Tracer.attach (Ddbm.Machine.enable_events m)
      (Ddbm.Trace_export.Chrome.sink chrome);
    Ddbm.Machine.enable_sampler m ~interval:1.
  end;
  let w0 = Gc.minor_words () in
  let r = Ddbm.Machine.execute m in
  let words = Gc.minor_words () -. w0 in
  {
    sim_events = r.Ddbm.Sim_result.sim_events;
    commits = r.Ddbm.Sim_result.commits;
    messages = r.Ddbm.Sim_result.messages;
    words_per_event = words /. float_of_int r.Ddbm.Sim_result.sim_events;
  }

let cost_header = "config,sim_events,commits,messages,minor_words_per_event"

let cost_row name c =
  Printf.sprintf "%s,%d,%d,%d,%.2f" name c.sim_events c.commits c.messages
    c.words_per_event

(** The pin file: provenance comments, header, one row per
    configuration. *)
let render_cost_pins () =
  String.concat ""
    (List.map
       (fun line -> line ^ "\n")
       ([
          "# Cost pins of the \"golden cost pins\" test (test/test_observability.ml),";
          "# one row per Golden_csv.cost_configs entry. minor_words_per_event is";
          "# for dune's dev profile (what `dune runtest` builds) on OCaml "
          ^ Sys.ocaml_version ^ ";";
          "# the release profile allocates 0.6-1.8 % less. Regenerate from the";
          "# repo root with `dune exec test/gen_golden.exe`.";
          cost_header;
        ]
       @ List.map (fun c -> cost_row c.name (cost c)) cost_configs))
