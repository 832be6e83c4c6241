(* The configurations behind test/golden/results_tiny.csv: one
   closed-loop 2PL run, one open-loop run past capacity, one run with
   crashes, torn tails, the log disk and chain-parallel recovery, and one
   sequential 2PL run whose plan crashes the host as well as processing
   nodes under message loss and duplication, so every CSV column and
   every coordinator timeout and crash path is exercised. [gen_golden]
   writes the file and the observability suite reproduces it byte for
   byte. *)

open Ddbm_model

let base ~algorithm ~nodes ~terminals ~think ~seed =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = nodes;
        partitioning_degree = nodes;
        file_size = 60;
      };
    workload =
      { d.Params.workload with Params.think_time = think; num_terminals = terminals };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm };
    run =
      {
        Params.seed;
        warmup = 1.;
        measure = 6.;
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
    base ~algorithm:Params.Twopl ~nodes:2 ~terminals:8 ~think:0. ~seed:3;
    {
      (base ~algorithm:Params.Wound_wait ~nodes:2 ~terminals:8 ~think:0.
         ~seed:5)
      with
      Params.arrivals = ok (Arrival.of_spec "qps=12,cap=6,mpl=4");
    };
    {
      (base ~algorithm:Params.Opt ~nodes:4 ~terminals:12 ~think:0.5 ~seed:7)
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
       base ~algorithm:Params.Twopl ~nodes:4 ~terminals:12 ~think:0. ~seed:3
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

(** Header plus one row per configuration, newline-terminated. *)
let render () =
  String.concat ""
    (List.map
       (fun line -> line ^ "\n")
       (Ddbm.Sim_result.csv_header
       :: List.map
            (fun p -> Ddbm.Sim_result.to_csv_row (Ddbm.Machine.run p))
            configs))
