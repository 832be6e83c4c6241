(** State and helpers shared by the machine's protocol roles: the
    machine record, the fault and open-loop arrival runtimes, typed event
    emission, the 2PC decision log, and the timed receive. *)

open Desim
open Ddbm_model
open Ids

(* The records and helpers below are documented in runtime.mli. *)

type site = {
  state : Faults.Crashable.t;
  mutable down_since : float option;
  mutable downtime : float;
}

type fault_rt = {
  plan : Fault_plan.t;
  link : Faults.Link.t;
  sites : site array;
  crash_rngs : Rng.t array;
  jitter_rng : Rng.t;
  tear_rng : Rng.t;
  recrash_rng : Rng.t;
  decisions : (int * int, bool) Hashtbl.t;
  mutable host_down_until : float;
  mutable timeouts : int;
  mutable retries : int;
  mutable msgs_dropped : int;
  mutable msgs_duplicated : int;
  mutable node_crashes : int;
  mutable orphaned : int;
  mutable failovers : int;
  mutable total_downtime : float;
}

let site f = function Host -> f.sites.(0) | Proc i -> f.sites.(i + 1)
let up f node = Faults.Crashable.up (site f node).state

type pending = {
  enqueued_at : float;
  pending_plan : Plan.t;
}

type arrival_rt = {
  spec : Arrival.t;
  arr_rng : Rng.t;
  queue : pending Queue.t;
  mutable in_flight : int;
  mutable next_seq : int;
}

type t = {
  eng : Engine.t;
  params : Params.t;
  clock : Timestamp.Clock.t;
  host : Node.t;
  procs : Node.t array;
  net : Net.t;
  metrics : Metrics.t;
  catalog : Catalog.t;
  workload : Workload.t;
  live : (int, Messages.attempt_runtime) Hashtbl.t;
  think_rng : Rng.t;
  wal : Wal.t array option;
  mutable next_tid : int;
  mutable recoveries : int;
  mutable recovery_time : float;
  mutable recovery_chains : int;
  mutable recovery_degraded : int;
  mutable committed_cov : (int * int * int list) list;
  arrivals : arrival_rt option;
  mutable faults : fault_rt option;
  mutable snoop : Ddbm_cc.Snoop.t option;
  mutable audit : Audit.t option;
  mutable events : Tracer.t option;
  mutable result : Sim_result.t option;
}

let emit t make =
  match t.events with
  | None -> ()
  | Some tr -> Tracer.emit tr ~time:(Engine.now t.eng) (make ())

let decision_of f (txn : Txn.t) =
  Hashtbl.find_opt f.decisions (txn.Txn.tid, txn.Txn.attempt)

let log_decision t (txn : Txn.t) commit =
  match t.faults with
  | None -> ()
  | Some f -> Hashtbl.replace f.decisions (txn.Txn.tid, txn.Txn.attempt) commit

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare

let live_attempts t = List.map (Hashtbl.find t.live) (sorted_keys t.live)

let backup_of t i = (i + 1) mod Array.length t.procs

let resident (c : Messages.cohort) =
  match c.Messages.backup with Some b -> b | None -> c.Messages.plan.Plan.node

let doom (rt : Messages.attempt_runtime) reason =
  rt.Messages.txn.Txn.doomed <- true;
  if rt.Messages.doom_reason = None then rt.Messages.doom_reason <- Some reason

let orphan t f (txn : Txn.t) node =
  (Node.cc t.procs.(node)).Cc_intf.cc_abort txn;
  f.orphaned <- f.orphaned + 1;
  emit t (fun () ->
      Event.Txn_orphaned { tid = txn.Txn.tid; attempt = txn.Txn.attempt; node })

let recv t mb ~round =
  match t.faults with
  | None -> `Msg (Mailbox.recv mb)
  | Some f -> (
      match
        Mailbox.recv_timeout mb t.eng
          ~timeout:
            (Backoff.delay_jittered ~jitter:f.plan.Fault_plan.timeout_jitter
               ~rng:f.jitter_rng ~base:f.plan.Fault_plan.timeout
               ~cap:f.plan.Fault_plan.timeout_cap ~round)
      with
      | Some msg -> `Msg msg
      | None -> `Timeout f)

let note_timeout t f (txn : Txn.t) ~at_node ~round =
  f.timeouts <- f.timeouts + 1;
  emit t (fun () ->
      Event.Timeout_fired
        { tid = txn.Txn.tid; attempt = txn.Txn.attempt; at_node; round })
