(** State and helpers shared by the machine's protocol roles: the
    machine record, the fault and open-loop arrival runtimes, typed event
    emission, the 2PC decision log, and the timed receive. *)

open Desim
open Ddbm_model

(** Crash state and availability accounting of one site: windowed
    downtime (reset with the observation windows) and the start of the
    open down-spell, if any. *)
type site = {
  state : Faults.Crashable.t;
  mutable down_since : float option;
  mutable downtime : float;
}

(** Fault runtime, installed only when the fault plan is active
    ([Fault_plan.active]). A zero plan leaves [t.faults = None]: no
    timers, no judged messages, no extra RNG draws — the machine is
    bit-for-bit identical to a fault-free build. *)
type fault_rt = {
  plan : Fault_plan.t;
  link : Faults.Link.t;  (** per-message loss/dup/delay judge *)
  sites : site array;  (** the host, then processing nodes 0 .. n-1 *)
  crash_rngs : Rng.t array;  (** per proc node, rate-driven crashes *)
  jitter_rng : Rng.t;
      (** drives the optional timeout jitter; untouched (and never drawn
          from) when the plan's [timeout_jitter] is zero *)
  tear_rng : Rng.t;
      (** one draw per WAL-tearing opportunity (a crash dropping a
          non-empty volatile tail); untouched when [torn_tail] is zero *)
  recrash_rng : Rng.t;
      (** one draw per recovery start (plus the re-crash schedule when it
          hits); untouched when [recrash] is zero *)
  decisions : (int * int, bool) Hashtbl.t;
      (** 2PC decision log, (tid, attempt) -> commit; written before any
          phase-two message is sent and kept for the whole run so the
          termination protocol can answer late inquiries *)
  mutable host_down_until : float;
      (** latest scheduled host recovery; gates terminal admission *)
  mutable timeouts : int;
  mutable retries : int;
  mutable msgs_dropped : int;
  mutable msgs_duplicated : int;
  mutable node_crashes : int;
  mutable orphaned : int;
  mutable failovers : int;
      (** cohorts resurrected at their backup node after a primary crash *)
  mutable total_downtime : float;
      (** unwindowed downtime over all sites; feeds the in-doubt grace *)
}


(** Open-loop arrival runtime, installed only when the arrival spec is
    open loop ([Arrival.open_loop]). A closed spec leaves [t.arrivals =
    None]: no pump fiber, no admission queue, no extra RNG split — the
    machine is bit-for-bit identical to a closed-loop build. *)
type pending = {
  enqueued_at : float;
  pending_plan : Plan.t;
}

type arrival_rt = {
  spec : Arrival.t;
  arr_rng : Rng.t;
      (** dedicated inter-arrival stream (thinning draws included) *)
  queue : pending Queue.t;  (** bounded FIFO admission queue *)
  mutable in_flight : int;
      (** dispatched and not yet committed; gates the MPL limiter *)
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
      (** one write-ahead log per processing node when the durability
          model is on ([durability.log_disk]); [None] otherwise — the
          zero-config machine pays nothing *)
  mutable next_tid : int;
  mutable recoveries : int;  (** completed crash-recovery passes *)
  mutable recovery_time : float;  (** summed recovery durations *)
  mutable recovery_chains : int;
      (** dependency chains replayed by chain-parallel recovery *)
  mutable recovery_degraded : int;
      (** chain-parallel passes degraded to serial physical redo because
          a torn tail clipped the dependency records *)
  mutable committed_cov : (int * int * int list) list;
      (** durability coverage obligations, newest first: (tid, attempt,
          updating-cohort nodes after failover relocation) of every fully
          committed transaction; checked against the WALs at end of run
          ([lost_commits] must be 0) *)
  arrivals : arrival_rt option;
  mutable faults : fault_rt option;
  mutable snoop : Ddbm_cc.Snoop.t option;
  mutable audit : Audit.t option;
  mutable events : Tracer.t option;  (** typed lifecycle events *)
  mutable result : Sim_result.t option;
      (** the collected result, once {!Machine.execute} has returned *)
}

(** [site f node]: the crash state of a site. *)
val site : fault_rt -> Ids.node_ref -> site

val up : fault_rt -> Ids.node_ref -> bool

(** Typed event emission: zero cost unless a tracer is attached — the
    event value is only constructed when [t.events] is [Some _]. *)
val emit : t -> (unit -> Event.t) -> unit

(** A decision in the log means phase two has begun: the attempt's
    outcome is durable and survives any crash. *)
val decision_of : fault_rt -> Txn.t -> bool option

(** Log an attempt's decision (a no-op without faults). *)
val log_decision : t -> Txn.t -> bool -> unit

val sorted_keys : (int, 'a) Hashtbl.t -> int list

(** The live attempts in tid order. *)
val live_attempts : t -> Messages.attempt_runtime list

(** Primary/backup replication: each processing node's backup is its
    ring successor. *)
val backup_of : t -> int -> int

(** Where the cohort now runs: its backup after a failover, its planned
    node otherwise. *)
val resident : Messages.cohort -> int

(** Doom an attempt that must abort though no message may carry the
    news; the first reason sticks. *)
val doom : Messages.attempt_runtime -> Txn.abort_reason -> unit

(** Force-clean an unreachable cohort out of band: its CC footprint at
    [node] is released and the attempt counted as orphaned there. *)
val orphan : t -> fault_rt -> Txn.t -> int -> unit

(** Receive on a coordinator or cohort mailbox: a plain blocking receive
    when faults are off; otherwise bounded by the plan's (exponentially
    backed-off, optionally jittered) timeout, whose expiry hands back the
    fault runtime. *)
val recv :
  t -> 'a Mailbox.t -> round:int -> [ `Msg of 'a | `Timeout of fault_rt ]

(** Count and trace a receive timeout at [at_node]. *)
val note_timeout :
  t -> fault_rt -> Txn.t -> at_node:Ids.node_ref -> round:int -> unit
