(** Coordinator/cohort message protocol and the per-attempt runtime
    it routes through. Types only: this interface has no implementation.

    One coordinator mailbox and one mailbox per cohort exist per
    transaction attempt, so messages can never leak between attempts. The
    only cross-attempt traffic, {!coord_msg.Abort_request} and
    {!coord_msg.Inquiry}, carries the target attempt and is dropped (or
    answered from the decision log) at routing time when stale. *)

open Desim
open Ddbm_model

(** Coordinator -> cohort. *)
type cohort_msg =
  | Do_prepare  (** start phase one; [Txn.commit_ts] is already assigned *)
  | Do_commit
  | Do_abort

(** Cohort (or CC manager) -> coordinator. *)
type coord_msg =
  | Work_done of int  (** cohort at node finished its reads and writes *)
  | Cohort_aborted of int * Txn.abort_reason
      (** cohort self-aborted (e.g. BTO rejection) *)
  | Vote of int * bool
  | Done_ack of int  (** final acknowledgement of commit or abort *)
  | Abort_request of Txn.t * Txn.abort_reason
      (** a CC manager somewhere demands this transaction's abort *)
  | Inquiry of Txn.t * int
      (** 2PC termination protocol: the in-doubt cohort at [node] asks
          what became of the given attempt. Routed to the live
          coordinator if any; otherwise answered from the host's decision
          log (presumed abort). *)

(** Work-phase resource usage of one cohort, accumulated as wall-clock
    deltas around its CC, disk, and CPU operations; feeds the
    response-time decomposition ({!Decomp}). *)
type cohort_usage = {
  mutable u_blocked : float;  (** CC requests: lock waits + processing *)
  mutable u_disk : float;  (** disk reads: queueing + service *)
  mutable u_cpu : float;  (** page processing under processor sharing *)
  mutable u_log : float;
      (** prepare-record log forces: log-disk queueing + service (zero
          without a modeled log disk) *)
}

(** One planned cohort of an attempt: its plan, its mailbox, and the
    protocol state the coordinator and fault handling read. *)
type cohort = {
  plan : Plan.cohort_plan;
  mutable mb : cohort_msg Mailbox.t option;
      (** created by the first load message; [None] while unloaded *)
  usage : cohort_usage;  (** all floats, so stored unboxed *)
  mutable arrived : bool;
      (** the load-cohort message was delivered; guards against a
          retransmitted load spawning a twin cohort, and tells the
          coordinator whether the load may have been lost *)
  mutable voted : bool;
      (** sent a yes vote — the cohort is prepared (in-doubt) and must
          not be victimized by a node crash *)
  mutable shipped : bool;
      (** the cohort's write-set was delivered to its backup
          (primary/backup replication): if the node crashes before the
          cohort votes, the coordinator can fail over to the backup
          instead of dooming the attempt *)
  mutable preparing : bool;
      (** began processing Do_prepare (may be blocked inside its CC
          manager); such a cohort cannot be failed over — a backup proxy
          would double-drive the CC manager *)
  mutable backup : int option;
      (** the backup node now running its proxy after a failover;
          coordinator sends route there, and the original fiber exits
          silently when it observes it *)
}

(** Per-attempt runtime shared between the coordinator and the message
    routing layer. *)
type attempt_runtime = {
  txn : Txn.t;
  coord_mb : coord_msg Mailbox.t;
  cohorts : cohort array;  (** one per planned cohort, in node order *)
  mutable last_work_node : int;
      (** node whose Work_done the coordinator processed last (-1 until
          the first arrives); the work-phase critical path under parallel
          execution *)
  mutable last_vote_node : int;
      (** node whose yes vote the coordinator accepted last (-1 until the
          first); its prepare-record force gates the commit decision and
          feeds the decomposition's [log] component *)
  mutable doom_reason : Txn.abort_reason option;
      (** set by fault handling (node crash) when the attempt must abort
          but no message can carry the news; the coordinator checks it on
          every receive timeout *)
}
