(** The cohort process (Sections 2.1 and 3 of the paper): one per
    processing node a transaction touches. It executes the node's page
    accesses, then plays its part in centralized two-phase commit. *)

(** [run_cohort t rt c mb] runs cohort [c] of attempt [rt], receiving on
    [mb], until the attempt's outcome is acknowledged. With [~proxy:true]
    it takes over the commit-protocol role at the backup of a crashed
    node (failover). *)
val run_cohort :
  ?proxy:bool ->
  Runtime.t ->
  Messages.attempt_runtime ->
  Messages.cohort ->
  Messages.cohort_msg Desim.Mailbox.t ->
  unit
