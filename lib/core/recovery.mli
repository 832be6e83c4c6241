(** Site crashes and crash recovery: volatile-state loss and cohort
    failover, the WAL redo pass, the fault schedule, and the
    availability and durability accounting of a faulty run. *)

(** Arm the plan's scheduled and rate-driven crashes. *)
val schedule_faults : Runtime.t -> Runtime.fault_rt -> unit

(** Fraction of node-seconds spent up over the observation window. *)
val availability : Runtime.t -> float

(** Seconds after which an open in-doubt interval counts as overdue. *)
val indoubt_grace : Runtime.t -> Runtime.fault_rt -> float

(** Committed transactions missing durable evidence at an updating
    cohort's node; must be zero. *)
val lost_commits : Runtime.t -> int
