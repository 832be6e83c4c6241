(** The coordinator (Sections 2.1 and 3 of the paper): loads an
    attempt's cohorts, awaits their work and runs centralized two-phase
    commit. *)

type attempt_outcome =
  | Committed of Ddbm_model.Decomp.t
  | Aborted of Ddbm_model.Txn.abort_reason

(** Run one attempt to its decision, in the calling terminal's process. *)
val run_attempt : Runtime.t -> Ddbm_model.Txn.t -> attempt_outcome
