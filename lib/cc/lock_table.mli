(** Page-level lock manager with shared/exclusive modes, strict-FCFS
    queuing, and read-to-write conversion (upgrade) that jumps ahead of
    ordinary waiters — the locking substrate of both 2PL and wound-wait.

    Policy decisions (what to do when a request must wait) are delegated
    to the caller through the [on_block] callback, which fires after the
    request is enqueued and receives the transactions currently blocking
    it. *)

open Ddbm_model

type t

type mode = S | X

val mode_compatible : mode -> mode -> bool

(** [create eng ~blocking] records per-request blocking times into
    [blocking]. *)
val create : Desim.Engine.t -> blocking:Desim.Stats.Tally.t -> t

(** [request t txn page mode ~on_block] acquires [mode] on [page] for
    [txn], blocking the calling cohort process until granted. A request
    for a mode already covered by a held lock returns immediately; an
    [X] request while holding [S] is an upgrade, granted immediately iff
    [txn] is the sole holder and otherwise queued ahead of ordinary
    waiters. Raises whatever exception the waiter is rejected with when
    the transaction is aborted while blocked. *)
val request :
  ?pre_block:(Txn.t list -> unit) ->
  t ->
  Txn.t ->
  Ids.Page.t ->
  mode ->
  on_block:(Txn.t list -> unit) ->
  unit

(** Release every lock and waiting request of [txn]; its blocked requests
    are rejected with [reject]; newly grantable waiters are granted. *)
val release_all : t -> Txn.t -> reject:exn -> unit

(** Waits-for edges of this table: each waiter against its incompatible
    holders and incompatible waiters queued ahead of it. *)
val edges : t -> Cc_intf.edge list

(** Distinct transactions blocking any of [txn]'s queued requests, in
    descending key order ({!Txn.compare_key}): exactly [txn]'s successors
    in [Wfg.of_edges (edges t)], read from the live table without
    building the graph. A transaction may queue more than one request on
    a node (a cohort plus a replica write). *)
val waits_for : t -> Txn.t -> Txn.t list

(** Number of queued (blocked) requests. *)
val num_waiting : t -> int

(** Pages on which [txn] currently holds an exclusive lock — exactly the
    updates a lock-based scheme installs at commit. *)
val exclusive_pages : t -> Txn.t -> Ids.Page.t list

(** Mode held by [txn] on [page], if any (testing). *)
val held : t -> Txn.t -> Ids.Page.t -> mode option
