(** Waits-for graphs and cycle detection, used by 2PL's block-time local
    deadlock detection (over the live lock table) and by the Snoop global
    detector (over a graph of all nodes' edges). Vertices are transaction
    attempts; doomed attempts count as already removed. *)

open Ddbm_model

type t

val create : unit -> t

(** Add [waiter] waits-for [holder]. Self-edges are dropped. *)
val add_edge : t -> waiter:Txn.t -> holder:Txn.t -> unit

(** The graph of an edge list. A waiter's successors come out in the
    reverse of their first appearance, so a list sorted by
    {!Cc_intf.compare_edge} gives each waiter's holders in descending
    key order. *)
val of_edges : Cc_intf.edge list -> t

(** Holders [txn] waits for in the graph. *)
val successors : t -> Txn.t -> Txn.t list

(** [find_cycle_through ~successors start] is a cycle containing [start]
    (the list of its member transactions, [start] first), following
    waits-for edges given by [successors] depth-first and ignoring doomed
    vertices, or [None]. *)
val find_cycle_through :
  successors:(Txn.t -> Txn.t list) -> Txn.t -> Txn.t list option

(** Youngest member of a cycle: the most recent initial startup time —
    the paper's victim selection rule. Raises on an empty list. *)
val youngest : Txn.t list -> Txn.t

(** Block-time local deadlock resolution: while a cycle runs through the
    requester, request the abort of its youngest member as
    [Local_deadlock]. [request_abort] must mark its victim doomed before
    returning; the loop stops once the requester itself is the victim. *)
val resolve_local :
  successors:(Txn.t -> Txn.t list) ->
  request_abort:(Txn.t -> Txn.abort_reason -> unit) ->
  Txn.t ->
  unit

(** Repeatedly find a cycle anywhere, victimize its youngest member, and
    continue until acyclic; returns the victims. *)
val break_all_cycles : t -> Txn.t list
