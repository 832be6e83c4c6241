(** Page-level lock manager with shared/exclusive modes, FCFS queuing, and
    read-to-write lock conversion (upgrade) that jumps ahead of ordinary
    waiters — the locking substrate of both 2PL and wound-wait.

    Policy decisions (what to do when a request must wait) are delegated to
    the caller through the [on_block] callback, which fires after the
    request is enqueued and receives the set of transactions currently
    blocking it. *)

open Desim
open Ddbm_model
open Ids

type mode = S | X

let mode_compatible a b = a = S && b = S

type waiting = {
  w_txn : Txn.t;
  w_mode : mode;
  w_conversion : bool;
  w_resolver : unit Engine.resolver;
  w_enqueued : float;
  w_entry : lock_entry;  (** the entry whose queue holds it *)
  w_owner : txn_locks;
}

and lock_entry = {
  mutable holders : (Txn.t * mode) list;
  mutable queue : waiting list;  (** grant order: conversions first *)
}

(** What one transaction has at this node. *)
and txn_locks = {
  mutable pages : Page.t list;  (** pages where it holds or awaits a lock *)
  mutable queued : waiting list;  (** its requests still in a queue *)
}

type t = {
  eng : Engine.t;
  blocking : Stats.Tally.t;
  table : lock_entry Page_table.t;
  txns : txn_locks Txn.Table.t;
}

(* Both tables start small and grow with the live set (at most a few
   hundred pages and one transaction per terminal on the benchmark
   workloads): every node of every machine allocates them up front. *)
let create eng ~blocking =
  { eng; blocking; table = Page_table.create 64; txns = Txn.Table.create 16 }

(* The hot paths below use direct loops and [find] with [Not_found]
   rather than closures and options: a lock request allocates only what
   it stores. *)

let entry_of t page =
  match Page_table.find t.table page with
  | e -> e
  | exception Not_found ->
      let e = { holders = []; queue = [] } in
      Page_table.add t.table page e;
      e

let rec mem_page page = function
  | [] -> false
  | p :: rest -> Page.equal p page || mem_page page rest

(** Record [page] in [txn]'s footprint; returns [txn]'s state. *)
let note_footprint t txn page =
  match Txn.Table.find t.txns txn with
  | locks ->
      if not (mem_page page locks.pages) then locks.pages <- page :: locks.pages;
      locks
  | exception Not_found ->
      let locks = { pages = [ page ]; queued = [] } in
      Txn.Table.add t.txns txn locks;
      locks

let rec held_mode_in txn = function
  | [] -> None
  | (h, m) :: rest ->
      if Txn.same_attempt h txn then
        (* constant options: nothing allocated *)
        match m with S -> Some S | X -> Some X
      else held_mode_in txn rest

let held_mode entry txn = held_mode_in txn entry.holders

let sole_holder entry txn =
  match entry.holders with
  | [ (h, _) ] -> Txn.same_attempt h txn
  | _ -> false

let rec compatible_with_all mode = function
  | [] -> true
  | (_, m) :: rest -> mode_compatible m mode && compatible_with_all mode rest

(* [txn]'s held locks on the entry become exclusive. *)
let upgrade_holder txn holders =
  List.map (fun (h, m) -> if Txn.same_attempt h txn then (h, X) else (h, m)) holders

(* [l] without [txn]'s entries, sharing the longest unchanged suffix. *)
let rec drop_holder txn = function
  | [] -> []
  | ((h, _) as hm) :: rest as l ->
      if Txn.same_attempt h txn then drop_holder txn rest
      else
        let rest' = drop_holder txn rest in
        if rest' == rest then l else hm :: rest'

let rec drop_waiting w = function
  | [] -> []
  | q :: rest -> if q == w then rest else q :: drop_waiting w rest

(** Transactions currently preventing [w] from being granted: incompatible
    holders plus incompatible waiters queued ahead of it. *)
let blockers_of entry (w : waiting) =
  let ahead =
    let rec take acc = function
      | [] -> acc (* w not found: it was granted concurrently *)
      | q :: rest ->
          if q == w then acc
          else if
            (not (mode_compatible q.w_mode w.w_mode))
            && not (Txn.same_attempt q.w_txn w.w_txn)
          then take (q.w_txn :: acc) rest
          else take acc rest
    in
    take [] entry.queue
  in
  let holding =
    List.filter_map
      (fun (h, m) ->
        if Txn.same_attempt h w.w_txn then None
        else if mode_compatible m w.w_mode then None
        else Some h)
      entry.holders
  in
  holding @ ahead

let insert_waiter entry w =
  if w.w_conversion then begin
    (* conversions go ahead of ordinary requests, FIFO among themselves *)
    let convs, others = List.partition (fun q -> q.w_conversion) entry.queue in
    entry.queue <- convs @ [ w ] @ others
  end
  else entry.queue <- entry.queue @ [ w ]

(** Grant [w], the head of the entry's queue, whose tail is [rest]. *)
let grant t entry w rest =
  entry.queue <- rest;
  w.w_owner.queued <- drop_waiting w w.w_owner.queued;
  (if w.w_conversion then entry.holders <- upgrade_holder w.w_txn entry.holders
   else entry.holders <- (w.w_txn, w.w_mode) :: entry.holders);
  Stats.Tally.add t.blocking (Engine.now t.eng -. w.w_enqueued);
  w.w_resolver.Engine.resolve ()

(** Grant eligible queued requests, strictly in queue order (head only, to
    avoid starvation): stop at the first request that cannot be granted. *)
let rec grant_pass t entry =
  match entry.queue with
  | [] -> ()
  | w :: rest ->
      let grantable =
        if w.w_conversion then sole_holder entry w.w_txn
        else compatible_with_all w.w_mode entry.holders
      in
      if grantable then begin
        grant t entry w rest;
        grant_pass t entry
      end

(** Outcome of an acquisition attempt before any blocking. *)
type attempt = Granted | Conflict of { conversion : bool }

let try_acquire entry txn mode =
  match held_mode entry txn with
  | Some X -> Granted (* X covers everything *)
  | Some S when mode = S -> Granted
  | Some S ->
      (* conversion S -> X: jumps the queue, needs sole holdership only
         (unless the conformance fault hook breaks the check) *)
      if sole_holder entry txn || Fault.broken_lock_conversion () then begin
        entry.holders <- upgrade_holder txn entry.holders;
        Granted
      end
      else Conflict { conversion = true }
  | None ->
      if entry.queue = [] && compatible_with_all mode entry.holders then begin
        entry.holders <- (txn, mode) :: entry.holders;
        Granted
      end
      else Conflict { conversion = false }

(** Blockers a fresh request by [txn] would face, computed before it is
    enqueued (used by pre-blocking policies like wait-die, which must be
    able to abort the requester by raising instead of waiting). *)
let prospective_blockers entry txn mode conversion =
  let holding =
    List.filter_map
      (fun (h, m) ->
        if Txn.same_attempt h txn then None
        else if mode_compatible m mode then None
        else Some h)
      entry.holders
  in
  let queued =
    List.filter_map
      (fun q ->
        if Txn.same_attempt q.w_txn txn then None
        else if conversion && not q.w_conversion then
          (* a conversion only queues behind other conversions *)
          None
        else if mode_compatible q.w_mode mode then None
        else Some q.w_txn)
      entry.queue
  in
  holding @ queued

(** [request t txn page mode ~on_block] acquires [mode] on [page] for
    [txn], blocking the calling cohort process until granted. When the
    request must wait, [pre_block] (if given) runs first, in the caller's
    process context, with the prospective blockers — it may raise to
    abort the request instead of waiting (wait-die). Then the waiter is
    enqueued and [on_block] is invoked with its actual blockers (wounds,
    deadlock detection). Raises whatever exception the waiter is rejected
    with when the transaction is aborted while blocked. *)
let request ?pre_block t txn page mode ~on_block =
  let entry = entry_of t page in
  match try_acquire entry txn mode with
  | Granted -> ignore (note_footprint t txn page : txn_locks)
  | Conflict { conversion } ->
      (match pre_block with
      | Some f -> f (prospective_blockers entry txn mode conversion)
      | None -> ());
      let owner = note_footprint t txn page in
      Engine.suspend (fun (r : unit Engine.resolver) ->
          let w =
            {
              w_txn = txn;
              w_mode = mode;
              w_conversion = conversion;
              w_resolver = r;
              w_enqueued = Engine.now t.eng;
              w_entry = entry;
              w_owner = owner;
            }
          in
          insert_waiter entry w;
          owner.queued <- w :: owner.queued;
          on_block (blockers_of entry w))

(** Release every lock and waiting request of [txn]. Blocked requests are
    rejected with [reject]. Newly grantable waiters are granted. *)
let release_all t txn ~reject =
  match Txn.Table.find t.txns txn with
  | exception Not_found -> ()
  | locks ->
      Txn.Table.remove t.txns txn;
      let release page =
        match Page_table.find t.table page with
        | exception Not_found -> ()
        | entry ->
            entry.holders <- drop_holder txn entry.holders;
            if locks.queued <> [] then begin
              let mine, rest =
                List.partition
                  (fun q -> Txn.same_attempt q.w_txn txn)
                  entry.queue
              in
              entry.queue <- rest;
              List.iter (fun q -> q.w_resolver.Engine.reject reject) mine
            end;
            grant_pass t entry;
            if entry.holders = [] && entry.queue = [] then
              Page_table.remove t.table page
      in
      List.iter release locks.pages

(* [b] into [l], which is in descending key order without duplicates. *)
let rec insert_desc b = function
  | [] -> [ b ]
  | x :: rest as l ->
      let c = Txn.compare_key b x in
      if c > 0 then b :: l else if c = 0 then l else x :: insert_desc b rest

(** Distinct blockers of [txn]'s queued requests, in descending key order:
    [txn]'s successors in [Wfg.of_edges (edges t)], read from the live
    table. *)
let waits_for t txn =
  match Txn.Table.find t.txns txn with
  | exception Not_found -> []
  | locks ->
      List.fold_left
        (fun acc w ->
          List.fold_left
            (fun acc b -> insert_desc b acc)
            acc (blockers_of w.w_entry w))
        [] locks.queued

(** Waits-for edges of this node's lock table. *)
let edges t =
  Page_table.fold
    (fun _ entry acc ->
      List.fold_left
        (fun acc w ->
          List.fold_left
            (fun acc holder ->
              { Cc_intf.waiter = w.w_txn; holder } :: acc)
            acc (blockers_of entry w))
        acc entry.queue)
    t.table []
  |> List.sort Cc_intf.compare_edge

(** Number of transactions currently blocked in the table. *)
let num_waiting t =
  (* lint: allow hashtbl-order - commutative integer sum *)
  Page_table.fold (fun _ e acc -> acc + List.length e.queue) t.table 0

(** Pages on which [txn] currently holds an exclusive lock — exactly the
    updates a lock-based scheme installs at commit. *)
let exclusive_pages t txn =
  match Txn.Table.find_opt t.txns txn with
  | None -> []
  | Some locks ->
      List.filter
        (fun page ->
          match Page_table.find_opt t.table page with
          | None -> false
          | Some entry -> (
              match held_mode entry txn with
              | Some X -> true
              | Some S | None -> false))
        locks.pages

(** Mode held by [txn] on [page], if any (testing). *)
let held t txn page =
  match Page_table.find_opt t.table page with
  | None -> None
  | Some entry -> held_mode entry txn
