(** The coordinator (Sections 2.1 and 3 of the paper), which runs in the
    submitting terminal's process at the host. It loads cohorts at data
    nodes by "load cohort" messages (paying process-startup CPU), waits
    for their page accesses, and runs centralized two-phase commit:

      load -> work -> Work_done -> Do_prepare -> Vote -> decision -> ack

    Aborts can be triggered by a cohort's own CC manager (BTO rejection),
    by a remote CC manager or the Snoop detector (wound, deadlock victim;
    routed as an Abort_request message to the coordinator), or by a
    certification "no" vote. The coordinator then broadcasts Do_abort and
    collects one acknowledgement per loaded cohort; the terminal waits
    one mean response time and reruns the same access plan
    ({!Admission}). *)

open Desim
open Ddbm_model
open Ids
open Runtime

type attempt_outcome = Committed of Decomp.t | Aborted of Txn.abort_reason

(* The cohort planned at [node]; callers only name planned nodes. *)
let cohort (rt : Messages.attempt_runtime) node =
  let rec find i =
    let c = rt.Messages.cohorts.(i) in
    if c.Messages.plan.Plan.node = node then c else find (i + 1)
  in
  find 0

let load_cohort t (rt : Messages.attempt_runtime) node_idx =
  let c = cohort rt node_idx in
  let mb =
    (* a retransmitted load (lost first copy) reuses the mailbox *)
    match c.Messages.mb with
    | Some mb -> mb
    | None ->
        let mb = Mailbox.create () in
        c.Messages.mb <- Some mb;
        mb
  in
  emit t (fun () ->
      Event.Cohort_load
        {
          tid = rt.Messages.txn.Txn.tid;
          attempt = rt.Messages.txn.Txn.attempt;
          node = node_idx;
        });
  let node = t.procs.(node_idx) in
  let startup = t.params.Params.resources.Params.inst_per_startup in
  Net.send ~faulty:true t.net ~src:Host ~dst:(Proc node_idx) (fun () ->
      (* a duplicated load must not spawn a twin cohort *)
      if not c.Messages.arrived then begin
        c.Messages.arrived <- true;
        Cpu.submit node.Node.cpu ~instructions:startup (fun () ->
            Engine.spawn t.eng (fun () -> Cohort.run_cohort t rt c mb))
      end)

(* Coordinator -> cohort send. The wire destination is resolved through
   the cohort's relocation (a failed-over cohort's proxy lives at its
   backup), and the mailbox is looked up at delivery time — a failover
   racing a message in flight must deliver to the proxy's fresh mailbox,
   never to the dead primary fiber's. The CC footprint always lives at
   the cohort's original node's manager, even after failover. *)
let send_cohort t (rt : Messages.attempt_runtime) ~node_idx msg =
  let c = cohort rt node_idx in
  Net.send ~faulty:true t.net ~src:Host ~dst:(Proc (resident c)) (fun () ->
      (match msg with
      | Messages.Do_abort ->
          (* unblock the cohort if it is stuck in a CC queue *)
          (Node.cc t.procs.(node_idx)).Cc_intf.cc_abort rt.Messages.txn
      | Messages.Do_prepare | Messages.Do_commit -> ());
      match c.Messages.mb with Some mb -> Mailbox.send mb msg | None -> ())

let pending_set nodes =
  let pending = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace pending n ()) nodes;
  pending

(* The coordinator's collect loop: wait until every node in
   [pending] is accepted. [classify ~pending msg] sorts each message:
   [`Accept n] takes the pending node [n] off the set and restarts the
   timeout backoff; [`Abort r] stops the collection; [`Reprompt n] hands
   [n] to [resend] without restarting the backoff, so a draining
   cohort's inquiries cannot starve the timeout; [`Ignore] drops it.

   On a timeout, a [doomable] collection first stops on an attempt that
   a crash doomed. Otherwise the pending nodes that [lost] selects (all,
   by default) are re-sent, one retry each; when it selects none, the
   loop waits on without charging the retry budget. A [bounded]
   collection stops with [Timed_out] once the budget is exhausted,
   leaving the unanswered nodes in [pending]. *)
let collect t (rt : Messages.attempt_runtime) ~classify ~resend
    ?(lost = fun _ -> true) ~doomable ~bounded pending =
  let txn = rt.Messages.txn in
  let rec go ~round =
    if Hashtbl.length pending = 0 then `Done
    else
      match recv t rt.Messages.coord_mb ~round with
      | `Msg msg -> (
          match classify ~pending msg with
          | `Accept node ->
              Hashtbl.remove pending node;
              go ~round:1
          | `Abort reason -> `Abort reason
          | `Reprompt node ->
              resend node;
              go ~round
          | `Ignore -> go ~round)
      | `Timeout f -> (
          note_timeout t f txn ~at_node:Host ~round;
          match if doomable then rt.Messages.doom_reason else None with
          | Some reason -> `Abort reason
          | None -> (
              match List.filter lost (sorted_keys pending) with
              | [] -> go ~round:(round + 1)
              | nodes ->
                  if
                    bounded
                    && Backoff.exhausted
                         ~max_retries:f.plan.Fault_plan.max_retries ~round
                  then `Abort Txn.Timed_out
                  else begin
                    f.retries <- f.retries + List.length nodes;
                    List.iter resend nodes;
                    go ~round:(round + 1)
                  end))
  in
  go ~round:1

(* Wait for one Work_done per node in [nodes]; an abort trigger
   interrupts. Records the node of each Work_done as it is processed, so
   that when the work phase completes, [last_work_node] identifies the
   cohort on its critical path (under parallel execution). Under faults,
   a timeout re-sends any load message whose delivery was never observed
   (bounded by the retry budget); cohorts that did arrive own the
   retransmission of their Work_done, so the coordinator waits for them
   at the capped timeout without charging its budget. *)
let await_work t (rt : Messages.attempt_runtime) ~nodes =
  let txn = rt.Messages.txn in
  collect t rt ~doomable:true ~bounded:true
    ~lost:(fun n -> not (cohort rt n).Messages.arrived)
    ~resend:(load_cohort t rt)
    ~classify:(fun ~pending -> function
      | Messages.Work_done node when Hashtbl.mem pending node ->
          rt.Messages.last_work_node <- node;
          emit t (fun () ->
              Event.Work_done
                { tid = txn.Txn.tid; attempt = txn.Txn.attempt; node });
          `Accept node
      | Messages.Cohort_aborted (_, reason) -> `Abort reason
      | Messages.Abort_request (tx, reason) when Txn.same_attempt tx txn ->
          `Abort reason
      | Messages.Inquiry _ ->
          (* a cohort only inquires pre-prepare when its Cohort_aborted
             was lost and it is draining: treat as a peer abort *)
          `Abort Txn.Peer_abort
      | Messages.Work_done _ | Messages.Abort_request _ | Messages.Vote _
      | Messages.Done_ack _ ->
          `Ignore)
    (pending_set nodes)

(* Phase two: log the decision before any phase-two send, send it to
   [nodes] and collect one Done_ack per node, re-sending it on an
   inquiry or a timeout. A commit must reach every cohort, so its
   retries are unbounded; an abort gives up after the retry budget.
   Returns the nodes still unanswered. *)
let decide t (rt : Messages.attempt_runtime) ~commit ~nodes =
  let txn = rt.Messages.txn in
  log_decision t txn commit;
  emit t (fun () ->
      Event.Decision { tid = txn.Txn.tid; attempt = txn.Txn.attempt; commit });
  let decision = if commit then Messages.Do_commit else Messages.Do_abort in
  let send node_idx = send_cohort t rt ~node_idx decision in
  List.iter send nodes;
  let pending = pending_set nodes in
  ignore
    (collect t rt ~doomable:false ~bounded:(not commit) ~resend:send
       ~classify:(fun ~pending -> function
         | Messages.Done_ack node when Hashtbl.mem pending node ->
             `Accept node
         | Messages.Inquiry (_, node) when Hashtbl.mem pending node ->
             `Reprompt node
         | Messages.Done_ack _ | Messages.Inquiry _ | Messages.Work_done _
         | Messages.Cohort_aborted _ | Messages.Vote _
         | Messages.Abort_request _ ->
             `Ignore)
       pending
      : [ `Done | `Abort of Txn.abort_reason ]);
  sorted_keys pending

(* Abort the attempt and return the abort reason. Cohorts that stay
   unreachable past the retry budget are orphaned — the late inquiry
   they eventually make is answered from the decision log. *)
let abort_attempt t (rt : Messages.attempt_runtime) reason =
  let txn = rt.Messages.txn in
  txn.Txn.phase <- Txn.Decided_abort;
  txn.Txn.doomed <- true;
  let loaded =
    Array.fold_right
      (fun (c : Messages.cohort) acc ->
        if Option.is_some c.Messages.mb then c.Messages.plan.Plan.node :: acc
        else acc)
      rt.Messages.cohorts []
  in
  let missing = decide t rt ~commit:false ~nodes:loaded in
  Option.iter (fun f -> List.iter (orphan t f txn) missing) t.faults;
  txn.Txn.phase <- Txn.Finished;
  reason

let commit_attempt t (rt : Messages.attempt_runtime) ~nodes =
  let txn = rt.Messages.txn in
  txn.Txn.phase <- Txn.Decided_commit;
  ignore (decide t rt ~commit:true ~nodes : int list);
  (* durability coverage obligation: every updating cohort's node (its
     backup if failed over) must hold durable evidence of this commit at
     end of run — checked by [lost_commits] *)
  if Option.is_some t.wal then begin
    let updaters =
      Array.fold_right
        (fun (c : Messages.cohort) acc ->
          if Plan.updates c.Messages.plan then resident c :: acc else acc)
        rt.Messages.cohorts []
    in
    t.committed_cov <-
      (txn.Txn.tid, txn.Txn.attempt, updaters) :: t.committed_cov
  end;
  txn.Txn.phase <- Txn.Finished

let run_two_phase_commit t (rt : Messages.attempt_runtime) =
  let txn = rt.Messages.txn in
  let nodes =
    List.map
      (fun (c : Plan.cohort_plan) -> c.Plan.node)
      txn.Txn.plan.Plan.cohorts
  in
  txn.Txn.phase <- Txn.Voting;
  txn.Txn.commit_ts <-
    Some (Timestamp.Clock.make t.clock ~time:(Engine.now t.eng));
  emit t (fun () ->
      Event.Prepare { tid = txn.Txn.tid; attempt = txn.Txn.attempt });
  let prepare node_idx = send_cohort t rt ~node_idx Messages.Do_prepare in
  List.iter prepare nodes;
  match
    collect t rt ~doomable:true ~bounded:true ~resend:prepare
      ~classify:(fun ~pending -> function
        | Messages.Vote (node, yes) when Hashtbl.mem pending node ->
            if yes then rt.Messages.last_vote_node <- node;
            emit t (fun () ->
                Event.Vote
                  { tid = txn.Txn.tid; attempt = txn.Txn.attempt; node; yes });
            if yes then `Accept node else `Abort Txn.Cert_failed
        | Messages.Cohort_aborted (_, reason) -> `Abort reason
        | Messages.Abort_request (tx, reason) when Txn.same_attempt tx txn ->
            `Abort reason
        | Messages.Inquiry (_, node) when Hashtbl.mem pending node ->
            (* an in-doubt cohort whose vote we may have missed: it
               re-votes from memory *)
            `Reprompt node
        | Messages.Vote _ | Messages.Inquiry _ | Messages.Abort_request _
        | Messages.Work_done _ | Messages.Done_ack _ ->
            `Ignore)
      (pending_set nodes)
  with
  | `Done ->
      commit_attempt t rt ~nodes;
      `Committed
  | `Abort reason -> `Aborted (abort_attempt t rt reason)

(* The attempt's runtime: one cohort record per planned cohort, sorted
   by node so that every walk over them runs in node order. *)
let make_runtime (txn : Txn.t) =
  let cohort plan =
    { Messages.plan; mb = None; arrived = false; voted = false;
      shipped = false; preparing = false; backup = None;
      usage = { u_blocked = 0.; u_disk = 0.; u_cpu = 0.; u_log = 0. } }
  in
  let cohorts = Array.of_list (List.map cohort txn.Txn.plan.Plan.cohorts) in
  Array.sort
    (fun (a : Messages.cohort) (b : Messages.cohort) ->
      Int.compare a.Messages.plan.Plan.node b.Messages.plan.Plan.node)
    cohorts;
  { Messages.txn; coord_mb = Mailbox.create (); cohorts; last_work_node = -1;
    last_vote_node = -1; doom_reason = None }

let run_attempt t (txn : Txn.t) =
  let rt = make_runtime txn in
  Hashtbl.replace t.live txn.Txn.tid rt;
  Fun.protect
    ~finally:(fun () ->
      match Hashtbl.find_opt t.live txn.Txn.tid with
      | Some cur when cur == rt -> Hashtbl.remove t.live txn.Txn.tid
      | Some _ | None -> ())
    (fun () ->
      let t_begin = Engine.now t.eng in
      emit t (fun () ->
          Event.Attempt_start { tid = txn.Txn.tid; attempt = txn.Txn.attempt });
      (* coordinator process startup at the host *)
      Cpu.consume t.host.Node.cpu
        ~instructions:t.params.Params.resources.Params.inst_per_startup;
      let t_setup_end = Engine.now t.eng in
      emit t (fun () ->
          Event.Setup_done { tid = txn.Txn.tid; attempt = txn.Txn.attempt });
      let cohorts = txn.Txn.plan.Plan.cohorts in
      let phase1 =
        match t.params.Params.workload.Params.exec_pattern with
        | Params.Parallel ->
            let nodes =
              List.map (fun (c : Plan.cohort_plan) -> c.Plan.node) cohorts
            in
            List.iter (load_cohort t rt) nodes;
            await_work t rt ~nodes
        | Params.Sequential ->
            let rec go = function
              | [] -> `Done
              | c :: rest -> (
                  load_cohort t rt c.Plan.node;
                  match await_work t rt ~nodes:[ c.Plan.node ] with
                  | `Done -> go rest
                  | `Abort reason -> `Abort reason)
            in
            go cohorts
      in
      match phase1 with
      | `Abort reason -> Aborted (abort_attempt t rt reason)
      | `Done -> (
          let t_work_end = Engine.now t.eng in
          match run_two_phase_commit t rt with
          | `Aborted reason -> Aborted reason
          | `Committed ->
              let t_end = Engine.now t.eng in
              (* Work-phase critical path: the cohort whose Work_done
                 arrived last under parallel execution; the sum over all
                 cohorts (in node order, for float determinism) under
                 sequential execution. *)
              let blocked, disk, cpu =
                match t.params.Params.workload.Params.exec_pattern with
                | Params.Parallel ->
                    if rt.Messages.last_work_node < 0 then (0., 0., 0.)
                    else
                      let c = cohort rt rt.Messages.last_work_node in
                      let u = c.Messages.usage in
                      (u.Messages.u_blocked, u.Messages.u_disk, u.Messages.u_cpu)
                | Params.Sequential ->
                    Array.fold_left
                      (fun (b, d, c) { Messages.usage = u; _ } ->
                        ( b +. u.Messages.u_blocked,
                          d +. u.Messages.u_disk,
                          c +. u.Messages.u_cpu ))
                      (0., 0., 0.) rt.Messages.cohorts
              in
              (* the decision-gating log write: the prepare force of the
                 last accepted yes vote's cohort *)
              let log =
                if rt.Messages.last_vote_node < 0 then 0.
                else
                  let c = cohort rt rt.Messages.last_vote_node in
                  c.Messages.usage.Messages.u_log
              in
              Committed
                (Decomp.assemble
                   ~restart:(t_begin -. txn.Txn.origin_time)
                   ~setup:(t_setup_end -. t_begin)
                   ~exec:(t_work_end -. t_setup_end)
                   ~blocked ~disk ~cpu ~log
                   ~commit:(t_end -. t_work_end))))
