(** The cohort process (Sections 2.1 and 3 of the paper): one per
    processing node a transaction touches. It executes the node's page
    accesses, then plays its part in centralized two-phase commit. *)

open Desim
open Ddbm_model
open Ids
open Runtime

let check_doomed (txn : Txn.t) =
  if txn.Txn.doomed then raise (Txn.Aborted Txn.Peer_abort)

(* Whether replica copies are write-locked at access time (read-one/
   write-all during execution) or only during the first phase of commit
   (O2PL and the certification/deferred schemes, whose remote write
   intent piggybacks on the prepare message). *)
let write_all_at_access = function
  | Params.No_dc | Params.Twopl | Params.Wound_wait | Params.Wait_die
  | Params.Bto ->
      true
  | Params.Opt | Params.O2pl | Params.Twopl_defer -> false

(* Synchronously obtain write permission on every remote copy of [page]:
   one request message per copy site, a helper process that may block in
   the remote CC manager, and one reply message. Any rejection aborts the
   requester. *)
let acquire_replica_writes t (txn : Txn.t) ~from_node page =
  let copies =
    Catalog.copy_nodes t.catalog ~file:page.Ids.Page.file
    |> List.filter (fun site -> site <> from_node)
  in
  if copies <> [] then begin
    let pending = ref (List.length copies) in
    let failure = ref None in
    let all_in : unit Ivar.t = Ivar.create () in
    List.iter
      (fun site ->
        Net.send t.net ~src:(Proc from_node) ~dst:(Proc site) (fun () ->
            Engine.spawn t.eng (fun () ->
                let outcome =
                  try
                    (Node.cc t.procs.(site)).Cc_intf.cc_write txn page;
                    `Granted
                  with Txn.Aborted reason -> `Failed reason
                in
                Net.send t.net ~src:(Proc site) ~dst:(Proc from_node)
                  (fun () ->
                    (match outcome with
                    | `Failed reason when !failure = None ->
                        failure := Some reason
                    | `Failed _ | `Granted -> ());
                    decr pending;
                    if !pending = 0 then Ivar.fill all_in ()))))
      copies;
    Ivar.read all_in;
    match !failure with
    | Some reason -> raise (Txn.Aborted reason)
    | None -> ()
  end

(* [proxy] runs the cohort's commit-protocol role at its backup node
   after a primary crash: the work-phase resources were already spent at
   the primary, the CC footprint stays at the primary's manager
   (modeling dependency-logged lock state shipped with the write-set),
   and logging/installs happen at the backup. Protocol messages still
   carry the original node id, so the coordinator is oblivious to the
   relocation beyond its routing table. *)
let run_cohort ?(proxy = false) t (rt : Messages.attempt_runtime)
    (c : Messages.cohort) mb =
  let txn = rt.Messages.txn in
  let cplan = c.Messages.plan in
  let usage = c.Messages.usage in
  let tid = txn.Txn.tid in
  let attempt = txn.Txn.attempt in
  let my_node = cplan.Plan.node in
  let exec_node = if proxy then backup_of t my_node else my_node in
  let node = t.procs.(exec_node) in
  let cc = Node.cc t.procs.(my_node) in
  let self = Proc exec_node in
  let resources = t.params.Params.resources in
  let durability = t.params.Params.durability in
  let wal = match t.wal with Some w -> Some w.(exec_node) | None -> None in
  let is_updater = Plan.updates cplan in
  let wal_append record =
    match wal with
    | Some w when is_updater -> Wal.append w record
    | Some _ | None -> ()
  in
  (* Log forces: blocking FCFS writes on this node's log disk. A prepare
     force gates the cohort's yes vote and accrues to the decomposition's
     [log] component (via the decision-gating cohort); a commit force
     happens after the decision and only shows in log-disk utilization. *)
  let wal_force ~accrue w =
    let t0 = Engine.now t.eng in
    Wal.force w;
    let dur = Engine.now t.eng -. t0 in
    if accrue then usage.Messages.u_log <- usage.Messages.u_log +. dur;
    Metrics.record_log_force t.metrics ~dur;
    emit t (fun () ->
        Event.Log_forced { tid; attempt; node = my_node; dur })
  in
  (* The primary's fiber exits silently once a backup proxy has taken
     over: no sends, no [cc_abort] — the footprint now belongs to the
     proxy. Only ever true when [proxy] is false. *)
  let relocated_away () = (not proxy) && Option.is_some c.Messages.backup in
  (* Timed CC access: the wall time from request to grant (lock waits,
     conversion waits, CC request processing) accrues to the cohort's
     work-phase usage feeding the response-time decomposition. [work:false]
     marks commit-protocol acquisitions, which belong to the 2PC
     component instead. *)
  let cc_access ?(work = true) mode page =
    emit t (fun () ->
        Event.Lock_request
          { tid = txn.Txn.tid; attempt = txn.Txn.attempt; node = my_node;
            page; mode });
    let t0 = Engine.now t.eng in
    (match mode with
    | Event.Read -> cc.Cc_intf.cc_read txn page
    | Event.Write -> cc.Cc_intf.cc_write txn page);
    let waited = Engine.now t.eng -. t0 in
    if work then usage.Messages.u_blocked <- usage.Messages.u_blocked +. waited;
    emit t (fun () ->
        Event.Lock_grant
          { tid = txn.Txn.tid; attempt = txn.Txn.attempt; node = my_node;
            page; mode; waited })
  in
  let release () =
    emit t (fun () ->
        Event.Lock_release
          { tid = txn.Txn.tid; attempt = txn.Txn.attempt; node = my_node })
  in
  (* Cohort-protocol traffic rides the faulty channel; everything else
     (replica-write RPCs, abort requests, Snoop rounds) is modeled as a
     reliable control plane. *)
  let send_coord msg =
    Net.send ~faulty:true t.net ~src:self ~dst:Host (fun () ->
        Mailbox.send rt.Messages.coord_mb msg)
  in
  (* 2PC termination protocol: ask the coordinator (if still live on
     this attempt) what was decided; otherwise answer from the host's
     decision log — no entry means presumed abort. *)
  let send_inquiry () =
    Net.send ~faulty:true t.net ~src:self ~dst:Host (fun () ->
        match Hashtbl.find_opt t.live txn.Txn.tid with
        | Some rt' when Txn.same_attempt rt'.Messages.txn txn ->
            Mailbox.send rt'.Messages.coord_mb (Messages.Inquiry (txn, my_node))
        | Some _ | None ->
            let commit =
              Option.bind t.faults (fun f -> decision_of f txn)
              |> Option.value ~default:false
            in
            Net.send_async ~faulty:true t.net ~src:Host ~dst:self (fun () ->
                Mailbox.send mb
                  (if commit then Messages.Do_commit else Messages.Do_abort)))
  in
  let initiate_deferred_writes () =
    let write_one () =
      Cpu.consume node.Node.cpu ~instructions:resources.Params.inst_per_update;
      Disk.submit_write (Node.random_disk node) ignore
    in
    List.iter
      (fun (op : Plan.page_op) -> if op.Plan.update then write_one ())
      cplan.Plan.ops;
    (* replica copies installed at this node *)
    List.iter (fun (_ : Ids.Page.t) -> write_one ()) cplan.Plan.apply_ops
  in
  try
    (if proxy then
       (* the coordinator may have never seen the primary's Work_done;
          a duplicate is ignored *)
       send_coord (Messages.Work_done my_node)
     else begin
       emit t (fun () ->
           Event.Cohort_start { tid; attempt; node = my_node });
       wal_append (Wal.Begin { tid; attempt });
       (* Work phase: each page access is a CC request, a disk read, and
          a slice of CPU. The transaction manager knows at access time
          whether the page will be updated, so the read lock of an update
          access is converted to a write lock immediately at access time
          (a zero-width upgrade window, matching the paper's model) and
          the page's disk write is deferred to after commit. *)
       List.iter
         (fun (op : Plan.page_op) ->
           check_doomed txn;
           cc_access Event.Read op.Plan.page;
           if op.Plan.update then begin
             check_doomed txn;
             cc_access Event.Write op.Plan.page;
             wal_append (Wal.Update { tid; attempt; page = op.Plan.page });
             (* read-one/write-all: lock the remote copies now unless the
                algorithm defers them to the commit protocol. The round
                trips land in the decomposition's message/other residual. *)
             if
               write_all_at_access t.params.Params.cc.Params.algorithm
               && t.params.Params.database.Params.replication > 1
             then begin
               check_doomed txn;
               acquire_replica_writes t txn ~from_node:my_node op.Plan.page
             end
           end;
           (* permission fully granted: the auditor observes the version
              this access sees, atomically with the grant *)
           Option.iter (fun a -> Audit.record_read a txn op.Plan.page) t.audit;
           check_doomed txn;
           let t0 = Engine.now t.eng in
           Disk.read (Node.random_disk node);
           let disk_dur = Engine.now t.eng -. t0 in
           usage.Messages.u_disk <- usage.Messages.u_disk +. disk_dur;
           emit t (fun () ->
               Event.Disk_access
                 { tid; attempt; node = my_node; write = false; dur = disk_dur });
           check_doomed txn;
           let t0 = Engine.now t.eng in
           Cpu.consume node.Node.cpu
             ~instructions:(Workload.draw_page_instructions t.workload);
           let cpu_dur = Engine.now t.eng -. t0 in
           usage.Messages.u_cpu <- usage.Messages.u_cpu +. cpu_dur;
           emit t (fun () ->
               Event.Cpu_slice { tid; attempt; node = my_node; dur = cpu_dur }))
         cplan.Plan.ops;
       (* Primary/backup replication: ship the write-set to the backup
          before reporting the work done, so a crash of this node can be
          survived by failing the cohort over instead of dooming the
          attempt. One faulty-channel message; registration at the backup
          is marked on delivery. *)
       if
         durability.Params.replicas > 0 && is_updater
         && Array.length t.procs > 1
       then begin
         let b = backup_of t my_node in
         Net.send ~faulty:true t.net ~src:self ~dst:(Proc b) (fun () ->
             c.Messages.shipped <- true)
       end;
       send_coord (Messages.Work_done my_node)
     end);
    let my_vote = ref None in
    let rec protocol ~round =
      match recv t mb ~round with
      | `Timeout f ->
          if not (relocated_away ()) then begin
            note_timeout t f txn ~at_node:self ~round;
            f.retries <- f.retries + 1;
            (match !my_vote with
            | None ->
                (* the coordinator may have missed our Work_done *)
                send_coord (Messages.Work_done my_node)
            | Some true ->
                (* in doubt: run the termination protocol *)
                send_inquiry ()
            | Some false -> send_coord (Messages.Vote (my_node, false)));
            protocol ~round:(round + 1)
          end
      | `Msg Messages.Do_prepare -> (
          match !my_vote with
          | Some v ->
              (* retransmitted prepare: re-vote from memory; the CC
                 prepare step must not run twice *)
              send_coord (Messages.Vote (my_node, v));
              protocol ~round:1
          | None ->
              (* from here the cohort may block inside its CC manager, so
                 a crash can no longer fail it over to the backup — a
                 proxy would double-drive the manager *)
              c.Messages.preparing <- true;
              (* algorithms that defer replica write permission to the
                 commit protocol obtain it now; the write intent arrived
                 with the prepare message, so no extra messages are
                 charged. O2PL and 2PL-D may block here (covered by the
                 Snoop); OPT merely registers the writes for
                 certification. *)
              (if
                 (not
                    (write_all_at_access t.params.Params.cc.Params.algorithm))
                 && cplan.Plan.apply_ops <> []
               then
                 List.iter
                   (fun page -> cc_access ~work:false Event.Write page)
                   cplan.Plan.apply_ops);
              (* optional logging model: an updating cohort forces its log
                 page to disk before it can vote yes (footnote 5) *)
              if resources.Params.model_logging && is_updater then begin
                let t0 = Engine.now t.eng in
                Disk.write (Node.random_disk node);
                emit t (fun () ->
                    Event.Disk_access
                      { tid; attempt; node = my_node; write = true;
                        dur = Engine.now t.eng -. t0 })
              end;
              (* a proxy replays the shipped write-set into its own
                 node's log; replica installs are logged where they will
                 be applied *)
              if proxy then begin
                wal_append (Wal.Begin { tid; attempt });
                List.iter
                  (fun (op : Plan.page_op) ->
                    if op.Plan.update then
                      wal_append (Wal.Update { tid; attempt; page = op.Plan.page }))
                  cplan.Plan.ops
              end;
              List.iter
                (fun page -> wal_append (Wal.Update { tid; attempt; page }))
                cplan.Plan.apply_ops;
              let vote = cc.Cc_intf.cc_prepare txn in
              my_vote := Some vote;
              (* a yes vote makes the cohort's state durable (in doubt)
                 before the vote can possibly reach the coordinator: the
                 prepare record is forced regardless of the force
                 policy *)
              (match wal with
              | Some w when is_updater ->
                  if vote then begin
                    Wal.append w (Wal.Prepare { tid; attempt });
                    wal_force ~accrue:true w
                  end
                  else Wal.append w (Wal.Abort { tid; attempt })
              | Some _ | None -> ());
              if vote then begin
                c.Messages.voted <- true;
                Metrics.record_prepared t.metrics ~tid ~attempt ~node:my_node
              end;
              send_coord (Messages.Vote (my_node, vote));
              protocol ~round:1)
      | `Msg Messages.Do_commit ->
          Metrics.record_decided t.metrics ~tid ~attempt ~node:my_node;
          (* crash recovery may have already redone this cohort's
             installs from the durable log; the late Do_commit then only
             releases the CC footprint and acknowledges *)
          let already_installed =
            match wal with
            | Some w -> Wal.installed w ~tid ~attempt
            | None -> false
          in
          if not already_installed then initiate_deferred_writes ();
          (* snapshot the installs and perform them in the same event *)
          let installed = cc.Cc_intf.cc_installed txn in
          cc.Cc_intf.cc_commit txn;
          release ();
          Option.iter
            (fun a ->
              (* replica installs are physical copies of the same logical
                 page; the auditor counts only primary installs *)
              let primary page =
                List.exists
                  (fun (op : Plan.page_op) -> Ids.Page.equal op.Plan.page page)
                  cplan.Plan.ops
              in
              List.iter
                (fun page ->
                  if primary page then Audit.record_install a txn page)
                installed)
            t.audit;
          (match wal with
          | Some w when is_updater ->
              Wal.append w (Wal.Commit { tid; attempt });
              (match durability.Params.log_force with
              | Params.At_commit -> wal_force ~accrue:false w
              | Params.At_prepare -> ());
              Wal.mark_installed w ~tid ~attempt
          | Some _ | None -> ());
          send_coord (Messages.Done_ack my_node)
      | `Msg Messages.Do_abort ->
          Metrics.record_decided t.metrics ~tid ~attempt ~node:my_node;
          cc.Cc_intf.cc_abort txn;
          release ();
          wal_append (Wal.Abort { tid; attempt });
          send_coord (Messages.Done_ack my_node)
    in
    protocol ~round:1
  with Txn.Aborted reason ->
    cc.Cc_intf.cc_abort txn;
    release ();
    (match reason with
    | Txn.Bto_conflict | Txn.Cert_failed | Txn.Died ->
        (* self-inflicted: the coordinator does not know yet *)
        send_coord (Messages.Cohort_aborted (my_node, reason))
    | Txn.Local_deadlock | Txn.Global_deadlock | Txn.Wounded | Txn.Peer_abort
    | Txn.Crashed | Txn.Timed_out ->
        ());
    (* wait for the coordinator's abort command, then acknowledge; under
       faults the command may be lost, so inquire on timeout (a finished
       attempt is answered from the decision log: presumed abort) *)
    let rec drain ~round =
      match recv t mb ~round with
      | `Msg Messages.Do_abort -> ()
      | `Msg (Messages.Do_prepare | Messages.Do_commit) -> drain ~round
      | `Timeout f ->
          note_timeout t f txn ~at_node:self ~round;
          f.retries <- f.retries + 1;
          send_inquiry ();
          drain ~round:(round + 1)
    in
    drain ~round:1;
    send_coord (Messages.Done_ack my_node)
