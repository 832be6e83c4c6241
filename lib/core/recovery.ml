(** Site crashes and crash recovery: volatile-state loss and cohort
    failover, the WAL redo pass, the fault schedule, and the
    availability and durability accounting of a faulty run. *)

open Desim
open Ddbm_model
open Ids
open Runtime

(* A processing-node crash loses volatile state, including the WAL's
   un-forced tail. A resident cohort that has not yet voted is a
   casualty: with primary/backup replication on, if its write-set was
   delivered to a live backup and it is not already mid-prepare, a proxy
   fiber at the backup takes over its commit-protocol role (failover);
   otherwise the attempt is doomed and the cohort's CC footprint
   force-cleaned out of band, exactly as without replication. Prepared
   (voted) cohorts are in doubt: their durable prepare record and the
   termination protocol finish them after repair. *)
let lose_volatile_state t f i =
  (match t.wal with
  | Some wals ->
      (* torn-tail fault: the crash not only drops the un-forced tail
         but tears it — the tail's dependency records are clipped and
         the next recovery must degrade to serial physical redo. One
         draw per crash (the tear only takes effect when the dropped
         tail is non-empty); zero draws when the mode is off, so
         existing plans replay unchanged. *)
      let torn =
        f.plan.Fault_plan.torn_tail > 0.
        && Rng.bool f.tear_rng ~p:f.plan.Fault_plan.torn_tail
      in
      Wal.on_crash ~torn wals.(i)
  | None -> ());
  let replicas = t.params.Params.durability.Params.replicas in
  let startup = t.params.Params.resources.Params.inst_per_startup in
  List.iter
    (fun (rt : Messages.attempt_runtime) ->
      let txn = rt.Messages.txn in
      if decision_of f txn = None then
        Array.iter
          (fun (c : Messages.cohort) ->
            let orig = c.Messages.plan.Plan.node in
            if
              Option.is_some c.Messages.mb
              && Int.equal (resident c) i
              && not c.Messages.voted
            then begin
              let b = backup_of t orig in
              if
                replicas > 0 && b <> orig && c.Messages.shipped
                && (not c.Messages.preparing)
                && Option.is_none c.Messages.backup
                && up f (Proc b)
              then begin
                (* failover: route the coordinator to the backup and
                   hand the (possibly in-flight) protocol messages to
                   a fresh mailbox owned by the proxy *)
                c.Messages.backup <- Some b;
                let mb = Mailbox.create () in
                c.Messages.mb <- Some mb;
                f.failovers <- f.failovers + 1;
                emit t (fun () ->
                    Event.Cohort_resurrected
                      { tid = txn.Txn.tid; attempt = txn.Txn.attempt;
                        node = orig; backup = b });
                Cpu.submit t.procs.(b).Node.cpu ~instructions:startup
                  (fun () ->
                    Engine.spawn t.eng (fun () ->
                        Cohort.run_cohort ~proxy:true t rt c mb))
              end
              else begin
                doom rt Txn.Crashed;
                orphan t f txn orig
              end
            end)
          rt.Messages.cohorts)
    (live_attempts t)

(* Crash recovery at a processing node (WAL model on), in three stages:

   1. analysis — scan the durable log and resolve the in-doubt set
      against the host's decision log (one control-plane round trip);
   2. partition — group the commit-decided transactions into
      independent redo chains from the dependency records logged with
      each update ([Wal.redo_chains]): transactions whose write-sets
      never met land in different chains;
   3. redo — replay the chains on [durability.recovery_jobs] concurrent
      worker fibers, installing the durable updates of commit-decided
      transactions onto the data disks, then take a truncating
      checkpoint.

   [recovery_jobs = 1] preserves the original serial redo pass exactly.
   When a torn log tail clipped the dependency records
   ([Wal.deps_corrupt]), a chain-parallel pass degrades to the same
   serial physical redo — which needs no dependency information — and
   repairs the dependency index once the checkpoint lands.

   Recovery is re-entrant: a re-crash while recovering abandons the
   pass (the up-guards below), and the next recovery starts over from
   the durable log; redo is idempotent, so no committed update is
   lost. A cohort fiber that later receives the (retried) Do_commit
   finds its installs already done and only releases its CC footprint
   and acknowledges. In-doubt attempts that are still live stay in
   doubt — the ordinary termination protocol resolves them — and
   finished attempts without a logged decision are presumed aborted. *)
let rec spawn_recovery t f i wal =
  Engine.spawn t.eng (fun () ->
      emit t (fun () -> Event.Recovery_started { node = i });
      let t0 = Engine.now t.eng in
      (* crash-during-recovery fault: with probability [recrash] this
         pass is interrupted by a second crash moments after it starts,
         exercising the re-entrancy above. The repair time reuses the
         plan's MTTR stream parameters. *)
      if
        f.plan.Fault_plan.recrash > 0.
        && Rng.bool f.recrash_rng ~p:f.plan.Fault_plan.recrash
      then begin
        let delay =
          Rng.exponential f.recrash_rng
            ~mean:(f.plan.Fault_plan.mean_repair /. 100.)
        in
        let duration =
          Rng.exponential f.recrash_rng ~mean:f.plan.Fault_plan.mean_repair
        in
        ignore
          (Engine.schedule_after t.eng ~delay (fun () ->
               crash t f (Proc i) ~duration)
            : Engine.handle)
      end;
      Wal.scan wal;
      let doubts = Wal.in_doubt wal in
      let resolved = ref [] in
      if doubts <> [] then begin
        let got : unit Ivar.t = Ivar.create () in
        Net.send t.net ~src:(Proc i) ~dst:Host (fun () ->
            let answers =
              List.map
                (fun (tid, attempt) ->
                  let live =
                    match Hashtbl.find_opt t.live tid with
                    | Some rt -> Int.equal rt.Messages.txn.Txn.attempt attempt
                    | None -> false
                  in
                  (tid, attempt, live, Hashtbl.find_opt f.decisions (tid, attempt)))
                doubts
            in
            Net.send_async t.net ~src:Host ~dst:(Proc i) (fun () ->
                resolved := answers;
                Ivar.fill got ()));
        Ivar.read got
      end;
      if up f (Proc i) then begin
        let redone = ref 0 in
        let node = t.procs.(i) in
        let inst = t.params.Params.resources.Params.inst_per_update in
        let jobs = t.params.Params.durability.Params.recovery_jobs in
        let corrupt = Wal.deps_corrupt wal in
        let abort_undecided (tid, attempt, live, decision) =
          match decision with
          | Some true -> ()
          | Some false -> Wal.append wal (Wal.Abort { tid; attempt })
          | None ->
              if not live then Wal.append wal (Wal.Abort { tid; attempt })
        in
        let replay_commit ~tid ~attempt =
          for _ = 1 to Wal.redo_pages wal ~tid ~attempt do
            Cpu.consume node.Node.cpu ~instructions:inst;
            Disk.write (Node.random_disk node)
          done;
          Wal.append wal (Wal.Commit { tid; attempt });
          Wal.mark_installed wal ~tid ~attempt;
          incr redone
        in
        if jobs <= 1 || corrupt then begin
          (* serial physical redo: with [jobs = 1] this is the original
             recovery pass, event for event; it doubles as the degraded
             path when corrupt dependency records rule out chaining *)
          if jobs > 1 then t.recovery_degraded <- t.recovery_degraded + 1;
          List.iter
            (fun ((tid, attempt, _, decision) as answer) ->
              match decision with
              | Some true -> replay_commit ~tid ~attempt
              | Some false | None -> abort_undecided answer)
            !resolved
        end
        else begin
          (* chain-parallel redo: aborts are appended up front (pure log
             records, no installs), then the commit-decided set is
             partitioned into dependency chains and dealt round-robin to
             [jobs] worker fibers. Chains share no pages and no
             dependency edges, so the fiber interleaving cannot change
             the recovered state. *)
          List.iter abort_undecided !resolved;
          let commit_keys =
            List.filter_map
              (fun (tid, attempt, _, decision) ->
                match decision with
                | Some true -> Some (tid, attempt)
                | Some false | None -> None)
              !resolved
          in
          let chains = Array.of_list (Wal.redo_chains wal commit_keys) in
          let nchains = Array.length chains in
          if nchains > 0 then begin
            (* the chains must cover the commit-decided set exactly *)
            assert (
              Array.fold_left (fun n c -> n + List.length c) 0 chains
              = List.length commit_keys);
            let workers = Stdlib.min jobs nchains in
            let dones =
              Array.init workers (fun _ : unit Ivar.t -> Ivar.create ())
            in
            for w = 0 to workers - 1 do
              Engine.spawn t.eng (fun () ->
                  let c = ref w in
                  while !c < nchains do
                    let chain = !c in
                    let members = chains.(chain) in
                    let txns = List.length members in
                    emit t (fun () ->
                        Event.Recovery_chain_started { node = i; chain; txns });
                    let c0 = Engine.now t.eng in
                    List.iter
                      (fun (tid, attempt) ->
                        if up f (Proc i) then
                          replay_commit ~tid ~attempt)
                      members;
                    if up f (Proc i) then begin
                      let duration = Engine.now t.eng -. c0 in
                      t.recovery_chains <- t.recovery_chains + 1;
                      Metrics.record_chain t.metrics ~dur:duration;
                      emit t (fun () ->
                          Event.Recovery_chain_completed
                            { node = i; chain; txns; duration })
                    end;
                    c := !c + workers
                  done;
                  Ivar.fill dones.(w) ())
            done;
            Array.iter Ivar.read dones
          end
        end;
        Wal.append wal (Wal.Checkpoint { active = List.length doubts });
        (* the recovery checkpoint force queues on the same log disk as
           the forward path's forces; it joins the same latency
           histogram, so histogram counts conserve against [Wal.forces] *)
        let f0 = Engine.now t.eng in
        Wal.force wal;
        Metrics.record_log_force t.metrics ~dur:(Engine.now t.eng -. f0);
        if up f (Proc i) then begin
          if corrupt then Wal.repair_deps wal;
          let dur = Engine.now t.eng -. t0 in
          t.recoveries <- t.recoveries + 1;
          t.recovery_time <- t.recovery_time +. dur;
          Metrics.record_recovery t.metrics ~dur;
          emit t (fun () ->
              Event.Recovery_completed
                { node = i; duration = dur; redone = !redone })
        end
      end)

(* A crash of [node]: the site goes down for [duration], then comes
   back up; a processing node with a WAL then runs crash recovery.

   A host crash kills every coordinator whose decision is not yet
   logged: those attempts abort on recovery (presumed abort). Attempts
   with a logged decision continue — the coordinator fiber surviving
   models recovery replaying the decision log. Terminals admit no new
   transactions while the host is down. *)
and crash t f node ~duration =
  let s = site f node in
  if Faults.Crashable.up s.state then begin
    Faults.Crashable.crash s.state;
    f.node_crashes <- f.node_crashes + 1;
    s.down_since <- Some (Engine.now t.eng);
    emit t (fun () -> Event.Node_crashed { node });
    (match node with
    | Host ->
        let until = Engine.now t.eng +. duration in
        if until > f.host_down_until then f.host_down_until <- until;
        List.iter
          (fun (rt : Messages.attempt_runtime) ->
            if decision_of f rt.Messages.txn = None then doom rt Txn.Crashed)
          (live_attempts t)
    | Proc i -> lose_volatile_state t f i);
    ignore
      (Engine.schedule_after t.eng ~delay:duration (fun () ->
           if not (Faults.Crashable.up s.state) then begin
             Faults.Crashable.recover s.state;
             (match s.down_since with
             | Some since ->
                 let d = Engine.now t.eng -. since in
                 s.downtime <- s.downtime +. d;
                 f.total_downtime <- f.total_downtime +. d;
                 s.down_since <- None
             | None -> ());
             emit t (fun () -> Event.Node_recovered { node });
             match (node, t.wal) with
             | Proc i, Some wals -> spawn_recovery t f i wals.(i)
             | Host, _ | Proc _, None -> ()
           end)
        : Engine.handle)
  end

let schedule_faults t f =
  List.iter
    (fun (c : Fault_plan.crash) ->
      ignore
        (Engine.schedule t.eng ~at:c.Fault_plan.at (fun () ->
             crash t f c.Fault_plan.target ~duration:c.Fault_plan.duration)
          : Engine.handle))
    f.plan.Fault_plan.crashes;
  if f.plan.Fault_plan.crash_rate > 0. then
    Array.iteri
      (fun i rng ->
        let rec arm () =
          let gap =
            Rng.exponential rng ~mean:(1. /. f.plan.Fault_plan.crash_rate)
          in
          ignore
            (Engine.schedule_after t.eng ~delay:gap (fun () ->
                 if up f (Proc i) then begin
                   let duration =
                     Rng.exponential rng ~mean:f.plan.Fault_plan.mean_repair
                   in
                   crash t f (Proc i) ~duration
                 end;
                 arm ())
              : Engine.handle)
        in
        arm ())
      f.crash_rngs

(* The length of a site's open down-spell; zero while it is up. *)
let open_downtime t s =
  match s.down_since with Some since -> Engine.now t.eng -. since | None -> 0.

(* Fraction of node-seconds (host + proc nodes) spent up over the
   observation window. *)
let availability t =
  match t.faults with
  | None -> 1.
  | Some f ->
      let window = Metrics.window_duration t.metrics in
      if window <= 0. then 1.
      else begin
        let down =
          Array.fold_left
            (fun acc s -> acc +. s.downtime +. open_downtime t s)
            0. f.sites
        in
        let nodes = float_of_int (Array.length f.sites) in
        1. -. Float.min 1. (Float.max 0. (down /. (nodes *. window)))
      end

(* Grace period after which an open in-doubt interval counts as overdue
   (i.e. the termination protocol failed): the full retry envelope, a
   generous allowance for repeated inquiry loss, and any downtime — a
   cohort at a crashed node legitimately stays in doubt until repair. *)
let indoubt_grace t f =
  let p = f.plan in
  let open_downtime =
    Array.fold_left (fun acc s -> acc +. open_downtime t s) 0. f.sites
  in
  (* jittered timeouts stretch each round by up to the jitter fraction *)
  Backoff.total ~base:p.Fault_plan.timeout ~cap:p.Fault_plan.timeout_cap
    ~max_retries:p.Fault_plan.max_retries
  *. (1. +. p.Fault_plan.timeout_jitter)
  +. (20. *. p.Fault_plan.timeout_cap)
  +. f.total_downtime +. open_downtime

(* The capstone durability check: a committed transaction is covered at
   an updating cohort's node when that node's WAL digest shows the
   installs done, a durable commit record, or a durable prepare record
   together with the commit decision in the (stable) host decision log.
   An untracked entry means the log never saw an update footprint there
   or a checkpoint pruned a fully decided-and-installed one — nothing to
   lose either way. Counts committed transactions missing durable
   evidence at one or more nodes; must be zero. *)
let lost_commits t =
  match t.wal with
  | None -> 0
  | Some wals ->
      let decided_commit tid attempt =
        match t.faults with
        | None -> true
        | Some f ->
            Option.value (Hashtbl.find_opt f.decisions (tid, attempt))
              ~default:false
      in
      List.fold_left
        (fun acc (tid, attempt, nodes) ->
          let covered node =
            let w = wals.(node) in
            (not (Wal.tracked w ~tid ~attempt))
            || Wal.installed w ~tid ~attempt
            || Wal.committed_durable w ~tid ~attempt
            || (Wal.prepared_durable w ~tid ~attempt
               && decided_commit tid attempt)
          in
          if List.for_all covered nodes then acc else acc + 1)
        0 t.committed_cov
