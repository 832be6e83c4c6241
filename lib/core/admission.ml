(** Admission of work into the machine: closed-loop terminals at the
    host, and the open-loop arrival pump with its admission queue and
    multiprogramming-level gate. Each admitted transaction is retried
    until an attempt commits. *)

open Desim
open Ddbm_model
open Ids
open Runtime

let make_attempt t ~tid ~attempt ~origin_time ~startup_ts ~plan =
  let now = Engine.now t.eng in
  {
    Txn.tid;
    attempt;
    origin_time;
    attempt_time = now;
    startup_ts;
    cc_ts =
      (if attempt = 1 then startup_ts else Timestamp.Clock.make t.clock ~time:now);
    commit_ts = None;
    plan;
    phase = Txn.Working;
    doomed = false;
  }

(* Terminals live at the host: while it is down no new transaction (or
   restart) can be admitted. The wait is a loop because the host may
   crash again before the recovery the terminal slept towards. *)
let rec await_host_up t =
  match t.faults with
  | None -> ()
  | Some f ->
      if not (up f Host) then begin
        Engine.wait (Float.max 1e-9 (f.host_down_until -. Engine.now t.eng));
        await_host_up t
      end

(* One transaction from submission until an attempt commits: the inner
   loop of a closed-loop terminal and of an open-loop dispatch. After an
   abort the process sleeps [restart_delay k] (k = the aborted attempt),
   waits for the host, and retries with [next_plan plan]. *)
let run_transaction t ~plan ~restart_delay ~next_plan =
  let origin_time = Engine.now t.eng in
  Metrics.record_submit t.metrics;
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  emit t (fun () -> Event.Submit { tid });
  let startup_ts = Timestamp.Clock.make t.clock ~time:origin_time in
  let rec attempt k plan =
    let txn = make_attempt t ~tid ~attempt:k ~origin_time ~startup_ts ~plan in
    let outcome = Coordinator.run_attempt t txn in
    Metrics.record_completion t.metrics;
    match outcome with
    | Coordinator.Committed decomp ->
        Option.iter (fun a -> Audit.record_commit a txn) t.audit;
        emit t (fun () ->
            Event.Committed
              { tid; attempt = k; response = Engine.now t.eng -. origin_time });
        Metrics.record_commit t.metrics ~origin_time
          ~pages:(Plan.total_reads txn.Txn.plan) ~decomp
    | Aborted reason ->
        Option.iter (fun a -> Audit.record_abort a txn) t.audit;
        emit t (fun () -> Event.Aborted { tid; attempt = k; reason });
        Metrics.record_abort t.metrics ~reason;
        let delay = restart_delay k in
        emit t (fun () -> Event.Restart_wait { tid; attempt = k; delay });
        Engine.wait delay;
        await_host_up t;
        attempt (k + 1) (next_plan plan)
  in
  attempt 1 plan

(* Closed-loop restarts sleep one observed mean response time and, with
   [fresh_restart_plan], draw a new plan. *)
let run_terminal t ~index =
  Engine.spawn t.eng (fun () ->
      let rec session () =
        let think = Workload.think_time t.workload in
        if think > 0. then
          Engine.wait (Rng.exponential t.think_rng ~mean:think);
        await_host_up t;
        run_transaction t
          ~plan:(Workload.generate_plan t.workload ~terminal:index)
          ~restart_delay:(fun _ -> Metrics.restart_delay t.metrics)
          ~next_plan:(fun plan ->
            if t.params.Params.run.Params.fresh_restart_plan then
              Workload.generate_plan t.workload ~terminal:index
            else plan);
        session ()
      in
      session ())


let mpl_free a = a.spec.Arrival.mpl = 0 || a.in_flight < a.spec.Arrival.mpl

(* Lazy deadline expiry: overstayed entries are dropped from the queue
   head when we next look at it. Entries that would have expired but are
   never reached before the run ends still count as queued — the
   conservation identity absorbs them in still-queued. *)
let expire_stale t a =
  let deadline = a.spec.Arrival.deadline in
  if deadline > 0. then begin
    let now = Engine.now t.eng in
    let dropped = ref false in
    let rec loop () =
      match Queue.peek_opt a.queue with
      | Some p when now -. p.enqueued_at > deadline ->
          ignore (Queue.pop a.queue : pending);
          Metrics.record_expired t.metrics;
          dropped := true;
          loop ()
      | Some _ | None -> ()
    in
    loop ();
    if !dropped then Metrics.set_queue_depth t.metrics (Queue.length a.queue)
  end

(* Dispatch one admitted arrival. The one behavioural difference from a
   terminal is the restart wait: closed-loop restarts sleep one observed
   mean response time, which couples restart pressure to the very
   congestion admission control is trying to relieve; open-loop restarts
   back off on the spec's capped-exponential schedule instead.
   [Params.validate] rejects fresh_restart_plan with open-loop arrivals,
   so the retried plan is always the original. *)
let rec dispatch t a (p : pending) =
  a.in_flight <- a.in_flight + 1;
  Metrics.record_admitted t.metrics;
  Metrics.record_queue_wait t.metrics ~dur:(Engine.now t.eng -. p.enqueued_at);
  Engine.spawn t.eng (fun () ->
      await_host_up t;
      run_transaction t ~plan:p.pending_plan
        ~restart_delay:(fun k ->
          Backoff.delay ~base:a.spec.Arrival.retry_base
            ~cap:a.spec.Arrival.retry_cap ~round:k)
        ~next_plan:Fun.id;
      a.in_flight <- a.in_flight - 1;
      drain t a)

(* A completion freed an MPL slot (or expiry shortened the queue): move
   queued work into the system while the gate allows. *)
and drain t a =
  expire_stale t a;
  let continue = ref true in
  while !continue do
    if (not (Queue.is_empty a.queue)) && mpl_free a then begin
      let p = Queue.pop a.queue in
      Metrics.set_queue_depth t.metrics (Queue.length a.queue);
      dispatch t a p
    end
    else continue := false
  done

(* Admission: dispatch when the MPL gate is open and nothing waits ahead
   of us; queue while there is room; shed per policy at capacity. *)
let admit t a p =
  expire_stale t a;
  if Queue.is_empty a.queue && mpl_free a then dispatch t a p
  else if Queue.length a.queue < a.spec.Arrival.queue_cap then begin
    Queue.push p a.queue;
    Metrics.set_queue_depth t.metrics (Queue.length a.queue)
  end
  else
    match a.spec.Arrival.shed with
    | Arrival.Reject_newest -> Metrics.record_shed t.metrics
    | Arrival.Reject_oldest ->
        (* head out, arrival in: depth is unchanged *)
        ignore (Queue.pop a.queue : pending);
        Metrics.record_shed t.metrics;
        Queue.push p a.queue

(* The arrival pump: one fiber sampling the rate process and pushing
   arrivals through admission. Plans are drawn at arrival time from the
   per-terminal workload streams, round-robin over [num_terminals], so
   the offered plan sequence depends only on the seed and the arrival
   spec — never on the CC algorithm or on admission outcomes
   (cross-algorithm workload agreement, exactly as in the closed loop). *)
let run_arrival_pump t a =
  let num_terminals = t.params.Params.workload.Params.num_terminals in
  let run = t.params.Params.run in
  let horizon = run.Params.warmup +. run.Params.measure in
  Engine.spawn t.eng (fun () ->
      let rec pump () =
        let now = Engine.now t.eng in
        match Arrival.next_arrival a.spec a.arr_rng ~now ~horizon with
        | None -> ()
        | Some at ->
            if at > now then Engine.wait (at -. now);
            Metrics.record_offered t.metrics;
            let seq = a.next_seq in
            a.next_seq <- seq + 1;
            let plan =
              Workload.generate_plan t.workload ~terminal:(seq mod num_terminals)
            in
            admit t a
              { enqueued_at = Engine.now t.eng; pending_plan = plan };
            pump ()
      in
      pump ())
