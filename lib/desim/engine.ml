open Effect
open Effect.Deep

exception Not_in_process

(* A scheduled event doubles as its own cancellation handle: the separate
   handle record used to cost one extra allocation per scheduled event,
   which the Bechamel engine benches showed as pure churn. *)
type event = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
}

(* A resumption waiting in the ready lane: a suspended process to continue
   with a value or to discontinue with an exception. [Idle] fills free ring
   slots so that they keep no continuation alive. *)
type ready =
  | Idle : ready
  | Continue : ('a, unit) continuation * 'a -> ready
  | Discontinue : ('a, unit) continuation * exn -> ready

type t = {
  mutable now : float;
  events : event Heap.t;
  mutable last_seq : int;
  mutable stop_requested : bool;
  mutable processed : int;
  (* The ready lane: a FIFO ring of resumptions due at [now], with the
     sequence number each would have had as a heap event. *)
  mutable ring_seq : int array;
  mutable ring : ready array;
  mutable ring_head : int;
  mutable ring_len : int;
}

type handle = event

type 'a resolver = { resolve : 'a -> unit; reject : exn -> unit }

(* Effects are parameterized by the engine so that several engines can
   coexist; the handler installed by [spawn] checks identity. *)
type _ Effect.t +=
  | Wait : t * float -> unit Effect.t
  | Suspend : t * ('a resolver -> unit) -> 'a Effect.t

let cmp_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let ring_capacity = 16

let create () =
  {
    now = 0.;
    events = Heap.create ~cmp:cmp_event;
    last_seq = 0;
    stop_requested = false;
    processed = 0;
    ring_seq = Array.make ring_capacity 0;
    ring = Array.make ring_capacity Idle;
    ring_head = 0;
    ring_len = 0;
  }

let now t = t.now

let check_at t at =
  if at < t.now -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at %g is in the past (now %g)" at t.now)

let schedule t ~at action =
  check_at t at;
  let at = if at < t.now then t.now else at in
  t.last_seq <- t.last_seq + 1;
  let ev = { time = at; seq = t.last_seq; action; cancelled = false } in
  Heap.push t.events ev;
  ev

let schedule_after t ~delay action = schedule t ~at:(t.now +. delay) action

let cancel h = h.cancelled <- true

let enqueue t r =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    let seqs = Array.make (2 * cap) 0 and cells = Array.make (2 * cap) Idle in
    for i = 0 to cap - 1 do
      let j = (t.ring_head + i) mod cap in
      seqs.(i) <- t.ring_seq.(j);
      cells.(i) <- t.ring.(j)
    done;
    t.ring_seq <- seqs;
    t.ring <- cells;
    t.ring_head <- 0
  end;
  let i = t.ring_head + t.ring_len in
  let i = if i >= Array.length t.ring then i - Array.length t.ring else i in
  t.last_seq <- t.last_seq + 1;
  t.ring_seq.(i) <- t.last_seq;
  t.ring.(i) <- r;
  t.ring_len <- t.ring_len + 1

(* Processes find their engine through a "current engine" slot that [run]
   sets for its whole duration, so model code can call [wait]/[suspend]
   without threading the engine value everywhere. The slot is domain-local:
   each worker domain of a parallel sweep runs its own engine, and a global
   ref here would let one domain's run clobber another's. *)
let current : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Inside [run] the slot is set even while a plain scheduled callback
   runs; there the effect finds no handler. *)
let wait delay =
  match !(Domain.DLS.get current) with
  | None -> raise Not_in_process
  | Some eng -> (
      try perform (Wait (eng, delay)) with Unhandled _ -> raise Not_in_process)

let suspend register =
  match !(Domain.DLS.get current) with
  | None -> raise Not_in_process
  | Some eng -> (
      try perform (Suspend (eng, register))
      with Unhandled _ -> raise Not_in_process)

let run_fiber (t : t) (f : unit -> unit) : unit =
  match_with f ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait (eng, delay) when eng == t ->
              Some
                (fun (k : (a, _) continuation) ->
                  let at = t.now +. delay in
                  check_at t at;
                  (* A zero wait is due now: the ready lane gives it the
                     same (time, seq) slot as a heap event would. *)
                  if at <= t.now then enqueue t (Continue (k, ()))
                  else
                    ignore (schedule t ~at (fun () -> continue k ()) : handle))
          | Suspend (eng, register) when eng == t ->
              Some
                (fun (k : (a, _) continuation) ->
                  let used = ref false in
                  (* [rec] makes the two closures share one block and one
                     copy of their environment. *)
                  let[@warning "-39"] rec resolve v =
                    if !used then invalid_arg "Engine: resolver used twice";
                    used := true;
                    enqueue t (Continue (k, v))
                  and reject e =
                    if !used then invalid_arg "Engine: resolver used twice";
                    used := true;
                    enqueue t (Discontinue (k, e))
                  in
                  register { resolve; reject })
          | _ -> None);
    }

let spawn t f = ignore (schedule t ~at:t.now (fun () -> run_fiber t f) : handle)

let stop t = t.stop_requested <- true

let events_processed t = t.processed

(* Fire the ready-lane head, which is due at [now]. *)
let fire_ready t =
  let i = t.ring_head in
  let r = t.ring.(i) in
  t.ring.(i) <- Idle;
  t.ring_head <- (if i + 1 = Array.length t.ring then 0 else i + 1);
  t.ring_len <- t.ring_len - 1;
  t.processed <- t.processed + 1;
  match r with
  | Continue (k, v) -> continue k v
  | Discontinue (k, e) -> discontinue k e
  | Idle -> assert false

(* The ready lane holds events at [now] and heap events are never earlier,
   so the lane head goes first unless the heap top is also at [now] and
   was scheduled before it: exactly the (time, seq) order of one heap. *)
let ready_first t =
  t.ring_len > 0
  && (Heap.is_empty t.events
     ||
     let ev = Heap.top t.events in
     ev.time > t.now || ev.seq > t.ring_seq.(t.ring_head))

(* Pop the heap top; a cancelled event is dropped without firing. *)
let fire_top t =
  let ev = Heap.top t.events in
  Heap.drop t.events;
  if not ev.cancelled then begin
    t.now <- ev.time;
    t.processed <- t.processed + 1;
    ev.action ()
  end

let loop ?until t =
  t.stop_requested <- false;
  let continue_ = ref true in
  while
    !continue_ && (not t.stop_requested)
    && (t.ring_len > 0 || not (Heap.is_empty t.events))
  do
    let ready = ready_first t in
    let due = if ready then t.now else (Heap.top t.events).time in
    match until with
    | Some u when due > u ->
        t.now <- u;
        continue_ := false
    | _ -> if ready then fire_ready t else fire_top t
  done;
  match until with
  | Some u
    when (not t.stop_requested) && t.now < u && t.ring_len = 0
         && Heap.is_empty t.events ->
      t.now <- u
  | _ -> ()

let run ?until t =
  let slot = Domain.DLS.get current in
  let saved = !slot in
  slot := Some t;
  Fun.protect ~finally:(fun () -> slot := saved) (fun () -> loop ?until t)
