(** Process-oriented discrete-event simulation engine.

    Model code is written in direct style: a process is an ordinary OCaml
    function that calls {!wait} to let simulated time pass and {!suspend} to
    block until some other process resolves it. Both are implemented with
    OCaml 5 effect handlers, so there are no threads and the simulation is
    fully deterministic: events at equal times fire in scheduling order.

    Every event, scheduled or not, takes a sequence number when it is
    created, and events fire in (time, sequence number) order. Resumptions
    of suspended processes (a resolver being called, a zero {!wait}) are
    always due at the current time, so they skip the event heap and wait in
    a FIFO ready lane; {!run} takes the lane's head before the heap's top
    whenever the top is later or was scheduled after it, which is exactly
    the order one heap holding every event would give.

    All times are in simulated seconds. *)

type t

(** A cancellable scheduled event. *)
type handle

(** One-shot continuation of a suspended process. Calling [resolve] (or
    [reject]) more than once on the same resolver raises
    [Invalid_argument]. *)
type 'a resolver = private {
  resolve : 'a -> unit;  (** resume the process with a value *)
  reject : exn -> unit;  (** resume the process by raising [exn] in it *)
}

val create : unit -> t

(** Current simulated time. *)
val now : t -> float

(** [schedule t ~at f] runs [f] at simulated time [at] (>= now). The
    returned handle can cancel it before it fires. *)
val schedule : t -> at:float -> (unit -> unit) -> handle

(** [schedule_after t ~delay f] = [schedule t ~at:(now t +. delay) f]. *)
val schedule_after : t -> delay:float -> (unit -> unit) -> handle

(** Cancel a pending event. Cancelling an event that was already
    cancelled or has fired does nothing. *)
val cancel : handle -> unit

(** [spawn t f] starts a new process executing [f ()] at the current time
    (it begins running when the scheduler reaches that event). Uncaught
    exceptions other than those injected via [reject] escape [run]. *)
val spawn : t -> (unit -> unit) -> unit

(** Let simulated time advance by [delay]. Only valid inside a process. *)
val wait : float -> unit

(** Block the calling process until another party resolves it. The
    registration function receives the resolver and must stash it somewhere
    (a queue, a lock table, ...). Resolving it queues the process in the
    ready lane at the current time. Only valid inside a process. *)
val suspend : ('a resolver -> unit) -> 'a

(** Run until no event is left, [until] is reached (events at later times
    stay queued and [now] becomes [until]), or {!stop} is called. Events
    left queued, in the heap or in the ready lane, fire in their order on
    the next call. [run] makes [t] the domain's current engine for its
    whole duration, and restores the previous one when it returns or
    raises. *)
val run : ?until:float -> t -> unit

(** Make [run] return after the current event completes. *)
val stop : t -> unit

(** Number of events processed so far, ready-lane resumptions included
    (for performance reporting). *)
val events_processed : t -> int

(** Raised when {!wait} or {!suspend} is called outside a process: outside
    {!run}, or from a plain scheduled callback inside it. *)
exception Not_in_process
