(** Admission of work into the machine: closed-loop terminals and the
    open-loop arrival pump with its admission queue and MPL gate. *)

(** Spawn closed-loop terminal [index]. *)
val run_terminal : Runtime.t -> index:int -> unit

(** Spawn the open-loop arrival pump. *)
val run_arrival_pump : Runtime.t -> Runtime.arrival_rt -> unit
