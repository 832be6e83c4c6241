open Desim

let test_schedule_order () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule eng ~at:2. (fun () -> log := 2 :: !log));
  ignore (Engine.schedule eng ~at:1. (fun () -> log := 1 :: !log));
  ignore (Engine.schedule eng ~at:3. (fun () -> log := 3 :: !log));
  Engine.run eng;
  Alcotest.(check (list int)) "in time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.)) "final time" 3. (Engine.now eng)

let test_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~at:1. (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~at:1. (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run eng;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_until () =
  let eng = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule eng ~at:10. (fun () -> fired := true));
  Engine.run ~until:5. eng;
  Alcotest.(check bool) "later event pending" false !fired;
  Alcotest.(check (float 0.)) "clock at until" 5. (Engine.now eng);
  Engine.run eng;
  Alcotest.(check bool) "fires on resume" true !fired

let test_process_wait () =
  let eng = Engine.create () in
  let times = ref [] in
  Engine.spawn eng (fun () ->
      times := Engine.now eng :: !times;
      Engine.wait 1.5;
      times := Engine.now eng :: !times;
      Engine.wait 2.5;
      times := Engine.now eng :: !times);
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "wait advances time" [ 0.; 1.5; 4. ]
    (List.rev !times)

let test_suspend_resolve () =
  let eng = Engine.create () in
  let slot = ref None in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      let v = Engine.suspend (fun r -> slot := Some r) in
      got := v);
  ignore
    (Engine.schedule eng ~at:7. (fun () ->
         match !slot with
         | Some r -> r.Engine.resolve 42
         | None -> Alcotest.fail "resolver not registered"));
  Engine.run eng;
  Alcotest.(check int) "resolved value" 42 !got;
  Alcotest.(check (float 0.)) "resumed at resolver time" 7. (Engine.now eng)

exception Test_abort

let test_suspend_reject () =
  let eng = Engine.create () in
  let slot = ref None in
  let caught = ref false in
  Engine.spawn eng (fun () ->
      try
        let (_ : int) = Engine.suspend (fun r -> slot := Some r) in
        ()
      with Test_abort -> caught := true);
  ignore
    (Engine.schedule eng ~at:1. (fun () ->
         match !slot with
         | Some r -> r.Engine.reject Test_abort
         | None -> ()));
  Engine.run eng;
  Alcotest.(check bool) "rejection raised in process" true !caught

let test_resolver_single_use () =
  let eng = Engine.create () in
  let slot = ref None in
  Engine.spawn eng (fun () ->
      let (_ : int) = Engine.suspend (fun r -> slot := Some r) in
      ());
  ignore
    (Engine.schedule eng ~at:1. (fun () ->
         match !slot with
         | Some r ->
             r.Engine.resolve 1;
             Alcotest.check_raises "second use rejected"
               (Invalid_argument "Engine: resolver used twice") (fun () ->
                 r.Engine.resolve 2)
         | None -> ()));
  Engine.run eng

let test_nested_spawn () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      log := "parent" :: !log;
      Engine.spawn eng (fun () ->
          Engine.wait 1.;
          log := "child" :: !log);
      Engine.wait 2.;
      log := "parent-done" :: !log);
  Engine.run eng;
  Alcotest.(check (list string))
    "interleaving" [ "parent"; "child"; "parent-done" ]
    (List.rev !log)

let test_wait_outside_process () =
  Alcotest.check_raises "not in process" Engine.Not_in_process (fun () ->
      Engine.wait 1.)

let test_stop () =
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 100 do
        incr count;
        if !count = 10 then Engine.stop eng;
        Engine.wait 1.
      done);
  Engine.run eng;
  Alcotest.(check int) "stopped early" 10 !count

let test_ivar_between_processes () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () -> sum := !sum + Ivar.read iv)
  done;
  Engine.spawn eng (fun () ->
      Engine.wait 5.;
      Ivar.fill iv 7);
  Engine.run eng;
  Alcotest.(check int) "all readers woke" 21 !sum

let test_events_processed () =
  let eng = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~at:(float_of_int i) ignore)
  done;
  Engine.run eng;
  Alcotest.(check int) "counted" 5 (Engine.events_processed eng)

let test_schedule_in_past_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~at:5. ignore);
  Engine.run eng;
  Alcotest.(check bool) "past schedule raises" true
    (try
       ignore (Engine.schedule eng ~at:1. ignore);
       false
     with Invalid_argument _ -> true)

let test_cancel_after_fire_harmless () =
  let eng = Engine.create () in
  let h = Engine.schedule eng ~at:1. ignore in
  Engine.run eng;
  Engine.cancel h;
  Alcotest.(check pass) "no effect" () ()

let test_zero_delay_wait_keeps_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      log := "a1" :: !log;
      Engine.wait 0.;
      log := "a2" :: !log);
  Engine.spawn eng (fun () -> log := "b" :: !log);
  Engine.run eng;
  (* the zero-delay wait yields to the already-scheduled process *)
  Alcotest.(check (list string)) "yield order" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_many_processes () =
  let eng = Engine.create () in
  let done_ = ref 0 in
  for i = 1 to 1000 do
    Engine.spawn eng (fun () ->
        Engine.wait (float_of_int (i mod 7));
        incr done_)
  done;
  Engine.run eng;
  Alcotest.(check int) "all processes ran" 1000 !done_

let test_callback_not_in_process () =
  let eng = Engine.create () in
  let caught = ref [] in
  let attempt name f =
    try f () with Engine.Not_in_process -> caught := name :: !caught
  in
  ignore
    (Engine.schedule eng ~at:1. (fun () ->
         attempt "wait" (fun () -> Engine.wait 1.);
         attempt "suspend" (fun () ->
             let (_ : int) = Engine.suspend (fun _ -> ()) in
             ()))
      : Engine.handle);
  (* A process still works after a callback's failed attempt. *)
  let woke = ref false in
  Engine.spawn eng (fun () ->
      Engine.wait 2.;
      woke := true);
  Engine.run eng;
  Alcotest.(check (list string))
    "both raise" [ "wait"; "suspend" ] (List.rev !caught);
  Alcotest.(check bool) "process unaffected" true !woke

(* Minor words one suspend/resolve round trip allocates: the effect, the
   continuation, the handler's closure, the resolver and its one-shot
   cell, and the ready-lane cell. The count is deterministic; the pin
   carries 10 % headroom, so one more closure per resumption fails. *)
let round_trip_words_pin = 33.0

let resolve_now (r : unit Engine.resolver) = r.resolve ()

let test_round_trip_allocation () =
  let n = 10_000 in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      for _ = 1 to n do
        Engine.suspend resolve_now
      done);
  let before = Gc.minor_words () in
  Engine.run eng;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per round trip (pin %.1f)" words
       round_trip_words_pin)
    true (words <= round_trip_words_pin);
  Alcotest.(check int) "one event per resumption" (n + 1)
    (Engine.events_processed eng)

(* --- differential check against a reference model ---------------------

   A scenario is a script of instructions run by the test itself before
   the first [run], by spawned processes and by plain scheduled callbacks.
   The reference model interprets the same script over one list of
   (time, seq) events in which every resumption is an ordinary event: the
   order the ready lane must reproduce. Both sides log what runs and when,
   and count the events they fire. *)

type instr =
  | Log
  | Wait of float
  | Suspend (* park the process's resolver in its slot *)
  | Spawn of instr list
  | Schedule of float * instr list (* a plain callback after a delay *)
  | Resolve of int (* resume parked process [i mod parked], in park order *)
  | Reject of int
  | Cancel of int (* cancel handle [i mod handles] *)
  | Stop

let rec pp_instr = function
  | Log -> "log"
  | Wait d -> Printf.sprintf "wait %g" d
  | Suspend -> "suspend"
  | Spawn is -> "spawn " ^ pp_instrs is
  | Schedule (d, is) -> Printf.sprintf "schedule %g %s" d (pp_instrs is)
  | Resolve i -> Printf.sprintf "resolve %d" i
  | Reject i -> Printf.sprintf "reject %d" i
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Stop -> "stop"

and pp_instrs is = "[" ^ String.concat "; " (List.map pp_instr is) ^ "]"

(* [runs]: horizons, relative to the current time, of the [run] calls the
   test makes before it drains the engine. *)
type scenario = { script : instr list; runs : float option list }

let pp_scenario s =
  Printf.sprintf "script %s, runs [%s]" (pp_instrs s.script)
    (String.concat "; "
       (List.map
          (function None -> "all" | Some d -> Printf.sprintf "+%g" d)
          s.runs))

let gen_scenario =
  let open QCheck.Gen in
  let delay = oneofl [ 0.; 0.; 0.5; 1. ] in
  let rec instrs depth = list_size (int_bound 4) (instr depth)
  and instr depth =
    let leaf =
      [
        (3, return Log);
        (3, map (fun d -> Wait d) delay);
        (3, return Suspend);
        (3, map (fun i -> Resolve i) small_nat);
        (1, map (fun i -> Reject i) small_nat);
        (2, map (fun i -> Cancel i) small_nat);
        (1, return Stop);
      ]
    in
    if depth = 0 then frequency leaf
    else
      frequency
        ((2, map (fun is -> Spawn is) (instrs (depth - 1)))
        :: (2, map2 (fun d is -> Schedule (d, is)) delay (instrs (depth - 1)))
        :: leaf)
  in
  map2
    (fun script runs -> { script; runs })
    (list_size (int_range 1 6) (instr 3))
    (list_size (int_bound 4) (opt (oneofl [ 0.; 0.5; 1.; 2. ])))

exception Rejected

let drains = 8

let line who what now =
  let who = if who < 0 then "cb" else string_of_int who in
  Printf.sprintf "%s %s @%g" who what now

let engine_trace s =
  let eng = Engine.create () in
  let log = ref [] in
  let note pid what = log := line pid what (Engine.now eng) :: !log in
  let parked = ref [] and procs = ref 0 in
  let handles = Hashtbl.create 16 in
  let wake i f =
    match !parked with
    | [] -> ()
    | ps ->
        let p, (r : int Engine.resolver) = List.nth ps (i mod List.length ps) in
        parked := List.filter (fun (q, _) -> q <> p) ps;
        f r
  in
  let rec exec pid = List.iter (step pid)
  and step pid = function
    | Log -> note pid "log"
    | Wait d -> (
        try Engine.wait d with Engine.Not_in_process -> note pid "nip")
    | Suspend -> (
        match Engine.suspend (fun r -> parked := !parked @ [ (pid, r) ]) with
        | v -> note pid (Printf.sprintf "resumed %d" v)
        | exception Rejected -> note pid "rejected"
        | exception Engine.Not_in_process -> note pid "nip")
    | Spawn is ->
        let p = !procs in
        incr procs;
        Engine.spawn eng (fun () -> exec p is)
    | Schedule (d, is) ->
        Hashtbl.replace handles (Hashtbl.length handles)
          (Engine.schedule_after eng ~delay:d (fun () -> exec (-1) is))
    | Resolve i -> wake i (fun r -> r.resolve i)
    | Reject i -> wake i (fun r -> r.reject Rejected)
    | Cancel i ->
        if Hashtbl.length handles > 0 then
          Engine.cancel (Hashtbl.find handles (i mod Hashtbl.length handles))
    | Stop -> Engine.stop eng
  in
  exec (-1) s.script;
  let returned () = note (-1) "run returned" in
  List.iter
    (fun d ->
      Engine.run ?until:(Option.map (fun d -> Engine.now eng +. d) d) eng;
      returned ())
    s.runs;
  for _ = 1 to drains do
    Engine.run eng;
    returned ()
  done;
  (List.rev !log, Engine.events_processed eng)

type model_event = {
  at : float;
  seq : int;
  fire : unit -> unit;
  mutable dead : bool;
}

let earlier a b =
  let c = Float.compare a.at b.at in
  c < 0 || (c = 0 && a.seq < b.seq)

(* The reference. A process's continuation is the rest of its script. *)
let model_trace s =
  let now = ref 0. and seq = ref 0 and queue = ref [] in
  let stopped = ref false and processed = ref 0 in
  let log = ref [] in
  let note pid what = log := line pid what !now :: !log in
  let parked = ref [] and procs = ref 0 in
  let handles = Hashtbl.create 16 in
  let push ~at fire =
    incr seq;
    let ev = { at; seq = !seq; fire; dead = false } in
    queue := ev :: !queue;
    ev
  in
  let rec exec pid = function
    | [] -> ()
    | (Wait _ | Suspend) :: rest when pid < 0 ->
        note pid "nip";
        exec pid rest
    | Wait d :: rest -> ignore (push ~at:(!now +. d) (fun () -> exec pid rest))
    | Suspend :: rest -> parked := !parked @ [ (pid, rest) ]
    | i :: rest ->
        (match i with
        | Log -> note pid "log"
        | Spawn is ->
            let p = !procs in
            incr procs;
            ignore (push ~at:!now (fun () -> exec p is))
        | Schedule (d, is) ->
            Hashtbl.replace handles (Hashtbl.length handles)
              (push ~at:(!now +. d) (fun () -> exec (-1) is))
        | Resolve i -> wake i (Printf.sprintf "resumed %d" i)
        | Reject i -> wake i "rejected"
        | Cancel i ->
            if Hashtbl.length handles > 0 then
              (Hashtbl.find handles (i mod Hashtbl.length handles)).dead <- true
        | Stop -> stopped := true
        | Wait _ | Suspend -> assert false);
        exec pid rest
  and wake i what =
    match !parked with
    | [] -> ()
    | ps ->
        let p, k = List.nth ps (i mod List.length ps) in
        parked := List.filter (fun (q, _) -> q <> p) ps;
        ignore
          (push ~at:!now (fun () ->
               note p what;
               exec p k))
  in
  let run until =
    stopped := false;
    let rec loop () =
      if not !stopped then
        match !queue with
        | [] -> (
            match until with Some u when !now < u -> now := u | _ -> ())
        | e :: es -> (
            let ev =
              List.fold_left (fun a b -> if earlier b a then b else a) e es
            in
            match until with
            | Some u when ev.at > u -> now := u
            | _ ->
                queue := List.filter (fun x -> x != ev) !queue;
                if not ev.dead then begin
                  now := ev.at;
                  incr processed;
                  ev.fire ()
                end;
                loop ())
    in
    loop ();
    note (-1) "run returned"
  in
  exec (-1) s.script;
  List.iter (fun d -> run (Option.map (fun d -> !now +. d) d)) s.runs;
  for _ = 1 to drains do
    run None
  done;
  (List.rev !log, !processed)

let prop_matches_model =
  QCheck.Test.make ~name:"ready lane keeps the one-heap order" ~count:1000
    (QCheck.make ~print:pp_scenario gen_scenario)
    (fun s ->
      let got = engine_trace s and want = model_trace s in
      if got = want then true
      else
        QCheck.Test.fail_reportf "engine:\n%s\nmodel:\n%s"
          (String.concat "\n" (fst got))
          (String.concat "\n" (fst want)))

let suite =
  [
    Alcotest.test_case "schedule order" `Quick test_schedule_order;
    Alcotest.test_case "past schedule rejected" `Quick
      test_schedule_in_past_rejected;
    Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire_harmless;
    Alcotest.test_case "zero-delay wait yields" `Quick
      test_zero_delay_wait_keeps_order;
    Alcotest.test_case "many processes" `Quick test_many_processes;
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "run until" `Quick test_until;
    Alcotest.test_case "process wait" `Quick test_process_wait;
    Alcotest.test_case "suspend/resolve" `Quick test_suspend_resolve;
    Alcotest.test_case "suspend/reject" `Quick test_suspend_reject;
    Alcotest.test_case "resolver single-use" `Quick test_resolver_single_use;
    Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
    Alcotest.test_case "wait outside process" `Quick test_wait_outside_process;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "ivar between processes" `Quick
      test_ivar_between_processes;
    Alcotest.test_case "events processed" `Quick test_events_processed;
    Alcotest.test_case "callback not in process" `Quick
      test_callback_not_in_process;
    Alcotest.test_case "round-trip allocation" `Quick
      test_round_trip_allocation;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]
