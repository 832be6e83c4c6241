(* Host-speed calibration, re-run beside every timed workload run.

   The host's speed drifts by up to 1.7x over tens of seconds (other
   tenants share its cores and memory), which no run length averages
   out. Every timed run is therefore paired with a fixed reference job
   that shares no code with the simulator. Host times are
   reported scaled to a host on which the reference job takes exactly
   [reference_s]; a slower simulator still reads slower, since nothing
   here changes with it. *)

let reference_s = 0.040

type _ Effect.t += Hold : float -> unit Effect.t
type event = { at : float; seq : int; fire : unit -> unit }

(* A miniature process-oriented simulation: effect-handler fibers that
   hold for random times, a binary heap of closures, hash-table updates
   and small allocations. *)
let simulation () =
  let heap = ref (Array.make 256 { at = 0.; seq = 0; fire = ignore }) in
  let size = ref 0 and now = ref 0. and seq = ref 0 in
  let less a b = a.at < b.at || (a.at = b.at && a.seq < b.seq) in
  let swap i j =
    let h = !heap in
    let x = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- x
  in
  let push e =
    if !size = Array.length !heap then
      heap := Array.append !heap (Array.make !size e);
    !heap.(!size) <- e;
    let i = ref !size in
    incr size;
    while !i > 0 && less !heap.(!i) !heap.((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = !heap.(0) in
    decr size;
    !heap.(0) <- !heap.(!size);
    let i = ref 0 and stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      let m = if l < !size && less !heap.(l) !heap.(!i) then l else !i in
      let m = if l + 1 < !size && less !heap.(l + 1) !heap.(m) then l + 1 else m in
      if m = !i then stop := true
      else begin
        swap !i m;
        i := m
      end
    done;
    top
  in
  let schedule delay fire =
    incr seq;
    push { at = !now +. delay; seq = !seq; fire }
  in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let table = Hashtbl.create 1024 in
  let spawn body =
    schedule 0. (fun () ->
        Effect.Deep.match_with body ()
          {
            retc = ignore;
            exnc = raise;
            effc =
              (fun (type a) (e : a Effect.t) ->
                match e with
                | Hold d ->
                    Some
                      (fun (k : (a, unit) Effect.Deep.continuation) ->
                        schedule d (fun () -> Effect.Deep.continue k ()))
                | _ -> None);
          })
  in
  for p = 1 to 64 do
    spawn (fun () ->
        for i = 1 to 400 do
          Effect.perform (Hold (float_of_int (next () land 1023) *. 1e-3));
          let k = next () land 1023 in
          let l = Option.value ~default:[] (Hashtbl.find_opt table k) in
          Hashtbl.replace table k (if List.length l > 6 then [ (p, i) ] else (p, i) :: l)
        done)
  done;
  while !size > 0 do
    let e = pop () in
    now := e.at;
    e.fire ()
  done

(* Updates of a 64 Ki-key hash table of short lists and a sort: a
   working set of a few MB, so that the job, like the simulator, feels
   contention for the host's caches and memory. *)
let tables () =
  let h = Hashtbl.create 4096 in
  let state = ref 54321 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let acc = ref 0. in
  for i = 1 to 50_000 do
    let k = next () land 0xffff in
    (match Hashtbl.find_opt h k with
    | Some l -> Hashtbl.replace h k (i :: (if List.length l > 4 then [] else l))
    | None -> Hashtbl.add h k [ i ]);
    acc := !acc +. sqrt (float_of_int k)
  done;
  let a = Array.init 25_000 (fun _ -> next ()) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc, a))

let job () =
  simulation ();
  tables ()

(* Seconds the reference job takes on [jobs] domains at once (a pool
   map, as the sweep runs its points), from a collected heap. *)
let measure ~jobs =
  Gc.full_major ();
  let t0 = Workloads.now () in
  if jobs = 1 then job ()
  else ignore (Par.Pool.map (Par.Pool.create ~jobs ()) job (List.init jobs ignore) : unit list);
  Workloads.now () -. t0

(* Factor that turns host seconds measured beside [measure] into
   reference seconds. *)
let scale ~measured = reference_s /. measured
