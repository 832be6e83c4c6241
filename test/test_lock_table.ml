open Desim
open Ddbm_cc
open Ddbm_model

exception Rejected

let mk () =
  let h = Cc_harness.make () in
  let blocking = Stats.Tally.create () in
  (h, Lock_table.create h.Cc_harness.eng ~blocking, blocking)

(* Acquire in a spawned process; returns a ref set to `Granted/`Rejected. *)
let async_request h locks txn page mode =
  let state = ref `Waiting in
  Engine.spawn h.Cc_harness.eng (fun () ->
      try
        Lock_table.request locks txn page mode ~on_block:(fun _ -> ());
        state := `Granted
      with Txn.Aborted _ -> state := `Rejected);
  state

let test_shared_compatible () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  let s0 = async_request h locks t0 p Lock_table.S in
  let s1 = async_request h locks t1 p Lock_table.S in
  Cc_harness.settle h;
  Alcotest.(check bool) "both granted" true (!s0 = `Granted && !s1 = `Granted)

let test_exclusive_blocks () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  let s0 = async_request h locks t0 p Lock_table.X in
  let s1 = async_request h locks t1 p Lock_table.S in
  Cc_harness.settle h;
  Alcotest.(check bool) "holder granted" true (!s0 = `Granted);
  Alcotest.(check bool) "reader blocked" true (!s1 = `Waiting);
  (* release on commit: waiter granted *)
  Lock_table.release_all locks t0 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "waiter granted after release" true (!s1 = `Granted)

let test_fcfs_no_queue_jump () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let t2 = Cc_harness.txn h ~tid:2 ~time:2. () in
  let p = Cc_harness.page 1 in
  let s0 = async_request h locks t0 p Lock_table.S in
  Cc_harness.settle h;
  let s1 = async_request h locks t1 p Lock_table.X in
  (* t2's S is compatible with t0's S but must not jump t1's X *)
  let s2 = async_request h locks t2 p Lock_table.S in
  Cc_harness.settle h;
  Alcotest.(check bool) "t0 granted" true (!s0 = `Granted);
  Alcotest.(check bool) "t1 waits" true (!s1 = `Waiting);
  Alcotest.(check bool) "t2 does not jump" true (!s2 = `Waiting);
  Lock_table.release_all locks t0 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "t1 granted next" true (!s1 = `Granted);
  Alcotest.(check bool) "t2 still waits" true (!s2 = `Waiting);
  Lock_table.release_all locks t1 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "t2 finally granted" true (!s2 = `Granted)

let test_upgrade_sole_holder () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 in
  let s = async_request h locks t0 p Lock_table.S in
  Cc_harness.settle h;
  let x = async_request h locks t0 p Lock_table.X in
  Cc_harness.settle h;
  Alcotest.(check bool) "upgrade immediate" true (!s = `Granted && !x = `Granted);
  Alcotest.(check bool) "held in X" true
    (match Lock_table.held locks t0 p with
    | Some Lock_table.X -> true
    | Some Lock_table.S | None -> false)

let test_upgrade_waits_for_other_reader () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.S);
  ignore (async_request h locks t1 p Lock_table.S);
  Cc_harness.settle h;
  let up = async_request h locks t0 p Lock_table.X in
  Cc_harness.settle h;
  Alcotest.(check bool) "conversion waits" true (!up = `Waiting);
  Lock_table.release_all locks t1 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "conversion granted after release" true (!up = `Granted)

let test_conversion_jumps_queue () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let t2 = Cc_harness.txn h ~tid:2 ~time:2. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.S);
  ignore (async_request h locks t1 p Lock_table.S);
  Cc_harness.settle h;
  (* t2 queues an X; then t1 converts: the conversion goes ahead of t2 *)
  let x2 = async_request h locks t2 p Lock_table.X in
  Cc_harness.settle h;
  let up1 = async_request h locks t1 p Lock_table.X in
  Cc_harness.settle h;
  Alcotest.(check bool) "both waiting" true (!x2 = `Waiting && !up1 = `Waiting);
  Lock_table.release_all locks t0 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "conversion wins" true (!up1 = `Granted);
  Alcotest.(check bool) "plain X still waits" true (!x2 = `Waiting)

let test_release_rejects_waiters () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  let s1 = async_request h locks t1 p Lock_table.S in
  Cc_harness.settle h;
  Alcotest.(check bool) "t1 waiting" true (!s1 = `Waiting);
  (* aborting t1 rejects its blocked request *)
  Lock_table.release_all locks t1 ~reject:(Txn.Aborted Txn.Peer_abort);
  Cc_harness.settle h;
  Alcotest.(check bool) "t1 rejected" true (!s1 = `Rejected);
  (* the holder is untouched *)
  Alcotest.(check bool) "t0 still holds" true
    (match Lock_table.held locks t0 p with
    | Some Lock_table.X -> true
    | Some Lock_table.S | None -> false)

let test_blockers_reported () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  let seen = ref [] in
  Engine.spawn h.Cc_harness.eng (fun () ->
      try
        Lock_table.request locks t1 p Lock_table.S ~on_block:(fun blockers ->
            seen := blockers)
      with Txn.Aborted _ -> ());
  Cc_harness.settle h;
  (match !seen with
  | [ b ] -> Alcotest.(check int) "blocker is t0" 0 b.Txn.tid
  | other ->
      Alcotest.fail (Printf.sprintf "expected 1 blocker, got %d" (List.length other)));
  Lock_table.release_all locks t1 ~reject:Rejected

let test_edges () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  ignore (async_request h locks t1 p Lock_table.X);
  Cc_harness.settle h;
  match Lock_table.edges locks with
  | [ { Cc_intf.waiter; holder } ] ->
      Alcotest.(check (pair int int))
        "edge t1 -> t0" (1, 0)
        (waiter.Txn.tid, holder.Txn.tid)
  | edges ->
      Alcotest.fail (Printf.sprintf "expected 1 edge, got %d" (List.length edges))

let test_blocking_tally () =
  let h, locks, blocking = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  ignore (async_request h locks t1 p Lock_table.S);
  (* release at t=5: blocked duration recorded *)
  ignore
    (Engine.schedule h.Cc_harness.eng ~at:5. (fun () ->
         Lock_table.release_all locks t0 ~reject:Rejected));
  Cc_harness.settle h;
  Alcotest.(check int) "one block recorded" 1 (Stats.Tally.count blocking);
  Alcotest.(check bool) "blocked ~5s" true
    (abs_float (Stats.Tally.mean blocking -. 5.) < 1e-9)

let test_reacquire_held () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  (* S and X under an existing X are both immediate no-ops *)
  let s = async_request h locks t0 p Lock_table.S in
  let x = async_request h locks t0 p Lock_table.X in
  Cc_harness.settle h;
  Alcotest.(check bool) "covered requests granted" true
    (!s = `Granted && !x = `Granted)

(* Invariant: at any quiescent point, a page has either one X holder and
   nothing else, or only S holders. *)
let prop_no_conflicting_holders =
  QCheck.Test.make ~name:"lock table never grants conflicting holders"
    ~count:60
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (triple (int_range 0 5) (int_range 0 3) bool))
    (fun ops ->
      let h, locks, _ = mk () in
      let txns =
        Array.init 6 (fun i -> Cc_harness.txn h ~tid:i ~time:(float_of_int i) ())
      in
      List.iter
        (fun (tid, page_idx, exclusive) ->
          let mode = if exclusive then Lock_table.X else Lock_table.S in
          let p = Cc_harness.page page_idx in
          Engine.spawn h.Cc_harness.eng (fun () ->
              try
                Lock_table.request locks txns.(tid) p mode ~on_block:(fun _ ->
                    ())
              with Txn.Aborted _ -> ()))
        ops;
      Cc_harness.settle h;
      (* check pairwise compatibility of the locks actually held per page
         (cyclic waits may remain outstanding; that is fine here) *)
      let ok = ref true in
      for page_idx = 0 to 3 do
        let p = Cc_harness.page page_idx in
        let modes =
          Array.to_list txns
          |> List.filter_map (fun t -> Lock_table.held locks t p)
        in
        let xs = List.length (List.filter (fun m -> m = Lock_table.X) modes) in
        if xs > 1 || (xs = 1 && List.length modes > 1) then ok := false
      done;
      (* cleanup: release every txn, rejecting any stuck waiter *)
      Array.iter
        (fun t ->
          Lock_table.release_all locks t ~reject:(Txn.Aborted Txn.Peer_abort))
        txns;
      Cc_harness.settle h;
      !ok && Lock_table.num_waiting locks = 0)

(* [waits_for] unions the blockers of every queued request of the
   transaction (here two, as for a cohort plus a replica write), each
   blocker once, in descending key order. *)
let test_waits_for_union () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let t2 = Cc_harness.txn h ~tid:2 ~time:2. () in
  let p1 = Cc_harness.page 1 and p2 = Cc_harness.page 2 in
  ignore (async_request h locks t0 p1 Lock_table.X);
  ignore (async_request h locks t1 p2 Lock_table.X);
  Cc_harness.settle h;
  ignore (async_request h locks t2 p1 Lock_table.S);
  ignore (async_request h locks t2 p2 Lock_table.S);
  Cc_harness.settle h;
  let tids = List.map (fun (t : Txn.t) -> t.Txn.tid) in
  Alcotest.(check (list int)) "t2 waits for t1, t0" [ 1; 0 ]
    (tids (Lock_table.waits_for locks t2));
  Alcotest.(check (list int)) "holders wait for nobody" []
    (tids (Lock_table.waits_for locks t0));
  Lock_table.release_all locks t2 ~reject:(Txn.Aborted Txn.Peer_abort);
  Cc_harness.settle h;
  Alcotest.(check (list int)) "released: no waits" []
    (tids (Lock_table.waits_for locks t2))

let keys = List.map (fun (t : Txn.t) -> (t.Txn.tid, t.Txn.attempt))

(* Differential check of the live search against the snapshot it
   replaces: after every step of a random script of requests (with
   conversions and several queued requests per transaction) and
   releases, each transaction's [waits_for] is its adjacency in
   [Wfg.of_edges (edges t)], in the same order, and a cycle search from
   it finds the same cycle either way. *)
let prop_waits_for_matches_snapshot =
  QCheck.Test.make ~name:"waits_for matches the snapshot graph" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (quad (int_range 0 7) (int_range 0 5) (int_range 0 2) bool))
    (fun ops ->
      let h, locks, _ = mk () in
      (* two attempts of three tids: keys order by tid, then attempt *)
      let txns =
        Array.init 6 (fun i ->
            Cc_harness.txn h ~tid:(i mod 3) ~attempt:(1 + (i / 3))
              ~time:(float_of_int i) ())
      in
      let agrees () =
        let g = Wfg.of_edges (Lock_table.edges locks) in
        let live = Lock_table.waits_for locks in
        Array.for_all
          (fun t ->
            keys (live t) = keys (Wfg.successors g t)
            && Option.map keys (Wfg.find_cycle_through ~successors:live t)
               = Option.map keys
                   (Wfg.find_cycle_through ~successors:(Wfg.successors g) t))
          txns
      in
      List.for_all
        (fun (kind, i, page, exclusive) ->
          (if kind = 0 then
             Lock_table.release_all locks txns.(i)
               ~reject:(Txn.Aborted Txn.Peer_abort)
           else
             let mode = if exclusive then Lock_table.X else Lock_table.S in
             ignore (async_request h locks txns.(i) (Cc_harness.page page) mode));
          Cc_harness.settle h;
          agrees ())
        ops)

(* Minor words of a granted S request plus its release_all on an empty
   table: the page entry and its bucket, the holder pair and its cell,
   the transaction's record, its bucket and page cell, and release_all's
   per-page closure. The count is deterministic; the pin carries about
   10 % headroom, so one more allocation per request fails. *)
let grant_release_words_pin = 33.0

let test_grant_release_allocation () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    Lock_table.request locks t0 p Lock_table.S ~on_block:ignore;
    Lock_table.release_all locks t0 ~reject:Rejected
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per request and release (pin %.1f)" words
       grant_release_words_pin)
    true
    (words <= grant_release_words_pin);
  Alcotest.(check int) "table empty again" 0 (List.length (Lock_table.edges locks))

let suite =
  [
    Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
    Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
    Alcotest.test_case "fcfs no queue jump" `Quick test_fcfs_no_queue_jump;
    Alcotest.test_case "upgrade sole holder" `Quick test_upgrade_sole_holder;
    Alcotest.test_case "upgrade waits for reader" `Quick
      test_upgrade_waits_for_other_reader;
    Alcotest.test_case "conversion jumps queue" `Quick
      test_conversion_jumps_queue;
    Alcotest.test_case "release rejects waiters" `Quick
      test_release_rejects_waiters;
    Alcotest.test_case "blockers reported" `Quick test_blockers_reported;
    Alcotest.test_case "waits-for edges" `Quick test_edges;
    Alcotest.test_case "blocking tally" `Quick test_blocking_tally;
    Alcotest.test_case "re-acquire held lock" `Quick test_reacquire_held;
    QCheck_alcotest.to_alcotest prop_no_conflicting_holders;
    Alcotest.test_case "waits-for union" `Quick test_waits_for_union;
    QCheck_alcotest.to_alcotest prop_waits_for_matches_snapshot;
    Alcotest.test_case "grant-release allocation" `Quick
      test_grant_release_allocation;
  ]
