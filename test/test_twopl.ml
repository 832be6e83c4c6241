(* 2PL node-manager tests: blocking, release on commit/abort, block-time
   local deadlock detection with youngest-victim selection. *)

open Desim
open Ddbm_cc
open Ddbm_model

let mk () =
  let h = Cc_harness.make () in
  (h, Twopl.make h.Cc_harness.hooks)

let spawn_status h f =
  let state = ref `Waiting in
  Engine.spawn h.Cc_harness.eng (fun () ->
      try
        f ();
        state := `Granted
      with Txn.Aborted _ -> state := `Rejected);
  state

let test_write_conflict_blocks_until_commit () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  let s0 = spawn_status h (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p)
  in
  Cc_harness.settle h;
  let s1 = spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "writer granted" true (!s0 = `Granted);
  Alcotest.(check bool) "reader blocked" true (!s1 = `Waiting);
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_commit t0);
  Cc_harness.settle h;
  Alcotest.(check bool) "reader granted after commit" true (!s1 = `Granted)

let test_readers_share () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  let s0 = spawn_status h (fun () -> cc.Cc_intf.cc_read t0 p) in
  let s1 = spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "both read" true (!s0 = `Granted && !s1 = `Granted);
  Alcotest.(check bool) "no aborts requested" true
    (Cc_harness.requested_aborts h = [])

let test_local_deadlock_detected () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 and q = Cc_harness.page 2 in
  (* t0 writes p, t1 writes q, then each requests the other's page *)
  let s0 = spawn_status h (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p;
      Engine.wait 1.;
      cc.Cc_intf.cc_read t0 q)
  in
  let s1 = spawn_status h (fun () ->
      cc.Cc_intf.cc_read t1 q;
      cc.Cc_intf.cc_write t1 q;
      Engine.wait 1.;
      cc.Cc_intf.cc_read t1 p)
  in
  Cc_harness.settle h;
  (* deadlock: the youngest (t1) must have been victimized *)
  Alcotest.(check bool) "victim requested" true
    (Cc_harness.abort_requested_for h t1);
  Alcotest.(check bool) "older not victimized" false
    (Cc_harness.abort_requested_for h t0);
  (* simulate the coordinator abort: t1's blocked request is rejected and
     t0 unblocks *)
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_abort t1);
  Cc_harness.settle h;
  Alcotest.(check bool) "t1 rejected" true (!s1 = `Rejected);
  Alcotest.(check bool) "t0 proceeds" true (!s0 = `Granted)

let test_no_false_deadlock () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p));
  Cc_harness.settle h;
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p));
  Cc_harness.settle h;
  (* a plain wait is not a deadlock *)
  Alcotest.(check bool) "no abort requested" true
    (Cc_harness.requested_aborts h = []);
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_commit t0);
  Cc_harness.settle h

let test_abort_is_idempotent () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t0 p));
  Cc_harness.settle h;
  Engine.spawn h.Cc_harness.eng (fun () ->
      cc.Cc_intf.cc_abort t0;
      cc.Cc_intf.cc_abort t0;
      (* and for a transaction with no footprint at all *)
      let t9 = Cc_harness.txn h ~tid:9 ~time:9. () in
      cc.Cc_intf.cc_abort t9);
  Cc_harness.settle h

let test_prepare_votes () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  Alcotest.(check bool) "healthy txn votes yes" true (cc.Cc_intf.cc_prepare t0);
  t0.Txn.doomed <- true;
  Alcotest.(check bool) "doomed txn votes no" false (cc.Cc_intf.cc_prepare t0)

let test_conversion_deadlock () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  (* both read p, then both try to convert: a classic upgrade deadlock *)
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t0 p));
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p));
  Cc_harness.settle h;
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_write t0 p));
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_write t1 p));
  Cc_harness.settle h;
  Alcotest.(check bool) "upgrade deadlock victimizes youngest" true
    (Cc_harness.abort_requested_for h t1)

(* Minor words of the block-time deadlock search: one request blocks
   behind a holder, enqueues and searches for a cycle through its
   requester. Unrelated waiters queued on another page of the node must
   not add to it: the search walks from the requester, it does not
   snapshot the table. *)
let blocked_request_words ~unrelated =
  let h, cc = mk () in
  let busy = Cc_harness.page 100 in
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_write (Cc_harness.txn h ~tid:0 ~time:0. ()) busy));
  for i = 1 to unrelated do
    let t = Cc_harness.txn h ~tid:i ~time:(float_of_int i) () in
    ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t busy))
  done;
  let holder = Cc_harness.txn h ~tid:1000 ~time:1000. () in
  let requester = Cc_harness.txn h ~tid:1001 ~time:1001. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_write holder p));
  Cc_harness.settle h;
  let s = spawn_status h (fun () -> cc.Cc_intf.cc_write requester p) in
  let before = Gc.minor_words () in
  Cc_harness.settle h;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "requester blocked" true (!s = `Waiting);
  words

let test_block_search_allocation () =
  let small = blocked_request_words ~unrelated:10 in
  let large = blocked_request_words ~unrelated:200 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words with 10 unrelated waiters, %.0f with 200"
       small large)
    true
    (large -. small <= 8.)

let suite =
  [
    Alcotest.test_case "write blocks reader until commit" `Quick
      test_write_conflict_blocks_until_commit;
    Alcotest.test_case "readers share" `Quick test_readers_share;
    Alcotest.test_case "local deadlock detected" `Quick
      test_local_deadlock_detected;
    Alcotest.test_case "no false deadlock" `Quick test_no_false_deadlock;
    Alcotest.test_case "abort idempotent" `Quick test_abort_is_idempotent;
    Alcotest.test_case "prepare votes" `Quick test_prepare_votes;
    Alcotest.test_case "conversion deadlock" `Quick test_conversion_deadlock;
    Alcotest.test_case "block-time search allocation" `Quick
      test_block_search_allocation;
  ]
