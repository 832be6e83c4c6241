(** Two-phase locking with deferred write locks — the improvement of
    [Care89] that the paper's footnote 13 credits with restoring 2PL's
    dominance over the optimistic algorithm even with expensive messages:
    cohorts take only read locks while executing and upgrade the pages
    they updated during the *first phase of the commit protocol* (here:
    inside the prepare processing), shortening the exclusive-lock window
    to the commit protocol itself.

    Conversion conflicts at prepare time can deadlock; they are covered
    by the same block-time local detection and Snoop machinery as plain
    2PL. A conversion rejected by an abort makes prepare vote "no". *)

open Ddbm_model
open Ids

type t = {
  hooks : Cc_intf.hooks;
  locks : Lock_table.t;
  write_sets : (int * int, Page.t list ref) Hashtbl.t;
}

let detect_local t requester =
  Wfg.resolve_local
    ~successors:(Lock_table.waits_for t.locks)
    ~request_abort:t.hooks.Cc_intf.request_abort requester

let cc_read t txn page =
  t.hooks.Cc_intf.charge_cc_request ();
  Lock_table.request t.locks txn page Lock_table.S ~on_block:(fun _ ->
      detect_local t txn)

(* The write is only noted; the exclusive lock comes at prepare time. *)
let cc_write t (txn : Txn.t) page =
  t.hooks.Cc_intf.charge_cc_request ();
  let key = Txn.key txn in
  match Hashtbl.find_opt t.write_sets key with
  | Some pages -> pages := page :: !pages
  | None -> Hashtbl.add t.write_sets key (ref [ page ])

let cc_prepare t (txn : Txn.t) =
  if txn.Txn.doomed then false
  else begin
    let pages =
      match Hashtbl.find_opt t.write_sets (Txn.key txn) with
      | Some pages -> !pages
      | None -> []
    in
    try
      List.iter
        (fun page ->
          Lock_table.request t.locks txn page Lock_table.X ~on_block:(fun _ ->
              detect_local t txn))
        pages;
      not txn.Txn.doomed
    with Txn.Aborted _ -> false
  end

let finish t txn =
  Hashtbl.remove t.write_sets (Txn.key txn);
  Lock_table.release_all t.locks txn ~reject:(Txn.Aborted Txn.Peer_abort)

let make (hooks : Cc_intf.hooks) : Cc_intf.node_cc =
  let blocking = Desim.Stats.Tally.create () in
  let t =
    {
      hooks;
      locks = Lock_table.create hooks.Cc_intf.eng ~blocking;
      write_sets = Hashtbl.create 64;
    }
  in
  {
    algorithm = Params.Twopl_defer;
    cc_read = (fun txn page -> cc_read t txn page);
    cc_write = (fun txn page -> cc_write t txn page);
    cc_prepare = (fun txn -> cc_prepare t txn);
    cc_installed = (fun txn -> Lock_table.exclusive_pages t.locks txn);
    cc_commit = (fun txn -> finish t txn);
    cc_abort = (fun txn -> finish t txn);
    cc_edges = (fun () -> Lock_table.edges t.locks);
    cc_blocking = blocking;
  }
