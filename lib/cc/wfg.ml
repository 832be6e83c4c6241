(** Waits-for graphs and cycle detection.

    Block-time local deadlock detection (2PL) searches the live lock table
    through a successor function; the Snoop global detector builds a graph
    from the union of every node's edges. Vertices are transaction
    attempts; edges through doomed attempts are treated as already
    broken. *)

open Ddbm_model

type t = Txn.t list Txn.Table.t  (** waiter -> holders *)

let create () = Txn.Table.create 64

let add_edge t ~(waiter : Txn.t) ~(holder : Txn.t) =
  if not (Txn.same_attempt waiter holder) then begin
    let cur = Option.value ~default:[] (Txn.Table.find_opt t waiter) in
    if not (List.exists (Txn.same_attempt holder) cur) then
      Txn.Table.replace t waiter (holder :: cur)
  end

let of_edges edges =
  let t = create () in
  List.iter
    (fun { Cc_intf.waiter; holder } -> add_edge t ~waiter ~holder)
    edges;
  t

let successors t txn = Option.value ~default:[] (Txn.Table.find_opt t txn)

(* Depth-first search from [start] following [successors], never entering
   a vertex that is not [alive]. *)
let search ~successors ~alive start =
  if not (alive start) then None
  else begin
    let visited = Txn.Table.create 16 in
    let rec dfs path txn = scan (txn :: path) (successors txn)
    and scan path = function
      | [] -> None
      | next :: rest ->
          if Txn.same_attempt next start then Some (List.rev path)
          else if (not (alive next)) || Txn.Table.mem visited next then
            scan path rest
          else begin
            Txn.Table.replace visited next ();
            match dfs path next with
            | Some _ as cycle -> cycle
            | None -> scan path rest
          end
    in
    Txn.Table.replace visited start ();
    dfs [] start
  end

let not_doomed (txn : Txn.t) = not txn.Txn.doomed

let find_cycle_through ~successors start =
  search ~successors ~alive:not_doomed start

(** Youngest member of a cycle = most recent initial startup time (the
    paper's deadlock victim rule). *)
let youngest cycle =
  match cycle with
  | [] -> invalid_arg "Wfg.youngest: empty cycle"
  | first :: rest ->
      List.fold_left
        (fun acc (txn : Txn.t) ->
          if Timestamp.compare txn.Txn.startup_ts acc.Txn.startup_ts > 0 then
            txn
          else acc)
        first rest

(** While a cycle runs through [requester], victimize its youngest member.
    [request_abort] marks victims doomed synchronously, which the search
    treats as broken edges, so this terminates; it stops early once the
    requester itself is the victim. *)
let resolve_local ~successors ~request_abort requester =
  let rec loop () =
    match find_cycle_through ~successors requester with
    | None -> ()
    | Some cycle ->
        let victim = youngest cycle in
        request_abort victim Txn.Local_deadlock;
        if not (Txn.same_attempt victim requester) then loop ()
  in
  loop ()

(** Repeatedly find a cycle anywhere in the graph, select its youngest
    member as the victim, remove it, and continue until acyclic. Returns
    the victims (used by the Snoop detector). *)
let break_all_cycles t =
  let removed = Txn.Table.create 8 in
  let alive txn = not_doomed txn && not (Txn.Table.mem removed txn) in
  let victims = ref [] in
  (* Visit waiters in key order, not bucket order, so the cycle found
     first (and hence the victim set when cycles overlap) is independent
     of hash-table layout. A vertex that waits for nobody lies on no
     cycle, so only waiters are visited. *)
  let vertices =
    Txn.Table.fold (fun txn _ acc -> txn :: acc) t []
    |> List.sort Txn.compare_key
  in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun txn ->
        if not !progress then
          match search ~successors:(successors t) ~alive txn with
          | Some cycle ->
              let victim = youngest cycle in
              Txn.Table.replace removed victim ();
              victims := victim :: !victims;
              progress := true
          | None -> ())
      vertices
  done;
  !victims
