open Dbproc_obs
open Dbproc_relation
module Interp = Dbproc_lang.Interp
module Parser = Dbproc_lang.Parser
module Lexer = Dbproc_lang.Lexer
module Ast = Dbproc_lang.Ast
module View_def = Dbproc_query.View_def
module Injector = Dbproc_fault.Injector
module Cost = Dbproc_storage.Cost
module Io = Dbproc_storage.Io
module Wal = Dbproc_storage.Wal

type link = Protocol.request -> (Protocol.response, string) result

type slot = {
  mutable primary : link;
  mutable replica : link option;
  mutable shipped : int;  (* next primary-rlog lsn to pull *)
  mutable down : bool;  (* lost with no replica left: keyspace hole *)
}

type rel_info = {
  mutable count : int;  (* cluster-wide cardinality *)
  attrs : (string * Ast.ty) list;  (* declared schema; attr 0 partitions *)
}

type result = {
  output : string;
  ok : bool;
  digest : string option;
  aborted : bool;
}

(* A distributed transaction open at the coordinator.  Statements are
   routed as they arrive; each touched node becomes a participant, and
   the replicable statements are remembered per node so a decided-commit
   transaction can be re-applied to a promoted replica that never heard
   the commit (in-doubt resolution). *)
type ctxn = {
  gtid : int;  (* global transaction id; larger = younger *)
  owner_client : int;
  mutable participants : int list;  (* reversed first-touch order *)
  mutable tstmts : (int * string) list;  (* (node, statement), reversed *)
  mutable deltas : (string * int) list;  (* rel-count deltas, for rollback *)
  mutable doomed : string option;  (* forced-abort reason (failover) *)
}

(* How a statement reaches its nodes: autocommit, or as a branch of the
   client's open distributed transaction. *)
type via = Auto | In_txn of ctxn

(* A logged commit decision.  [d_durable] lists the participants whose
   branch is known committed-and-shipped; promotion of any other
   participant replays [d_stmts] for that node off this record. *)
type decision = {
  d_gtid : int;
  d_participants : int list;
  d_stmts : (int * string) list;  (* execution order *)
  mutable d_durable : int list;
}

type t = {
  ctx : Ctx.t;
  slots : slot array;
  key_domain : int;
  injector : Injector.t option;
  on_kill : int -> unit;
  spawn_replica : int -> link option;
      (* re-replication after failover: a fresh, empty replica link for
         slot [i], or [None] to run unreplicated from then on *)
  scratch : Interp.t;
      (* binder twin: replays DDL only, never holds data — resolves
         names, types and join structure with single-node error parity *)
  mutable fetched_ms : float;
      (* accumulated per-statement max-across-nodes simulated ms *)
  rels : (string, rel_info) Hashtbl.t;
  procs : (string, Ast.retrieve) Hashtbl.t;
  mutable next_gtid : int;
  ctxns : (int, ctxn) Hashtbl.t;  (* client -> open distributed txn *)
  victims : (int, string) Hashtbl.t;
      (* clients whose transaction was aborted from under them (deadlock
         victim chosen while parked): the next statement reports the
         abort instead of silently running autocommit *)
  waits : (int, int list) Hashtbl.t;  (* gtid -> blocker gtids *)
  mutable decisions : decision list;  (* newest first *)
  dlog : string Wal.t;  (* coordinator decision log: "commit <gtid>" *)
}

(* Statement execution unwinds through these when a node reports a lock
   conflict or a local abort; [exec_client] catches both at the top. *)
exception Stmt_blocked of int list  (* holder gtids, -1 for non-txn holders *)
exception Stmt_aborted of string

let parse_holders s =
  List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))

let create ?ctx ?(key_domain = 1_000_000) ?injector ?(on_kill = fun _ -> ())
    ?(spawn_replica = fun _ -> None) ~links () =
  if Array.length links = 0 then invalid_arg "Coordinator.create: no nodes";
  if key_domain < 1 then invalid_arg "Coordinator.create: key_domain must be >= 1";
  let ctx = match ctx with Some c -> c | None -> Ctx.create () in
  {
    ctx;
    slots =
      Array.map
        (fun (primary, replica) -> { primary; replica; shipped = 0; down = false })
        links;
    key_domain;
    injector;
    on_kill;
    spawn_replica;
    scratch = Interp.create ~ctx ~plan_cache:false ();
    fetched_ms = 0.0;
    rels = Hashtbl.create 16;
    procs = Hashtbl.create 16;
    next_gtid = 1;
    ctxns = Hashtbl.create 8;
    victims = Hashtbl.create 8;
    waits = Hashtbl.create 8;
    decisions = [];
    dlog =
      Wal.create
        ~io:(Io.direct (Cost.create ~ctx ()) ~page_bytes:4000)
        ~record_bytes:100 ();
  }

let ctx t = t.ctx
let m t = Ctx.metrics t.ctx
let node_count t = Array.length t.slots
let node_down t i = t.slots.(i).down
let alive_count t =
  Array.fold_left (fun acc s -> if s.down then acc else acc + 1) 0 t.slots
let shipped_lsn t i = t.slots.(i).shipped

(* The coordinator's simulated clock: scratch-binder charges plus, for
   each tuple-returning statement, the max simulated ms across the nodes
   that served it (partitions run in parallel). *)
let sim_ms t = Interp.simulated_ms t.scratch +. t.fetched_ms

(* ------------------------------------------------------------ failover *)

(* A replica that refuses a push or dies mid-ship is dropped and the slot
   runs unreplicated — counted, so a strict reconciliation can tell a
   durable cluster from one that silently degraded. *)
let drop_replica t slot =
  slot.replica <- None;
  Metrics.incr (m t) Metrics.Repl_dropped

(* Ship the primary's unshipped replication-log tail to the replica.  A
   push the replica refuses (or dies during) drops the replica.  A pull
   that fails, or that the primary refuses, leaves [shipped] alone and is
   reported, so each caller keeps its policy: a mutation promotes and
   retries on a failed pull and drops the replica on a refused one;
   commit fan-out and re-replication leave both to the next mutation. *)
let ship_slot t i =
  let slot = t.slots.(i) in
  match slot.replica with
  | None -> `Done
  | Some rep -> (
    match slot.primary (Protocol.Wal_pull (string_of_int slot.shipped)) with
    | Ok (Protocol.Wal_records body) ->
      (match rep (Protocol.Wal_push body) with
      | Ok (Protocol.Output _) -> (
        match Wire.parse_records_body body with
        | records ->
          List.iter
            (fun (lsn, _) -> if lsn >= slot.shipped then slot.shipped <- lsn + 1)
            records
        | exception Wire.Malformed _ -> ())
      | Ok _ | Error _ -> drop_replica t slot);
      `Done
    | Ok _ -> `Pull_refused
    | Error _ -> `Pull_failed)

(* Losing node [i] kills every local branch it hosted: transactions still
   open at the coordinator with [i] among their participants can never
   commit.  They are doomed rather than aborted in place — the owning
   client learns on its next statement (or commit), which fans the abort
   out to the surviving participants. *)
let doom_open_txns t i =
  Hashtbl.iter
    (fun _ cx ->
      if cx.doomed = None && List.mem i cx.participants then
        cx.doomed <- Some (Printf.sprintf "participant node %d failed" i))
    t.ctxns

(* Re-apply one decided-commit transaction's statements for node [i],
   straight through the autocommit path (each statement re-logs to the
   promoted primary's rlog, so it ships onward to any fresh replica). *)
let reapply t d i =
  List.iter
    (fun (nd, stmt) ->
      if nd = i then ignore (t.slots.(i).primary (Protocol.Exec_line stmt)))
    d.d_stmts;
  d.d_durable <- i :: d.d_durable;
  Metrics.incr (m t) Metrics.Txn2pc_in_doubt_resolved

(* In-doubt resolution: a freshly promoted primary replayed only the
   *shipped* log, which never contains a distributed branch that had not
   committed locally.  Every decided-commit transaction this node
   participated in but is not yet durable on is replayed here, oldest
   first, off the coordinator's decision log — the kill-between-prepare-
   and-commit window closes to "committed everywhere". *)
let resolve_in_doubt t i =
  List.iter
    (fun d ->
      if List.mem i d.d_participants && not (List.mem i d.d_durable) then
        reapply t d i)
    (List.rev t.decisions)

(* Close the durability gap after failover: attach a fresh, empty replica
   to the promoted primary and ship the full re-logged history, so the
   slot survives a *second* kill. *)
let attach_replica t i =
  match t.spawn_replica i with
  | None -> ()
  | Some rep ->
    let slot = t.slots.(i) in
    slot.replica <- Some rep;
    slot.shipped <- 0;
    Metrics.incr (m t) Metrics.Repl_replicas_attached;
    ignore (ship_slot t i)

(* Promote node [i]'s replica to primary.  The replica replays its whole
   received log through its session (charged), after which it serves the
   full partition; then open transactions that lost a branch here are
   doomed, decided commits it missed are re-applied, and a fresh replica
   is attached (when the cluster can spawn one). *)
let promote_replica t i =
  let slot = t.slots.(i) in
  match slot.replica with
  | None ->
    slot.down <- true;
    doom_open_txns t i;
    None
  | Some r -> (
    slot.replica <- None;
    match r Protocol.Promote with
    | Ok (Protocol.Output _) ->
      slot.primary <- r;
      Metrics.incr (m t) Metrics.Cluster_failovers;
      doom_open_txns t i;
      resolve_in_doubt t i;
      attach_replica t i;
      Some r
    | Ok _ | Error _ ->
      slot.down <- true;
      doom_open_txns t i;
      None)

(* A scheduled (or manual) whole-node kill: take the primary down via the
   transport's kill switch, then fail over immediately so the very next
   routed statement lands on the promoted replica. *)
let kill_node t i =
  let slot = t.slots.(i) in
  if not slot.down then begin
    t.on_kill i;
    ignore (promote_replica t i)
  end

let node_error i = Printf.sprintf "node %d is down" i

(* Read-only call with fail-over-and-retry-once: reads are idempotent, so
   if the primary dies mid-call the promoted replica re-serves the same
   request. *)
let call t i req =
  let slot = t.slots.(i) in
  if slot.down then Error (node_error i)
  else
    match slot.primary req with
    | Ok resp -> Ok resp
    | Error _ -> (
      match promote_replica t i with
      | None -> Error (node_error i)
      | Some link -> (
        Metrics.incr (m t) Metrics.Cluster_retries;
        match link req with
        | Ok resp -> Ok resp
        | Error e ->
          slot.down <- true;
          Error e))

(* Mutating call: execute on the primary, then synchronously ship the new
   replication-log tail to the replica before acknowledging.  The ack
   therefore implies the statement is durable on two nodes (or the slot
   knowingly runs unreplicated).  If the primary dies before the ship
   completes, the statement is provably absent from the replica's
   received log, so promoting and re-executing once is exactly-once. *)
let exec_mut t i line =
  let rec go ~retried =
    let slot = t.slots.(i) in
    if slot.down then Error (node_error i)
    else
      let refail () =
        if retried then begin
          slot.down <- true;
          Error (node_error i)
        end
        else
          match promote_replica t i with
          | None -> Error (node_error i)
          | Some _ ->
            Metrics.incr (m t) Metrics.Cluster_retries;
            go ~retried:true
      in
      match slot.primary (Protocol.Exec_line line) with
      | Error _ -> refail ()
      | Ok (Protocol.Output _) as resp -> (
        match ship_slot t i with
        | `Done -> resp
        | `Pull_refused ->
          drop_replica t slot;
          resp
        | `Pull_failed -> refail ())
      | resp -> resp (* no mutation, nothing to ship *)
  in
  go ~retried:false

(* ------------------------------------------------------------- routing *)

let value_of_literal = function
  | Ast.L_int i -> Value.Int i
  | Ast.L_float f -> Value.Float f
  | Ast.L_string s -> Value.Str s

(* Key-range partitioning over [0, key_domain): node i owns the i-th
   equal slice.  Out-of-range keys clamp to the edge nodes; non-integer
   partition attributes hash to a pseudo-key, which keeps routing
   deterministic (same value, same node) if not range-ordered. *)
let owner t v =
  let n = Array.length t.slots in
  let of_int k =
    if k < 0 then 0
    else if k >= t.key_domain then n - 1
    else k * n / t.key_domain
  in
  match v with
  | Value.Int k -> of_int k
  | Value.Float f ->
    (* [int_of_float] on nan/±infinity is unspecified — clamp the
       non-finite and out-of-range cases deterministically so routing
       stays a total function of the value. *)
    if Float.is_nan f then 0
    else if f < 0.0 then 0
    else if f >= float_of_int t.key_domain then n - 1
    else of_int (int_of_float f)
  | Value.Str s -> Hashtbl.hash s mod n

let all_nodes t = List.init (Array.length t.slots) Fun.id

(* The partition attribute is the relation's first declared attribute. *)
let partition_attr t rel =
  match Hashtbl.find_opt t.rels rel with
  | Some { attrs = (name, _) :: _; _ } -> Some name
  | _ -> None

(* A statement whose qualification pins the partition attribute with [=]
   routes to the single owning node. *)
let point_node t rel (quals : Ast.qual list) =
  match partition_attr t rel with
  | None -> None
  | Some pattr ->
    List.find_map
      (fun (q : Ast.qual) ->
        match q with
        | { left = lrel, lattr; op = Ast.C_eq; right = Ast.Lit lit }
          when lrel = rel && lattr = pattr ->
          Some (owner t (value_of_literal lit))
        | _ -> None)
      quals

(* The nodes a statement reaches: the one it is pinned to, or all. *)
let route_nodes t = function
  | Some i ->
    Metrics.incr (m t) Metrics.Cluster_stmts_routed;
    [ i ]
  | None ->
    Metrics.incr (m t) Metrics.Cluster_stmts_broadcast;
    all_nodes t

let target_nodes t rel quals = route_nodes t (point_node t rel quals)

let fail fmt =
  Format.kasprintf
    (fun output -> { output; ok = false; digest = None; aborted = false })
    fmt

let ok_out output = { output; ok = true; digest = None; aborted = false }

let aborted_result output = { output; ok = false; digest = None; aborted = true }

let op_syntax = function
  | Predicate.Eq -> "="
  | Predicate.Ne -> "!="
  | Predicate.Lt -> "<"
  | Predicate.Le -> "<="
  | Predicate.Gt -> ">"
  | Predicate.Ge -> ">="

(* Reconstruct a node-local sub-retrieve for one bound source: the full
   partition of its relation, filtered by its own restriction terms. *)
let sub_retrieve (src : View_def.source) =
  let rel = Relation.name src.rel in
  let schema = Relation.schema src.rel in
  let quals =
    List.map
      (fun (term : Predicate.term) ->
        Printf.sprintf "%s.%s %s %s" rel
          (Schema.attr schema term.Predicate.attr).Schema.name
          (op_syntax term.Predicate.op)
          (Interp.literal_syntax term.Predicate.value))
      src.restriction
  in
  Printf.sprintf "retrieve (%s.all)%s" rel
    (match quals with [] -> "" | qs -> " where " ^ String.concat " and " qs)

(* ----------------------------------------------------- reaching a node *)

(* How a statement reaches node [i] is the only thing autocommit and
   transactional routing do differently.  Autocommit reads fail over and
   retry; autocommit writes also ship to the replica before the ack.
   Inside a transaction both run in the node's branch ([Txn_exec]), so
   reads take S locks and see the branch's own writes. *)

let enlist t cx i =
  if not (List.mem i cx.participants) then begin
    cx.participants <- i :: cx.participants;
    Metrics.incr (m t) Metrics.Txn2pc_participants
  end

(* Route one statement to node [i] under the transaction.  No
   failover-retry here: if the primary dies, the branch (and its locks
   and effects) died with it — promotion dooms the transaction and the
   caller aborts it globally.  Replicable statements that ran are kept
   per node for in-doubt re-application. *)
let txn_send t cx i line =
  enlist t cx i;
  let slot = t.slots.(i) in
  if slot.down then Error (node_error i)
  else
    match
      slot.primary (Protocol.Txn_exec (string_of_int cx.gtid ^ " " ^ line))
    with
    | Error _ ->
      ignore (promote_replica t i);
      Error (node_error i)
    | Ok (Protocol.Output _) as resp ->
      if Node.replicable line then cx.tstmts <- (i, line) :: cx.tstmts;
      resp
    | Ok _ as resp -> resp

let send t via ~write i line =
  match via with
  | Auto when write -> exec_mut t i line
  | Auto -> call t i (Protocol.Fetch line)
  | In_txn cx -> txn_send t cx i line

(* A node that blocked on a lock, or whose transaction branch aborted,
   unwinds the whole statement to [exec_client]. *)
let reply = function
  | Ok (Protocol.Blocked s) -> raise (Stmt_blocked (parse_holders s))
  | Ok (Protocol.Aborted msg) -> raise (Stmt_aborted msg)
  | r -> r

(* A failed round trip.  Inside a transaction the node may have died and
   its promotion doomed the transaction: that is an abort, not an error. *)
let failed via e =
  match via with
  | In_txn { doomed = Some reason; _ } ->
    raise (Stmt_aborted ("transaction aborted: " ^ reason))
  | In_txn _ | Auto -> fail "%s" e

(* Gather and merge one statement's tuples from a set of nodes, [ask i]
   sending the request to node [i]; the cluster's simulated time for the
   statement is the max across nodes (partitions execute in parallel). *)
let gather t ~what nodes ask =
  let rec go acc ms = function
    | [] -> Ok (List.concat (List.rev acc), ms)
    | i :: rest -> (
      match reply (ask i) with
      | Error e | Ok (Protocol.Failed e) -> Error e
      | Ok (Protocol.Tuples body) -> (
        match Wire.parse_tuples_body body with
        | node_ms, tuples ->
          let n = List.length tuples in
          if n > 0 then Metrics.incr ~n (m t) Metrics.Cluster_tuples_shipped;
          go (tuples :: acc) (Float.max ms node_ms) rest
        | exception Wire.Malformed msg -> Error ("bad tuples body: " ^ msg))
      | Ok _ -> Error ("unexpected response to " ^ what))
  in
  go [] 0.0 nodes

let fetch t via nodes stmt =
  gather t ~what:"fetch" nodes (fun i -> send t via ~write:false i stmt)

(* Run one mutation on each node, summing the tuple counts [count] reads
   off the replies. *)
let exec_on_nodes t via nodes line ~count ~verb =
  let rec go total = function
    | [] -> Ok total
    | i :: rest -> (
      match reply (send t via ~write:true i line) with
      | Error e | Ok (Protocol.Failed e) -> Error e
      | Ok (Protocol.Output out) -> (
        match count out with
        | Some n -> go (total + n) rest
        | None -> Error (Printf.sprintf "unparseable %s output from node %d" verb i))
      | Ok _ -> Error (Printf.sprintf "unexpected response from node %d" i))
  in
  go 0 nodes

(* Track a relation's cluster-wide cardinality; inside a transaction the
   change is remembered so an abort can roll it back. *)
let adjust via rel info d =
  info.count <- info.count + d;
  match via with In_txn cx -> cx.deltas <- (rel, d) :: cx.deltas | Auto -> ()

let project projection tuple =
  match projection with
  | None -> tuple
  | Some positions -> Tuple.create (List.map (Tuple.get tuple) positions)

(* Evaluate the bound join chain over per-source shipped partitions —
   the same left-deep semantics as the executor, hash-joining on [=]. *)
let eval_join (def : View_def.t) projection per_source =
  match per_source with
  | [] -> []
  | base :: rest ->
    let chain =
      List.fold_left2
        (fun acc (step : View_def.join_step) src_tuples ->
          match step.View_def.op with
          | Predicate.Eq ->
            let table = Hashtbl.create (List.length src_tuples * 2) in
            List.iter
              (fun s ->
                let key = Tuple.get s step.View_def.right_attr in
                Hashtbl.add table key s)
              src_tuples;
            List.concat_map
              (fun l ->
                let key = Tuple.get l step.View_def.left_attr in
                List.rev_map (fun s -> Tuple.concat l s) (Hashtbl.find_all table key))
              acc
          | op ->
            List.concat_map
              (fun l ->
                List.filter_map
                  (fun s ->
                    if
                      Predicate.eval_op op
                        (Tuple.get l step.View_def.left_attr)
                        (Tuple.get s step.View_def.right_attr)
                    then Some (Tuple.concat l s)
                    else None)
                  src_tuples)
              acc)
        base def.View_def.steps rest
    in
    List.map (project projection) chain

(* Deterministic display: first 20 of the sorted serialized multiset,
   matching the single-node format shape (tuple order differs — the
   differential oracle compares digests, not display text). *)
let format_tuples tuples =
  let sorted =
    List.sort compare (List.map (fun tu -> (Wire.encode_tuple tu, tu)) tuples)
  in
  let buf = Buffer.create 256 in
  let rec show n = function
    | [] -> 0
    | rest when n = 0 -> List.length rest
    | (_, tu) :: rest ->
      Buffer.add_string buf (Format.asprintf "  %a\n" Tuple.pp tu);
      show (n - 1) rest
  in
  let hidden = show 20 sorted in
  if hidden > 0 then Buffer.add_string buf (Printf.sprintf "  ... %d more\n" hidden);
  Buffer.add_string buf (Printf.sprintf "(%d tuples)" (List.length tuples));
  Buffer.contents buf

let tuple_result t ?suffix tuples ms =
  t.fetched_ms <- t.fetched_ms +. ms;
  {
    output =
      Printf.sprintf "%s\n%.0f ms (simulated%s)" (format_tuples tuples) ms
        (match suffix with None -> "" | Some s -> ", " ^ s);
    ok = true;
    digest = Some (Wire.digest_tuples tuples);
    aborted = false;
  }

(* Cross-shard join: with two sources equi-joined we ship the smaller
   side — fetch it whole, send its join-key set to the bigger side's
   nodes, and get back only matching tuples (a semijoin).  Anything else
   (longer chains, non-equality joins, and every join inside a
   transaction, since [Join_probe] has no transactional form) broadcasts
   every source. *)
let join_retrieve t via (def : View_def.t) projection ~suffix =
  let sources = View_def.sources def in
  let count_of (src : View_def.source) =
    match Hashtbl.find_opt t.rels (Relation.name src.rel) with
    | Some info -> info.count
    | None -> 0
  in
  let fetched =
    match (via, sources, def.View_def.steps) with
    | Auto, [ base; side ], [ step ]
      when step.View_def.op = Predicate.Eq && count_of base <> count_of side -> (
      Metrics.incr (m t) Metrics.Cluster_joins_shipped;
      let base_smaller = count_of base < count_of side in
      let small, small_attr, big, big_attr =
        if base_smaller then
          (base, step.View_def.left_attr, side, step.View_def.right_attr)
        else (side, step.View_def.right_attr, base, step.View_def.left_attr)
      in
      match fetch t via (all_nodes t) (sub_retrieve small) with
      | Error e -> Error e
      | Ok (small_tuples, ms1) -> (
        let keys = Hashtbl.create 64 in
        List.iter
          (fun tu -> Hashtbl.replace keys (Tuple.get tu small_attr) ())
          small_tuples;
        let key_list = Hashtbl.fold (fun k () acc -> k :: acc) keys [] in
        let probe =
          Protocol.Join_probe
            (Wire.join_probe_body ~attr:big_attr ~stmt:(sub_retrieve big) key_list)
        in
        match gather t ~what:"join probe" (all_nodes t) (fun i -> call t i probe) with
        | Error e -> Error e
        | Ok (big_tuples, ms2) ->
          let per_source =
            if base_smaller then [ small_tuples; big_tuples ]
            else [ big_tuples; small_tuples ]
          in
          Ok (per_source, Float.max ms1 ms2)))
    | _ ->
      Metrics.incr (m t) Metrics.Cluster_joins_broadcast;
      let rec go acc ms = function
        | [] -> Ok (List.rev acc, ms)
        | src :: rest -> (
          match fetch t via (all_nodes t) (sub_retrieve src) with
          | Error e -> Error e
          | Ok (tuples, node_ms) -> go (tuples :: acc) (Float.max ms node_ms) rest)
      in
      go [] 0.0 sources
  in
  match fetched with
  | Error e -> failed via e
  | Ok (per_source, ms) ->
    let tuples = eval_join def projection per_source in
    tuple_result t ?suffix tuples ms

(* A retrieve (or proc body) routed as tuples.  Single-source retrieves
   ship the original statement verbatim — each node restricts and
   projects its own partition, and for an [exec] each node's own manager
   serves it, so the paper's strategies (and their caches) do the work.
   Multi-source ones take the join path. *)
let retrieve t via line (r : Ast.retrieve) ~suffix =
  match Interp.bind_retrieve_projected t.scratch r with
  | exception Interp.Runtime_error msg -> fail "%s" msg
  | def, projection -> (
    match View_def.sources def with
    | [ _ ] -> (
      let rel = Relation.name (List.hd (View_def.relations def)) in
      match fetch t via (target_nodes t rel r.Ast.quals) line with
      | Error e -> failed via e
      | Ok (tuples, ms) -> tuple_result t ?suffix tuples ms)
    | _ -> join_retrieve t via def projection ~suffix)

(* ------------------------------------------------- per-command routing *)

let scan_count fmt output =
  try Scanf.sscanf output fmt (fun n _ -> Some n) with
  | Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let quals_local rel (quals : Ast.qual list) =
  List.for_all
    (fun (q : Ast.qual) ->
      fst q.Ast.left = rel
      && match q.Ast.right with Ast.Lit _ -> true | Ast.Attr _ -> false)
    quals

let append_syntax rel fields =
  Printf.sprintf "append to %s (%s)" rel
    (String.concat ", "
       (List.map
          (fun (name, v) -> Printf.sprintf "%s = %s" name (Interp.literal_syntax v))
          fields))

let quals_syntax quals =
  match quals with
  | [] -> ""
  | qs ->
    " where "
    ^ String.concat " and "
        (List.map
           (fun (q : Ast.qual) ->
             Printf.sprintf "%s.%s %s %s" (fst q.Ast.left) (snd q.Ast.left)
               (Ast.comparison_symbol q.Ast.op)
               (match q.Ast.right with
               | Ast.Lit lit -> Interp.literal_syntax (value_of_literal lit)
               | Ast.Attr (r, a) -> r ^ "." ^ a))
           qs)

(* Replace that assigns the partition attribute re-homes tuples: fetch
   the victims, delete them where they live, re-append the rewritten
   tuples to their new owners. *)
let rehome_replace t via rel (values : (string * Ast.literal) list) quals info =
  let nodes = target_nodes t rel quals in
  let fetch_stmt = Printf.sprintf "retrieve (%s.all)%s" rel (quals_syntax quals) in
  match fetch t via nodes fetch_stmt with
  | Error e -> failed via e
  | Ok (victims, _ms) -> (
    let delete_stmt = Printf.sprintf "delete from %s%s" rel (quals_syntax quals) in
    match
      exec_on_nodes t via nodes delete_stmt
        ~count:(scan_count "deleted %d tuples from %s")
        ~verb:"delete"
    with
    | Error e -> failed via e
    | Ok deleted -> (
      adjust via rel info (-deleted);
      let rewrite tuple =
        List.mapi
          (fun i (name, _ty) ->
            match List.assoc_opt name values with
            | Some lit -> (name, value_of_literal lit)
            | None -> (name, Tuple.get tuple i))
          info.attrs
      in
      let rec put = function
        | [] ->
          ok_out (Printf.sprintf "replaced %d tuples in %s" deleted rel)
        | tuple :: rest -> (
          let fields = rewrite tuple in
          let dest = owner t (snd (List.hd fields)) in
          match
            exec_on_nodes t via [ dest ] (append_syntax rel fields)
              ~count:(fun _ -> Some 1) ~verb:"append"
          with
          | Ok n ->
            adjust via rel info n;
            put rest
          | Error e -> failed via e)
      in
      put victims))

(* A statement's route, decided before any node is contacted: which
   nodes, which text, how the replies fold and how relation counts move.
   The transaction rules are one check on it, in [route]. *)
type plan =
  | Ddl of (unit -> unit)
      (* DDL and strategy changes replay on the scratch binder first
         (catching semantic errors with single-node parity, before any
         node state changes), then broadcast to every node; the callback
         records the new relation or procedure.  The scratch output
         doubles as the cluster output — these outputs are
         data-independent. *)
  | Write of {
      verb : string;
      rel : string;
      info : rel_info;
      pin : int option;  (* the owning node; [None] broadcasts *)
      count : string -> int option;  (* the tuples one node's reply reports *)
      sign : int;  (* how the summed count moves [rel]'s cardinality *)
      say : int -> string;  (* the cluster's reply, given the sum *)
    }
  | Rehome of {
      rel : string;
      values : (string * Ast.literal) list;
      quals : Ast.qual list;
      info : rel_info;
    }
  | Read of Ast.retrieve * string option  (* body, strategy suffix *)
  | Admin of int option
      (* run as is on node 0, whose local view stands in for the cluster
         ([explain], [show], [help]), or on every node ([reset cost]) *)
  | Answer of result  (* decided without any node *)

let plan t (cmd : Ast.command) =
  let relation rel k =
    match Hashtbl.find_opt t.rels rel with
    | None -> Answer (fail "unknown relation %S" rel)
    | Some info -> k info
  in
  let local verb rel quals k =
    relation rel (fun info ->
        if quals_local rel quals then k info
        else Answer (fail "%s restriction must reference only %s" verb rel))
  in
  match cmd with
  | Ast.Create { rel; attrs } ->
    Ddl (fun () -> Hashtbl.replace t.rels rel { count = 0; attrs })
  | Ast.Index _ | Ast.Strategy _ -> Ddl ignore
  | Ast.Define_proc { name; body } -> Ddl (fun () -> Hashtbl.replace t.procs name body)
  | Ast.Append { rel; values } ->
    relation rel (fun info ->
        let dest =
          match partition_attr t rel with
          | Some pattr -> (
            match List.assoc_opt pattr values with
            | Some lit -> owner t (value_of_literal lit)
            | None -> 0 (* node 0 reports the missing-attribute error *))
          | None -> 0
        in
        Write
          {
            verb = "append";
            rel;
            info;
            pin = Some dest;
            count = (fun _ -> Some 1);
            sign = 1;
            say = (fun _ -> Printf.sprintf "appended 1 tuple to %s (%d total)" rel info.count);
          })
  | Ast.Delete { rel; quals } ->
    local "delete" rel quals (fun info ->
        Write
          {
            verb = "delete";
            rel;
            info;
            pin = point_node t rel quals;
            count = scan_count "deleted %d tuples from %s";
            sign = -1;
            say = (fun n -> Printf.sprintf "deleted %d tuples from %s" n rel);
          })
  | Ast.Replace { rel; values; quals } ->
    local "replace" rel quals (fun info ->
        match partition_attr t rel with
        | Some pattr when List.mem_assoc pattr values -> Rehome { rel; values; quals; info }
        | _ ->
          Write
            {
              verb = "replace";
              rel;
              info;
              pin = point_node t rel quals;
              count = scan_count "replaced %d tuples in %s";
              sign = 0;
              say = (fun n -> Printf.sprintf "replaced %d tuples in %s" n rel);
            })
  | Ast.Retrieve r -> Read (r, None)
  | Ast.Exec name -> (
    match Hashtbl.find_opt t.procs name with
    | None -> Answer (fail "unknown procedure %S" name)
    | Some body -> Read (body, Some (Interp.strategy_name t.scratch)))
  | Ast.Explain _ | Ast.Show _ | Ast.Help -> Admin (Some 0)
  | Ast.Reset_cost -> Admin None
  | Ast.Save _ -> Answer (fail "save is not supported on a cluster")
  | Ast.Begin | Ast.Commit | Ast.Abort ->
    (* handled by [exec_client] before routing; reaching here means a
       caller bypassed the transaction layer *)
    Answer (fail "internal: transaction control escaped the 2PC layer")

(* Route one statement; [via] picks only how it reaches each node.
   Inside a transaction a plan the branches cannot carry is refused up
   front: a mutation must resolve to a single node (a broadcast delete
   could not be undone exactly-once across promotions) and may not move
   the partition key, and DDL and node-local statements are autocommit
   only.  Reads may broadcast — they are idempotent and their S locks
   are per-branch anyway. *)
let route t via line cmd =
  match (via, plan t cmd) with
  | In_txn _, Ddl _ -> fail "DDL is not supported inside a distributed transaction"
  | In_txn _, Admin _ -> fail "not supported inside a distributed transaction"
  | In_txn _, Rehome _ ->
    fail
      "replacing the partition attribute inside a distributed transaction is not \
       supported"
  | In_txn _, Write { pin = None; verb; rel; _ } ->
    fail
      "a %s inside a distributed transaction must pin %s's partition attribute with \
       '='"
      verb rel
  | _, Answer r -> r
  | _, Ddl on_success -> (
    match Interp.exec_line t.scratch line with
    | Error msg -> fail "%s" msg
    | Ok output -> (
      match
        exec_on_nodes t via (route_nodes t None) line ~count:(fun _ -> Some 0) ~verb:"DDL"
      with
      | Error e -> failed via e
      | Ok _ ->
        on_success ();
        ok_out output))
  | _, Write w -> (
    match exec_on_nodes t via (route_nodes t w.pin) line ~count:w.count ~verb:w.verb with
    | Error e -> failed via e
    | Ok n ->
      adjust via w.rel w.info (w.sign * n);
      ok_out (w.say n))
  | _, Rehome { rel; values; quals; info } -> rehome_replace t via rel values quals info
  | _, Read (r, suffix) -> retrieve t via line r ~suffix
  | _, Admin pin ->
    (* the reply is the last node's: node 0's view, or the reset every
       node acknowledges alike *)
    let rec go out = function
      | [] -> ok_out out
      | i :: rest -> (
        match reply (call t i (Protocol.Exec_line line)) with
        | Ok (Protocol.Output out) -> go out rest
        | Error e | Ok (Protocol.Failed e) -> fail "%s" e
        | Ok _ -> fail "unexpected response from node %d" i)
    in
    go "" (route_nodes t pin)

(* ------------------------------------------ distributed transactions *)

(* 2PC over the nodes' 2PL branches.  The coordinator is the transaction
   manager: it allocates global ids, tracks the participant set as
   statements route, runs presumed-abort two-phase commit, and resolves
   in-doubt transactions off its decision log when a replica is
   promoted.  Gtid order doubles as age order — larger is younger, which
   is what the deadlock victim choice keys on. *)

(* Global abort: fan [Txn_abort] to every participant (presumed abort —
   a node that never enlisted, or already dropped the branch, aborts
   trivially), roll the coordinator's cardinality cache back, and forget
   the transaction. *)
let abort_ctxn t cx =
  let gtid = string_of_int cx.gtid in
  List.iter
    (fun i ->
      let slot = t.slots.(i) in
      if not slot.down then ignore (slot.primary (Protocol.Txn_abort gtid)))
    (List.rev cx.participants);
  List.iter
    (fun (rel, d) ->
      match Hashtbl.find_opt t.rels rel with
      | Some info -> info.count <- info.count - d
      | None -> ())
    cx.deltas;
  Hashtbl.remove t.ctxns cx.owner_client;
  Hashtbl.remove t.waits cx.gtid;
  Metrics.incr (m t) Metrics.Txn2pc_aborts

(* Two-phase commit, presumed abort.  Phase one sends [Txn_prepare] to
   every participant: yes iff the local branch is still live.  All-yes
   logs the decision (the commit point) and registers the decision
   record; phase two fans [Txn_commit] out and ships each node's
   replication log.  A participant lost after the decision is repaired
   on promotion by [resolve_in_doubt] — the classic in-doubt window the
   seeded kill points exercise. *)
let commit_ctxn t cx =
  let gtid = string_of_int cx.gtid in
  let participants = List.rev cx.participants in
  Hashtbl.remove t.waits cx.gtid;
  (match t.injector with
  | Some inj -> (
    match Injector.note_2pc ~metrics:(m t) inj ~phase:`Prepare with
    | Some node -> kill_node t node
    | None -> ())
  | None -> ());
  match cx.doomed with
  | Some reason ->
    abort_ctxn t cx;
    aborted_result ("transaction aborted: " ^ reason)
  | None ->
    let vote_yes i =
      let slot = t.slots.(i) in
      if slot.down then false
      else begin
        Metrics.incr (m t) Metrics.Txn2pc_prepares;
        match slot.primary (Protocol.Txn_prepare gtid) with
        | Ok (Protocol.Output _) -> true
        | Ok _ -> false
        | Error _ ->
          ignore (promote_replica t i);
          false
      end
    in
    if not (List.for_all vote_yes participants) then begin
      abort_ctxn t cx;
      aborted_result "transaction aborted: a participant voted no"
    end
    else begin
      (* the commit point: decision logged, outcome fixed *)
      ignore (Wal.append t.dlog ("commit " ^ gtid));
      let d =
        {
          d_gtid = cx.gtid;
          d_participants = participants;
          d_stmts = List.rev cx.tstmts;
          d_durable = [];
        }
      in
      t.decisions <- d :: t.decisions;
      Metrics.incr (m t) Metrics.Txn2pc_commits;
      Hashtbl.remove t.ctxns cx.owner_client;
      (match t.injector with
      | Some inj -> (
        match Injector.note_2pc ~metrics:(m t) inj ~phase:`Commit with
        | Some node -> kill_node t node
        | None -> ())
      | None -> ());
      List.iter
        (fun i ->
          if not (List.mem i d.d_durable) then begin
            let slot = t.slots.(i) in
            if not slot.down then
              match slot.primary (Protocol.Txn_commit gtid) with
              | Ok (Protocol.Output _) ->
                d.d_durable <- i :: d.d_durable;
                ignore (ship_slot t i)
              | Ok _ ->
                (* a promoted primary with no branch: repair in place *)
                reapply t d i;
                ignore (ship_slot t i)
              | Error _ ->
                (* promotion resolves this decision via the in-doubt sweep *)
                ignore (promote_replica t i)
          end)
        participants;
      ok_out "committed"
    end

(* Coordinator-side deadlock handling over the blocked statement's holder
   gtids: maintain a waits-for graph, and on a cycle abort the youngest
   transaction on it globally.  Holders outside any distributed
   transaction (gtid -1) have no edges — a cycle through them cannot be
   broken here and the statement just parks. *)
let find_ctxn_by_gtid t g =
  Hashtbl.fold
    (fun _ cx acc -> if cx.gtid = g then Some cx else acc)
    t.ctxns None

let detect_cycle t start =
  let visited = Hashtbl.create 8 in
  let rec dfs g path =
    if g = start && path <> [] then Some path
    else if Hashtbl.mem visited g then None
    else begin
      Hashtbl.add visited g ();
      match Hashtbl.find_opt t.waits g with
      | None -> None
      | Some holders -> List.find_map (fun h -> dfs h (h :: path)) holders
    end
  in
  dfs start []

let resolve_blocked t cx holders =
  let holders = List.filter (fun h -> h >= 0 && h <> cx.gtid) holders in
  Hashtbl.replace t.waits cx.gtid holders;
  match detect_cycle t cx.gtid with
  | None -> `Park
  | Some cycle ->
    Metrics.incr (m t) Metrics.Deadlock_cycles;
    let victim = List.fold_left max cx.gtid cycle in
    Metrics.incr (m t) Metrics.Deadlock_victims;
    if victim = cx.gtid then `Self_abort
    else (
      match find_ctxn_by_gtid t victim with
      | Some vcx ->
        abort_ctxn t vcx;
        (* the victim's owner is parked elsewhere: leave a tombstone so
           its next statement reports the abort (single-node sessions
           learn the same way, via the doomed flag) *)
        Hashtbl.replace t.victims vcx.owner_client
          "deadlock: transaction aborted (victim)";
        `Retry
      | None -> `Park)

(* The transaction-aware entry point.  [client] is the caller's session
   identity (a server passes its connection id); each client has at most
   one open distributed transaction.  [`Park] means the statement blocked
   on live transactions and should be retried verbatim — exactly the
   single-node server's parking contract, lifted to the cluster. *)
let exec_client t ~client line =
  (match t.injector with
  | Some inj -> (
    match Injector.note_op ~metrics:(m t) inj with
    | Some node -> kill_node t node
    | None -> ())
  | None -> ());
  match Parser.parse_command line with
  | exception Parser.Parse_error msg -> `Done (fail "%s" msg)
  | exception Lexer.Lex_error msg -> `Done (fail "%s" msg)
  | cmd -> (
    match Hashtbl.find_opt t.ctxns client with
    | None when Hashtbl.mem t.victims client ->
      (* the transaction was aborted from under this client (deadlock
         victim chosen while it was parked): report that once *)
      let reason = Hashtbl.find t.victims client in
      Hashtbl.remove t.victims client;
      `Done (aborted_result reason)
    | None -> (
      match cmd with
      | Ast.Begin ->
        let gtid = t.next_gtid in
        t.next_gtid <- gtid + 1;
        Hashtbl.replace t.ctxns client
          {
            gtid;
            owner_client = client;
            participants = [];
            tstmts = [];
            deltas = [];
            doomed = None;
          };
        Metrics.incr (m t) Metrics.Txn2pc_begins;
        `Done (ok_out "transaction started")
      | Ast.Commit | Ast.Abort -> `Done (fail "no open transaction")
      | _ -> (
        match route t Auto line cmd with
        | r -> `Done r
        | exception Stmt_blocked holders -> `Park holders
        | exception Stmt_aborted msg -> `Done (aborted_result msg)))
    | Some cx -> (
      match cx.doomed with
      | Some reason ->
        abort_ctxn t cx;
        `Done (aborted_result ("transaction aborted: " ^ reason))
      | None -> (
        match cmd with
        | Ast.Begin -> `Done (fail "a transaction is already open")
        | Ast.Commit -> `Done (commit_ctxn t cx)
        | Ast.Abort ->
          abort_ctxn t cx;
          `Done (ok_out "aborted")
        | _ ->
          (* bounded victim-abort retries: each round either makes
             progress or parks; the bound only guards surprises *)
          let rec attempt budget =
            match route t (In_txn cx) line cmd with
            | r ->
              Hashtbl.remove t.waits cx.gtid;
              `Done r
            | exception Stmt_blocked holders -> (
              match resolve_blocked t cx holders with
              | `Park -> `Park holders
              | `Retry -> if budget = 0 then `Park holders else attempt (budget - 1)
              | `Self_abort ->
                abort_ctxn t cx;
                `Done (aborted_result "deadlock: transaction aborted (victim)"))
            | exception Stmt_aborted msg ->
              (* the local branch died (node-side deadlock victim or a
                 lost participant): finish the global abort *)
              abort_ctxn t cx;
              `Done (aborted_result msg)
          in
          attempt 8)))

(* Single-driver compatibility entry point: everything runs as client 0.
   A park here means waiting on a transaction only this same driver could
   finish, so it surfaces as an error rather than spinning. *)
let exec t line =
  match exec_client t ~client:0 line with
  | `Done r -> r
  | `Park _ -> fail "blocked on a concurrent transaction"

let disconnect_client t ~client =
  Hashtbl.remove t.victims client;
  match Hashtbl.find_opt t.ctxns client with
  | Some cx -> abort_ctxn t cx
  | None -> ()

(* -------------------------------------------------------- cluster view *)

let counter_of_name =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun c -> Hashtbl.replace tbl (Metrics.counter_name c) c)
    Metrics.all_counters;
  fun name -> Hashtbl.find_opt tbl name

let gauge_of_name =
  let tbl = Hashtbl.create 17 in
  List.iter (fun g -> Hashtbl.replace tbl (Metrics.gauge_name g) g) Metrics.all_gauges;
  fun name -> Hashtbl.find_opt tbl name

let is_net_counter name =
  String.length name >= 4 && String.sub name 0 4 = "net."

(* One cluster view: the coordinator's own context (cluster.* counters,
   scratch-binder charges) plus every live node's exported counters and
   gauges, folded in by name.  Node [net.*] counters are skipped — node
   traffic is coordinator-internal, and the serving tier's own net
   counters are what a load generator reconciles against.  Node
   histograms are not merged (quantiles cannot be re-merged from
   exports); the coordinator's own histograms survive. *)
let snapshot t =
  let copy = Ctx.create () in
  Ctx.merge_into ~into:copy t.ctx;
  let mc = Ctx.metrics copy in
  Array.iteri
    (fun i slot ->
      if not slot.down then
        match call t i Protocol.Stats with
        | Ok (Protocol.Output body) -> (
          match Export.parse body with
          | Error _ -> ()
          | Ok json ->
            (match Export.member "counters" json with
            | Some (Export.Obj kvs) ->
              List.iter
                (fun (name, v) ->
                  match v with
                  | Export.Int n when n > 0 && not (is_net_counter name) -> (
                    match counter_of_name name with
                    | Some c -> Metrics.incr ~n mc c
                    | None -> ())
                  | _ -> ())
                kvs
            | _ -> ());
            (match Export.member "gauges" json with
            | Some (Export.Obj kvs) ->
              List.iter
                (fun (name, v) ->
                  match v with
                  | Export.Int n when n <> 0 -> (
                    match gauge_of_name name with
                    | Some g -> Metrics.add_gauge ~n mc g
                    | None -> ())
                  | _ -> ())
                kvs
            | _ -> ())
          )
        | Ok _ | Error _ -> ())
    t.slots;
  copy

(* --------------------------------------------------- in-process cluster *)

let node_link node =
  let dead = ref false in
  let link req =
    if !dead then Error "node killed"
    else
      Ok
        (match req with
        | Protocol.Ping -> Protocol.Pong
        | Protocol.Exec_line line -> (
          match Node.exec_line node ~client:0 line with
          | Dbproc_lang.Interp.O_ok out -> Protocol.Output out
          | Dbproc_lang.Interp.O_error msg -> Protocol.Failed msg
          | Dbproc_lang.Interp.O_aborted msg -> Protocol.Aborted msg
          | Dbproc_lang.Interp.O_blocked blockers ->
            Protocol.Blocked
              (String.concat " " (Node.blocker_gtids node blockers)))
        | Protocol.Exec_script s -> (
          match Node.exec_script node s with
          | Ok out -> Protocol.Output out
          | Error msg -> Protocol.Failed msg)
        | Protocol.Stats ->
          Protocol.Output (Export.to_string (Export.snapshot (Node.ctx node)))
        | Protocol.Shutdown -> Protocol.Output "draining"
        | Protocol.Begin | Protocol.Commit | Protocol.Abort ->
          Protocol.Failed "transactions are not supported on a cluster node"
        | other -> (
          match Node.handle node other with
          | Some resp -> resp
          | None -> Protocol.Failed "unhandled request"))
  in
  (link, fun () -> dead := true)

type local = { coord : t; nodes : Node.t array; kill_switches : (unit -> unit) array }

let create_local ?ctx ?key_domain ?injector ?(replicas = true) ~nodes:n () =
  if n < 1 then invalid_arg "Coordinator.create_local: nodes must be >= 1";
  let primaries = Array.init n (fun _ -> Node.create ()) in
  let replicas_arr =
    if replicas then Array.init n (fun _ -> Some (Node.create ())) else Array.make n None
  in
  let prim_links = Array.map node_link primaries in
  let repl_links =
    Array.map (function Some nd -> Some (node_link nd) | None -> None) replicas_arr
  in
  let links =
    Array.init n (fun i ->
        (fst prim_links.(i), Option.map fst repl_links.(i)))
  in
  (* [cur_switch] always kills the node *currently serving* as slot i's
     primary, [rep_switch] its current replica — so a second kill of the
     same slot takes down the promoted node, not the corpse. *)
  let cur_switch = Array.map snd prim_links in
  let rep_switch =
    Array.map (function Some (_, k) -> Some k | None -> None) repl_links
  in
  let spawn_replica i =
    match rep_switch.(i) with
    | None -> None
    | Some promoted_switch ->
      cur_switch.(i) <- promoted_switch;
      let nd = Node.create () in
      let link, switch = node_link nd in
      rep_switch.(i) <- Some switch;
      Some link
  in
  let coord =
    create ?ctx ?key_domain ?injector
      ~on_kill:(fun i -> cur_switch.(i) ())
      ~spawn_replica ~links ()
  in
  { coord; nodes = primaries; kill_switches = cur_switch }

let coordinator l = l.coord
let local_node l i = l.nodes.(i)
