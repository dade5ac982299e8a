(* The system under test, driven only through generated statement text:
   one [Lang.Interp] session, or a 3-node in-process cluster — a
   [Coordinator] over [Coordinator.node_link] nodes, each with one
   replica. *)

module Interp = Dbproc_lang.Interp
module Node = Dbproc_net.Node
module Coordinator = Dbproc_net.Coordinator
module Protocol = Dbproc_net.Protocol
module Ctx = Dbproc_obs.Ctx
module Metrics = Dbproc_obs.Metrics

type outcome = { ok : bool; output : string; digest : string option }

(* Link instrumentation for the traced cluster run: per-tag call counts
   and in-call time, plus the codec work the in-process links skip. *)
let tags =
  [| "Exec_line"; "Fetch"; "Join_probe"; "Wal_pull"; "Wal_push"; "Txn_exec"; "Txn_prepare";
     "Txn_commit" |]

let tag_index = function
  | Protocol.Exec_line _ -> 0
  | Protocol.Fetch _ -> 1
  | Protocol.Join_probe _ -> 2
  | Protocol.Wal_pull _ -> 3
  | Protocol.Wal_push _ -> 4
  | Protocol.Txn_exec _ -> 5
  | Protocol.Txn_prepare _ -> 6
  | Protocol.Txn_commit _ -> 7
  | _ -> -1

type links = {
  calls : int array;
  call_us : float array;
  mutable link_us : float; (* time inside the wrappers, codec included *)
  mutable codec_us : float;
  mutable bytes : int;
  mutable codec_errors : int;
}

let links () =
  let k = Array.length tags in
  {
    calls = Array.make k 0;
    call_us = Array.make k 0.0;
    link_us = 0.0;
    codec_us = 0.0;
    bytes = 0;
    codec_errors = 0;
  }

(* Encode one request/response pair with the wire protocol and decode it
   back: what a socket transport would add to this exchange. *)
let codec l req resp =
  let t0 = Measure.now_ns () in
  let qb = Buffer.create 128 and rb = Buffer.create 256 in
  Protocol.write_request qb ~id:1 req;
  Protocol.write_response rb ~id:1 resp;
  let qd = Protocol.Decoder.create () and rd = Protocol.Decoder.create () in
  Protocol.Decoder.feed_string qd (Buffer.contents qb);
  Protocol.Decoder.feed_string rd (Buffer.contents rb);
  (match (Protocol.Decoder.next_request qd, Protocol.Decoder.next_response rd) with
  | Protocol.Msg (_, q), Protocol.Msg (_, r) when q = req && r = resp -> ()
  | _ -> l.codec_errors <- l.codec_errors + 1);
  l.bytes <- l.bytes + Buffer.length qb + Buffer.length rb;
  l.codec_us <- l.codec_us +. Measure.us_since t0

let wrap l link req =
  let t0 = Measure.now_ns () in
  let resp = link req in
  let dt = Measure.us_since t0 in
  let k = tag_index req in
  if k >= 0 then begin
    l.calls.(k) <- l.calls.(k) + 1;
    l.call_us.(k) <- l.call_us.(k) +. dt
  end;
  (match resp with Ok r -> codec l req r | Error _ -> ());
  l.link_us <- l.link_us +. Measure.us_since t0;
  resp

type t = {
  exec : string -> outcome;
  sim_ms : unit -> float;
  ctxs : Ctx.t list; (* every context the system charges *)
  session : Interp.t option; (* the single-site session *)
}

let single () =
  let s = Interp.create ~ctx:(Ctx.create ()) () in
  {
    exec =
      (fun line ->
        match Interp.exec_line s line with
        | Ok output -> { ok = true; output; digest = None }
        | Error output -> { ok = false; output; digest = None });
    sim_ms = (fun () -> Interp.simulated_ms s);
    ctxs = [ Interp.obs s ];
    session = Some s;
  }

(* The cluster's simulated cost is the sum of every node's simulated
   clock: total work, as the paper counts it, not parallel elapsed time. *)
let cluster ?links ~key_domain ~nodes () =
  let node () = Node.create ~ctx:(Ctx.create ()) () in
  let primaries = Array.init nodes (fun _ -> node ()) in
  let replicas = Array.init nodes (fun _ -> node ()) in
  let link nd =
    let l = fst (Coordinator.node_link nd) in
    match links with Some stats -> wrap stats l | None -> l
  in
  let coord =
    Coordinator.create ~ctx:(Ctx.create ()) ~key_domain
      ~links:(Array.init nodes (fun i -> (link primaries.(i), Some (link replicas.(i)))))
      ()
  in
  let all = Array.to_list (Array.append primaries replicas) in
  {
    exec =
      (fun line ->
        let r = Coordinator.exec coord line in
        { ok = r.Coordinator.ok; output = r.Coordinator.output; digest = r.Coordinator.digest });
    sim_ms = (fun () -> List.fold_left (fun acc nd -> acc +. Node.sim_ms nd) 0.0 all);
    ctxs = Coordinator.ctx coord :: List.map Node.ctx all;
    session = None;
  }

let create ?links (w : Gen.workload) =
  if w.Gen.cluster then cluster ?links ~key_domain:Gen.key_domain ~nodes:Gen.nodes ()
  else single ()

(* The counters the per-layer metrics are made of, summed over [ctxs]. *)
let tracked =
  Metrics.
    [|
      Pages_read;
      Pages_written;
      Tuples_scanned;
      Hash_probes;
      Btree_range_scans;
      Btree_inserts;
      Cache_hits;
      Cache_misses;
      Invalidations;
      Ilock_probes;
      Rete_tokens;
      Rete_join_activations;
      Delta_set_ops;
      Plan_cache_hits;
      Plan_cache_misses;
      Cluster_tuples_shipped;
      Repl_records_shipped;
      Txn2pc_participants;
      Txn2pc_commits;
    |]

let read_counters t into =
  Array.iteri
    (fun i c ->
      into.(i) <-
        List.fold_left (fun acc ctx -> acc + Metrics.get (Ctx.metrics ctx) c) 0 t.ctxs)
    tracked
