(* The traced run's layer-by-layer replay of single-site operations.

   Each operation is replayed through the public function of every layer
   it crosses, on a mirror of the measured session: a second session
   loaded with the same data but no procedures (the base write), and a
   procedure manager of the workload's strategy registered over the
   mirror's relations with the same procedure definitions.  The measured
   session is never touched, so its counters and caches see exactly the
   untraced run's work. *)

module Interp = Dbproc_lang.Interp
module Parser = Dbproc_lang.Parser
module Ast = Dbproc_lang.Ast
module Manager = Dbproc_proc.Manager
module View_def = Dbproc_query.View_def
module Planner = Dbproc_query.Planner
module Executor = Dbproc_query.Executor
module Relation = Dbproc_relation.Relation
module Tuple = Dbproc_relation.Tuple
module Value = Dbproc_relation.Value
module Cost = Dbproc_storage.Cost
module Io = Dbproc_storage.Io

(* One layer function's calls: total time, the last call's time, and
   the words it allocated (which repeat exactly for a seed). *)
type acc = { mutable us : float; mutable n : int; mutable last : float; mutable words : float }

let acc () = { us = 0.0; n = 0; last = 0.0; words = 0.0 }

let timed a f =
  let w0 = Gc.minor_words () in
  let t0 = Measure.now_ns () in
  let r = f () in
  let dt = Measure.us_since t0 in
  let w1 = Gc.minor_words () in
  a.us <- a.us +. dt;
  a.n <- a.n + 1;
  a.last <- dt;
  a.words <- a.words +. (w1 -. w0);
  r

let mean_us a = if a.n = 0 then 0.0 else a.us /. float_of_int a.n
let words_per_call a = if a.n = 0 then 0.0 else a.words /. float_of_int a.n

type layers = {
  parse : acc; (* Parser.parse_command *)
  plan : acc; (* Interp.bind_retrieve + Planner.compile + Executor.prepare *)
  query : acc; (* Executor.run_prepared *)
  access : acc; (* Manager.access *)
  maintain : acc; (* Manager.on_update / on_delta *)
  base_write : acc; (* the write through a session with no procedures *)
}

let layers () =
  {
    parse = acc ();
    plan = acc ();
    query = acc ();
    access = acc ();
    maintain = acc ();
    base_write = acc ();
  }

type t = {
  base : Interp.t;
  manager : Manager.t;
  ids : Manager.proc_id array;
  bodies : Ast.retrieve array;
  r1 : Relation.t;
  rows : (int, Tuple.t) Hashtbl.t; (* R1 by id: the old side of each update *)
}

let fail fmt = Printf.ksprintf failwith fmt

let retrieve_of text =
  match Parser.parse_command text with
  | Ast.Retrieve r -> r
  | _ -> fail "not a retrieve: %s" text

let int_at t i = match Tuple.get t i with Value.Int k -> k | _ -> fail "R1 has a non-int key"

let create (w : Gen.workload) (s : Gen.setup) =
  let base = Interp.create ~ctx:(Dbproc_obs.Ctx.create ()) () in
  List.iter
    (fun line ->
      match Interp.exec_line base line with Ok _ -> () | Error e -> fail "mirror: %s: %s" line e)
    s.Gen.data;
  let bodies = Array.map retrieve_of s.Gen.bodies in
  let defs =
    Array.mapi
      (fun i r -> { (Interp.bind_retrieve base r) with View_def.name = Gen.proc_name i })
      bodies
  in
  let r1 = List.hd (View_def.relations defs.(0)) in
  let kind =
    match Dbproc_costmodel.Strategy.of_string w.Gen.strategy with
    | Some st -> Manager.kind_of_strategy st
    | None -> fail "unknown strategy %s" w.Gen.strategy
  in
  let manager = Manager.create kind ~io:(Relation.io r1) ~record_bytes:100 () in
  let ids = Array.map (Manager.register manager) defs in
  let rows = Hashtbl.create (2 * Gen.n) in
  Cost.with_disabled (Io.cost (Relation.io r1)) (fun () ->
      Relation.scan r1 ~f:(fun _ t -> Hashtbl.replace rows (int_at t 0) t));
  { base; manager; ids; bodies; r1; rows }

let base_write t l line =
  timed l.base_write (fun () ->
      match Interp.exec_line t.base line with Ok _ -> () | Error e -> fail "mirror: %s: %s" line e)

(* Replay one operation; returns the time of the layers on its blocking
   path (parse and access for a read, base write and maintenance for a
   write), which [trace.coverage] sets against the measured statement. *)
let replay t l op line =
  let parse () = ignore (timed l.parse (fun () -> Parser.parse_command line)) in
  match op with
  | Gen.Exec i ->
    parse ();
    let prepared =
      timed l.plan (fun () ->
          Executor.prepare (Planner.compile (Interp.bind_retrieve t.base t.bodies.(i))))
    in
    ignore (timed l.query (fun () -> Executor.run_prepared prepared));
    ignore (timed l.access (fun () -> Manager.access t.manager t.ids.(i)));
    l.parse.last +. l.access.last
  | Gen.Replace { id; sel } ->
    parse ();
    base_write t l line;
    let old = Hashtbl.find t.rows id in
    let fresh = Tuple.create [ Value.Int id; Tuple.get old 1; Value.Int sel; Tuple.get old 3 ] in
    Hashtbl.replace t.rows id fresh;
    timed l.maintain (fun () ->
        Manager.on_update t.manager ~rel:t.r1 ~changes:[ (old, fresh) ]);
    l.base_write.last +. l.maintain.last
  | Gen.Append { id; a; sel } ->
    parse ();
    base_write t l line;
    let fresh = Tuple.create [ Value.Int id; Value.Int a; Value.Int sel; Value.Int 0 ] in
    Hashtbl.replace t.rows id fresh;
    timed l.maintain (fun () ->
        Manager.on_delta t.manager ~rel:t.r1 ~inserted:[ fresh ] ~deleted:[]);
    l.base_write.last +. l.maintain.last
  | Gen.Begin | Gen.Commit ->
    parse ();
    0.0
