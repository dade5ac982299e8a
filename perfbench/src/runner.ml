(* One benchmark run: set up, warm up, measure a closed loop of one client
   with no think time, check the outputs, report.

   The measured work is fixed: [--seconds] times the workload's nominal
   rate, taken from a stream fixed by (workload, seed).  Both sides of a
   comparison therefore execute the same statements on the same evolving
   state, and simulated cost and every count repeat exactly for a seed. *)

module Interp = Dbproc_lang.Interp
module Parser = Dbproc_lang.Parser
module Protocol = Dbproc_net.Protocol
module Wire = Dbproc_net.Wire

type sizes = {
  setup_reps : int; (* setup_s is the median of this many set-ups *)
  warmup_ops : int;
  min_samples : int; (* per class and window: 1000 puts ten beyond a p99 *)
}

let default_sizes = { setup_reps = 5; warmup_ops = 5_000; min_samples = 1_000 }

(* The measured phase is cut into this many windows of equal operation
   count.  On a shared machine the program runs at a steady floor with
   intermittent faster bursts, so each timing reports the value the run
   sustained in three quarters of its windows: the lower quartile of the
   window throughputs, the upper quartile of the window percentiles. *)
let windows = 10

let fail fmt = Printf.ksprintf failwith fmt

type metric = {
  name : string;
  unit : string;
  value : float;
  exact : bool; (* repeats exactly for a seed *)
}

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  notes : string list; (* human-readable lines printed before the result *)
  metrics : metric list;
  tails : bool; (* every percentile had ten samples beyond it *)
}

(* Linear-interpolation quantile of a non-empty list. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let x = p *. float_of_int (Array.length a - 1) in
  let i = int_of_float x in
  if i + 1 >= Array.length a then a.(i) else a.(i) +. ((a.(i + 1) -. a.(i)) *. (x -. float_of_int i))

let median = quantile 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)
let elapsed_s t0 = Measure.us_since t0 /. 1e6

let set_up ?links w s =
  let t0 = Measure.now_ns () in
  let target = Target.create ?links w in
  List.iter
    (fun line ->
      let o = target.Target.exec line in
      if not o.Target.ok then fail "setup: %s: %s" line o.Target.output)
    (Gen.setup_lines s);
  (target, elapsed_s t0)

(* A write must touch exactly the one tuple it names. *)
let succeeded op (o : Target.outcome) =
  o.Target.ok
  &&
  match op with
  | Gen.Replace _ -> String.starts_with ~prefix:"replaced 1 tuples" o.Target.output
  | Gen.Append _ -> String.starts_with ~prefix:"appended 1 tuple" o.Target.output
  | _ -> true

(* ------------------------------------------------------------- the gate *)

let digest_of = function Ok (tuples, _) -> Some (Wire.digest_tuples tuples) | Error _ -> None

(* Single site: every procedure's [exec] equals a fresh [retrieve] of its
   body, as sorted multisets. *)
let gate_single session (s : Gen.setup) =
  let bad = ref 0 in
  Array.iteri
    (fun i body ->
      let stored = digest_of (Interp.fetch session ("exec " ^ Gen.proc_name i)) in
      let fresh = digest_of (Interp.fetch session body) in
      if stored = None || stored <> fresh then incr bad)
    s.Gen.bodies;
  !bad

(* Cluster: every statement's digest (or success) equals a single session
   fed the same lines, and so does every procedure at the end. *)
let gate_cluster (target : Target.t) (s : Gen.setup) log =
  let single = Interp.create ~ctx:(Dbproc_obs.Ctx.create ()) () in
  let bad = ref 0 in
  List.iter
    (fun line -> if Result.is_error (Interp.exec_line single line) then incr bad)
    (Gen.setup_lines s);
  let check (line, digest, ok) =
    match digest with
    | Some d -> if digest_of (Interp.fetch single line) <> Some d then incr bad
    | None -> if Result.is_ok (Interp.exec_line single line) <> ok then incr bad
  in
  List.iter check (List.rev log);
  for i = 0 to Gen.procs - 1 do
    let line = "exec " ^ Gen.proc_name i in
    let o = target.Target.exec line in
    if o.Target.digest = None then incr bad else check (line, o.Target.digest, o.Target.ok)
  done;
  !bad

let gate (target : Target.t) s log =
  match target.Target.session with
  | Some session -> gate_single session s
  | None -> gate_cluster target s log

(* ------------------------------------------------------- the timed loop *)

type loop = {
  target : Target.t;
  stream : Gen.stream;
  mutable log : (string * string option * bool) list; (* cluster only: for the gate *)
  mutable attempted : int;
  mutable failed : int;
}

let loop w s ~seed target =
  { target; stream = Gen.stream w ~seed s; log = []; attempted = 0; failed = 0 }

let step ?(before = ignore) d =
  let op = Gen.next d.stream in
  let line = Gen.line_of op in
  before (op, line);
  let w0 = Gc.minor_words () in
  let t0 = Measure.now_ns () in
  let o = d.target.Target.exec line in
  let dt = Measure.us_since t0 in
  let words = Gc.minor_words () -. w0 in
  d.attempted <- d.attempted + 1;
  if not (succeeded op o) then d.failed <- d.failed + 1;
  if d.target.Target.session = None then d.log <- (line, o.Target.digest, o.Target.ok) :: d.log;
  (op, line, o, dt, words)

let warm_up ?before sizes d =
  for _ = 1 to sizes.warmup_ops do
    ignore (step ?before d)
  done;
  Gc.compact ()

let measured_ops (w : Gen.workload) seconds = int_of_float (Float.round (seconds *. w.Gen.rate))

(* One wall-clock timing from its per-window values, as a printed line
   that shows every window (for a percentile: with the window's sample
   count and the samples beyond it). *)
let windowed name unit ~higher per_window =
  let q = if higher then 0.25 else 0.75 in
  let v = quantile q (Array.to_list (Array.map fst per_window)) in
  let shown = Array.map (fun (x, detail) -> Printf.sprintf "%.3f%s" x detail) per_window in
  Printf.sprintf "%s %.3f %s: %s quartile of %d windows [%s]" name v unit
    (if higher then "lower" else "upper")
    windows
    (String.concat "; " (Array.to_list shown))

let percentile name (per_window : Measure.samples array) p tails =
  windowed name "us" ~higher:false
    (Array.map
       (fun s ->
         if Measure.count s = 0 then begin
           tails := false;
           (0.0, " (no samples)")
         end
         else
           let v, beyond = Measure.percentile s p in
           if beyond < 10 then tails := false;
           (v, Printf.sprintf " (n=%d, %d beyond)" (Measure.count s) beyond))
       per_window)

let untraced sizes (w : Gen.workload) ~seed ~seconds =
  let s = Gen.setup w ~seed in
  let last = ref None and times = ref [] in
  for _ = 1 to sizes.setup_reps do
    last := None;
    Gc.full_major ();
    let target, secs = set_up w s in
    times := secs :: !times;
    last := Some target
  done;
  let target = Option.get !last in
  let d = loop w s ~seed target in
  warm_up sizes d;
  (* read before the timed phase, so that the harness's sample buffers
     are not counted *)
  let peak_rss_mb = Measure.peak_rss_mb () in
  let dts = Measure.samples () and classes = Measure.samples () in
  let n_access = ref 0 and n_update = ref 0 and words = ref 0.0 in
  let target_ops = measured_ops w seconds in
  let sim0 = target.Target.sim_ms () in
  let t0 = Measure.now_ns () in
  while
    not
      (Gen.idle d.stream
      && Measure.count dts >= target_ops
      && !n_access >= windows * sizes.min_samples
      && !n_update >= windows * sizes.min_samples)
  do
    let op, _, _, dt, op_words = step d in
    words := !words +. op_words;
    Measure.add dts dt;
    Measure.add classes
      (match Gen.class_of op with
      | Gen.Access ->
        incr n_access;
        0.0
      | Gen.Update ->
        incr n_update;
        1.0
      | Gen.Control -> 2.0)
  done;
  let measured_s = elapsed_s t0 in
  let sim_ms = target.Target.sim_ms () -. sim0 in
  let ops = Measure.count dts in
  let bad = gate target s d.log in
  let cut =
    Array.init windows (fun i ->
        let lo = i * ops / windows and hi = (i + 1) * ops / windows in
        let access = Measure.samples () and update = Measure.samples () and busy = ref 0.0 in
        for j = lo to hi - 1 do
          let dt = dts.Measure.a.(j) in
          busy := !busy +. dt;
          match classes.Measure.a.(j) with
          | 0.0 -> Measure.add access dt
          | 1.0 -> Measure.add update dt
          | _ -> ()
        done;
        (float_of_int (hi - lo) /. (!busy /. 1e6), access, update))
  in
  let access = Array.map (fun (_, a, _) -> a) cut and update = Array.map (fun (_, _, u) -> u) cut in
  let tails = ref true in
  (* wall-clock figures are printed, not gated: see the README *)
  let timings =
    [
      windowed "throughput_ops_s" "1/s" ~higher:true (Array.map (fun (x, _, _) -> (x, "")) cut);
      percentile "access_p50_us" access 0.50 tails;
      percentile "access_p99_us" access 0.99 tails;
      percentile "update_p50_us" update 0.50 tails;
      percentile "update_p99_us" update 0.99 tails;
    ]
  in
  let x name unit value = { name; unit; value; exact = true } in
  {
    correct = bad = 0;
    attempted = d.attempted;
    failed = d.failed;
    notes =
      (Printf.sprintf "measured %d operations in %.2f s (%d accesses, %d updates)" ops measured_s
         !n_access !n_update
      :: timings)
      @ [
          Printf.sprintf "setup_s: median of [%s]"
            (String.concat "; " (List.rev_map (Printf.sprintf "%.4f") !times));
          Printf.sprintf "error_rate %g (%d of %d statements failed)"
            (ratio_i d.failed d.attempted) d.failed d.attempted;
          Printf.sprintf "gate: %d mismatches" bad;
        ];
    metrics =
      [
        x "sim_ms_per_access" "ms" (ratio sim_ms (float_of_int !n_access));
        x "alloc_words_per_op" "words" (ratio !words (float_of_int ops));
        { name = "setup_s"; unit = "s"; value = median !times; exact = false };
        { name = "peak_rss_mb"; unit = "MiB"; value = peak_rss_mb; exact = false };
      ];
    tails = !tails;
  }

(* ------------------------------------------------------ the traced run *)

(* The traced phase runs the same operations as the untraced one, each
   replayed layer by layer before it executes; counts are deltas of the
   program's own counters, split by operation class. *)
let traced sizes (w : Gen.workload) ~seed ~seconds =
  let s = Gen.setup w ~seed in
  let links = Target.links () and client = Target.links () in
  let target, _ = set_up ~links w s in
  let mirror = if w.Gen.cluster then None else Some (Mirror.create w s) in
  let d = loop w s ~seed target in
  let warm = Mirror.layers () in
  warm_up sizes d ~before:(fun (op, line) ->
      Option.iter (fun m -> ignore (Mirror.replay m warm op line)) mirror);
  let l = Mirror.layers () in
  let k = Array.length Target.tracked in
  let c0 = Array.make k 0 and c1 = Array.make k 0 in
  let by_access = Array.make k 0 and by_update = Array.make k 0 in
  let n_access = ref 0 and n_update = ref 0 in
  let call_us0 = Array.copy links.Target.call_us and calls0 = Array.copy links.Target.calls in
  let bytes0 = links.Target.bytes and codec_us0 = links.Target.codec_us in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let stmt_us = ref 0.0 and covered_us = ref 0.0 and self_us = ref 0.0 in
  let ops = ref 0 in
  let layer_us = ref 0.0 in
  let before (op, line) =
    (layer_us :=
       match mirror with
       | Some m -> Mirror.replay m l op line
       | None ->
         ignore (Mirror.timed l.Mirror.parse (fun () -> Parser.parse_command line));
         l.Mirror.parse.Mirror.last);
    Target.read_counters target c0
  in
  let target_ops = measured_ops w seconds in
  let t0 = Measure.now_ns () in
  while not (Gen.idle d.stream && !ops >= target_ops) do
    let link0 = links.Target.link_us and codec0 = links.Target.codec_us in
    let inner0 = Array.fold_left ( +. ) 0.0 links.Target.call_us in
    let op, line, o, dt, _ = step ~before d in
    Target.read_counters target c1;
    let inner = Array.fold_left ( +. ) 0.0 links.Target.call_us -. inner0 in
    stmt_us := !stmt_us +. (dt -. (links.Target.codec_us -. codec0));
    covered_us := !covered_us +. !layer_us +. inner;
    self_us := !self_us +. (dt -. (links.Target.link_us -. link0));
    Target.codec client (Protocol.Exec_line line)
      (if o.Target.ok then Protocol.Output o.Target.output else Protocol.Failed o.Target.output);
    incr ops;
    let into =
      match Gen.class_of op with
      | Gen.Access ->
        incr n_access;
        Some by_access
      | Gen.Update ->
        incr n_update;
        Some by_update
      | Gen.Control -> None
    in
    Option.iter (fun a -> Array.iteri (fun i v -> a.(i) <- a.(i) + v - c0.(i)) c1) into
  done;
  let traced_s = elapsed_s t0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  let n = float_of_int !ops in
  let bad = gate target s d.log + links.Target.codec_errors + client.Target.codec_errors in
  (* the untraced twin: the same operations on a fresh world *)
  let twin_target, _ = set_up w s in
  let twin = loop w s ~seed twin_target in
  warm_up sizes twin;
  let t1 = Measure.now_ns () in
  for _ = 1 to !ops do
    ignore (step twin)
  done;
  let untraced_s = elapsed_s t1 in
  let col c =
    let rec find i = if Target.tracked.(i) = c then i else find (i + 1) in
    find 0
  in
  let per_access c = ratio_i by_access.(col c) !n_access in
  let per_update c = ratio_i by_update.(col c) !n_update in
  let total c = by_access.(col c) + by_update.(col c) in
  let module M = Dbproc_obs.Metrics in
  let m name unit value = { name; unit; value; exact = false } in
  let x name unit value = { name; unit; value; exact = true } in
  let per_tag f = Array.to_list (Array.mapi f Target.tags) in
  let calls i = links.Target.calls.(i) - calls0.(i) in
  let metrics =
    [
      m "lang.parse_us" "us" (Mirror.mean_us l.Mirror.parse);
      x "lang.plan_cache_hit_ratio" "ratio"
        (ratio_i (total M.Plan_cache_hits) (total M.Plan_cache_hits + total M.Plan_cache_misses));
      x "lang.words_per_stmt" "words" (Mirror.words_per_call l.Mirror.parse);
      m "query.plan_us" "us" (Mirror.mean_us l.Mirror.plan);
      m "query.exec_us" "us" (Mirror.mean_us l.Mirror.query);
      x "query.tuples_scanned_per_access" "count" (per_access M.Tuples_scanned);
      x "query.words_per_exec" "words" (Mirror.words_per_call l.Mirror.query);
      x "index.hash_probes_per_access" "count" (per_access M.Hash_probes);
      x "index.btree_range_scans_per_access" "count" (per_access M.Btree_range_scans);
      x "index.btree_inserts_per_update" "count" (per_update M.Btree_inserts);
      m "storage.base_write_us" "us" (Mirror.mean_us l.Mirror.base_write);
      x "storage.pages_read_per_update" "count" (per_update M.Pages_read);
      x "storage.pages_written_per_update" "count" (per_update M.Pages_written);
      x "storage.pages_read_per_access" "count" (per_access M.Pages_read);
      m "proc.access_us" "us" (Mirror.mean_us l.Mirror.access);
      m "proc.maintain_us" "us" (Mirror.mean_us l.Mirror.maintain);
      x "proc.cache_hit_ratio" "ratio"
        (ratio_i by_access.(col M.Cache_hits)
           (by_access.(col M.Cache_hits) + by_access.(col M.Cache_misses)));
      x "proc.invalidations_per_update" "count" (per_update M.Invalidations);
      x "proc.ilock_probes_per_update" "count" (per_update M.Ilock_probes);
      x "rete.tokens_per_update" "count" (per_update M.Rete_tokens);
      x "rete.join_activations_per_update" "count" (per_update M.Rete_join_activations);
      x "avm.delta_set_ops_per_update" "count" (per_update M.Delta_set_ops);
      m "net.codec_us" "us" (ratio (links.Target.codec_us -. codec_us0 +. client.Target.codec_us) n);
      x "net.bytes_per_op" "bytes"
        (ratio (float_of_int (links.Target.bytes - bytes0 + client.Target.bytes)) n);
    ]
    @ per_tag (fun i tag -> x ("coord.rpcs_per_op." ^ tag) "count" (ratio (float_of_int (calls i)) n))
    @ per_tag (fun i tag ->
          m ("coord.rpc_us." ^ tag) "us"
            (ratio (links.Target.call_us.(i) -. call_us0.(i)) (float_of_int (calls i))))
    @ [
        m "coord.self_us" "us" (if w.Gen.cluster then ratio !self_us n else 0.0);
        x "coord.tuples_shipped_per_access" "count" (per_access M.Cluster_tuples_shipped);
        x "repl.records_shipped_per_write" "count" (per_update M.Repl_records_shipped);
        x "txn2pc.participants_per_commit" "count"
          (ratio_i (total M.Txn2pc_participants) (total M.Txn2pc_commits));
        m "gc.major_collections_per_kop" "count" (ratio (1000.0 *. float_of_int majors) n);
        m "trace_overhead" "x" (ratio traced_s untraced_s);
        m "trace.coverage" "ratio" (ratio !covered_us !stmt_us);
      ]
  in
  {
    correct = bad = 0;
    attempted = d.attempted;
    failed = d.failed;
    notes =
      [
        Printf.sprintf "traced %d operations in %.2f s; the untraced twin took %.2f s" !ops
          traced_s untraced_s;
        Printf.sprintf "gate: %d mismatches" bad;
      ];
    metrics;
    tails = true;
  }

(* ------------------------------------------------------------- output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let run ~sizes ~workload ~seed ~seconds ~trace =
  let r = (if trace then traced else untraced) sizes workload ~seed ~seconds in
  List.iter (fun m -> if not (Float.is_finite m.value) then fail "%s is not finite" m.name) r.metrics;
  r
