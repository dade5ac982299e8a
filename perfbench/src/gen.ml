(* Workload generation: statement text as a pure function of (workload,
   seed).  The benchmark's own SplitMix64 keeps the inputs independent of
   the program's PRNG, so a change to the program can never change what
   the benchmark feeds it. *)

module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
end

(* Sim scale: the paper's defaults divided by ten. *)
let n = 10_000 (* R1 tuples: 250 pages of 40 *)
let n_r2 = 1_000
let n_r3 = 1_000
let n1 = 100 (* P1 selections *)
let n2 = 100 (* P2 joins *)
let f_width = 10 (* f = 0.001 of N *)
let f2_width = 100 (* f2 = 0.1 of |R2| *)
let shared = 50 (* SF = 0.5: P2 procedures reusing a P1 restriction *)

(* R2/R3 keys are spaced so that every relation spans the cluster's key
   domain; R1 ids are even, appended ids odd, so ids never collide. *)
let key_step = 20
let key_domain = 2 * n
let nodes = 3

type model = Two_way | Three_way

type workload = {
  name : string;
  strategy : string;
  model : model;
  cluster : bool;
  mix : [ `Exec | `Replace | `Append | `Txn ] array;
      (* one pass of the operation mix: exact counts, shuffled per pass *)
  hot : bool; (* 80% of accesses go to a hot 20% of the procedures *)
  rate : float;
      (* nominal operations per second on the reference machine (2-vCPU
         Xeon): a run measures [seconds *. rate] operations, so both sides
         of a comparison do the same work *)
}

let mix_of spec = Array.concat (List.map (fun (k, c) -> Array.make c k) spec)

let workloads =
  [
    {
      name = "ci-hot-read";
      strategy = "ci";
      model = Two_way;
      cluster = false;
      mix = mix_of [ (`Exec, 19); (`Replace, 1) ];
      hot = true;
      rate = 20_000.0;
    };
    {
      name = "ar-write-heavy";
      strategy = "ar";
      model = Two_way;
      cluster = false;
      mix = mix_of [ (`Exec, 10); (`Replace, 10) ];
      hot = false;
      rate = 4_200.0;
    };
    {
      name = "rvm-3way";
      strategy = "rvm";
      model = Three_way;
      cluster = false;
      mix = mix_of [ (`Exec, 12); (`Replace, 2); (`Append, 1) ];
      hot = false;
      rate = 7_500.0;
    };
    {
      name = "cluster-mixed";
      strategy = "avm";
      model = Two_way;
      cluster = true;
      (* 14 accesses and 6 write statements per pass of 20: one replace,
         one append and one 4-statement transaction *)
      mix = mix_of [ (`Exec, 14); (`Replace, 1); (`Append, 1); (`Txn, 1) ];
      hot = false;
      rate = 3_600.0;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type op =
  | Exec of int (* procedure index: P1 first, then P2 *)
  | Replace of { id : int; sel : int }
  | Append of { id : int; a : int; sel : int }
  | Begin
  | Commit

type cls = Access | Update | Control

(* "update" is every write statement, commit included; begin is neither *)
let class_of = function
  | Exec _ -> Access
  | Replace _ | Append _ | Commit -> Update
  | Begin -> Control

let proc_name i = if i < n1 then Printf.sprintf "P1_%d" i else Printf.sprintf "P2_%d" (i - n1)

let line_of = function
  | Exec i -> "exec " ^ proc_name i
  | Replace { id; sel } -> Printf.sprintf "replace R1 (sel = %d) where R1.id = %d" sel id
  | Append { id; a; sel } ->
    Printf.sprintf "append to R1 (id = %d, a = %d, sel = %d, pad = 0)" id a sel
  | Begin -> "begin"
  | Commit -> "commit"

type setup = {
  data : string list; (* schema, load and indexes *)
  strategy : string; (* the [strategy] line *)
  defines : string list; (* [define proc] lines *)
  bodies : string array; (* each procedure's retrieve text *)
  r1_ids : int array; (* R1 ids in load order *)
}

let setup w ~seed =
  let rng = Rng.create seed in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let r1_ids = Array.map (fun p -> 2 * p) perm in
  (* R1 is loaded in [sel] order, so an f-interval on [sel] is clustered
     under the B-tree, as in the paper *)
  let r1 =
    List.init n (fun sel ->
        Printf.sprintf "append to R1 (id = %d, a = %d, sel = %d, pad = 0)" r1_ids.(sel)
          (key_step * Rng.int rng n_r2) sel)
  in
  let r2 =
    List.init n_r2 (fun j ->
        Printf.sprintf "append to R2 (b = %d, c = %d, sel2 = %d, pad = 0)" (key_step * j)
          (key_step * Rng.int rng n_r3) j)
  in
  let r3 =
    List.init n_r3 (fun j ->
        Printf.sprintf "append to R3 (dkey = %d, e = %d, pad = 0)" (key_step * j) j)
  in
  let data =
    [
      "create R1 (id = int, a = int, sel = int, pad = int)";
      "create R2 (b = int, c = int, sel2 = int, pad = int)";
      "create R3 (dkey = int, e = int, pad = int)";
    ]
    @ r1 @ r2 @ r3
    @ [
        "index R1 btree on sel";
        "index R2 hash on b primary";
        "index R3 hash on dkey primary";
      ]
  in
  let start total width = Rng.int rng (total - width + 1) in
  let p1_starts = Array.init n1 (fun _ -> start n f_width) in
  let sel_range s = Printf.sprintf "R1.sel >= %d and R1.sel < %d" s (s + f_width) in
  let p1 = Array.map (fun s -> "retrieve (R1.all) where " ^ sel_range s) p1_starts in
  let p2 =
    Array.init n2 (fun i ->
        let s = if i < shared then p1_starts.(i mod n1) else start n f_width in
        let s2 = start n_r2 f2_width in
        let r2_range = Printf.sprintf "R2.sel2 >= %d and R2.sel2 < %d" s2 (s2 + f2_width) in
        match w.model with
        | Two_way ->
          Printf.sprintf "retrieve (R1.all, R2.all) where %s and R1.a = R2.b and %s"
            (sel_range s) r2_range
        | Three_way ->
          Printf.sprintf
            "retrieve (R1.all, R2.all, R3.all) where %s and R1.a = R2.b and %s and R2.c = \
             R3.dkey"
            (sel_range s) r2_range)
  in
  let bodies = Array.append p1 p2 in
  {
    data;
    strategy = "strategy " ^ w.strategy;
    defines =
      Array.to_list
        (Array.mapi (fun i b -> Printf.sprintf "define proc %s as %s" (proc_name i) b) bodies);
    bodies;
    r1_ids;
  }

let setup_lines s = s.data @ (s.strategy :: s.defines)

(* A shuffled deck: exact proportions within every pass through it, so
   a run's mix never drifts with the seed. *)
type 'a deck = { cards : 'a array; mutable pos : int }

let deck_of cards = { cards = Array.copy cards; pos = Array.length cards }

let draw rng d =
  if d.pos = Array.length d.cards then begin
    Rng.shuffle rng d.cards;
    d.pos <- 0
  end;
  d.pos <- d.pos + 1;
  d.cards.(d.pos - 1)

(* The operation stream.  Its state evolves only through [next], so two
   streams from the same (workload, seed) yield the same sequence. *)
type stream = {
  w : workload;
  rng : Rng.t;
  kinds : [ `Exec | `Replace | `Append | `Txn ] deck;
  p1 : bool deck;
      (* two P1 accesses per P2 access: a 1:1 mix would put the median
         access on the boundary between the two latency modes *)
  hot : bool deck; (* 4 hot draws and 1 cold per 5 accesses *)
  all : int array array; (* procedures by type: P1, P2 *)
  hot_set : int array array; (* the hot 20% of each type *)
  cold_set : int array array;
  mutable ids : int array; (* live R1 ids: replace targets *)
  mutable live : int;
  mutable appended : int;
  mutable pending : op list; (* rest of an open transaction *)
}

let procs = n1 + n2

let stream w ~seed (s : setup) =
  let rng = Rng.create (seed lxor 0x5eed5eed) in
  let all = [| Array.init n1 Fun.id; Array.init n2 (fun i -> n1 + i) |] in
  let shuffled = Array.map Array.copy all in
  Array.iter (Rng.shuffle rng) shuffled;
  let cut a = Array.length a / 5 in
  {
    w;
    rng;
    kinds = deck_of w.mix;
    p1 = deck_of [| true; true; false |];
    hot = deck_of [| true; true; true; true; false |];
    all;
    hot_set = Array.map (fun a -> Array.sub a 0 (cut a)) shuffled;
    cold_set = Array.map (fun a -> Array.sub a (cut a) (Array.length a - cut a)) shuffled;
    ids = Array.append s.r1_ids (Array.make n 0);
    live = n;
    appended = 0;
    pending = [];
  }

let pick st a = a.(Rng.int st.rng (Array.length a))
let live_id st = st.ids.(Rng.int st.rng st.live)
let owner id = min (nodes - 1) (id * nodes / key_domain)

let access st =
  let t = if draw st.rng st.p1 then 0 else 1 in
  let pool =
    if not st.w.hot then st.all.(t)
    else if draw st.rng st.hot then st.hot_set.(t)
    else st.cold_set.(t)
  in
  Exec (pick st pool)

let replace st id = Replace { id; sel = Rng.int st.rng n }

(* Fresh odd ids: a permutation of the odd keys below the key domain,
   then beyond it (clamped to the last node by the coordinator). *)
let append st =
  let j = st.appended in
  st.appended <- j + 1;
  let id = (2 * (j * 7919 mod n)) + 1 + (key_domain * (j / n)) in
  if st.live = Array.length st.ids then
    st.ids <- Array.append st.ids (Array.make (Array.length st.ids) 0);
  st.ids.(st.live) <- id;
  st.live <- st.live + 1;
  Append { id; a = key_step * Rng.int st.rng n_r2; sel = Rng.int st.rng n }

(* Whether the stream is between transactions: a measured phase only
   ends here, so no transaction is left open. *)
let idle st = st.pending = []

let next st =
  match st.pending with
  | op :: rest ->
    st.pending <- rest;
    op
  | [] -> (
    match draw st.rng st.kinds with
    | `Exec -> access st
    | `Replace -> replace st (live_id st)
    | `Append -> append st
    | `Txn ->
      (* two replaces on different shards: a two-participant 2PC *)
      let k1 = live_id st in
      let rec other () =
        let k = live_id st in
        if owner k <> owner k1 then k else other ()
      in
      let k2 = other () in
      let r2 = replace st k2 in
      let r1 = replace st k1 in
      st.pending <- [ r1; r2; Commit ];
      Begin)
