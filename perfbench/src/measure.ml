(* Clock and sample statistics. *)

(* CLOCK_MONOTONIC in nanoseconds; [Unix.gettimeofday] ticks in whole
   microseconds, which would quantise a 16 us access by about 6%. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_since t0 = float_of_int (now_ns () - t0) /. 1e3

(* A growable buffer of float samples. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 4096 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

(* Nearest-rank percentile, with the number of samples above it.  A
   percentile is only reported when at least ten samples lie beyond it. *)
let percentile s p =
  let sorted = Array.sub s.a 0 s.n in
  Array.sort Float.compare sorted;
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int s.n))) in
  let v = sorted.(rank - 1) in
  let beyond = ref 0 in
  Array.iter (fun x -> if x > v then incr beyond) sorted;
  (v, !beyond)

(* Peak resident set of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find
