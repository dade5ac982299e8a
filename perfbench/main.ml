(* perfbench: drive one workload in-process and print its metrics.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   Human-readable notes go first; the last line of standard output is one
   JSON object with the keys correct, attempted, failed and metrics.  The
   exit code is 0 only when every output passed the correctness gate and
   every percentile had ten samples beyond it. *)

open Dbproc_perfbench

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.Gen.name) Gen.workloads));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := Gen.find v;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
    let r = Runner.run ~sizes:Runner.default_sizes ~workload ~seed ~seconds ~trace in
    List.iter print_endline r.Runner.notes;
    List.iter
      (fun m -> Printf.printf "%s %.6g %s\n" m.Runner.name m.Runner.value m.Runner.unit)
      r.Runner.metrics;
    if not r.Runner.tails then begin
      prerr_endline "perfbench: a percentile had fewer than ten samples beyond it";
      exit 1
    end;
    print_endline (Runner.to_json r);
    if not r.Runner.correct then exit 1
  | _ -> usage ()
