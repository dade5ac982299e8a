(* The benchmark's own determinism self-test: its inputs are a pure
   function of (workload, seed), and everything it reports as exact —
   simulated cost and the count-based per-layer metrics — repeats for a
   seed and moves with another. *)

open Dbproc_perfbench

let lines w seed ~ops =
  let s = Gen.setup w ~seed in
  let st = Gen.stream w ~seed s in
  Gen.setup_lines s @ List.init ops (fun _ -> Gen.line_of (Gen.next st))

let test_generator w () =
  let a = lines w 7 ~ops:3000 and b = lines w 7 ~ops:3000 in
  Alcotest.(check bool) "same seed, same statements" true (a = b);
  Alcotest.(check bool) "another seed, other statements" false (a = lines w 8 ~ops:3000)

(* Small sizes keep the test quick; the CLI uses [Runner.default_sizes]. *)
let sizes = { Runner.setup_reps = 1; warmup_ops = 50; min_samples = 0 }

let exact w ~seed ~trace =
  let r = Runner.run ~sizes ~workload:w ~seed ~seconds:0.02 ~trace in
  Alcotest.(check bool) "the correctness gate holds" true r.Runner.correct;
  Alcotest.(check int) "no statement failed" 0 r.Runner.failed;
  List.filter_map
    (fun m -> if m.Runner.exact then Some (m.Runner.name, m.Runner.value) else None)
    r.Runner.metrics

let test_exact w () =
  List.iter
    (fun trace ->
      let a = exact w ~seed:3 ~trace and b = exact w ~seed:3 ~trace in
      Alcotest.(check bool) "some metrics are exact" true (a <> []);
      List.iter2
        (fun (name, x) (_, y) -> Alcotest.(check (float 0.0)) (name ^ " repeats") x y)
        a b;
      Alcotest.(check bool) "another seed moves them" false (a = exact w ~seed:4 ~trace))
    [ false; true ]

let () =
  let per f = List.map (fun w -> Alcotest.test_case w.Gen.name `Quick (f w)) Gen.workloads in
  Alcotest.run "perfbench"
    [ ("generator", per test_generator); ("exact metrics", per test_exact) ]
