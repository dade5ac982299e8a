#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--seconds 10] [--trace 0|1] [--out FILE]

Run from the repository root.  For every workload it prints the median,
the quartiles (as statistics.quantiles(values, n=4) gives them) and the
spread, (q3 - q1) / median, of every metric, and marks a spread at or
above a third of the metric's bound in BENCHMARK.json with '!', and the
share of CPU time stolen by the hypervisor while it ran.  The printed
wall-clock figures, which are not gated, are listed after the JSON ones.  --out keeps
every run's result as JSON.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_times():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    ok = True
    cpu0 = cpu_times()
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", args.seconds, "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            # the printed, ungated wall-clock figures
            for line in lines:
                m = re.match(r"(\w+) ([-\d.e+]+) (\S+): (lower|upper) quartile", line)
                if m:
                    result["metrics"][m[1]] = {"value": float(m[2]), "unit": m[3]}
            if not result["correct"] or result["failed"]:
                ok = False
            runs[w].append({"seed": seed, **result})
            print(f"{w} seed {seed} done", file=sys.stderr, flush=True)
        print(f"\n{w}  ({len(runs[w])} runs, seeds {args.seeds})")
        print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in runs[w][0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "!" if name in bounds and name != "setup_s" and spread >= bounds[name] / 3 else ""
            print(f"{name:38} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%}{flag}")
    delta = [b - a for a, b in zip(cpu0, cpu_times())]
    print(f"\nsteal share over these runs: {delta[7] / sum(delta):.2%} of all CPU time "
          f"(/proc/stat), {delta[0] / sum(delta):.1%} user")
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    if not ok:
        sys.exit("some run failed its correctness gate or had failed statements")


if __name__ == "__main__":
    main()
