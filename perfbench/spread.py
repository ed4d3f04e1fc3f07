#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs the BENCHMARK.json command once per seed for each workload and
reports, per end-to-end metric, the median of the runs and the distance
between the first and third quartiles as a share of the median (the
spread the metric's bound must cover). Run from the repository root:

    python3 perfbench/spread.py --runs 10 --seed0 1 --out .bench_build/spread.json
    python3 perfbench/spread.py --runs 5 --workloads serve-mix

Runs are sequential, so they do not compete for the CPUs they measure.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0+i")
    ap.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--out", help="write every run's result and the summary as JSON")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": {}, "summary": {}}
    ok = True
    for wl in names:
        values = {m: [] for m in bounds}
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}")
            res = json.loads(lines[-1])
            ctx = json.loads(lines[-2]) if len(lines) > 1 else {}
            runs.append({"seed": seed, "result": res, "details": ctx})
            if not res["correct"]:
                ok = False
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds), file=sys.stderr, flush=True)
        summary = {}
        for m, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("inf") if q[2] != q[0] else 0.0
            summary[m] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread, "bound": bounds[m]}
        report["runs"][wl] = runs
        report["summary"][wl] = summary
        print(f"\n{wl}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        print(f"  {'metric':<36}{'median':>14}{'spread':>9}{'bound':>8}")
        for m, s in summary.items():
            b = s["bound"]
            flag = "" if s["spread"] <= b / 3 else ("  > bound/3" if s["spread"] <= b else "  > BOUND")
            print(f"  {m:<36}{s['median']:>14.6g}{s['spread']:>9.4f}{b:>8.2f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    if not ok:
        sys.exit("some runs failed their correctness checks")


if __name__ == "__main__":
    main()
