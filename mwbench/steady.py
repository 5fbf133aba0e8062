#!/usr/bin/env python3
"""Steadiness tool for the repository benchmark.

Run a set: every workload of BENCHMARK.json N times, untraced, for its
run_seconds, each run with another seed, and print per end-to-end metric its
median, quartiles, min/max and spread (the distance between the quartiles as
a share of the median, quartiles as statistics.quantiles(values, n=4) gives
them):

    python3 mwbench/steady.py run --runs 10 --out set1.json [--first-seed 1]

Compare two sets: per workload and metric, whether the two medians differ,
in either direction, by more than the metric's bound in BENCHMARK.json,
whether each set's spread stays within the bound (setup_s excepted), and
whether the share of failed operations is the same:

    python3 mwbench/steady.py compare set1.json set2.json

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = ["python3", "mwbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                         check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"steady: {' '.join(cmd)} exited {out.returncode}")
    return json.loads(lines[-1]), [l for l in lines[:-1] if l.startswith("#")]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def cmd_run(args):
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    result = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, notes = run_once(workload, seed, seconds)
            kept = [n for n in notes if n.startswith(("# host", "# p99", "# city"))]
            runs.append({"seed": seed, "result": res, "notes": kept})
            print(f"{workload} seed {seed}: attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        result["workloads"][workload] = runs
        print_set(workload, runs)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
    return 0


def metric_values(runs):
    names = runs[0]["result"]["metrics"].keys()
    return {n: [r["result"]["metrics"][n]["value"] for r in runs] for n in names}


def print_set(workload, runs):
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'min':>14}{'max':>14}"
          f"{'spread':>9}")
    for name, values in metric_values(runs).items():
        s = summary(values)
        print(f"  {name:<28}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
              f"{s['min']:>14.6g}{s['max']:>14.6g}{s['spread']:>9.4f}")
    shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
    print(f"  failed share per run: {shares}")


def cmd_compare(args):
    bench = load_benchmark()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    for workload, runs_a in first["workloads"].items():
        runs_b = second["workloads"].get(workload)
        if not runs_b:
            print(f"{workload}: missing from {args.second}")
            ok = False
            continue
        print(f"\n{workload}")
        print(f"  {'metric':<18}{'median 1':>14}{'median 2':>14}{'change':>10}{'spread 1':>10}"
              f"{'spread 2':>10}{'bound':>8}  verdict")
        values_a, values_b = metric_values(runs_a), metric_values(runs_b)
        for name, spec in metrics.items():
            sa, sb = summary(values_a[name]), summary(values_b[name])
            # Signed so that positive is worse; agreement is two-sided.
            worse = (sb["median"] - sa["median"]) / sa["median"]
            if spec["better"] == "higher":
                worse = -worse
            bound = spec["bound"]
            good = abs(worse) <= bound
            if name != "setup_s":
                good = good and sa["spread"] <= bound and sb["spread"] <= bound
            ok = ok and good
            print(f"  {name:<18}{sa['median']:>14.6g}{sb['median']:>14.6g}{worse:>10.4f}"
                  f"{sa['spread']:>10.4f}{sb['spread']:>10.4f}{bound:>8.3f}  "
                  f"{'agree' if good else 'DISAGREE'}")
        share_a = {r["result"]["failed"] / r["result"]["attempted"] for r in runs_a}
        share_b = {r["result"]["failed"] / r["result"]["attempted"] for r in runs_b}
        same = len(share_a | share_b) == 1
        ok = ok and same
        print(f"  failed share: {sorted(share_a)} vs {sorted(share_b)} "
              f"{'same' if same else 'DIFFERENT'}")
    print("\nall agree" if ok else "\nsome metrics disagree")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--out", required=True)
    run.add_argument("--first-seed", type=int, default=1)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
