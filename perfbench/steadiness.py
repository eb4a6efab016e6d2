#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and end-to-end metric it prints the median of the
runs and the distance between the first and third quartile as a share
of the median (`statistics.quantiles(values, n=4)`), next to the bound
in BENCHMARK.json. Run from the repository root:

    python3 perfbench/steadiness.py --workloads read-resident --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --trace 0 --out runs.json
    python3 perfbench/steadiness.py --compare setA.json setB.json

`--compare` reads two `--out` files of the same code and prints, per
metric, both sets' medians and how much worse the second is than the
first as a share of the first, next to the bound.

The benchmark must be built already (the first run builds it otherwise,
and that run's set-up is not comparable).
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    steal = [float(m.group(1)) for l in lines
             if (m := re.search(r"([0-9.]+) % host steal", l))]
    result["steal_pct"] = steal[0] if steal else None
    return result


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="also write every run's result here (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare the medians of two --out files instead of running")
    args = ap.parse_args()
    if args.compare:
        compare(bench, *args.compare)
        return

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            r = run(bench["command"], workload, seed, args.seconds, args.trace)
            runs.append(r)
            if args.out:
                json.dump({**results, workload: runs}, open(args.out, "w"), indent=1)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"host steal={r['steal_pct']}%", flush=True)
        results[workload] = runs
        print(f"\n{workload}: {'metric':<34} {'median':>14} {'IQR/median':>11} {'bound':>7}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  <-- over a third of the bound" if spread > bound / 3 else ""
            print(f"  {name:<42} {med:>14.4f} {spread:>10.2%} "
                  f"{'' if bound is None else f'{bound:>6.2f}'}{flag}")
        print()
    if args.out:
        json.dump(results, open(args.out, "w"), indent=1)
    print(f"largest spread as a share of its bound: {worst:.2f}")


def compare(bench, path_a, path_b):
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    a, b = json.load(open(path_a)), json.load(open(path_b))
    worst = 0.0
    for workload in a:
        if workload not in b:
            continue
        print(f"{workload}: {'metric':<20} {'median A':>14} {'median B':>14} "
              f"{'B worse by':>11} {'bound':>7}")
        for name in bounds:
            med = [statistics.median(r["metrics"][name]["value"] for r in runs)
                   for runs in (a[workload], b[workload])]
            sign = 1 if better[name] == "lower" else -1
            worse = sign * (med[1] - med[0]) / abs(med[0]) if med[0] else 0.0
            worst = max(worst, worse / bounds[name])
            flag = "  <-- over the bound" if worse > bounds[name] else ""
            print(f"  {name:<26} {med[0]:>14.4f} {med[1]:>14.4f} {worse:>10.2%} "
                  f"{bounds[name]:>7.2f}{flag}")
        print()
    print(f"largest change for the worse as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
