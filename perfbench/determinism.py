#!/usr/bin/env python3
"""Determinism test of the benchmark itself.

On `read-resident`, two runs with the same seed must report exactly the
same counts: `pct_data_compared` (untraced run) and
`core.nodes_per_query`, `sig.bytes_decoded_per_query`,
`pager.physical_reads_per_query` (traced run). One more seed is run once
to show the counts follow the data rather than a value tuned to the
first seed. That the same seed gives identical request streams is a unit
test (`cargo test --manifest-path perfbench/Cargo.toml`). Run from the
repository root:

    python3 perfbench/determinism.py [--seed 1] [--other-seed 7919]

Exits 1 when a count differs or a run reports `correct: false`.
"""

import argparse
import json
import subprocess
import sys

COUNTS = {
    0: ["pct_data_compared"],
    1: ["core.nodes_per_query", "sig.bytes_decoded_per_query",
        "pager.physical_reads_per_query"],
}


def run(cmd, workload, seed, trace):
    # The counts come from a fixed pass after the timed window, so a short
    # window is enough.
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", "4", "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=7919)
    args = ap.parse_args()
    cmd = json.load(open("BENCHMARK.json"))["command"]
    ok = True
    for workload in ["read-resident"]:
        for trace, names in COUNTS.items():
            a = run(cmd, workload, args.seed, trace)
            b = run(cmd, workload, args.seed, trace)
            c = run(cmd, workload, args.other_seed, trace)
            for r in (a, b, c):
                ok &= r["correct"]
            for name in names:
                va, vb, vc = (r["metrics"][name]["value"] for r in (a, b, c))
                same = va == vb
                ok &= same
                print(f"{workload:<14} {name:<32} seed {args.seed}: {va!r} / {vb!r} "
                      f"{'repeat' if same else 'DIFFER'}; seed {args.other_seed}: {vc!r}")
    print("determinism: " + ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
