#!/usr/bin/env python3
"""Checks that the benchmark is steady and its exact counters repeat.

Run from the root of a checkout:

  python3 cimbench/steady.py spread --workload serve-open --seeds 1-10
      Runs the untraced workload once per seed and prints, for every
      end-to-end metric, the median and the interquartile range as a share
      of the median next to the metric's bound in BENCHMARK.json.

  python3 cimbench/steady.py exact --workload infer-large --seed 3
      Runs the traced workload twice at one seed and checks that every
      exact per-layer counter (simulated work, static instructions, search
      and estimate counts) is bit-for-bit identical between the two runs.
"""
import argparse
import json
import statistics
import subprocess
import sys

# Per-layer metrics that are counts of deterministic work: a change that
# only speeds the simulator up must leave them identical.
EXACT_PREFIXES = (
    "sim.cycles.", "sim.instructions.", "sim.macs.", "sim.noc_bytes.",
    "sim.energy_pj.", "compiler.static_instrs.", "compiler.estimates",
    "search.sims", "search.estimates", "core.lane_fallbacks",
)


def run(bench, workload, seed, trace, allow_failed=False):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or (res["failed"] and not allow_failed):
        sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}\n{out}")
    return res


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(bench, args):
    values = {}
    for s in seeds(args.seeds):
        res = run(bench, args.workload, s, 0)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {s}: " + " ".join(f"{k}={v['value']:.4f}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    worst = 0.0
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, share / m["bound"])
        print(f"{args.workload:12s} {m['name']:14s} median {med:12.4f} {m['unit']:4s} "
              f"IQR/median {share:6.3f}  bound {m['bound']}  ({share / m['bound']:.2f} of bound)")
    print(f"worst spread is {worst:.2f} of its bound (aim: below 0.33)")


def exact(bench, args):
    a = run(bench, args.workload, args.seed, 1, allow_failed=True)["metrics"]
    b = run(bench, args.workload, args.seed, 1, allow_failed=True)["metrics"]
    bad = 0
    for name in sorted(a):
        if name.startswith(EXACT_PREFIXES):
            same = a[name]["value"] == b[name]["value"]
            bad += not same
            print(f"{'ok  ' if same else 'DIFF'} {name:32s} {a[name]['value']!r} {b[name]['value']!r}")
    if bad:
        sys.exit(f"{bad} exact counters differ between two runs at seed {args.seed}")
    print("exact counters repeat bit-for-bit")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["spread", "exact"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    (spread if args.mode == "spread" else exact)(bench, args)


if __name__ == "__main__":
    main()
