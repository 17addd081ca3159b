#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and prints, per metric, the median and the interquartile
distance as a share of the median (Python's statistics.quantiles,
n=4), next to the metric's bound. A spread at or above a third of its
bound is flagged WIDE, `setup_s` included.

    python3 perfbench/spread.py [--runs 10] [--seed0 100] [--workload NAME ...]
                                [--save FILE] [--against FILE]

Run from the repository root. `--save` writes every value to FILE as
JSON; `--against` reads such a file from an earlier set and prints how
far each median moved from it, as a share of the earlier median (worse
direction positive), next to the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(spec, names, runs, seed0, trace):
    """{workload: {metric: [values]}}, or None when a run fails."""
    out = {}
    for name in names:
        values = {}
        for i in range(runs):
            seed = seed0 + i
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                      f"\n{proc.stderr[-2000:]}")
                return None
            result = json.loads(last)
            assert result["correct"], f"{name} seed {seed}: incorrect"
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        out[name] = values
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results = run_set(spec, names, args.runs, args.seed0, args.trace)
    if results is None:
        return 1
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    earlier = json.load(open(args.against)) if args.against else {}

    worst = (0.0, "")
    for name, values in results.items():
        print(f"== {name} ({args.runs} runs)")
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            m = metrics.get(k)
            line = f"  {k:<28} median {med:<14.6g} spread {spread:7.4f}"
            if m is not None:
                bound = m["bound"]
                if spread / bound > worst[0]:
                    worst = (spread / bound, f"{name} {k}")
                line += f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
                before = earlier.get(name, {}).get(k)
                if before:
                    old = statistics.median(before)
                    sign = 1 if m["better"] == "lower" else -1
                    drift = sign * (med - old) / old
                    line += f"  moved {drift:+.4f} {'ok' if drift <= bound else 'WORSE'}"
            print(line)
            print("      " + " ".join(f"{v:.6g}" for v in vs))
    print(f"largest spread/bound: {worst[0]:.3f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
