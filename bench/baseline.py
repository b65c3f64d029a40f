#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 bench/baseline.py [--sets 2] [--seeds 10] [--workload NAME ...]
                              [--write]

Runs ``bench/run.py`` once per (set, seed, workload), seeds interleaved
across workloads so that a slow stretch of the host hits all of them. Set
``k`` uses seeds ``k*seeds+1 .. (k+1)*seeds``. For every end-to-end metric
it prints, per workload and set, the median and the spread (distance
between the first and third quartile as a share of the median), plus how
far the second set's median moved from the first's in the metric's bad
direction. ``--write`` stores every run and the overall medians in
``bench/baseline.json``; ``bench/run.py`` turns those medians into the
reference bands of ``BENCH_e2e.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = []
    for k in range(args.sets):
        seeds = list(range(k * args.seeds + 1, (k + 1) * args.seeds + 1))
        runs: dict[str, list] = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                t0 = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", w,
                     "--seed", str(seed)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600,
                )
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                runs[w].append({
                    "seed": seed,
                    "seconds": time.perf_counter() - t0,
                    "correct": result["correct"] and done.returncode == 0,
                    "metrics": {m: v["value"]
                                for m, v in result["metrics"].items()},
                    # Informational lines: "workload (name) value".
                    "info": {
                        parts[1].strip("()"): float(parts[2])
                        for parts in (ln.split() for ln in lines[:-1])
                        if len(parts) == 3 and parts[1].startswith("(")
                    },
                })
                print(f"set {k} seed {seed} {w}: "
                      f"{runs[w][-1]['seconds']:.1f} s, "
                      f"correct={runs[w][-1]['correct']}", flush=True)
        sets.append({"seeds": seeds, "runs": runs})

    print(f"\n{'workload':14s} {'metric':13s} "
          + " ".join(f"{'median':>10s} {'spread':>7s}" for _ in sets)
          + f" {'drift':>7s} {'bound':>6s}")
    medians: dict[str, dict] = {}
    for w in workloads:
        medians[w] = {}
        for m in metrics:
            cols, meds = [], []
            for s in sets:
                vals = [r["metrics"][m["name"]] for r in s["runs"][w]]
                meds.append(statistics.median(vals))
                cols.append(f"{meds[-1]:10.4g} {spread(vals):7.1%}")
            worse = 1 if m["better"] == "lower" else -1
            drift = worse * (meds[-1] - meds[0]) / meds[0]
            print(f"{w:14s} {m['name']:13s} {' '.join(cols)} "
                  f"{drift:7.1%} {m['bound']:6.0%}")
            medians[w][m["name"]] = statistics.median(
                r["metrics"][m["name"]] for s in sets for r in s["runs"][w]
            )
    if args.write:
        from repro.util.benchmeta import host_metadata

        path = ROOT / "bench" / "baseline.json"
        path.write_text(json.dumps(
            {"host": host_metadata(), "run_seconds": spec["run_seconds"],
             "sets": sets, "median": medians},
            indent=1,
        ) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT / "src")
    sys.exit(main())
