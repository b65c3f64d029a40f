#!/usr/bin/env python3
"""The repository benchmark: SID -> MINPSID study time on four workloads.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--update-expected]

For each workload (default: all, in ``BENCHMARK.json`` order) it

1. times fresh interpreters importing ``repro`` and building the workload's
   apps (``setup_s``),
2. for ``warm-rerun``, fills a cache from a separate, untimed process,
3. runs the workload in a fresh interpreter (``bench/study.py``) that
   repeats the study for ``--seconds`` and checks its outputs,

then prints every metric as ``workload metric value unit`` and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 1`` reports the per-layer metrics instead of the end-to-end ones
and writes ``bench/out/trace-<workload>.json`` (Chrome trace events).
Untraced runs also write ``bench/out/BENCH_e2e.json``.

Every ``REPRO_*`` variable is removed before anything runs; the program
sees only the study configuration. The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"
BASELINE = ROOT / "bench" / "baseline.json"

#: Fresh-interpreter launches behind one ``setup_s`` value, and host-speed
#: kernel samples taken before each.
SETUP_LAUNCHES = 5
SETUP_KERNELS = 4
#: Wall-clock cap for one workload's child process.
CHILD_TIMEOUT_S = 160

_SETUP_SNIPPET = (
    "import sys, repro\n"
    "from repro.apps import get_app\n"
    "for name in sys.argv[1:]:\n"
    "    get_app(name).program\n"
)


def child_env() -> dict:
    """The environment of every process the bench starts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``cmd`` from the checkout root in its own process group.

    On timeout or interrupt the whole group (pool workers included) is
    killed and reaped before this returns or raises.
    """
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def last_json(text: str) -> dict:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return json.loads(lines[-1])


def measure_setup(workload, launches: int) -> float:
    """Median fresh-interpreter set-up time, at reference host speed."""
    from bench.hostspeed import HostSpeed

    speed = HostSpeed(every=0.0)
    times = []
    for _ in range(launches):
        for _ in range(SETUP_KERNELS):
            speed.tick()
        t0 = time.perf_counter()
        done = run_child(
            [sys.executable, "-c", _SETUP_SNIPPET, *workload.apps], 60
        )
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError("set-up launch failed")
    return statistics.median(times) * speed.factor()


def run_workload(workload, args, tmp: Path) -> dict:
    """Set up and run one workload; returns the child's record."""
    started = time.perf_counter()
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(workload, 1 if args.smoke else SETUP_LAUNCHES)
    study = [
        sys.executable, "-m", "bench.study", "--workload", workload.name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--cache-dir", str(tmp),
    ] + (["--smoke"] if args.smoke else [])
    if workload.cache == "warm":
        done = run_child(study + ["--prefill"], CHILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"{workload.name}: cache prefill failed")
        for digest in last_json(done.stdout)["digests"]:
            study += ["--cold-digest", digest]
    budget = CHILD_TIMEOUT_S - (time.perf_counter() - started)
    done = run_child(study, budget)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{workload.name}: workload process failed")
    record = last_json(done.stdout)
    if setup_s is not None:
        record["metrics"]["setup_s"] = setup_s
    return record


def bench_record(spec: dict, results: dict) -> dict:
    """The BENCH_e2e.json payload, with baseline reference bands."""
    from repro.util.benchmeta import bench_record as envelope

    data = {name: rec["metrics"] for name, rec in results.items()}
    baseline = (json.loads(BASELINE.read_text())["median"]
                if BASELINE.exists() else {})
    references = {}
    for name in data:
        for m in spec["end_to_end"]:
            ref = baseline.get(name, {}).get(m["name"])
            if ref is not None:
                references[f"{name}.{m['name']}"] = [
                    ref, -m["bound"], m["bound"]
                ]
    return envelope(data, references)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--workload", action="append", default=None,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=2022)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="one small app and tiny campaigns (for tests)")
    ap.add_argument("--update-expected", action="store_true",
                    help="rewrite bench/expected/ from this run (seed 2022)")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    from bench.workloads import WORKLOADS, by_name

    names = args.workload or [w.name for w in WORKLOADS]
    workloads = []
    for name in names:
        try:
            workloads.append(by_name(name))
        except KeyError:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
    for w in workloads:
        if (os.cpu_count() or 1) < w.cpus:
            print(f"{w.name} needs {w.cpus} CPUs; this host has "
                  f"{os.cpu_count()}", file=sys.stderr)
            return 2

    results = {}
    for w in workloads:
        tmp = OUT_DIR / f"tmp-{os.getpid()}-{w.name}"
        tmp.mkdir(parents=True)
        try:
            results[w.name] = run_workload(w, args, tmp)
        except RuntimeError as exc:
            results[w.name] = {"attempted": 1, "failed": 1, "reps": 0,
                               "failures": [str(exc)], "metrics": {}}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    lines, result, code = summarize(results, spec, bool(args.trace))
    for name, rec in results.items():
        for failure in rec["failures"]:
            print(f"{name}: FAILED {failure}", file=sys.stderr)
    if args.update_expected:
        _update_expected(results, args)
    if not args.trace and not args.smoke and code == 0:
        from repro.util.benchmeta import write_bench

        write_bench("e2e", bench_record(spec, results), OUT_DIR)
    print("\n".join(lines))
    print(json.dumps(result))
    return code


def summarize(results: dict, spec: dict, traced: bool):
    """Printed lines, the final JSON object and the exit code of a run."""
    declared = spec["per_layer" if traced else "end_to_end"]
    lines, metrics = [], {}
    attempted = failed = 0
    for name, rec in results.items():
        attempted += rec["attempted"]
        failed += rec["failed"]
        for m in declared:
            if m["name"] not in rec["metrics"]:
                continue
            value = rec["metrics"][m["name"]]
            lines.append(f"{name} {m['name']} {value!r} {m['unit']}")
            key = m["name"] if len(results) == 1 else f"{name}:{m['name']}"
            metrics[key] = {"value": value, "unit": m["unit"]}
        lines.append(f"{name} (reps) {rec['reps']}")
        for key, value in rec.get("raw", {}).items():
            lines.append(f"{name} ({key}) {value!r}")
        lines.append(f"{name} (error_rate) {rec['failed'] / rec['attempted']!r}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result, 0 if failed == 0 else 1


def _update_expected(results: dict, args) -> None:
    from bench.oracle import expected_path
    from bench.workloads import by_name

    if args.seed != 2022 or args.smoke:
        raise SystemExit("--update-expected records seed 2022 at full size")
    # Workloads sharing a config share the file (and must agree on it).
    by_config = {by_name(name).config: rec
                 for name, rec in results.items() if "digest" in rec}
    for config, rec in by_config.items():
        path = expected_path(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"seed": 2022, "digest": rec["digest"], "summary": rec["summary"]},
            indent=1, sort_keys=True,
        ) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    # Import the sibling modules as the ``bench`` package, and keep this
    # directory off sys.path so bench/trace.py never shadows stdlib trace.
    sys.path[0] = str(ROOT)
    sys.exit(main())
