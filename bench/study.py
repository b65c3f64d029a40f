"""One workload run: repeated studies, timed or traced, then the checks.

Run by ``bench/run.py`` in a fresh interpreter per workload::

    python3 -m bench.study --workload NAME --seed N --seconds S \\
        --trace 0|1 --cache-dir DIR [--cold-digest D ...] [--smoke]

and prints one JSON object as its last line. ``--prefill`` instead runs
:data:`WARM_SEEDS` cold studies on the batch engine into ``--cache-dir``
and prints their digests; ``warm-rerun`` replays that cache.

A run repeats the study until ``--seconds`` have passed (at least
:data:`MIN_REPS` times) and reports medians over the repetitions. The
first repetition uses ``--seed`` itself and each later one a seed derived
from it, so a run averages over several random input sets instead of
timing one set several times: the size of those inputs, and with it the
cost of a study, varies several-fold from seed to seed. ``warm-rerun``
cycles through the :data:`WARM_SEEDS` studies its cache holds.

Each repetition's wall time excludes the benchmark's own bookkeeping, and
the run's medians are scaled by the host-speed kernel sampled all through
its untraced repetitions (:mod:`bench.hostspeed`). With ``--trace 1``
untraced and traced repetitions alternate in pairs that share a seed, so
the trace overhead is the median ratio within pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from bench import oracle, trace
from bench.hostspeed import HostSpeed
from bench.workloads import by_name

MIN_REPS = 3
#: Studies the warm-rerun cache holds; its repetitions cycle through them.
WARM_SEEDS = 4
OUT_DIR = Path(__file__).resolve().parent / "out"


def run_rep(scale, cache_spec, recorder, tracer=None) -> dict:
    """One SID + MINPSID study; its wall time excludes the recorder's."""
    from repro.cache.active import cache_scope
    from repro.exp import fig2, fig6
    from repro.vm.batch import engine_scope

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with cache_scope(cache_spec), engine_scope(scale.engine, scale.batch_size):
        with span("bench.rep"):
            excluded = recorder.excluded
            t0 = time.perf_counter()
            with span("study.sid"):
                sid = fig2.run_fig2_study(scale, measure_duplication=True)
            with span("study.minpsid"):
                hardened = fig6.run_fig6_study(scale, measure_duplication=True)
            study_s = time.perf_counter() - t0 - (recorder.excluded - excluded)
    digest, summary = oracle.study_digest(sid, hardened, recorder.selected)
    return {"study_s": study_s, "work": recorder.work, "digest": digest,
            "summary": summary, "calls": recorder.calls}


def rep_seed(workload, seed: int, rep: int) -> int:
    """Seed of one repetition (see the module docstring)."""
    if workload.cache == "warm":
        rep %= WARM_SEEDS
    if rep == 0:
        return seed
    from repro.util.rng import derive_seed

    return derive_seed(seed, "bench-rep", rep)


def _cache_spec(workload, cache_dir: Path, rep: int):
    if workload.cache == "off":
        return False
    if workload.cache == "warm":
        return str(cache_dir)
    path = cache_dir / f"rep{rep}"
    path.mkdir(parents=True)
    return str(path)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 cache_dir: Path, smoke: bool = False,
                 cold_digests: list[str] | None = None) -> dict:
    """Run one workload in this process and return its result record."""
    workload = by_name(name)
    recorder = oracle.Recorder()
    recorder.install()
    tracer = trace.Tracer() if traced else None
    speed = HostSpeed()
    reps: list[dict] = []
    traced_reps: list[tuple[int, int]] = []
    min_reps = 2 * MIN_REPS if traced else MIN_REPS
    deadline = time.perf_counter() + seconds
    rep_cost = 0.0
    while len(reps) < min_reps or time.perf_counter() + rep_cost < deadline:
        t_rep = time.perf_counter()
        k = len(reps)
        n = k // 2 if traced else k
        scale = workload.scale_config(rep_seed(workload, seed, n), smoke)
        spec = _cache_spec(workload, cache_dir, k)
        trace_this = traced and k % 2 == 1
        recorder.start_rep(keep=k == 0, account=not trace_this)
        if trace_this:
            first = len(tracer.spans)
            tracer.install()
            try:
                rep = run_rep(scale, spec, recorder, tracer)
            finally:
                tracer.uninstall()
            traced_reps.append((first, len(tracer.spans)))
        else:
            recorder.tick = speed.tick
            rep = run_rep(scale, spec, recorder)
            recorder.tick = None
        if workload.cache == "fresh":
            shutil.rmtree(spec)
        rep["traced"] = trace_this
        reps.append(rep)
        rep_cost = time.perf_counter() - t_rep

    checks = oracle.Checks()
    checks.attempted += sum(r["calls"] for r in reps)
    first = reps[0]
    if cold_digests is not None:
        for k, rep in enumerate(reps):
            n = k // 2 if traced else k
            checks.check(f"rep {k} replays its cold study",
                         rep["digest"] == cold_digests[n % WARM_SEEDS])
    if seed == 2022 and not smoke:
        path = oracle.expected_path(workload.config)
        if path.exists():
            expected = json.loads(path.read_text())
            checks.check(f"study matches {path.name}",
                         expected["digest"] == first["digest"])
    recorder.run_oracle(seed, checks)
    recorder.uninstall()

    timed = [r for r in reps if not r["traced"]]
    record = {
        "workload": name,
        "seed": seed,
        "reps": len(reps),
        "digest": first["digest"],
        "summary": first["summary"],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "raw": {
            "study_wall_s": statistics.median(r["study_s"] for r in timed),
            "kernel_s": speed.kernel_s(),
        },
    }
    if traced:
        record["metrics"] = _layer_metrics(tracer, reps, traced_reps, name)
        unattributed = record["metrics"]["bench.unattributed_frac"]
        checks.check("unattributed time <= 5%", unattributed <= 0.05)
        record.update(attempted=checks.attempted, failed=checks.failed)
        return record
    rate = statistics.median(r["work"] / r["study_s"] for r in timed)
    record["metrics"] = {
        "study_rate": rate / speed.factor() / 1e6,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return record


def _layer_metrics(tracer, reps, traced_reps, name) -> dict:
    per_rep = [
        trace.rep_metrics(tracer.spans[first:last], first)
        for first, last in traced_reps
    ]
    metrics = {
        key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]
    }
    walls = [r["study_s"] for r in reps]
    metrics["bench.trace_overhead_frac"] = statistics.median(
        walls[k + 1] / walls[k] for k in range(0, len(walls) - 1, 2)
    ) - 1
    trace.write_chrome_trace(
        tracer.spans, name, OUT_DIR / f"trace-{name}.json"
    )
    return metrics


def prefill(name: str, seed: int, cache_dir: Path, smoke: bool) -> dict:
    """Fill ``cache_dir`` with the warm-rerun studies, on the batch engine.

    Cache keys leave the engine out, so the scalar replay hits them all.
    """
    workload = by_name(name)
    recorder = oracle.Recorder()
    recorder.install()
    digests = []
    for k in range(WARM_SEEDS):
        scale = workload.scale_config(rep_seed(workload, seed, k), smoke)
        recorder.start_rep(keep=False, account=False)
        rep = run_rep(scale.with_(engine="batch"), str(cache_dir), recorder)
        digests.append(rep["digest"])
    recorder.uninstall()
    return {"digests": digests}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-dir", type=Path, required=True)
    ap.add_argument("--cold-digest", action="append", default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--prefill", action="store_true")
    args = ap.parse_args(argv)
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        print(f"refusing to run with {', '.join(leaked)} set", file=sys.stderr)
        return 2
    if args.prefill:
        out = prefill(args.workload, args.seed, args.cache_dir, args.smoke)
    else:
        out = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.cache_dir, args.smoke, args.cold_digest,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
