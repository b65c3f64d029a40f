"""Tests of the benchmark itself, at ``--smoke`` size.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import oracle, study, trace
from bench.run import ROOT, summarize
from bench.trace import Span

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, env: dict | None = None):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seconds", "0.1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=env if env is not None else os.environ.copy(),
    )
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4:
            printed[(parts[0], parts[1])] = (float(parts[2]), parts[3])
    return done, printed, json.loads(lines[-1])


@pytest.mark.parametrize("traced", [False, True])
def test_every_declared_metric_prints_with_its_unit(traced):
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    done, printed, result = run_bench(*(["--trace", "1"] if traced else []))
    assert done.returncode == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        for m in declared:
            assert printed[(workload, m["name"])][1] == m["unit"]
            key = f"{workload}:{m['name']}"
            assert result["metrics"][key]["unit"] == m["unit"]


def _span(name, start, end, parent):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_self_time_subtracts_children_only():
    #  root [0,10]: a [1,4] (with a.a [2,3]), b [5,9]
    spans = [
        _span("bench.rep", 0.0, 10.0, -1),
        _span("vm.run", 1.0, 4.0, 0),
        _span("vm.run", 2.0, 3.0, 1),
        _span("cache.get", 5.0, 9.0, 0),
    ]
    assert trace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # The same subtree cut out of a longer list keeps its arithmetic.
    padded = [_span("other", 0.0, 1.0, -1)] + [
        _span(s.name, s.start, s.end, s.parent + 1 if s.parent >= 0 else -1)
        for s in spans
    ]
    assert trace.self_times(padded[1:], offset=1) == [3.0, 2.0, 1.0, 4.0]
    metrics = trace.rep_metrics(spans)
    assert metrics["vm.run_s"] == 3.0
    assert metrics["vm.run.calls"] == 2
    assert metrics["cache.get_s"] == 4.0
    assert metrics["bench.unattributed_frac"] == pytest.approx(0.3)


def test_tracer_records_nested_calls():
    tracer = trace.Tracer()
    with tracer.span("bench.rep"):
        with tracer.span("vm.run"):
            time.sleep(0.01)
        time.sleep(0.01)
    root, child = trace.self_times(tracer.spans)
    assert tracer.spans[1].parent == 0
    assert child >= 0.01 and root >= 0.01


def _prefilled(tmp_path: Path) -> Path:
    cache = tmp_path / "cache"
    cache.mkdir()
    study.prefill("warm-rerun", 2022, cache, smoke=True)
    return cache


def test_slow_cache_reads_show_in_the_cache_layer(tmp_path, monkeypatch):
    from repro.cache.store import CampaignCache

    cache = _prefilled(tmp_path)
    before = study.run_workload("warm-rerun", 2022, 0.0, True, cache,
                                smoke=True)
    get = CampaignCache.get

    def slow_get(self, key):
        time.sleep(0.02)
        return get(self, key)

    monkeypatch.setattr(CampaignCache, "get", slow_get)
    after = study.run_workload("warm-rerun", 2022, 0.0, True, cache,
                               smoke=True)
    hits = after["metrics"]["cache.hits"]
    assert hits > 0 and after["failed"] == 0
    rise = after["metrics"]["cache.get_s"] - before["metrics"]["cache.get_s"]
    assert rise >= 0.8 * 0.02 * hits
    # The rest of the study did not absorb the sleep.
    for layer in ("vm.run_s", "fi.campaign_s", "exp.evaluate_s"):
        assert after["metrics"][layer] < before["metrics"][layer] + 0.01 * hits
    assert after["raw"]["study_wall_s"] > before["raw"]["study_wall_s"]


def test_corrupted_digest_fails_the_run(tmp_path, monkeypatch):
    run_oracle = oracle.Recorder.run_oracle

    def corrupt_then_check(self, seed, checks):
        key = next(k for k in self.oracle_calls if k[1] == "run_campaign")
        call, _digest = self.oracle_calls[key]
        self.oracle_calls[key] = (call, "0" * 64)
        run_oracle(self, seed, checks)

    monkeypatch.setattr(oracle.Recorder, "run_oracle", corrupt_then_check)
    record = study.run_workload("headline-cold", 2022, 0.0, False, tmp_path,
                                smoke=True)
    assert record["failed"] == 1
    assert any("whole-program" in f for f in record["failures"])
    lines, result, code = summarize({"headline-cold": record}, SPEC, False)
    assert code != 0 and result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_repro_environment_does_not_reach_the_program():
    env = {**os.environ, "REPRO_ENGINE": "batch", "REPRO_WORKERS": "2"}
    done, printed, result = run_bench(
        "--trace", "1", "--workload", "headline-cold", env=env
    )
    assert done.returncode == 0, done.stderr
    assert printed[("headline-cold", "vm.batch.calls")][0] == 0
    assert printed[("headline-cold", "util.parallel_map.calls")][0] == 0
    assert printed[("headline-cold", "vm.run.calls")][0] > 0


def test_study_process_refuses_repro_variables(tmp_path):
    env = {**os.environ, "REPRO_ENGINE": "batch",
           "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "bench.study", "--workload", "headline-cold",
         "--seed", "1", "--cache-dir", str(tmp_path), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 2 and "REPRO_ENGINE" in done.stderr
