"""Warm-cache figure regeneration: the incremental-runner acceptance gate.

Runs the Fig. 2 driver twice against the same campaign cache. The cold pass
fills the store; the warm pass must (a) dispatch **zero** FI campaigns and
execute no guest instruction — every sweep replays a persisted result and
every golden profile is read from the store — (b) finish at least 5x
faster, and (c) reproduce the study bit-identically. Persists
``BENCH_cache_warm.json`` so the warm/cold ratio is tracked across PRs.
Marked ``perf`` and therefore excluded from tier-1; run via
``pytest benchmarks/test_perf_cache_warm.py -m perf -s``.
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.conftest import BENCH, OUT_DIR, emit
from repro.exp.fig2 import run_fig2_study
from repro.obs.core import session
from repro.obs.sink import MemorySink
from repro.util.benchmeta import bench_record, write_bench
from repro.util.tables import format_table

pytestmark = pytest.mark.perf

#: One campaign-heavy app keeps the cold pass in benchmark budget.
SCALE = BENCH.with_(apps=("pathfinder",), eval_inputs=5, campaign_faults=120)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("campaign-cache"))
    scale = SCALE.with_(cache_dir=cache_dir)
    out = {}
    for name in ("cold", "warm"):
        sink = MemorySink()
        t0 = time.perf_counter()
        with session(sink=sink) as t:
            study = run_fig2_study(scale)
        out[name] = {
            "seconds": time.perf_counter() - t0,
            "study": study.to_dict(),
            "counters": dict(t.metrics.counters),
        }
    return out


def _campaign_hits(counters: dict) -> int:
    """Store hits less the golden profiles read from the store."""
    return counters.get("cache.hit", 0) - counters.get(
        "vm.profile_cache_hits", 0
    )


def test_warm_run_dispatches_zero_campaigns(passes):
    assert passes["cold"]["counters"].get("fi.campaigns", 0) > 0
    warm = passes["warm"]["counters"]
    assert warm.get("fi.campaigns", 0) == 0
    assert warm.get("fi.trials", 0) == 0
    assert _campaign_hits(warm) == passes["cold"]["counters"]["fi.campaigns"]
    assert warm.get("cache.miss", 0) == 0
    assert warm.get("vm.runs", 0) == 0


def test_warm_run_is_bit_identical(passes):
    assert passes["warm"]["study"] == passes["cold"]["study"]


def test_warm_run_is_at_least_5x_faster(passes):
    cold, warm = passes["cold"]["seconds"], passes["warm"]["seconds"]
    assert warm * 5 <= cold, f"warm {warm:.3f}s vs cold {cold:.3f}s"


def test_cache_warm_report(passes):
    cold, warm = passes["cold"], passes["warm"]
    speedup = cold["seconds"] / warm["seconds"] if warm["seconds"] else 0.0
    rows = [
        [
            name,
            f"{p['seconds']:.3f}s",
            str(p["counters"].get("fi.campaigns", 0)),
            str(p["counters"].get("fi.trials", 0)),
            str(p["counters"].get("vm.runs", 0)),
            str(_campaign_hits(p["counters"])),
            str(p["counters"].get("vm.profile_cache_hits", 0)),
            str(p["counters"].get("cache.write", 0)),
        ]
        for name, p in (("cold", cold), ("warm", warm))
    ]
    emit(
        "BENCH_cache_warm",
        format_table(
            ["Pass", "Wall", "Campaigns", "Trials", "Runs", "Hits",
             "Profile hits", "Writes"],
            rows,
            title=f"Fig. 2 regeneration, cold vs warm cache ({speedup:.1f}x)",
        ),
    )
    write_bench(
        "cache_warm",
        bench_record(
            {
                "app": SCALE.apps[0],
                "cold_seconds": cold["seconds"],
                "warm_seconds": warm["seconds"],
                "speedup": speedup,
                "warm_campaigns": warm["counters"].get("fi.campaigns", 0),
                "identical": warm["study"] == cold["study"],
            },
            references={"speedup": [150.0, -0.9, None]},
        ),
        OUT_DIR,
    )
