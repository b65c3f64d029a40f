"""Golden profiles as campaign-cache entries.

A profile served from the store equals a fresh run's, output bit for bit;
a malformed entry reads as a miss and the recompute replaces it; a trap
writes nothing; per-instruction sweeps read and write the entry under
their own resolved cache, and whole-program campaigns touch none.
"""

from __future__ import annotations

import struct

import pytest

from repro.cache.keys import golden_profile_key
from repro.cache.store import CampaignCache
from repro.errors import ArithmeticTrap
from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.ir.builder import Builder
from repro.ir.module import Module
from repro.ir.types import F64, I64, VOID
from repro.obs.core import session
from repro.obs.sink import MemorySink
from repro.runconfig import run_scope
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run
from tests.conftest import bits
from tests.test_vm_profile_memo import _same_profile


def _from_bits(pattern: int) -> float:
    return struct.unpack(">d", pattern.to_bytes(8, "big"))[0]


#: Inputs the golden output echoes: NaN payloads (a quiet positive and a
#: signalling negative one), signed zeros and infinities.
EDGES = [
    _from_bits(0x7FF8_0000_0000_0001),
    _from_bits(0xFFF0_0000_0000_0ABC),
    -0.0,
    0.0,
    float("inf"),
    float("-inf"),
    2.5,
]
ARGS = [len(EDGES)]
BIND = {"data": EDGES}


def build_edge_module() -> Module:
    """Emits each input cell through a call, then an int and a float of
    equal value."""
    m = Module("edges")
    g = m.add_global("data", F64, len(EDGES))
    h = Builder.new_function(m, "ident", [("x", F64)], F64)
    h.ret(h.function.arg("x"))
    b = Builder.new_function(m, "main", [("n", I64)], VOID)
    with b.for_loop(b.i64(0), b.function.arg("n")) as i:
        b.emit_output(b.call("ident", [b.load(b.gep(g, i), F64)], F64))
    b.emit_output(b.i64(1))
    b.emit_output(b.f64(1.0))
    b.ret()
    return m.finalize()


def build_divider_module() -> Module:
    m = Module("divider")
    b = Builder.new_function(m, "main", [("d", I64)], VOID)
    b.emit_output(b.sdiv(b.i64(100), b.function.arg("d")))
    b.ret()
    return m.finalize()


@pytest.fixture
def golden(monkeypatch):
    """Every fault-free execution: ``("run", profile)`` or
    ``("recording", profile, max_snapshots)``."""
    calls = []
    real_run, real_recording = Program.run, Program.run_checkpointed

    def run(self, args=None, bindings=None, **kwargs):
        calls.append(("run", kwargs.get("profile", False)))
        return real_run(self, args, bindings, **kwargs)

    def run_checkpointed(self, args=None, bindings=None, **kwargs):
        calls.append(("recording", kwargs.get("profile", False),
                      kwargs.get("max_snapshots")))
        return real_recording(self, args, bindings, **kwargs)

    monkeypatch.setattr(Program, "run", run)
    monkeypatch.setattr(Program, "run_checkpointed", run_checkpointed)
    return calls


@pytest.fixture
def store(tmp_path) -> CampaignCache:
    return CampaignCache(tmp_path / "cache")


def _key() -> str:
    return golden_profile_key(Program(build_edge_module()).text, ARGS, BIND)


class TestServedProfile:
    def test_equals_a_fresh_run_field_for_field(self, store, golden):
        fresh = profile_run(Program(build_edge_module()), ARGS, BIND,
                            cache=store)
        assert golden == [("run", True)]
        assert bits(fresh.output) == bits(EDGES + [1, 1.0])
        program = Program(build_edge_module())
        served = profile_run(program, ARGS, BIND, cache=store)
        assert golden == [("run", True)]
        assert _same_profile(served, fresh)
        assert served.call_paths == fresh.call_paths == {
            ("main",): 1, ("main", "ident"): len(EDGES)
        }
        # Served once, then memoized like a run's profile.
        assert profile_run(program, ARGS, BIND, cache=store) is served

    def test_counts_and_reports_apart_from_runs(self, store):
        profile_run(Program(build_edge_module()), ARGS, BIND, cache=store)
        sink = MemorySink()
        with session(sink=sink) as t:
            profile_run(Program(build_edge_module()), ARGS, BIND, cache=store)
        counters = t.metrics.counters
        assert counters.get("vm.profile_cache_hits") == 1
        assert "vm.profile_runs" not in counters
        assert "vm.runs" not in counters
        events = [r["fields"] for r in sink.records
                  if r.get("name") == "vm.profile"]
        assert [(e["memo"], e["cached"]) for e in events] == [(False, True)]


def _truncated(p):
    p["counts"] = p["counts"][:-1]


def _float_counts(p):
    p["counts"] = [float(n) for n in p["counts"]]


def _text_steps(p):
    p["steps"] = str(p["steps"])


def _json_float_output(p):
    p["output"] = [2.5] + p["output"][1:]


def _bool_output(p):
    p["output"] = [True] + p["output"][1:]


def _short_bits(p):
    p["output"] = ["7ff8"] + p["output"][1:]


def _text_path(p):
    p["call_paths"] = [[";".join(path), n] for path, n in p["call_paths"]]


def _other_kind(p):
    p["kind"] = "value-profile"


def _no_output(p):
    del p["output"]


class TestMalformedEntry:
    @pytest.mark.parametrize(
        "damage",
        [_truncated, _float_counts, _text_steps, _json_float_output,
         _bool_output, _short_bits, _text_path, _other_kind, _no_output],
        ids=lambda f: f.__name__.strip("_"),
    )
    def test_reads_as_a_miss_and_is_replaced(self, store, golden, damage):
        first = profile_run(Program(build_edge_module()), ARGS, BIND,
                            cache=store)
        key = _key()
        good = store.get(key)
        bad = dict(good)
        damage(bad)
        store.put(key, bad)
        golden.clear()
        again = profile_run(Program(build_edge_module()), ARGS, BIND,
                            cache=store)
        assert golden == [("run", True)]
        assert _same_profile(again, first)
        assert store.get(key) == good


class TestWriters:
    def test_a_trap_writes_nothing(self, store):
        program = Program(build_divider_module())
        with pytest.raises(ArithmeticTrap):
            profile_run(program, [0], cache=store)
        with pytest.raises(ArithmeticTrap):
            run_per_instruction_campaign(program, 1, 1, args=[0], cache=store)
        assert store.stats().entries == 0

    def test_a_sweep_writes_the_entry_and_the_next_reads_it(
        self, store, golden
    ):
        first = run_per_instruction_campaign(
            Program(build_edge_module()), 2, 1, args=ARGS, bindings=BIND,
            cache=store,
        )
        assert store.get(_key()) is not None
        # Another seed misses the campaign entry, so the sweep records;
        # with the stored profile it does not profile, and it thins like
        # the first.
        second = run_per_instruction_campaign(
            Program(build_edge_module()), 2, 2, args=ARGS, bindings=BIND,
            cache=store,
        )
        assert golden == [("recording", True, 24), ("recording", False, 24)]
        assert _same_profile(second.profile, first.profile)
        # A campaign hit takes the stored profile: nothing executes.
        golden.clear()
        again = run_per_instruction_campaign(
            Program(build_edge_module()), 2, 1, args=ARGS, bindings=BIND,
            cache=store,
        )
        assert golden == []
        assert again.per_iid == first.per_iid

    @pytest.mark.parametrize("interval", [0, "auto"])
    def test_a_sweep_with_cache_false_touches_no_entry(
        self, tmp_path, golden, monkeypatch, interval
    ):
        cache_dir = tmp_path / "ambient"
        profile_run(Program(build_edge_module()), ARGS, BIND,
                    cache=str(cache_dir))
        key = _key()
        touched = []
        real_get, real_put = CampaignCache.get, CampaignCache.put

        def get(self, k):
            touched.append(("get", k))
            return real_get(self, k)

        def put(self, k, payload):
            touched.append(("put", k))
            return real_put(self, k, payload)

        monkeypatch.setattr(CampaignCache, "get", get)
        monkeypatch.setattr(CampaignCache, "put", put)
        golden.clear()
        with run_scope(cache=str(cache_dir)):
            run_per_instruction_campaign(
                Program(build_edge_module()), 2, 1, args=ARGS, bindings=BIND,
                cache=False, checkpoint_interval=interval,
            )
        assert touched == []
        assert len(golden) == 1

    @pytest.mark.parametrize("interval", [0, "auto"])
    def test_a_whole_program_campaign_touches_no_entry(
        self, store, golden, interval
    ):
        run_campaign(Program(build_edge_module()), 8, 1, args=ARGS,
                     bindings=BIND, cache=store, checkpoint_interval=interval)
        assert store.get(_key()) is None
        assert store.stats().entries == 1
        # Nor does it read one: a stored profile leaves its golden pass
        # to run.
        profile_run(Program(build_edge_module()), ARGS, BIND, cache=store)
        golden.clear()
        run_campaign(Program(build_edge_module()), 8, 2, args=ARGS,
                     bindings=BIND, cache=store, checkpoint_interval=interval)
        assert [call[:2] for call in golden] == [
            ("recording", True) if interval else ("run", True)
        ]
