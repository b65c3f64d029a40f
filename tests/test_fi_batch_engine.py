"""Campaign-level batch engine: equivalence, resolution, cache independence.

The ``--engine`` knob is an execution strategy, not an experiment parameter:
a batch campaign must return byte-identical results to a scalar one (same
per-fault outcome list, same counts), hit the same cache entries, and never
leak into a cache key. Engine selection resolves explicit argument >
``run_scope`` > environment > default, with configuration errors raised
at resolution time rather than mid-campaign.
"""

from __future__ import annotations

import pytest

from repro.apps import all_app_names
from repro.cache import CampaignCache
from repro.detectors.transform import duplicate_instructions
from repro.errors import ConfigError
from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.fi.outcome import Outcome
from repro.obs.core import session
from repro.obs.sink import MemorySink
from repro.runconfig import DEFAULT_BATCH_SIZE, KNOBS, resolve, run_scope
from repro.vm.interpreter import Program
from tests.conftest import cached_app, executed_sites

ENGINE_ENV = KNOBS["engine"].env
BATCH_SIZE_ENV = KNOBS["batch_size"].env

ARGS = [32]


def _campaign(sumsq_program, sumsq_data, **kw):
    return run_campaign(
        sumsq_program, 48, seed=11, args=ARGS, bindings=sumsq_data, **kw
    )


def test_whole_program_campaign_engine_equivalence(sumsq_program, sumsq_data):
    """Batch campaigns are bit-identical to scalar, cold and checkpointed,
    serial and pooled, whatever the chunking."""
    scalar = _campaign(sumsq_program, sumsq_data, engine="scalar")
    for kw in (
        {"engine": "batch"},
        {"engine": "batch", "batch_size": 7},
        {"engine": "batch", "checkpoint_interval": "auto"},
        {"engine": "batch", "checkpoint_interval": None},
        {"engine": "batch", "batch_size": 8, "workers": 2},
    ):
        batch = _campaign(sumsq_program, sumsq_data, **kw)
        assert batch.per_fault == scalar.per_fault, kw
        assert batch.counts.counts == scalar.counts.counts, kw


def test_per_instruction_campaign_engine_equivalence(
    sumsq_program, sumsq_data
):
    scalar = run_per_instruction_campaign(
        sumsq_program, 3, seed=5, args=ARGS, bindings=sumsq_data,
        engine="scalar",
    )
    batch = run_per_instruction_campaign(
        sumsq_program, 3, seed=5, args=ARGS, bindings=sumsq_data,
        engine="batch", batch_size=16,
    )
    assert {iid: c.counts for iid, c in batch.per_iid.items()} == {
        iid: c.counts for iid, c in scalar.per_iid.items()
    }


@pytest.mark.parametrize("app", all_app_names())
def test_every_app_matches_scalar(app):
    """Every app's campaigns classify each fault alike on both engines.

    A whole-program campaign runs checkpointed and cold; a one-trial sweep
    over an SID-protected variant (every other executed injectable
    instruction duplicated) makes detached tails end in ``DetectedError``.
    """
    a = cached_app(app)
    args, bindings = a.encode(a.reference_input)
    program = Program(a.module)
    kw = dict(args=args, bindings=bindings, rel_tol=a.rel_tol,
              abs_tol=a.abs_tol, cache=False)
    scalar = run_campaign(program, 96, seed=3, engine="scalar", **kw)
    for interval in ("auto", None):
        batch = run_campaign(program, 96, seed=3, checkpoint_interval=interval,
                             engine="batch", batch_size=32, **kw)
        assert batch.per_fault == scalar.per_fault, interval

    counts = program.run(args=args, bindings=bindings,
                         profile=True).instr_counts
    halved = executed_sites(a.module, counts)[::2]
    protected = Program(duplicate_instructions(a.module, halved).module)
    scalar, batch = (
        run_per_instruction_campaign(protected, 1, seed=3, engine=engine,
                                     batch_size=32, **kw)
        for engine in ("scalar", "batch")
    )
    assert {iid: c.counts for iid, c in batch.per_iid.items()} == {
        iid: c.counts for iid, c in scalar.per_iid.items()
    }
    assert any(c.counts[Outcome.DETECTED] for c in batch.per_iid.values())


def test_engine_never_enters_cache_keys(sumsq_program, sumsq_data, tmp_path):
    """A batch campaign replays a scalar campaign's cache entry verbatim:
    the key covers the experiment, not the executor."""
    cache = CampaignCache(tmp_path / "store")
    sink = MemorySink()
    with session(sink=sink) as t:
        scalar = _campaign(sumsq_program, sumsq_data, cache=cache)
        assert t.metrics.counters.get("cache.miss", 0) == 1
        batch = _campaign(
            sumsq_program, sumsq_data, cache=cache, engine="batch"
        )
        assert t.metrics.counters.get("cache.hit", 0) == 1
        assert t.metrics.counters.get("cache.miss", 0) == 1
    assert batch.per_fault == scalar.per_fault
    assert cache.stats().entries == 1


def test_engine_resolution_precedence(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    monkeypatch.delenv(BATCH_SIZE_ENV, raising=False)
    assert resolve().engine == "scalar"
    assert resolve().batch_size == DEFAULT_BATCH_SIZE

    monkeypatch.setenv(ENGINE_ENV, "batch")
    monkeypatch.setenv(BATCH_SIZE_ENV, "64")
    assert resolve().engine == "batch"
    assert resolve().batch_size == 64

    with run_scope(engine="scalar", batch_size=16):
        assert resolve().engine == "scalar"  # scope beats env
        assert resolve().batch_size == 16
        with run_scope(engine=None, batch_size=None):  # defers outward
            assert resolve().engine == "scalar"
            assert resolve().batch_size == 16
        with run_scope(engine="batch"):  # inner scope beats outer
            assert resolve().engine == "batch"
            assert resolve().batch_size == 16  # size still from outer
        assert resolve(engine="batch").engine == "batch"  # explicit beats scope
        assert resolve(batch_size=4).batch_size == 4
    assert resolve().engine == "batch"  # env visible again


def test_engine_config_errors(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    monkeypatch.delenv(BATCH_SIZE_ENV, raising=False)
    with pytest.raises(ConfigError, match="unknown engine"):
        resolve(engine="simd")
    with pytest.raises(ConfigError, match="unknown engine"):
        with run_scope(engine="simd"):
            pass
    with pytest.raises(ConfigError, match="batch size"):
        resolve(batch_size=0)
    with pytest.raises(ConfigError, match="batch size"):
        with run_scope(batch_size=-3):
            pass
    monkeypatch.setenv(ENGINE_ENV, "vector")
    with pytest.raises(ConfigError, match="unknown engine"):
        resolve()
    monkeypatch.delenv(ENGINE_ENV)
    monkeypatch.setenv(BATCH_SIZE_ENV, "lots")
    with pytest.raises(ConfigError, match="must be an integer"):
        resolve()


def test_campaign_rejects_unknown_engine(sumsq_program, sumsq_data):
    with pytest.raises(ConfigError, match="unknown engine"):
        _campaign(sumsq_program, sumsq_data, engine="simd")


def test_batch_counters_flow_to_trace(sumsq_program, sumsq_data):
    """The batch path reports its own obs counters; the scalar path none."""
    sink = MemorySink()
    with session(sink=sink) as t:
        _campaign(sumsq_program, sumsq_data, engine="batch", batch_size=16)
        counters = dict(t.metrics.counters)
    assert counters.get("batch.trials", 0) == 48
    assert counters.get("batch.batches", 0) == 3
    assert counters.get("batch.lockstep_steps", 0) > 0
    sink = MemorySink()
    with session(sink=sink) as t:
        _campaign(sumsq_program, sumsq_data, engine="scalar")
        counters = dict(t.metrics.counters)
    assert counters.get("batch.trials", 0) == 0
