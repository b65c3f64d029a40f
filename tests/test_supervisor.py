"""The campaign supervisor: recovery semantics and the chaos hook.

The invariant under test everywhere: a supervised map that survived worker
crashes, hangs, injected exceptions, pool respawns, or degradation returns
results **bit-identical** to a plain serial map, in submission order. The
``REPRO_CHAOS``-style faults used here go through the same
:func:`repro.util.supervisor.maybe_chaos` trigger the env hook uses, so
these tests exercise the production recovery paths, not mocks.

Pool-spawning tests keep worker counts and item counts small — each test
pays real ``ProcessPoolExecutor`` startup, and several deliberately kill it.
"""

from __future__ import annotations

import logging

import pytest

from repro.errors import (
    ChaosError,
    ConfigError,
    HarnessError,
    PoolDegraded,
    WorkerError,
    WorkerTimeout,
)
from repro.obs.core import session
from repro.obs.sink import MemorySink
from repro.runconfig import KNOBS, resolve
from repro.util.supervisor import (
    CHAOS_IDENTITY_ENV,
    ChaosFault,
    SupervisorConfig,
    chaos_identity,
    maybe_chaos,
    parse_chaos,
    set_chaos_identity,
    supervised_map,
)

WORKERS_ENV = KNOBS["workers"].env
MAX_RETRIES_ENV = KNOBS["max_retries"].env
TASK_TIMEOUT_ENV = KNOBS["task_timeout"].env
CHAOS_ENV = KNOBS["chaos"].env


def _policy(**explicit) -> SupervisorConfig:
    """The supervisor policy of the run configuration ``explicit`` resolves."""
    return SupervisorConfig.from_run(resolve(**explicit))


def _square(x):  # module-level: must pickle into pool workers
    return x * x


ITEMS = list(range(8))
EXPECT = [x * x for x in ITEMS]

#: Fast-failure policy for tests that expect recovery (not exhaustion).
FAST = SupervisorConfig(backoff_base=0.01, backoff_max=0.05)


def _chaos(*entries: str) -> tuple[ChaosFault, ...]:
    return parse_chaos(",".join(entries))


class TestParseChaos:
    def test_single_entry_defaults_to_attempt_zero(self):
        assert parse_chaos("crash@1") == (ChaosFault("crash", 1, 0),)

    def test_full_grammar(self):
        got = parse_chaos("crash@1, hang@3#0 ,exc@5#*")
        assert got == (
            ChaosFault("crash", 1, 0),
            ChaosFault("hang", 3, 0),
            ChaosFault("exc", 5, None),
        )

    @pytest.mark.parametrize(
        "bad", ["boom@1", "crash", "crash@x", "crash@1#y", "@1", "exc@"]
    )
    def test_bad_entries_raise_config_error(self, bad):
        with pytest.raises(ConfigError, match="kind@chunk"):
            parse_chaos(bad)

    def test_empty_parts_are_ignored(self):
        assert parse_chaos("crash@1,,") == (ChaosFault("crash", 1, 0),)


class TestChaosTargets:
    """Sticky/targeted grammar: ``kind@chunk[#attempt|#*][@target]``."""

    def test_sticky_wildcard_with_target(self):
        assert parse_chaos("crash@*#*@adapter1") == (
            ChaosFault("crash", None, None, "adapter1"),
        )

    def test_target_without_attempt_segment(self):
        assert parse_chaos("exc@2@w1") == (ChaosFault("exc", 2, 0, "w1"),)

    def test_wildcard_chunk_default_attempt(self):
        assert parse_chaos("hang@*") == (ChaosFault("hang", None, 0),)

    @pytest.mark.parametrize("bad", ["crash@1@", "crash@*#*@", "exc@2#1@"])
    def test_empty_target_raises_config_error(self, bad):
        with pytest.raises(ConfigError, match="kind@chunk"):
            parse_chaos(bad)

    def test_maybe_chaos_requires_matching_identity(self):
        faults = parse_chaos("exc@*#*@hostA")
        set_chaos_identity(None)
        try:
            maybe_chaos(faults, 0, 0)  # anonymous process: must not fire
            set_chaos_identity("hostB")
            maybe_chaos(faults, 0, 0)  # wrong identity: must not fire
            set_chaos_identity("hostA")
            for _ in range(2):  # sticky: fires deterministically, every time
                with pytest.raises(ChaosError):
                    maybe_chaos(faults, 3, 1)
        finally:
            set_chaos_identity(None)

    def test_env_fallback_supplies_identity(self, monkeypatch):
        monkeypatch.setenv(CHAOS_IDENTITY_ENV, "envhost")
        set_chaos_identity(None)
        assert chaos_identity() == "envhost"
        with pytest.raises(ChaosError):
            maybe_chaos(parse_chaos("exc@1@envhost"), 1, 0)
        set_chaos_identity("other")
        try:
            maybe_chaos(parse_chaos("exc@1@envhost"), 1, 0)  # explicit wins
        finally:
            set_chaos_identity(None)


class TestResolveConfig:
    def test_defaults(self, monkeypatch):
        for env in (MAX_RETRIES_ENV, TASK_TIMEOUT_ENV, CHAOS_ENV):
            monkeypatch.delenv(env, raising=False)
        cfg = _policy()
        assert cfg.max_retries == 2
        assert cfg.task_timeout is None
        assert cfg.chaos == ()

    def test_env_supplies_ambient_defaults(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "5")
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "1.5")
        monkeypatch.setenv(CHAOS_ENV, "exc@2")
        cfg = _policy()
        assert cfg.max_retries == 5
        assert cfg.task_timeout == 1.5
        assert cfg.chaos == (ChaosFault("exc", 2, 0),)

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "5")
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "1.5")
        cfg = _policy(max_retries=1, task_timeout=9.0)
        assert cfg.max_retries == 1
        assert cfg.task_timeout == 9.0

    def test_nonpositive_timeout_disables_hang_detection(self):
        assert _policy(task_timeout=0).task_timeout is None
        assert _policy(task_timeout=-1).task_timeout is None

    def test_unparsable_env_warns_and_uses_default(self, monkeypatch, caplog):
        monkeypatch.setenv(MAX_RETRIES_ENV, "many")
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "soon")
        with caplog.at_level(logging.WARNING, logger="repro"):
            cfg = _policy()
        assert cfg.max_retries == 2
        assert cfg.task_timeout is None
        assert MAX_RETRIES_ENV in caplog.text
        assert TASK_TIMEOUT_ENV in caplog.text


class TestResolveWorkersWarning:
    def test_unparsable_env_warns_and_falls_back_to_serial(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert resolve().workers == 0
        assert WORKERS_ENV in caplog.text
        assert "serial" in caplog.text

    def test_valid_env_stays_silent(self, monkeypatch, caplog):
        monkeypatch.setenv(WORKERS_ENV, "3")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert resolve().workers == 3
        assert not caplog.records


class TestSupervisedMapPlain:
    def test_matches_serial(self):
        got = supervised_map(_square, ITEMS, workers=2, chunksize=1,
                             config=FAST)
        assert got == EXPECT

    def test_serial_path_for_workers_leq_one(self):
        # Chaos aimed at chunk 0 must NOT fire here: workers<=1 runs fn
        # in-process and a triggered crash would kill pytest itself.
        cfg = SupervisorConfig(chaos=_chaos("crash@0#*"))
        assert supervised_map(_square, ITEMS, workers=0, config=cfg) == EXPECT
        assert supervised_map(_square, ITEMS, workers=1, config=cfg) == EXPECT

    def test_on_result_streams_in_submission_order(self):
        seen = []
        supervised_map(_square, ITEMS, workers=2, chunksize=1,
                       on_result=seen.append, config=FAST)
        assert seen == EXPECT


class TestRecovery:
    def test_worker_crash_is_retried_bit_identically(self):
        cfg = SupervisorConfig(
            backoff_base=0.01, backoff_max=0.05, chaos=_chaos("crash@2")
        )
        got = supervised_map(_square, ITEMS, workers=2, chunksize=1,
                             config=cfg)
        assert got == EXPECT

    def test_worker_exception_is_retried_bit_identically(self):
        cfg = SupervisorConfig(
            backoff_base=0.01, backoff_max=0.05,
            chaos=_chaos("exc@1", "exc@6"),
        )
        seen = []
        got = supervised_map(_square, ITEMS, workers=2, chunksize=1,
                             on_result=seen.append, config=cfg)
        assert got == EXPECT
        assert seen == EXPECT  # ordered delivery survives retries

    def test_hung_worker_is_killed_and_retried(self):
        cfg = SupervisorConfig(
            task_timeout=0.7, backoff_base=0.01, backoff_max=0.05,
            chaos=_chaos("hang@0"),
        )
        got = supervised_map(_square, ITEMS, workers=2, chunksize=1,
                             config=cfg)
        assert got == EXPECT

    def test_retry_exhaustion_raises_typed_worker_error(self):
        cfg = SupervisorConfig(
            max_retries=1, backoff_base=0.01, backoff_max=0.02,
            chaos=_chaos("exc@3#*"),
        )
        with pytest.raises(WorkerError, match="chunk 3") as ei:
            supervised_map(_square, ITEMS, workers=2, chunksize=1, config=cfg)
        assert isinstance(ei.value, HarnessError)
        assert isinstance(ei.value.__cause__, ChaosError)

    def test_hang_exhaustion_raises_worker_timeout(self):
        cfg = SupervisorConfig(
            max_retries=0, task_timeout=0.5, backoff_base=0.01,
            chaos=_chaos("hang@0#*"),
        )
        with pytest.raises(WorkerTimeout, match="deadline"):
            supervised_map(_square, ITEMS, workers=2, chunksize=1, config=cfg)

    def test_persistent_crashes_degrade_to_serial(self):
        # The crashing chunk never succeeds in a worker, so the only way
        # this returns is the serial fallback — where chaos doesn't fire.
        cfg = SupervisorConfig(
            max_retries=1, max_pool_respawns=0, backoff_base=0.01,
            chaos=_chaos("crash@0#*"),
        )
        with session(sink=MemorySink()) as t:
            got = supervised_map(_square, ITEMS, workers=2, chunksize=1,
                                 config=cfg)
        assert got == EXPECT
        assert t.metrics.counters.get("harness.degraded") == 1
        assert t.metrics.counters.get("harness.pool_respawns", 0) >= 1

    def test_sticky_targeted_chunk_degrades_to_serial_exactly_once(self):
        # Satellite case: a *sticky* targeted fault (``crash@5#*@badhost``)
        # with every pool worker wearing the ``badhost`` identity (env
        # fallback, inherited at spawn). Chunk 5 kills any worker that
        # touches it, the bounded retry/respawn budget burns out, and the
        # harness degrades to serial exactly once — where chaos is
        # scrubbed — yielding results bit-identical to a clean serial map.
        import os

        os.environ[CHAOS_IDENTITY_ENV] = "badhost"
        cfg = SupervisorConfig(
            max_retries=1, max_pool_respawns=1, backoff_base=0.01,
            chaos=_chaos("crash@5#*@badhost"),
        )
        try:
            with session(sink=MemorySink()) as t:
                got = supervised_map(_square, ITEMS, workers=2, chunksize=1,
                                     config=cfg)
        finally:
            del os.environ[CHAOS_IDENTITY_ENV]
        assert got == EXPECT
        assert got == supervised_map(_square, ITEMS, workers=0, config=cfg)
        assert t.metrics.counters.get("harness.degraded") == 1

    def test_targeted_fault_skips_anonymous_workers(self, monkeypatch):
        # Same sticky directive, but no process claims the identity: the
        # fault never fires and the run completes without a single retry.
        monkeypatch.delenv(CHAOS_IDENTITY_ENV, raising=False)
        cfg = SupervisorConfig(
            backoff_base=0.01, backoff_max=0.05,
            chaos=_chaos("crash@5#*@badhost"),
        )
        with session(sink=MemorySink()) as t:
            got = supervised_map(_square, ITEMS, workers=2, chunksize=1,
                                 config=cfg)
        assert got == EXPECT
        assert t.metrics.counters.get("harness.retries", 0) == 0
        assert t.metrics.counters.get("harness.degraded", 0) == 0

    def test_pool_degraded_raises_when_fallback_disabled(self):
        cfg = SupervisorConfig(
            max_pool_respawns=0, serial_fallback=False, backoff_base=0.01,
            chaos=_chaos("crash@0#*"),
        )
        with pytest.raises(PoolDegraded):
            supervised_map(_square, ITEMS, workers=2, chunksize=1, config=cfg)

    def test_harness_telemetry_is_emitted_on_recovery(self):
        cfg = SupervisorConfig(
            backoff_base=0.01, backoff_max=0.05, chaos=_chaos("exc@4")
        )
        sink = MemorySink()
        with session(sink=sink) as t:
            supervised_map(_square, ITEMS, workers=2, chunksize=1, config=cfg)
        assert t.metrics.counters.get("harness.retries") == 1
        retries = [r for r in sink.records if r.get("name") == "harness.retry"]
        assert retries and retries[0]["fields"]["chunk"] == 4
