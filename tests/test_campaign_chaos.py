"""Chaos campaigns: the harness survives its own faults, bit-identically.

``REPRO_CHAOS`` plants deterministic worker crashes, hangs, and exceptions
inside the pooled campaign path (fault injection aimed at the fault
injector). The contract under test: every recovered campaign matches the
serial run byte for byte, exhausted recovery surfaces as a typed
:class:`~repro.errors.HarnessError` (never a partial result), and the
narrow ``except Trap`` of ``generate_eval_inputs`` rejects trapping inputs
without swallowing toolchain bugs.

Campaigns here use 48 faults with ``workers=2`` — enough sites to clear the
pooled path's serial guard (32) while keeping each test a few seconds.
"""

from __future__ import annotations

import pytest

from repro.errors import HarnessError, Trap, WorkerError
from repro.exp.runner import generate_eval_inputs
from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.runconfig import KNOBS, run_scope

CHAOS_ENV = KNOBS["chaos"].env
MAX_RETRIES_ENV = KNOBS["max_retries"].env
TASK_TIMEOUT_ENV = KNOBS["task_timeout"].env

FAULTS = 48
SEED = 31


def _kwargs(app):
    args, bindings = app.encode(app.reference_input)
    return dict(
        args=args, bindings=bindings, rel_tol=app.rel_tol, abs_tol=app.abs_tol
    )


@pytest.fixture
def chaos_env(monkeypatch):
    """Install a chaos spec + fast retry policy; yields the setter."""

    def set_chaos(spec: str) -> None:
        monkeypatch.setenv(CHAOS_ENV, spec)

    monkeypatch.setenv(MAX_RETRIES_ENV, "3")
    monkeypatch.delenv(TASK_TIMEOUT_ENV, raising=False)
    return set_chaos


class TestChaosCampaignsAreBitIdentical:
    def test_worker_crash_mid_campaign(self, pathfinder_app, chaos_env):
        kw = _kwargs(pathfinder_app)
        serial = run_campaign(
            pathfinder_app.program, FAULTS, seed=SEED, **kw
        )
        chaos_env("crash@1")
        pooled = run_campaign(
            pathfinder_app.program, FAULTS, seed=SEED, workers=2, **kw
        )
        assert serial.per_fault == pooled.per_fault
        assert serial.counts == pooled.counts

    def test_crash_with_checkpoint_resume(self, pathfinder_app, chaos_env):
        kw = _kwargs(pathfinder_app)
        serial = run_campaign(
            pathfinder_app.program, FAULTS, seed=SEED,
            checkpoint_interval="auto", **kw,
        )
        chaos_env("crash@1")
        pooled = run_campaign(
            pathfinder_app.program, FAULTS, seed=SEED, workers=2,
            checkpoint_interval="auto", **kw,
        )
        assert serial.per_fault == pooled.per_fault

    def test_injected_exception_and_hang(self, pathfinder_app, chaos_env,
                                         monkeypatch):
        kw = _kwargs(pathfinder_app)
        serial = run_campaign(
            pathfinder_app.program, FAULTS, seed=SEED, **kw
        )
        chaos_env("exc@0,hang@3")
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "5")
        pooled = run_campaign(
            pathfinder_app.program, FAULTS, seed=SEED, workers=2, **kw
        )
        assert serial.per_fault == pooled.per_fault

    def test_per_instruction_campaign_survives_a_crash(
        self, pathfinder_app, chaos_env
    ):
        kw = _kwargs(pathfinder_app)
        serial = run_per_instruction_campaign(
            pathfinder_app.program, 2, seed=SEED, **kw
        )
        chaos_env("crash@2")
        pooled = run_per_instruction_campaign(
            pathfinder_app.program, 2, seed=SEED, workers=2, **kw
        )
        assert serial.per_iid == pooled.per_iid


class TestExhaustionIsTypedNotPartial:
    def test_unrecoverable_chunk_raises_harness_error(
        self, pathfinder_app, chaos_env
    ):
        chaos_env("exc@0#*")
        kw = _kwargs(pathfinder_app)
        with pytest.raises(HarnessError) as ei, run_scope(max_retries=1):
            run_campaign(
                pathfinder_app.program, FAULTS, seed=SEED, workers=2, **kw,
            )
        # Typed, with a failure summary — not a raw worker traceback.
        assert isinstance(ei.value, WorkerError)
        assert "chunk 0" in str(ei.value)
        assert "attempt" in str(ei.value)


class TestGenerateEvalInputsRejection:
    class _TrappingApp:
        """Every run traps: the generator must reject all candidates.

        The fake is its own program: the generator filters through
        ``profile_run``, which looks the input up in the program's
        ``golden_profiles`` memo and runs it with ``profile=True``.
        """

        name = "trapping"

        def __init__(self):
            self.program = self
            self.golden_profiles = {}

        def random_input(self, rng):
            return object()

        def encode(self, inp):
            return [], {}

        def run(self, args, bindings, profile=False):
            raise Trap("guest div-by-zero")

    class _ExplodingApp(_TrappingApp):
        """``encode`` has a host-side bug: it must propagate, not reject."""

        name = "exploding"

        def encode(self, inp):
            raise RuntimeError("toolchain bug, not a guest trap")

    def test_trapping_inputs_are_rejected_quietly(self):
        app = self._TrappingApp()
        assert generate_eval_inputs(app, 1, seed=3) == []
        assert app.golden_profiles == {}  # a trapping run memoizes nothing

    def test_host_side_bugs_propagate(self):
        with pytest.raises(RuntimeError, match="toolchain bug"):
            generate_eval_inputs(self._ExplodingApp(), 1, seed=3)

    def test_real_app_yields_requested_count(self, pathfinder_app):
        inputs = generate_eval_inputs(pathfinder_app, 3, seed=5)
        assert len(inputs) == 3
