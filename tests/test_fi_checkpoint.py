"""Determinism regression: every campaign engine produces identical numbers.

Serial cold, process-parallel cold, checkpoint-resumed serial, and
checkpoint-resumed parallel runs of the same seeded campaign must agree on
``per_fault`` (order included) and ``OutcomeCounts`` — the checkpoint engine
is an accelerator, never an approximation. Exercised on two apps with
different outcome mixes plus the per-instruction campaign style, and on all
11 apps for the default (checkpointed) against ``checkpoint_interval=None``.
"""

from __future__ import annotations

import pytest

from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.fi.faultmodel import injectable_iids
from repro.vm.checkpoint import auto_interval, record_checkpoints
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run
from tests.conftest import bits


def _campaign_kwargs(app):
    args, bindings = app.encode(app.reference_input)
    return dict(
        args=args, bindings=bindings, rel_tol=app.rel_tol, abs_tol=app.abs_tol
    )


@pytest.fixture(params=["pathfinder", "fft"])
def app_under_test(request, pathfinder_app, fft_app):
    return {"pathfinder": pathfinder_app, "fft": fft_app}[request.param]


class TestWholeProgramDeterminism:
    def test_all_engines_identical(self, app_under_test):
        app = app_under_test
        kw = _campaign_kwargs(app)
        serial = run_campaign(
            app.program, 48, seed=31, workers=0, checkpoint_interval=None,
            **kw,
        )
        par = run_campaign(
            app.program, 48, seed=31, workers=2, checkpoint_interval=None,
            **kw,
        )
        ckpt = run_campaign(
            app.program, 48, seed=31, workers=0,
            checkpoint_interval="auto", **kw,
        )
        ckpt_par = run_campaign(
            app.program, 48, seed=31, workers=2,
            checkpoint_interval="auto", **kw,
        )
        assert serial.per_fault == par.per_fault
        assert serial.per_fault == ckpt.per_fault
        assert serial.per_fault == ckpt_par.per_fault
        assert serial.counts == ckpt.counts == ckpt_par.counts

    def test_explicit_interval_and_prerecorded_store(self, pathfinder_app):
        app = pathfinder_app
        kw = _campaign_kwargs(app)
        serial = run_campaign(
            app.program, 40, seed=5, checkpoint_interval=None, **kw
        )
        fixed = run_campaign(
            app.program, 40, seed=5, checkpoint_interval=512, **kw
        )
        store = record_checkpoints(
            app.program, args=kw["args"], bindings=kw["bindings"], interval=512
        )
        reused = run_campaign(
            app.program, 40, seed=5, checkpoints=store, **kw
        )
        assert serial.per_fault == fixed.per_fault == reused.per_fault


class TestPerInstructionDeterminism:
    def test_checkpointed_matches_cold(self, fft_app):
        app = fft_app
        kw = _campaign_kwargs(app)
        targets = injectable_iids(app.program.module)[:12]
        cold = run_per_instruction_campaign(
            app.program, 3, seed=17, only_iids=targets,
            checkpoint_interval=None, **kw,
        )
        warm = run_per_instruction_campaign(
            app.program, 3, seed=17, only_iids=targets,
            checkpoint_interval="auto", workers=2, **kw,
        )
        assert cold.per_iid == warm.per_iid
        assert cold.sdc_probabilities() == warm.sdc_probabilities()


class TestCheckpointDefault:
    """Resumed trials are the default; ``None`` keeps the cold path."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_default_equals_cold(self, each_app, workers):
        app = each_app
        kw = _campaign_kwargs(app)
        runs = [
            run_campaign(app.program, 40, seed=7, workers=workers, **kw, **ck)
            for ck in ({}, {"checkpoint_interval": None})
        ]
        assert runs[0].per_fault == runs[1].per_fault
        targets = injectable_iids(app.program.module)[:8]
        sweeps = [
            run_per_instruction_campaign(
                app.program, 4, seed=9, only_iids=targets, workers=workers,
                **kw, **ck,
            )
            for ck in ({}, {"checkpoint_interval": None})
        ]
        assert sweeps[0].per_iid == sweeps[1].per_iid

    def test_fused_pass_profile_equals_profile_run(self, each_app):
        app = each_app
        args, bindings = app.encode(app.reference_input)
        ref = profile_run(app.program, args=args, bindings=bindings)
        store = record_checkpoints(
            app.program, args=args, bindings=bindings, profile=True
        )
        got = store.profile
        assert got.instr_counts == ref.instr_counts
        assert got.call_paths == ref.call_paths
        assert got.instr_cycles == ref.instr_cycles
        assert got.fn_cycles == ref.fn_cycles
        assert got.total_cycles == ref.total_cycles
        assert (bits(got.output), got.steps) == (bits(ref.output), ref.steps)
        # Found in the same pass: the interval a length hint would give.
        assert store.golden_steps == ref.steps
        assert store.interval == auto_interval(ref.steps)
        assert len(store) < 24
        steps = [s.steps for s in store.snapshots]
        assert all(b - a >= store.interval for a, b in zip(steps, steps[1:]))
        for snap in store.snapshots[:: max(1, len(store) // 4)]:
            r = app.program.resume(snap)
            assert bits(r.output) == bits(ref.output) and r.steps == ref.steps

    def test_one_golden_execution_before_trials(
        self, pathfinder_app, monkeypatch
    ):
        app = pathfinder_app
        kw = _campaign_kwargs(app)
        golden = []
        real_run, real_record = Program.run, Program.run_checkpointed

        def run(self, *a, **k):
            if k.get("fault") is None:
                golden.append("run")
            return real_run(self, *a, **k)

        def run_checkpointed(self, *a, **k):
            golden.append("record")
            return real_record(self, *a, **k)

        monkeypatch.setattr(Program, "run", run)
        monkeypatch.setattr(Program, "run_checkpointed", run_checkpointed)
        run_campaign(app.program, 10, seed=3, cache=False, **kw)
        assert golden == ["record"]
        golden.clear()
        run_per_instruction_campaign(
            app.program, 1, seed=3, cache=False,
            only_iids=injectable_iids(app.program.module)[:4], **kw,
        )
        assert golden == ["record"]
