"""Telemetry must never perturb results: bit-identical outcomes with tracing
on/off, and deterministic counters whatever the worker count."""

from __future__ import annotations

import pytest

from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.obs.core import session
from repro.obs.schema import lint_records, lint_trace
from repro.obs.sink import MemorySink

FAULTS = 64
SEED = 2022


@pytest.fixture(autouse=True)
def _fast_heartbeats(monkeypatch):
    monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "0")


def _campaign(app, workers, **kw):
    a, b = app.encode(app.reference_input)
    return run_campaign(
        app.program, FAULTS, SEED, args=a, bindings=b,
        rel_tol=app.rel_tol, abs_tol=app.abs_tol, workers=workers, **kw
    )


class TestTracingIsInert:
    """Same (program, input, seed) → same per_fault, traced or not."""

    def test_golden_run_identical(self, pathfinder_app):
        bare = pathfinder_app.run_reference()
        sink = MemorySink()
        with session(sink=sink):
            traced = pathfinder_app.run_reference()
        assert traced.steps == bare.steps
        assert traced.output == bare.output
        counters = sink.records[-1]["fields"]["counters"]
        assert counters["vm.runs"] == 1
        assert counters["vm.steps"] == bare.steps

    def test_serial_outcomes_identical(self, pathfinder_app):
        bare = _campaign(pathfinder_app, workers=0)
        sink = MemorySink()
        with session(sink=sink, progress=True, progress_stream=open("/dev/null", "w")):
            traced = _campaign(pathfinder_app, workers=0)
        assert traced.per_fault == bare.per_fault
        assert traced.counts.counts == bare.counts.counts
        assert lint_records(sink.records) == []

    def test_parallel_outcomes_identical(self, pathfinder_app):
        bare = _campaign(pathfinder_app, workers=2)
        sink = MemorySink()
        with session(sink=sink):
            traced = _campaign(pathfinder_app, workers=2)
        assert traced.per_fault == bare.per_fault
        assert lint_records(sink.records) == []
        batches = [r for r in sink.records if r["name"] == "campaign.batch"]
        assert len(batches) >= 2  # the pool path really ran, in batches

    def test_checkpointed_outcomes_identical(self, pathfinder_app):
        bare = _campaign(pathfinder_app, workers=0, checkpoint_interval=None)
        with session(sink=MemorySink()):
            ckpt_serial = _campaign(
                pathfinder_app, workers=0, checkpoint_interval="auto"
            )
        with session(sink=MemorySink()):
            ckpt_parallel = _campaign(
                pathfinder_app, workers=2, checkpoint_interval="auto"
            )
        assert ckpt_serial.per_fault == bare.per_fault
        assert ckpt_parallel.per_fault == bare.per_fault

    def test_per_instruction_identical(self, pathfinder_app):
        app = pathfinder_app
        a, b = app.encode(app.reference_input)

        def run():
            return run_per_instruction_campaign(
                app.program, trials_per_instruction=2, seed=SEED,
                args=a, bindings=b, rel_tol=app.rel_tol, abs_tol=app.abs_tol,
                workers=0,
            )

        bare = run()
        with session(sink=MemorySink()):
            traced = run()
        assert {k: v.counts for k, v in traced.per_iid.items()} == {
            k: v.counts for k, v in bare.per_iid.items()
        }


class TestCounterDeterminism:
    """Deterministic counters are identical across REPRO_WORKERS settings."""

    def _counters(self, monkeypatch, n_workers: str) -> dict:
        """One campaign's counters, on a fresh program: what a campaign
        counts depends on whether its program already memoizes the golden
        profile, so no run may inherit another's memo."""
        from repro.apps import get_app

        monkeypatch.setenv("REPRO_WORKERS", n_workers)
        sink = MemorySink()
        with session(sink=sink):
            _campaign(get_app("pathfinder"), workers=None)
        summary = sink.records[-1]
        assert summary["name"] == "trace.summary"
        return summary["fields"]["counters"]

    def test_counters_match_serial_vs_two_workers(self, monkeypatch):
        serial = self._counters(monkeypatch, "0")
        parallel = self._counters(monkeypatch, "2")
        assert serial == parallel
        # and the deterministic quantities are actually in there
        for key in ("vm.runs", "vm.steps", "fi.trials", "fi.campaigns"):
            assert key in serial
        assert serial["fi.trials"] == FAULTS
        assert sum(
            v for k, v in serial.items() if k.startswith("fi.outcome.")
        ) == FAULTS

    def test_outcome_counters_match_campaign_result(self, pathfinder_app):
        sink = MemorySink()
        with session(sink=sink):
            camp = _campaign(pathfinder_app, workers=0)
        counters = sink.records[-1]["fields"]["counters"]
        for o, n in camp.counts.counts.items():
            key = f"fi.outcome.{o.value}"
            assert counters.get(key, 0) == n


class TestTraceSchemaStability:
    """Golden schema check: the JSONL file a session writes always lints."""

    def test_written_trace_lints_clean(self, pathfinder_app, tmp_path):
        path = tmp_path / "t.jsonl"
        with session(trace=str(path)):
            _campaign(pathfinder_app, workers=2, checkpoint_interval="auto")
        assert path.exists()
        assert lint_trace(path) == []

    def test_trace_record_names_are_stable(self, pathfinder_app, tmp_path):
        sink = MemorySink()
        with session(sink=sink):
            _campaign(pathfinder_app, workers=0)
        names = {r["name"] for r in sink.records}
        # The contract downstream tooling (obs report) depends on.
        assert {
            "trace.meta", "campaign.begin", "campaign.batch",
            "campaign.end", "trace.summary",
        } <= names

    @pytest.mark.parametrize("workers", [0, 2])
    def test_durations_live_only_in_spans(self, pathfinder_app, workers):
        sink = MemorySink()
        with session(sink=sink):
            _campaign(pathfinder_app, workers=workers, cache=False)
        for rec in sink.records:
            if rec["kind"] != "span":
                assert not {"seconds", "trials_per_s"} & set(rec["fields"]), rec
        # The summary carries counters, the only metric.
        assert set(sink.records[-1]["fields"]) == {"counters"}

    def test_model_predict_is_a_span(self, pathfinder_app):
        from repro.analysis.model import predict_sdc_probabilities
        from repro.vm.profiler import profile_run

        a, b = pathfinder_app.encode(pathfinder_app.reference_input)
        prof = profile_run(pathfinder_app.program, args=a, bindings=b)
        sink = MemorySink()
        with session(sink=sink):
            predict_sdc_probabilities(pathfinder_app.module, prof, cache=False)
        (rec,) = [r for r in sink.records if r["name"] == "model.predict"]
        assert rec["kind"] == "span"
        assert {
            "module", "n_instructions", "n_functions", "whole_program_sdc",
        } <= set(rec["fields"])
        assert lint_records(sink.records) == []
