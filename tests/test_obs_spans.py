"""Span-graph tracing: nesting, cross-process shipping, and the determinism
contract — span trees are structurally identical across worker counts and
engines, and campaigns stay bit-identical with spans on or off."""

from __future__ import annotations

import time

import pytest

from repro.fi.campaign import run_campaign
from repro.minpsid.ga import GAConfig
from repro.minpsid.pipeline import MINPSIDConfig, minpsid
from repro.minpsid.search import InputSearchConfig
from repro.obs.core import install_worker, session
from repro.obs.schema import lint_records
from repro.obs.sink import MemorySink
from repro.obs.spans import (
    phase_seconds,
    span,
    span_records,
    span_tree,
    structural_signature,
)
from repro.runconfig import run_scope
from tests.conftest import cached_app

FAULTS = 64
SEED = 2022


@pytest.fixture(autouse=True)
def _fast_heartbeats(monkeypatch):
    monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "0")


def _campaign(app, workers, **kw):
    a, b = app.encode(app.reference_input)
    return run_campaign(
        app.program, FAULTS, SEED, args=a, bindings=b,
        rel_tol=app.rel_tol, abs_tol=app.abs_tol, workers=workers,
        cache=False, **kw
    )


class TestSpanContextManager:
    def test_noop_without_telemetry(self):
        with span("outer") as sp:
            assert sp.span_id is None  # whole span is free when untraced

    def test_nesting_sets_parent(self):
        sink = MemorySink()
        with session(sink=sink):
            with span("outer") as outer:
                with span("inner"):
                    pass
        spans = span_records(sink.records)
        assert [r["name"] for r in spans] == ["inner", "outer"]  # exit order
        inner, outer_rec = spans
        assert inner["fields"]["parent_id"] == outer.span_id
        assert outer_rec["fields"]["parent_id"] is None
        assert outer_rec["fields"]["seconds"] >= inner["fields"]["seconds"]

    def test_attributes_added_until_exit(self):
        sink = MemorySink()
        with session(sink=sink):
            with span("campaign", {"label": "x"}) as sp:
                sp.fields["trials"] = 7
        rec = span_records(sink.records)[0]
        assert rec["fields"]["label"] == "x"
        assert rec["fields"]["trials"] == 7

    def test_attributes_cannot_shadow_identity(self):
        sink = MemorySink()
        with session(sink=sink):
            with span("s") as sp:
                sp.fields["span_id"] = "forged"
        rec = span_records(sink.records)[0]
        assert rec["fields"]["span_id"] == sp.span_id != "forged"

    def test_emitted_on_exception(self):
        sink = MemorySink()
        with session(sink=sink):
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError("boom")
        assert [r["name"] for r in span_records(sink.records)] == ["doomed"]

    def test_seconds_survive_a_wall_clock_step_back(self, monkeypatch):
        # The wall clock steps back half a second per read; the duration
        # comes from the monotonic clock, so it stays non-negative.
        wall = iter(1000.0 - 0.5 * k for k in range(100))
        monkeypatch.setattr(time, "time", lambda: next(wall))
        sink = MemorySink()
        with session(sink=sink):
            with span("s"):
                pass
        (rec,) = span_records(sink.records)
        assert rec["fields"]["seconds"] >= 0
        assert lint_records(sink.records) == []

    def test_span_records_lint_clean(self):
        sink = MemorySink()
        with session(sink=sink):
            with span("a", infra=True):
                with span("b", {"trials": 3}):
                    pass
        assert lint_records(sink.records) == []


class TestWorkerSpanShipping:
    def test_worker_buffers_and_drains(self):
        from repro.obs.core import _install

        t = install_worker(span_root="s1")
        try:
            with span("chunk", infra=True):
                with span("trial", infra=True):
                    pass
            shipped = t.drain_spans()
        finally:
            _install(None)
        assert [r["name"] for r in shipped] == ["trial", "chunk"]
        chunk = shipped[1]
        assert chunk["fields"]["parent_id"] == "s1"  # seeded campaign root
        assert all(
            r["fields"]["span_id"].startswith(f"w{t.pid}-") for r in shipped
        )
        assert t.drain_spans() == []  # drained means drained

    def test_parallel_campaign_ships_worker_subtrees(self, pathfinder_app):
        sink = MemorySink()
        with session(sink=sink):
            _campaign(pathfinder_app, workers=2)
        recs = sink.records
        assert lint_records(recs) == []
        worker_spans = [
            r for r in span_records(recs)
            if r["fields"]["span_id"].startswith("w")
        ]
        assert worker_spans, "worker span subtrees must ship home"
        # Shipped records are re-homed under the parent's run id.
        assert {r["run"] for r in recs} == {recs[0]["run"]}
        # Every worker chunk parents under the (parent-side) campaign span.
        roots, nodes = span_tree(recs)
        campaign = [
            n for n in nodes.values() if n["record"]["name"] == "campaign"
        ]
        assert len(campaign) == 1
        chunk_parents = {
            r["fields"]["parent_id"]
            for r in worker_spans if r["name"] == "chunk"
        }
        assert chunk_parents == {
            campaign[0]["record"]["fields"]["span_id"]
        }


class TestSpanTreeDeterminism:
    """The acceptance criterion: structurally identical span trees across
    REPRO_WORKERS=0/2 and --engine=scalar/batch; bit-identical outcomes."""

    def _traced(self, app, workers, engine):
        sink = MemorySink()
        with session(sink=sink):
            camp = _campaign(app, workers=workers, engine=engine)
        assert lint_records(sink.records) == []
        return camp, sink.records

    def test_signature_stable_across_workers_and_engines(
        self, pathfinder_app
    ):
        bare = _campaign(pathfinder_app, workers=0)
        sigs, variants = set(), []
        for workers in (0, 2):
            for engine in ("scalar", "batch"):
                camp, recs = self._traced(pathfinder_app, workers, engine)
                assert camp.per_fault == bare.per_fault, (workers, engine)
                sigs.add(structural_signature(recs))
                variants.append((workers, engine))
        assert len(sigs) == 1, f"signature diverged across {variants}"
        (sig,) = sigs
        # The workload shape itself: one campaign span with its attributes.
        assert sig == (
            ("campaign", (("label", "fi.whole-program"),
                          ("trials", FAULTS)), ()),
        )

    def test_minpsid_signature_stable_across_workers(self):
        """Phase spans are workload shape: a traced MINPSID run has the
        same signature serially and on two workers, phases included."""
        app = cached_app("bfs")
        cfg = MINPSIDConfig(
            per_instruction_trials=2, seed=3,
            search=InputSearchConfig(
                max_inputs=1, per_instruction_trials=2,
                ga=GAConfig(population_size=3, max_generations=1),
            ),
        )
        sigs, selected = [], []
        for workers in (0, 2):
            sink = MemorySink()
            with run_scope(workers=workers, cache=False), session(sink=sink):
                res = minpsid(app, cfg)
            assert lint_records(sink.records) == []
            sigs.append(structural_signature(sink.records))
            selected.append(res.selection.selected)
            pooled = {
                r["fields"]["mode"] for r in sink.records
                if r["name"] == "campaign.batch"
            }
        assert "worker" in pooled  # the two-worker run really pooled
        assert selected[0] == selected[1]
        assert sigs[0] == sigs[1]
        roots = {name for name, _attrs, _children in sigs[0]}
        assert {
            "per_inst_fi_ref", "search_engine", "per_inst_fi_incubative",
            "selection", "transform",
        } <= roots
        assert set(phase_seconds(sink.records)) == roots

    def test_infra_spans_exist_but_are_pruned(self, pathfinder_app):
        _, recs = self._traced(pathfinder_app, workers=0, engine="scalar")
        infra = [
            r for r in span_records(recs) if r["fields"].get("infra")
        ]
        assert infra, "scalar campaigns must emit trial/chunk infra spans"
        assert {"chunk", "trial", "checkpoint.restore"} <= {
            r["name"] for r in infra}
        full = structural_signature(recs, include_infra=True)
        pruned = structural_signature(recs)
        assert full != pruned  # infra spans really were in the tree


class TestSpanTreeHelpers:
    def test_orphans_become_roots(self):
        sink = MemorySink()
        with session(sink=sink):
            with span("parent"):
                with span("child"):
                    pass
        recs = sink.records
        # Drop the parent (as a truncated trace would): child must still
        # materialize, as a root.
        truncated = [
            r for r in recs
            if not (r.get("kind") == "span" and r["name"] == "parent")
        ]
        roots, _ = span_tree(truncated)
        assert [n["record"]["name"] for n in roots] == ["child"]

    def test_lint_flags_broken_span_trees(self):
        sink = MemorySink()
        with session(sink=sink):
            with span("a"):
                pass
        recs = [dict(r, fields=dict(r["fields"])) for r in sink.records]
        for r in recs:
            if r.get("kind") == "span":
                r["fields"]["parent_id"] = "sX"  # dangling parent
        errs = lint_records(recs)
        assert any("parent" in e for e in errs)
