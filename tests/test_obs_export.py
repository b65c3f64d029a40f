"""Chrome trace-event export: a recorded campaign trace converts into a
valid, Perfetto-loadable event stream — even when the trace was truncated
mid-write by a crashed producer."""

from __future__ import annotations

import json

import pytest

from repro.fi.campaign import run_campaign
from repro.obs.core import session
from repro.obs.export import (
    lint_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.report import load_trace
from repro.obs.spans import phase


@pytest.fixture(autouse=True)
def _fast_heartbeats(monkeypatch):
    monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "0")


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    from tests.conftest import cached_app

    app = cached_app("pathfinder")
    path = tmp_path_factory.mktemp("export") / "t.jsonl"
    a, b = app.encode(app.reference_input)
    with session(trace=str(path)), phase("profiling"):
        run_campaign(
            app.program, 48, 7, args=a, bindings=b, rel_tol=app.rel_tol,
            abs_tol=app.abs_tol, workers=2, cache=False,
        )
    return path


class TestChromeTraceExport:
    def test_export_validates(self, trace_path):
        obj = to_chrome_trace(load_trace(trace_path))
        assert lint_chrome_trace(obj) == []
        assert obj["displayTimeUnit"] == "ms"

    def test_spans_become_complete_events(self, trace_path):
        records = load_trace(trace_path)
        obj = to_chrome_trace(records)
        slices = [
            e for e in obj["traceEvents"]
            if e.get("cat") == "span" and e["ph"] == "X"
        ]
        n_spans = sum(1 for r in records if r["kind"] == "span")
        assert len(slices) == n_spans > 0
        for e in slices:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert "span_id" in e["args"] and "parent_id" in e["args"]

    def test_worker_spans_get_their_own_lane(self, trace_path):
        obj = to_chrome_trace(load_trace(trace_path))
        span_tids = {
            e["tid"] for e in obj["traceEvents"] if e.get("cat") == "span"
        }
        assert 0 in span_tids          # the parent process lane
        assert len(span_tids) >= 2     # at least one worker lane
        names = {
            (e["tid"], e["args"]["name"]) for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        labels = {label for _, label in names}
        assert "main" in labels
        assert any(label.startswith("worker ") for label in labels)

    def test_phase_spans_enclose_their_campaigns(self, trace_path):
        obj = to_chrome_trace(load_trace(trace_path))
        slices = {
            e["name"]: e for e in obj["traceEvents"] if e.get("cat") == "span"
        }
        outer, inner = slices["profiling"], slices["campaign"]
        assert outer["tid"] == inner["tid"] == 0  # the main lane
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e3
        lanes = {
            e["args"]["name"] for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "phase charges" not in lanes

    def test_round_trip_on_truncated_trace(self, trace_path, tmp_path):
        # Chop the final line mid-JSON, as a killed producer would: export
        # must still produce a valid object from the recovered records.
        text = trace_path.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(text[: len(text) - 25])
        warnings: list[str] = []
        records = load_trace(
            torn, tolerate_torn_tail=True, warnings=warnings
        )
        assert len(warnings) == 1
        out = tmp_path / "torn.chrome.json"
        n = write_chrome_trace(records, out)
        obj = json.loads(out.read_text())
        assert lint_chrome_trace(obj) == []
        assert len(obj["traceEvents"]) == n

    def test_cli_export_subcommand(self, trace_path, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "exported.json"
        rc = main(["obs", "export", str(trace_path), "-o", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert lint_chrome_trace(obj) == []
        assert str(out) in capsys.readouterr().out

    def test_lint_catches_malformed_events(self):
        assert lint_chrome_trace([]) != []
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "dur": -1},
            {"name": "y", "ph": "Z"},
            {"ph": "i", "ts": "nope"},
        ]}
        errs = lint_chrome_trace(bad)
        # dur<0; unsupported phase; missing name + non-numeric ts.
        assert len(errs) == 4
