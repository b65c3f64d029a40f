"""Unit tests of the telemetry core: metrics, records, sinks, phases, logs."""

from __future__ import annotations

import io
import json
import logging
import sys
import time

import pytest

from repro.obs.core import Telemetry, current, install_worker, session
from repro.obs.events import RECORD_KEYS, SCHEMA_VERSION, jsonable, make_record
from repro.obs.log import configure_logging, get_logger, resolve_level
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.schema import lint_records, validate_record
from repro.obs.sink import JsonlTraceSink, MemorySink, NullSink
from repro.obs.spans import phase, phase_seconds, span


class TestMetricsRegistry:
    def test_counters_add(self):
        m = MetricsRegistry()
        m.count("a")
        m.count("a", 4)
        assert m.counters == {"a": 5}

    def test_drain_resets(self):
        m = MetricsRegistry()
        m.count("a", 3)
        delta = m.drain()
        assert delta["counters"] == {"a": 3}
        assert m.counters == {}

    def test_merge_is_order_independent(self):
        deltas = []
        for vals in ((1.0, 9.0), (4.0,), (0.5, 2.0)):
            w = MetricsRegistry()
            w.count("n", len(vals))
            deltas.append(w.drain())
        a, b = MetricsRegistry(), MetricsRegistry()
        for d in deltas:
            a.merge(d)
        for d in reversed(deltas):
            b.merge(d)
        assert a.snapshot() == b.snapshot()
        assert a.counters["n"] == 5


class TestRecordsAndSchema:
    def test_record_shape(self):
        r = make_record(1.0, "event", "x", "r1", fields={"k": 1})
        assert tuple(r.keys()) == RECORD_KEYS
        assert validate_record(r) == []

    def test_jsonable_normalizes_containers(self):
        assert jsonable({3, 1, 2}) == [1, 2, 3]
        assert jsonable((1, 2)) == [1, 2]
        assert jsonable({"k": {2, 1}}) == {"k": [1, 2]}

    def test_validate_rejects_bad_records(self):
        assert validate_record([]) != []
        assert validate_record({"ts": 0}) != []
        bad = make_record(1.0, "event", "x", "r1")
        bad["kind"] = "bogus"
        assert any("kind" in p for p in validate_record(bad))

    def test_lint_requires_meta_and_summary(self):
        recs = [
            make_record(1.0, "meta", "trace.meta", "r1",
                        fields={"schema": SCHEMA_VERSION}),
            make_record(2.0, "event", "e", "r1"),
            make_record(3.0, "summary", "trace.summary", "r1"),
        ]
        assert lint_records(recs) == []
        assert lint_records(recs[1:]) != []  # no leading meta
        assert lint_records(recs[:-1]) != []  # no trailing summary
        assert lint_records(recs[:-1], require_summary=False) == []

    def test_lint_flags_mixed_run_ids(self):
        recs = [
            make_record(1.0, "meta", "trace.meta", "r1",
                        fields={"schema": SCHEMA_VERSION}),
            make_record(2.0, "event", "e", "r2"),
            make_record(3.0, "summary", "trace.summary", "r1"),
        ]
        assert any("run" in p for p in lint_records(recs))


class TestSinks:
    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        sink.write(make_record(1.0, "event", "x", "r1", fields={"a": [1, 2]}))
        sink.close()
        sink.close()  # idempotent
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["fields"] == {"a": [1, 2]}

    def test_jsonl_sink_write_after_close(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.write(make_record(1.0, "event", "x", "r1"))

    def test_null_sink_discards(self):
        sink = NullSink()
        sink.write(make_record(1.0, "event", "x", "r1"))
        sink.close()


class TestTelemetryContext:
    def test_session_installs_and_restores(self):
        assert current() is None
        with session(sink=MemorySink()) as t:
            assert current() is t
        assert current() is None

    def test_session_trace_has_meta_and_summary(self):
        sink = MemorySink()
        with session(sink=sink) as t:
            t.count("x", 2)
            t.emit("e", {"v": 1})
        names = [r["name"] for r in sink.records]
        assert names[0] == "trace.meta" and names[-1] == "trace.summary"
        assert sink.records[-1]["fields"]["counters"] == {"x": 2}
        assert lint_records(sink.records) == []

    def test_sessions_shadow(self):
        with session(sink=MemorySink()) as outer:
            with session(sink=MemorySink()) as inner:
                assert current() is inner
            assert current() is outer

    def test_campaign_ids_are_sequential(self):
        t = Telemetry(sink=NullSink())
        assert [t.new_campaign() for _ in range(3)] == ["c001", "c002", "c003"]

    def test_install_worker_is_metrics_only(self):
        with session(sink=MemorySink()):
            w = install_worker()
            try:
                assert current() is w and w.is_worker
                w.count("n", 2)
                assert w.metrics.drain()["counters"] == {"n": 2}
            finally:
                # restore the outer session's context for the assertion above
                pass

    def test_progress_off_by_default(self):
        with session(sink=MemorySink()) as t:
            assert t.progress_for("x", 10) is None


class TestPhaseTimer:
    """Phase spans and :func:`phase_seconds`, the pipelines' phase clock."""

    def _phases(self, body) -> tuple[dict[str, float], list[dict]]:
        sink = MemorySink()
        with session(sink=sink):
            body()
        return phase_seconds(sink.records), sink.records

    def test_reentrant_same_name_counts_once(self):
        def body():
            with phase("a"):
                time.sleep(0.01)
                with phase("a"):
                    time.sleep(0.01)
                time.sleep(0.005)

        t0 = time.perf_counter()
        totals, _ = self._phases(body)
        wall = time.perf_counter() - t0
        # Exclusive semantics: the re-entered span is subtracted from the
        # outer one, so the total is the wall time, not wall + inner.
        assert totals["a"] <= wall + 1e-3
        assert totals["a"] >= 0.025

    def test_nested_phases_split_the_wall_clock(self):
        def body():
            with phase("outer"):
                time.sleep(0.01)
                with phase("inner"):
                    time.sleep(0.01)
                time.sleep(0.01)

        t0 = time.perf_counter()
        totals, records = self._phases(body)
        wall = time.perf_counter() - t0
        assert totals["inner"] >= 0.01
        assert totals["outer"] >= 0.02
        assert sum(totals.values()) <= wall + 1e-3  # no overlap inflation
        outer = next(r for r in records if r["name"] == "outer")
        assert sum(totals.values()) == pytest.approx(
            outer["fields"]["seconds"]
        )

    def test_sequential_phases_accumulate(self):
        def body():
            with phase("a"):
                time.sleep(0.005)
            with phase("a"):
                time.sleep(0.005)

        totals, _ = self._phases(body)
        assert totals["a"] >= 0.01

    def test_exception_unwinds_cleanly(self):
        sink = MemorySink()
        with session(sink=sink) as t:
            with pytest.raises(ValueError):
                with phase("outer"):
                    with phase("inner"):
                        raise ValueError
            assert t.current_span() is None  # both spans popped
        assert set(phase_seconds(sink.records)) == {"outer", "inner"}
        assert lint_records(sink.records) == []

    def test_phase_records_emitted_to_trace(self):
        sink = MemorySink()
        with session(sink=sink):
            with phase("p"):
                pass
        phases = [r for r in sink.records if r["kind"] == "span"]
        assert len(phases) == 1 and phases[0]["name"] == "p"
        assert phases[0]["fields"]["phase"] == "p"

    def test_fractions_sum_to_one(self):
        def body():
            with phase("a"):
                time.sleep(0.005)
            with phase("b"):
                time.sleep(0.005)

        totals, _ = self._phases(body)
        total = sum(totals.values())
        fr = {name: sec / total for name, sec in totals.items()}
        assert pytest.approx(sum(fr.values()), abs=1e-9) == 1.0

    def test_empty_fractions(self):
        assert phase_seconds([]) == {}
        # Spans without a phase attribute are not phases.
        sink = MemorySink()
        with session(sink=sink):
            with span("campaign"):
                pass
        assert phase_seconds(sink.records) == {}

    def test_nesting_through_non_phase_spans(self):
        def body():
            with phase("outer"):
                with span("campaign"):
                    with phase("inner"):
                        time.sleep(0.01)

        totals, records = self._phases(body)
        outer = next(r for r in records if r["name"] == "outer")
        assert sum(totals.values()) == pytest.approx(
            outer["fields"]["seconds"]
        )
        assert totals["inner"] >= 0.01 > totals["outer"]


class TestProgressReporter:
    def test_emits_first_and_final_heartbeat(self):
        buf = io.StringIO()
        rep = ProgressReporter("camp", 4, interval=0.0, stream=buf)
        for _ in range(4):
            rep.update(1)
        rep.finish()
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("[repro] camp: 0/4")
        assert "eta" in lines[0]
        assert "done in" in lines[-1] and "4/4" in lines[-1]

    def test_interval_throttles(self):
        buf = io.StringIO()
        rep = ProgressReporter("camp", 100, interval=3600.0, stream=buf)
        for _ in range(100):
            rep.update(1)
        rep.finish()
        # first line + final line only: everything in between is throttled
        assert len(buf.getvalue().splitlines()) == 2

    def test_context_manager_finishes_on_exception(self):
        buf = io.StringIO()
        with pytest.raises(RuntimeError):
            with ProgressReporter("camp", 4, interval=0.0, stream=buf) as rep:
                rep.update(2)
                raise RuntimeError("campaign died")
        assert rep.finished
        assert "done in" in buf.getvalue().splitlines()[-1]

    def test_finish_is_idempotent(self):
        buf = io.StringIO()
        with ProgressReporter("camp", 1, interval=0.0, stream=buf) as rep:
            rep.update(1)
            rep.finish()
        n = len(buf.getvalue().splitlines())
        rep.finish()
        assert len(buf.getvalue().splitlines()) == n

    def test_progress_scope_wraps_none(self):
        from repro.obs.progress import progress_scope

        with progress_scope(None) as rep:
            assert rep is None  # progress off: scope is inert

    def test_progress_scope_finishes_reporter(self):
        from repro.obs.progress import progress_scope

        buf = io.StringIO()
        with pytest.raises(ValueError):
            with progress_scope(
                ProgressReporter("camp", 2, interval=0.0, stream=buf)
            ) as rep:
                raise ValueError
        assert rep.finished

    def test_renderer_replaces_line_printing(self):
        buf = io.StringIO()
        calls = []
        rep = ProgressReporter(
            "camp", 2, interval=0.0, stream=buf,
            renderer=lambda r, now, final: calls.append((r.done, final)),
        )
        rep.update(2)
        rep.finish()
        assert buf.getvalue() == ""  # nothing printed directly
        assert calls[0] == (0, False) and calls[-1] == (2, True)


class TestDashboard:
    def _telemetry_with_metrics(self):
        t = Telemetry(sink=NullSink())
        t.count("fi.trials", 10)
        t.count("cache.hit", 3)
        t.count("cache.miss", 1)
        return t

    def test_renders_in_place_on_ansi_stream(self):
        from repro.obs.dashboard import Dashboard
        from repro.obs.progress import ProgressReporter

        buf = io.StringIO()
        dash = Dashboard(stream=buf, ansi=True)
        t = self._telemetry_with_metrics()
        rep = ProgressReporter("camp", 10, interval=0.0, stream=buf,
                               renderer=lambda r, now, final: None)
        rep.done = 5
        dash.render(t, rep)
        first = buf.getvalue()
        assert "camp" in first and "5/10" in first
        dash.render(t, rep, final=True)
        assert "\x1b[" in buf.getvalue()  # repaint moved the cursor

    def test_appends_blocks_without_ansi(self):
        from repro.obs.dashboard import Dashboard
        from repro.obs.progress import ProgressReporter

        buf = io.StringIO()
        dash = Dashboard(stream=buf, ansi=False)
        t = self._telemetry_with_metrics()
        rep = ProgressReporter("camp", 10, interval=0.0, stream=buf,
                               renderer=lambda r, now, final: None)
        dash.render(t, rep)
        dash.render(t, rep, final=True)
        text = buf.getvalue()
        assert "\x1b[" not in text
        assert "cache" in text  # hit-rate line present (lookups > 0)

    def test_session_dashboard_drives_progress(self):
        from repro.obs.dashboard import Dashboard

        buf = io.StringIO()
        dash = Dashboard(stream=buf, ansi=False)
        with session(sink=MemorySink(), dashboard=dash,
                     progress_interval=0.0) as t:
            assert t.progress  # --dashboard implies progress
            rep = t.progress_for("camp", 2)
            rep.update(2)
            rep.finish()
        assert "camp" in buf.getvalue()


class TestLogging:
    def test_resolve_level_precedence(self):
        assert resolve_level(0, None) == logging.WARNING
        assert resolve_level(1, None) == logging.INFO
        assert resolve_level(2, None) == logging.DEBUG
        assert resolve_level(2, "error") == logging.ERROR  # explicit wins

    def test_configure_routes_to_stream(self):
        buf = io.StringIO()
        configure_logging(verbose=1, stream=buf)
        try:
            get_logger("unit").info("hello %d", 7)
        finally:
            configure_logging(verbose=0, stream=io.StringIO())
        assert "hello 7" in buf.getvalue()
        assert "[repro]" in buf.getvalue()

    def test_default_handler_follows_current_stderr(self, capsys):
        # A capture stream that was current at configure time and closed
        # since must not swallow later records.
        stale = io.StringIO()
        saved = sys.stderr
        sys.stderr = stale
        try:
            configure_logging()
        finally:
            sys.stderr = saved
        stale.close()
        try:
            get_logger("fabric.serve").warning("after the capture closed")
        finally:
            configure_logging(verbose=0, stream=io.StringIO())
        err = capsys.readouterr().err
        assert "after the capture closed" in err
        assert "Logging error" not in err
