"""The user-facing surfaces: CLI flags, heartbeats, and the trace report."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.obs.events import make_record
from repro.obs.report import load_trace, perf_references_table, render_report
from repro.obs.spans import span_records
from repro.util.benchmeta import bench_record, reference_status


@pytest.fixture(autouse=True)
def _fast_heartbeats(monkeypatch):
    monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "0")


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def _table_rows(report: str, title: str) -> dict[str, list[str]]:
    """The rows of the report section titled ``title``, by first cell."""
    section = report.split(title, 1)[1].split("\n\n", 1)[0]
    rows = (
        [c.strip() for c in line.split("|")]
        for line in section.splitlines() if "|" in line
    )
    return {cells[0]: cells for cells in rows}


class TestCliObservabilityFlags:
    def test_fi_alias_matches_inject(self):
        _, via_inject = run_cli("inject", "pathfinder", "--faults", "40")
        _, via_fi = run_cli("fi", "pathfinder", "--faults", "40")
        assert via_fi == via_inject

    def test_trace_flag_writes_valid_trace(self, tmp_path):
        path = tmp_path / "out.jsonl"
        code, out = run_cli(
            "fi", "pathfinder", "--faults", "40", "--trace", str(path)
        )
        assert code == 0
        records = load_trace(path)
        assert records[0]["name"] == "trace.meta"
        assert records[-1]["name"] == "trace.summary"
        assert "SDC probability" in out  # stdout output unaffected

    def test_progress_heartbeats_on_stderr_with_eta(self, capsys, tmp_path):
        code, out = run_cli(
            "fi", "pathfinder", "--faults", "40", "--progress",
            "--trace", str(tmp_path / "o.jsonl"),
        )
        assert code == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("[repro] ")]
        assert len(lines) >= 2  # opening heartbeat + closing line at least
        assert any("eta" in l for l in lines)
        assert any("done in" in l for l in lines)
        # heartbeats never leak onto stdout
        assert "[repro]" not in out

    def test_verbose_diagnostics_on_stderr(self, capsys):
        _, out = run_cli("fi", "pathfinder", "--faults", "40", "-v")
        err = capsys.readouterr().err
        assert "INFO" in err and "campaign:" in err
        assert "INFO" not in out

    def test_quiet_by_default(self, capsys):
        run_cli("fi", "pathfinder", "--faults", "40")
        assert "INFO" not in capsys.readouterr().err

    def test_log_level_overrides_verbose(self, capsys):
        run_cli("fi", "pathfinder", "--faults", "40", "-v",
                "--log-level", "error")
        assert "INFO" not in capsys.readouterr().err


class TestObsReport:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "run.jsonl"
        code, _ = run_cli(
            "protect", "pathfinder", "--method", "minpsid",
            "--trials", "4", "--search-inputs", "2",
            "--trace", str(path),
        )
        assert code == 0
        return path

    def test_report_renders_phase_breakdown(self, trace_path):
        text = render_report(trace_path)
        assert "Phase breakdown" in text
        for phase in ("per_inst_fi_ref", "search_engine", "selection"):
            assert phase in text
        assert "100.0%" in text  # the total row
        assert "outside any phase" in text

    def test_phase_table_counts_time_outside_any_phase(self, tmp_path):
        span = {"span_id": "s1", "parent_id": None, "start": 1.0,
                "seconds": 2.0, "phase": "search_engine"}
        records = [
            make_record(0.0, "meta", "trace.meta", "r", fields={"schema": 3}),
            make_record(3.0, "span", "search_engine", "r", fields=span),
            make_record(10.0, "summary", "trace.summary", "r",
                        fields={"counters": {}}),
        ]
        path = tmp_path / "phases.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        rows = _table_rows(render_report(path), "Phase breakdown")
        assert rows["search_engine"][1:] == ["2.000s", "20.0%"]
        assert rows["inside any phase"][1:] == ["2.000s", "20.0%"]
        assert rows["outside any phase"][1:] == ["8.000s", "80.0%"]
        assert rows["traced wall time"][1:] == ["10.000s", "100.0%"]

    def test_campaign_wall_is_the_campaign_span(self, trace_path):
        records = load_trace(trace_path)
        wall = {
            r["campaign"]: r["fields"]["seconds"]
            for r in span_records(records) if r["name"] == "campaign"
        }
        assert wall
        rows = _table_rows(render_report(trace_path), "FI campaigns")
        for cid, seconds in wall.items():
            assert rows[cid][-2] == f"{seconds:.2f}s"
        ends = [r for r in records if r["name"] == "campaign.end"]
        assert len(ends) == len(wall)
        assert all("seconds" not in r["fields"] for r in ends)

    def test_report_renders_campaign_table(self, trace_path):
        text = render_report(trace_path)
        assert "FI campaigns" in text
        assert "fi.per-instruction" in text
        assert "Trials/s" in text

    def test_report_renders_counters(self, trace_path):
        text = render_report(trace_path)
        assert "Final counters" in text
        assert "fi.trials" in text and "vm.runs" in text

    def test_obs_report_subcommand(self, trace_path):
        code, out = run_cli("obs", "report", str(trace_path))
        assert code == 0
        assert "Phase breakdown" in out and "FI campaigns" in out

    def test_report_on_fi_trace_has_ga_and_search_events(self, trace_path):
        names = {r["name"] for r in load_trace(trace_path)}
        assert "ga.generation" in names or "ga.search" in names
        assert "search.round" in names
        assert "sid.selection" in names

    def test_load_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ts": 1}\nnot json\n')
        with pytest.raises(ValueError):
            load_trace(bad)

    def test_report_tolerates_partial_trace(self, trace_path, tmp_path):
        # A crashed run leaves no trailing summary; the report must still
        # render (with a lint warning) rather than refuse.
        lines = trace_path.read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[:-1]) + "\n")
        text = render_report(partial)
        assert "Phase breakdown" in text

    def test_load_trace_rejects_torn_tail_by_default(self, trace_path, tmp_path):
        text = trace_path.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(text[: len(text) - 20])  # chop the final line mid-JSON
        with pytest.raises(ValueError):
            load_trace(torn)  # the strict mode trace_lint relies on

    def test_load_trace_drops_torn_tail_when_tolerated(
        self, trace_path, tmp_path
    ):
        full = load_trace(trace_path)
        text = trace_path.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(text[: len(text) - 20])
        warnings: list[str] = []
        records = load_trace(torn, tolerate_torn_tail=True, warnings=warnings)
        assert records == full[:-1]  # only the torn final line was dropped
        assert len(warnings) == 1
        assert "torn final line" in warnings[0]

    def test_torn_tail_never_hides_mid_file_garbage(self, trace_path, tmp_path):
        lines = trace_path.read_text().splitlines()
        lines[1] = lines[1][:-15]  # corrupt an interior line
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_trace(bad, tolerate_torn_tail=True)

    def test_report_renders_torn_trace_with_warning(
        self, trace_path, tmp_path
    ):
        text = trace_path.read_text()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(text[: len(text) - 20])
        report = render_report(torn)
        assert "WARNING" in report and "torn final line" in report
        assert "Phase breakdown" in report

    def test_report_renders_span_rollup(self, trace_path):
        text = render_report(trace_path)
        assert "Span" in text
        assert "campaign" in text


class TestPerfReferences:
    """BENCH_*.json records checked against their declared tolerance bands."""

    def _write(self, path, payload, references=None):
        path.write_text(json.dumps(bench_record(payload, references)))

    def test_reference_status_bands(self):
        rec = bench_record(
            {"needle": {"speedup": 21.0}, "ratio": 0.5},
            references={
                "needle.speedup": [20.0, -0.25, None],  # >= 15: ok
                "ratio": [1.0, -0.2, 0.2],  # 0.8..1.2: fails at 0.5
                "missing.key": [1.0, None, None],
                "needle": [3.0, None, None],  # non-numeric measurement
            },
        )
        by_key = {row[0]: row for row in reference_status(rec)}
        assert by_key["needle.speedup"][-1] is True
        assert by_key["ratio"][-1] is False
        assert by_key["missing.key"][1] is None  # measured absent -> fail
        assert by_key["missing.key"][-1] is False
        assert by_key["needle"][-1] is False

    def test_reference_status_malformed_spec_never_raises(self):
        rec = {"data": {"x": 1.0}, "references": {"x": "not-a-band"}}
        (row,) = reference_status(rec)
        assert row[-1] is False
        assert reference_status({"data": {}}) == []
        assert reference_status({"references": {"x": [1, None, None]}}) == []

    def test_table_flags_out_of_band_keys(self, tmp_path):
        self._write(
            tmp_path / "BENCH_good.json", {"speedup": 25.0},
            references={"speedup": [20.0, -0.25, None]},
        )
        self._write(
            tmp_path / "BENCH_slow.json", {"speedup": 3.0},
            references={"speedup": [20.0, -0.25, None]},
        )
        text = perf_references_table(tmp_path)
        assert "BENCH_good.json" in text and "ok" in text
        assert "BENCH_slow.json" in text and "FAIL" in text

    def test_table_tolerates_legacy_and_broken_records(self, tmp_path):
        # Pre-envelope flat record: present but nothing to check.
        (tmp_path / "BENCH_flat.json").write_text('{"speedup": 2.0}')
        (tmp_path / "BENCH_bad.json").write_text("{corrupt")
        text = perf_references_table(tmp_path)
        assert "(no references)" in text
        assert "(unreadable)" in text

    def test_table_absent_without_records(self, tmp_path):
        assert perf_references_table(tmp_path) is None
        assert perf_references_table(tmp_path / "missing") is None

    def test_report_appends_bench_section(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, _ = run_cli(
            "fi", "pathfinder", "--faults", "40", "--trace", str(trace)
        )
        assert code == 0
        bench = tmp_path / "out"
        bench.mkdir()
        self._write(
            bench / "BENCH_x.json", {"speedup": 25.0},
            references={"speedup": [20.0, -0.25, None]},
        )
        code, out = run_cli(
            "obs", "report", str(trace), "--bench-dir", str(bench)
        )
        assert code == 0
        assert "Perf references" in out and "BENCH_x.json" in out
        # A missing directory just omits the section.
        code, out = run_cli(
            "obs", "report", str(trace), "--bench-dir", str(tmp_path / "no")
        )
        assert code == 0
        assert "Perf references" not in out


class TestCacheTable:
    """Golden-profile reads share the store but not the campaign rows."""

    @staticmethod
    def _rows(counters) -> dict:
        from repro.obs.report import _cache_table

        text = _cache_table(
            [{"kind": "summary", "fields": {"counters": counters}}]
        )
        rows = {}
        for line in text.splitlines():
            cells = [c.strip() for c in line.split("|")]
            if len(cells) == 2:
                rows[cells[0]] = cells[1]
        return rows

    def test_profile_hits_and_misses_are_shown_apart(self):
        rows = self._rows({
            "cache.hit": 7, "cache.miss": 3, "cache.write": 4,
            "vm.profile_cache_hits": 5, "vm.profile_cache_misses": 1,
        })
        assert rows["lookups"] == "4"
        assert rows["hits"] == "2"
        assert rows["misses"] == "2"
        assert rows["hit rate"] == "50.0%"
        assert rows["golden profiles served"] == "5"
        assert rows["golden-profile misses"] == "1"
        assert rows["writes"] == "4"

    def test_a_campaign_only_trace_reads_as_before(self):
        rows = self._rows({"cache.hit": 3, "cache.miss": 1})
        assert (rows["lookups"], rows["hit rate"]) == ("4", "75.0%")
        assert rows["golden profiles served"] == "0"


class TestFabricHealthTable:
    """Per-adapter columns in the "Fabric health" report section."""

    @staticmethod
    def _render(counters):
        from repro.obs.report import _fabric_table

        return _fabric_table(
            [{"kind": "summary", "fields": {"counters": counters}}]
        )

    def test_absent_without_fabric_counters(self):
        assert self._render({"cache.hit": 3}) is None

    def test_totals_only_when_counters_are_unlabelled(self):
        text = self._render({"fabric.adapters_connected": 2})
        assert "Fabric health" in text
        assert "Adapter" not in text

    def test_per_adapter_rows_from_labelled_counters(self):
        text = self._render({
            "fabric.adapters_connected": 2,
            "fabric.chunks.pid100": 7,
            "fabric.chunks.pid200": 5,
            "fabric.retries.pid200": 1,
            "fabric.disconnects": 1,
            "fabric.disconnects.pid200": 1,
        })
        assert "Fabric health" in text
        lines = [l for l in text.splitlines() if "pid" in l]
        assert len(lines) == 2
        assert "pid100" in lines[0] and "7" in lines[0]
        assert "pid200" in lines[1]
        for cell in ("5", "1"):
            assert cell in lines[1]
        # An adapter seen only through a retry still gets a row.
        text = self._render({"fabric.retries.pid300": 2})
        assert "pid300" in text
