"""Guest hotspot profiler: per-function cycle attribution, call-path folded
stacks, and the batch engine's per-site divergence accounting."""

from __future__ import annotations

import pytest

from repro.obs.core import session
from repro.obs.hotspot import folded_stacks, profile_fields, render_hotspots
from repro.obs.sink import MemorySink
from repro.vm.profiler import profile_run


@pytest.fixture(scope="module")
def profiled_records():
    from tests.conftest import cached_app

    app = cached_app("fft")
    a, b = app.encode(app.reference_input)
    sink = MemorySink()
    with session(sink=sink):
        prof = profile_run(app.program, args=a, bindings=b)
    return prof, sink.records


class TestProfileEnrichment:
    def test_fn_cycles_partition_total(self, profiled_records):
        prof, _ = profiled_records
        assert sum(prof.fn_cycles.values()) == prof.total_cycles
        assert len(prof.fn_cycles) > 1  # fft is multi-function

    def test_call_paths_rooted_at_main(self, profiled_records):
        prof, _ = profiled_records
        assert prof.call_paths
        assert all(path[0] == "main" for path in prof.call_paths)
        # Entry counts of single-frame paths: main entered exactly once.
        assert prof.call_paths.get(("main",)) == 1

    def test_vm_profile_event_carries_hotspot_fields(self, profiled_records):
        _, records = profiled_records
        fields = profile_fields(records)
        assert len(fields) == 1
        f = fields[0]
        assert f["functions"] and f["call_paths"]
        assert f["top_instructions"]
        top = f["top_instructions"][0]
        assert {"iid", "opcode", "count", "cycles"} <= set(top)
        # Descending by cycles.
        cycles = [e["cycles"] for e in f["top_instructions"]]
        assert cycles == sorted(cycles, reverse=True)

    def test_profiling_unchanged_without_telemetry(self, profiled_records):
        from tests.conftest import cached_app

        prof, _ = profiled_records
        app = cached_app("fft")
        a, b = app.encode(app.reference_input)
        bare = profile_run(app.program, args=a, bindings=b)
        assert bare.fn_cycles == prof.fn_cycles
        assert bare.call_paths == prof.call_paths


class TestFoldedStacks:
    def test_weights_conserve_function_cycles(self, profiled_records):
        prof, records = profiled_records
        lines = folded_stacks(records)
        assert lines
        total = 0
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            frames = stack.split(";")
            assert frames[0] == "fft"  # module prefix
            total += int(weight)
        # Distribution is proportional (rounded), so the folded total must
        # sit within a frame of the measured total.
        assert abs(total - prof.total_cycles) <= len(lines)

    def test_multi_frame_paths_present(self, profiled_records):
        _, records = profiled_records
        assert any(
            line.count(";") >= 2 for line in folded_stacks(records)
        ), "fft must produce nested call paths (main;...;leaf)"


class TestHotspotReport:
    def test_tables_render(self, profiled_records):
        _, records = profiled_records
        text = render_hotspots(records)
        assert "Guest hotspots" in text
        assert "Hottest instructions" in text
        assert "instruction mix" in text

    def test_empty_trace_message(self):
        text = render_hotspots([])
        assert "no vm.profile" in text

    def test_batch_site_table_from_counters(self, profiled_records):
        _, records = profiled_records
        summary = {
            "ts": 0.0, "kind": "summary", "name": "trace.summary",
            "run": records[0]["run"], "campaign": None, "trial": None,
            "fields": {"counters": {
                "batch.detach_site.f:loop": 5,
                "batch.lockstep_steps": 900,
                "batch.scalar_steps": 100,
            }},
        }
        text = render_hotspots(records + [summary])
        assert "divergence sites" in text
        assert "f:loop" in text
        assert "90.0%" in text  # lockstep occupancy

    def test_cli_flame_subcommand(self, profiled_records, tmp_path, capsys):
        import json

        from repro.cli import main

        _, records = profiled_records
        path = tmp_path / "t.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert main(["obs", "flame", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.strip()
        assert all(
            line.rsplit(" ", 1)[1].isdigit()
            for line in out.strip().splitlines()
        )
        assert main(["obs", "hotspot", str(path)]) == 0
        assert "Guest hotspots" in capsys.readouterr().out
