"""Tests for parallel map, worker-count resolution, tables and phase spans."""

import time

import pytest

from repro.obs.spans import collect_phases, phase, phase_seconds
from repro.runconfig import KNOBS, resolve
from repro.util.parallel import default_workers, parallel_map
from repro.util.tables import format_percent, format_table, render_candlestick_row

WORKERS_ENV = KNOBS["workers"].env


def _square(x):
    return x * x


_init_calls: list = []


def _record_init(tag):
    _init_calls.append(tag)


def _read_init(_x):
    return list(_init_calls)


class TestParallelMap:
    def test_serial_default(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert parallel_map(_square, []) == []

    def test_order_preserved_parallel(self):
        items = list(range(40))
        out = parallel_map(_square, items, run=resolve(workers=2))
        assert out == [x * x for x in items]

    def test_auto_chunksize_parallel(self):
        items = list(range(100))
        out = parallel_map(_square, items, run=resolve(workers=2))
        assert out == [x * x for x in items]

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [5], run=resolve(workers=8)) == [25]

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_initializer_runs_on_serial_path(self):
        _init_calls.clear()
        out = parallel_map(
            _read_init, [0, 1], run=resolve(workers=0),
            initializer=_record_init, initargs=("ctx",),
        )
        assert out == [["ctx"], ["ctx"]]  # once per map, visible to items

    def test_initializer_seeds_worker_processes(self):
        _init_calls.clear()
        out = parallel_map(
            _read_init, list(range(8)), run=resolve(workers=2),
            initializer=_record_init, initargs=("w",),
        )
        assert all(call == ["w"] for call in out)
        assert _init_calls == []  # parent process untouched


class TestResolveWorkers:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve(workers=3).workers == 3
        assert resolve(workers=0).workers == 0

    def test_negative_clamped(self):
        assert resolve(workers=-4).workers == 0

    def test_none_without_env_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve().workers == 0

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve().workers == 5

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "auto")
        assert resolve().workers == default_workers()

    def test_env_garbage_falls_back_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        assert resolve().workers == 0

    def test_env_empty_is_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "  ")
        assert resolve().workers == 0

    def test_parallel_map_honors_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        items = list(range(10))
        assert parallel_map(_square, items) == [x * x for x in items]


class TestTables:
    def test_format_percent(self):
        assert format_percent(0.5) == "50.00%"
        assert format_percent(1.0, digits=0) == "100%"

    def test_format_table_alignment(self):
        out = format_table(["a", "long"], [["xx", "1"], ["y", "22"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # rectangular

    def test_format_table_title(self):
        out = format_table(["h"], [["v"]], title="T")
        assert out.startswith("T\n")

    def test_candlestick_row_markers(self):
        row = render_candlestick_row("x", 0.0, 0.25, 0.5, 0.75, 1.0, expected=0.9)
        assert "E" in row and "|" in row and "#" in row

    def test_candlestick_row_degenerate(self):
        row = render_candlestick_row("x", 1.0, 1.0, 1.0, 1.0, 1.0)
        assert "min=1.000" in row


class TestStopwatch:
    """Flat (un-nested) phase spans, the pipelines' stopwatch, read through
    :func:`collect_phases`.

    Nesting and trace emission are covered in ``test_obs_core``.
    """

    def test_accumulates(self):
        with collect_phases() as spans:
            with phase("a"):
                time.sleep(0.01)
            with phase("a"):
                time.sleep(0.01)
        assert len(spans) == 2
        assert phase_seconds(spans)["a"] >= 0.02

    def test_phase_records_on_exception(self):
        with collect_phases() as spans:
            with pytest.raises(ValueError):
                with phase("x"):
                    raise ValueError
        assert "x" in phase_seconds(spans)
