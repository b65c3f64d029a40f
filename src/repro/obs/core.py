"""The active telemetry context.

One :class:`Telemetry` at a time is *installed* per process; instrumented
call sites fetch it with :func:`current` and do nothing when it returns
``None`` — a single function call and pid comparison, so un-instrumented
runs are effectively free. :func:`session` installs a real telemetry for the
duration of a ``with`` block (the CLI's ``--trace``/``--progress`` flags map
straight onto it).

Multiprocessing
---------------
:func:`current` is pid-guarded: a forked pool worker inherits the parent's
module state but must never write to the parent's trace file, so an
inherited telemetry reads as "none" in the child. When the parent traces,
:func:`repro.util.parallel.parallel_map` calls :func:`install_worker` in
each of its workers for a **metrics-only** telemetry (events are discarded,
counters accumulate, spans are buffered) and ships the drained counters and
spans home with each chunk's results; the parent merges them before the
caller sees those results. Deterministic counters therefore come out
identical whatever the worker count, for every caller of the map.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from repro.obs.events import SCHEMA_VERSION, make_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.sink import JsonlTraceSink, NullSink, TraceSink

__all__ = ["Telemetry", "current", "session", "install_worker"]

#: Environment override for the heartbeat interval (seconds); tests set 0.
PROGRESS_INTERVAL_ENV = "REPRO_PROGRESS_INTERVAL"


class Telemetry:
    """A telemetry context: one sink, one metrics registry, one run id."""

    def __init__(
        self,
        sink: TraceSink | None = None,
        run_id: str | None = None,
        progress: bool = False,
        progress_interval: float | None = None,
        progress_stream=None,
        is_worker: bool = False,
    ) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.metrics = MetricsRegistry()
        self.run_id = run_id or f"r{os.getpid()}-{time.time_ns() & 0xFFFFFFFF:08x}"
        self.progress = progress
        if progress_interval is None:
            raw = os.environ.get(PROGRESS_INTERVAL_ENV, "").strip()
            try:
                progress_interval = float(raw) if raw else 1.0
            except ValueError:
                progress_interval = 1.0
        self.progress_interval = progress_interval
        self.progress_stream = progress_stream
        self.is_worker = is_worker
        self.pid = os.getpid()
        self._campaigns = 0
        self._closed = False
        # --- hierarchical spans (schema v2) ---------------------------------
        # `span_root` seeds the parent of this context's first span; workers
        # get it from the dispatching parent so their subtrees attach under
        # the campaign span. Worker span records are buffered in `_span_out`
        # (the sink is a NullSink there) and shipped home via drain_spans().
        self._span_stack: list[str] = []
        self._span_seq = 0
        self.span_root: str | None = None
        self._span_out: list[dict] = []
        #: Optional live-dashboard renderer (see :mod:`repro.obs.dashboard`).
        self.dashboard = None

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def emit(
        self,
        name: str,
        fields: dict | None = None,
        kind: str = "event",
        campaign: str | None = None,
        trial: int | None = None,
    ) -> None:
        """Write one trace record to the sink."""
        self.sink.write(
            make_record(time.time(), kind, name, self.run_id, campaign, trial, fields)
        )

    # ------------------------------------------------------------------
    # Spans (hierarchical; see repro.obs.spans for the context manager)
    # ------------------------------------------------------------------
    def next_span_id(self) -> str:
        """Deterministic span id: ``s{n}`` in the parent, ``w{pid}-{n}`` in
        workers (worker ids never collide with parent ids)."""
        self._span_seq += 1
        if self.is_worker:
            return f"w{self.pid}-{self._span_seq}"
        return f"s{self._span_seq}"

    def current_span(self) -> str | None:
        """The innermost open span id, else this context's seeded root."""
        return self._span_stack[-1] if self._span_stack else self.span_root

    def span_begin(self, span_id: str) -> None:
        """Push an opened span onto the ambient nesting stack."""
        self._span_stack.append(span_id)

    def span_end(self, record: dict) -> None:
        """Pop the stack and emit (or, in a worker, buffer) the span record."""
        if self._span_stack:
            self._span_stack.pop()
        if self.is_worker:
            self._span_out.append(record)
        else:
            self.sink.write(record)

    def drain_spans(self) -> list[dict]:
        """Take the buffered worker span records (ships in result batches)."""
        out, self._span_out = self._span_out, []
        return out

    # ------------------------------------------------------------------
    # Metrics (a thin forward so call sites only touch the telemetry)
    # ------------------------------------------------------------------
    def count(self, name: str, n: int | float = 1) -> None:
        self.metrics.count(name, n)

    # ------------------------------------------------------------------
    # Campaign / progress helpers
    # ------------------------------------------------------------------
    def new_campaign(self) -> str:
        """Sequential campaign id within this run (deterministic)."""
        self._campaigns += 1
        return f"c{self._campaigns:03d}"

    def progress_for(self, label: str, total: int) -> ProgressReporter | None:
        """A heartbeat reporter, or ``None`` when progress is off.

        When a live dashboard is attached, its renderer replaces the plain
        heartbeat lines: each throttled emit repaints the dashboard in place
        from this telemetry's current metrics instead of printing a new line.
        """
        if not self.progress:
            return None
        renderer = None
        if self.dashboard is not None:
            dashboard = self.dashboard
            renderer = lambda reporter, now, final: dashboard.render(
                self, reporter, final=final
            )
        return ProgressReporter(
            label, total, interval=self.progress_interval,
            stream=self.progress_stream, renderer=renderer,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open_trace(self) -> None:
        """Emit the leading ``trace.meta`` record."""
        self.emit(
            "trace.meta",
            {"schema": SCHEMA_VERSION, "producer": "repro.obs", "pid": self.pid},
            kind="meta",
        )

    def close(self) -> None:
        """Emit the trailing summary (final counters) and release."""
        if self._closed:
            return
        self._closed = True
        self.emit("trace.summary", self.metrics.snapshot(), kind="summary")
        self.sink.close()


# ---------------------------------------------------------------------------
# The process-local active context
# ---------------------------------------------------------------------------

_active: Telemetry | None = None


def current() -> Telemetry | None:
    """The installed telemetry, or ``None`` (also for inherited-by-fork)."""
    t = _active
    if t is None or t.pid != os.getpid():
        return None
    return t


def _install(t: Telemetry | None) -> None:
    global _active
    _active = t


def install_worker(span_root: str | None = None) -> Telemetry:
    """Install a metrics-only telemetry in a pool worker process.

    Events go to a :class:`NullSink`; counters accumulate locally
    until the pooled map's worker entry drains them into its chunk's
    return value.
    ``span_root`` seeds the parent span id so worker span subtrees attach
    under the dispatching campaign's span once shipped home.
    """
    t = Telemetry(sink=NullSink(), run_id=f"w{os.getpid()}", is_worker=True)
    t.span_root = span_root
    _install(t)
    return t


@contextmanager
def session(
    trace=None,
    progress: bool = False,
    run_id: str | None = None,
    progress_interval: float | None = None,
    progress_stream=None,
    sink: TraceSink | None = None,
    dashboard=None,
):
    """Install a telemetry context for the duration of the block.

    ``trace`` is a JSONL path (``None`` keeps events in the provided ``sink``
    or discards them); ``progress`` turns on heartbeat lines. ``dashboard``
    attaches a live TTY renderer (see :mod:`repro.obs.dashboard`) and implies
    ``progress``. Sessions nest by shadowing: the previous context is
    restored on exit.
    """
    if sink is None:
        sink = JsonlTraceSink(trace) if trace is not None else NullSink()
    t = Telemetry(
        sink=sink,
        run_id=run_id,
        progress=progress or dashboard is not None,
        progress_interval=progress_interval,
        progress_stream=progress_stream,
    )
    t.dashboard = dashboard
    prev = _active
    _install(t)
    t.open_trace()
    try:
        yield t
    finally:
        _install(prev)
        try:
            if dashboard is not None:
                dashboard.close()
        finally:
            t.close()
