"""``repro.obs``: structured telemetry for campaigns, pipelines and the VM.

The subsystem has four layers:

* **Records & schema** (:mod:`repro.obs.events`, :mod:`repro.obs.schema`) —
  every trace line is one JSON object with a fixed key set (``ts``, ``kind``,
  ``name``, ``run``, ``campaign``, ``trial``, ``fields``) validated by
  ``scripts/trace_lint.py``.
* **Aggregation** (:mod:`repro.obs.metrics`, :mod:`repro.obs.spans`) —
  deterministic counters, and hierarchical spans: the one clock, whose
  phase spans give the Fig. 8 breakdown.
* **Sinks & surfaces** (:mod:`repro.obs.sink`, :mod:`repro.obs.progress`,
  :mod:`repro.obs.log`, :mod:`repro.obs.report`) — JSONL traces, heartbeat
  progress lines with ETA on stderr, a verbosity-controlled logger, and the
  ``repro obs report`` trace summarizer.
* **Context** (:mod:`repro.obs.core`) — a process-local active
  :class:`~repro.obs.core.Telemetry` installed by
  :func:`~repro.obs.core.session`. Instrumentation call sites are guarded by
  ``current() is None`` so a run without a session pays a single attribute
  check; pool workers install a metrics-only telemetry and ship their deltas
  back with each chunk's results (the reducer pattern).
"""

from repro.obs.core import (
    Telemetry,
    current,
    install_worker,
    session,
)
from repro.obs.events import SCHEMA_VERSION, make_record
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import JsonlTraceSink, MemorySink, NullSink, TraceSink

__all__ = [
    "Telemetry",
    "current",
    "session",
    "install_worker",
    "SCHEMA_VERSION",
    "make_record",
    "configure_logging",
    "get_logger",
    "MetricsRegistry",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "JsonlTraceSink",
]
