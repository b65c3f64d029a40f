"""Chrome trace-event export: ``repro obs export --format=chrome-trace``.

Converts a JSONL telemetry trace into the Chrome trace-event JSON format
(the ``{"traceEvents": [...]}`` object form) so a campaign's span tree can
be opened in Perfetto / ``chrome://tracing`` as a zoomable timeline:

* ``span`` records become complete (``"ph": "X"``) slices. All slices share
  one process; the thread lane is recovered from the span id — parent spans
  (``s{n}``) go to thread 0, worker spans (``w{pid}-{n}``) to a lane per
  worker pid — so chunk subtrees line up under the worker that ran them,
  and pipeline phase slices enclose the campaigns they ran.
* ``event`` records become instant (``"ph": "i"``) markers.

Timestamps are microseconds relative to the earliest point in the trace, as
the format expects. The exporter is tolerant of truncated traces: it works
on whatever records :func:`repro.obs.report.load_trace` recovered.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["to_chrome_trace", "write_chrome_trace", "lint_chrome_trace"]


def _span_tid(span_id: str) -> int:
    """Thread lane of a span: 0 for the parent, the worker pid otherwise."""
    if span_id.startswith("w") and "-" in span_id:
        head = span_id[1:].split("-", 1)[0]
        if head.isdigit():
            return int(head)
    return 0


def _base_ts(records: list[dict]) -> float:
    """Earliest wall-clock point: min over record stamps and span starts."""
    points = []
    for rec in records:
        ts = rec.get("ts")
        if isinstance(ts, (int, float)):
            points.append(ts)
        if rec.get("kind") == "span":
            start = rec.get("fields", {}).get("start")
            if isinstance(start, (int, float)):
                points.append(start)
    return min(points) if points else 0.0


def to_chrome_trace(records: list[dict]) -> dict:
    """Build the Chrome trace-event object for one parsed trace."""
    base = _base_ts(records)
    events: list[dict] = []
    tids: set[int] = set()
    for rec in records:
        kind = rec.get("kind")
        f = rec.get("fields", {})
        ts = rec.get("ts", base)
        if kind == "span":
            start = f.get("start", ts)
            sid = f.get("span_id", "")
            tid = _span_tid(sid if isinstance(sid, str) else "")
            tids.add(tid)
            args = {
                k: v for k, v in f.items()
                if k not in ("span_id", "parent_id", "start", "seconds")
            }
            args["span_id"] = f.get("span_id")
            args["parent_id"] = f.get("parent_id")
            events.append({
                "name": rec.get("name", "?"),
                "cat": "span",
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": max(0.0, f.get("seconds", 0.0)) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        elif kind == "event":
            events.append({
                "name": rec.get("name", "?"),
                "cat": "event",
                "ph": "i",
                "ts": (ts - base) * 1e6,
                "pid": 1,
                "tid": 0,
                "s": "g",
                "args": f,
            })
    meta: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": "repro"},
    }]
    for tid in sorted(tids):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": f"worker {tid}" if tid else "main"},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: list[dict], path: str | Path) -> int:
    """Write the Chrome trace JSON for ``records``; returns the event count."""
    obj = to_chrome_trace(records)
    Path(path).write_text(json.dumps(obj, separators=(",", ":")) + "\n")
    return len(obj["traceEvents"])


def lint_chrome_trace(obj) -> list[str]:
    """Structural errors of an exported trace object (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        return ["top level must be an object with a traceEvents array"]
    for i, ev in enumerate(obj["traceEvents"]):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"event {i}: missing name")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            errors.append(f"event {i}: unsupported phase {ph!r}")
            continue
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                errors.append(f"event {i}: ts must be a number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: dur must be a non-negative number")
    return errors
