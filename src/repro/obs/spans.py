"""Hierarchical spans: causally nested intervals over the flat trace.

Events and counters answer *what happened*; spans answer *under what* it
happened and for how long, and are the trace's only clock. A ``span``
record closes one interval and names its parent, so a trace reconstructs
the causal tree campaign → chunk → trial → vm.run → checkpoint.restore /
batch.detach even when the leaves ran in pool workers.

Usage::

    with span("campaign", {"label": "needle"}) as sp:
        ...                      # nested spans parent under sp.span_id
        sp.fields["trials"] = n  # attributes may be added until exit

Pipeline phases (the Fig. 8 breakdown) are spans too: :func:`phase` opens
one whose ``phase`` attribute names it, and :func:`phase_seconds` turns a
trace's phase spans into exclusive seconds per phase.

Nesting is ambient: the installed :class:`~repro.obs.core.Telemetry` keeps a
span stack, and the innermost open span becomes the parent of the next one.
Workers buffer their span records (their sink is a ``NullSink``) and the
pooled map ships them home with each chunk's results, re-parented under the
span that dispatched the map via the ``span_root`` seed (see
``util/supervisor.py``).

Determinism
-----------
Span *shape* is part of the reproducibility story, but only where the
workload controls it: spans whose existence depends on harness configuration
(chunking varies with the worker count, per-trial timing spans exist only on
the scalar engine) are marked ``infra: true`` and excluded — with their
descendants — from :func:`structural_signature`, mirroring the existing rule
that ``harness.*`` counters sit outside the deterministic-counter guarantee.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.core import current, session
from repro.obs.events import make_record
from repro.obs.sink import NullSink, TraceSink

__all__ = [
    "SpanHandle",
    "collect_phases",
    "phase",
    "phase_seconds",
    "span",
    "span_records",
    "span_tree",
    "structural_signature",
]

#: Span attributes that participate in the structural signature. Timing,
#: engine, and pid fields intentionally do not: the signature must be stable
#: across worker counts, engines, and wall-clock noise.
_SIG_FIELDS = ("label", "trials")


class SpanHandle:
    """What :func:`span` yields: the allocated id plus mutable attributes.

    ``span_id`` is ``None`` when no telemetry is installed (the whole span
    is then a no-op); ``fields`` may be mutated until the block exits.
    """

    __slots__ = ("span_id", "fields")

    def __init__(self, span_id: str | None, fields: dict) -> None:
        self.span_id = span_id
        self.fields = fields


@contextmanager
def span(
    name: str,
    fields: dict | None = None,
    *,
    campaign: str | None = None,
    trial: int | None = None,
    infra: bool = False,
):
    """Open one span for the duration of the block (no-op when untraced).

    The span record is emitted at exit — children therefore precede their
    parent in the trace. ``infra=True`` marks spans whose shape depends on
    the harness configuration rather than the workload (excluded from
    :func:`structural_signature`).
    """
    t = current()
    attrs = dict(fields) if fields else {}
    if t is None:
        yield SpanHandle(None, attrs)
        return
    sid = t.next_span_id()
    parent = t.current_span()
    handle = SpanHandle(sid, attrs)
    t.span_begin(sid)
    # ``start`` places the span on the wall clock; its duration comes from
    # the monotonic clock, so a wall-clock step never makes it negative.
    start = time.time()
    t0 = time.perf_counter()
    try:
        yield handle
    finally:
        body = {
            "span_id": sid,
            "parent_id": parent,
            "start": start,
            "seconds": time.perf_counter() - t0,
        }
        if infra:
            body["infra"] = True
        body.update(handle.fields)
        # Attributes must not shadow the identity/timing keys.
        body["span_id"], body["parent_id"] = sid, parent
        t.span_end(
            make_record(
                time.time(), "span", name, t.run_id, campaign, trial, body
            )
        )


@contextmanager
def phase(name: str):
    """Open one pipeline phase: a span named ``name`` with a ``phase``
    attribute, so :func:`phase_seconds` can find it (no-op when untraced)."""
    with span(name, {"phase": name}) as handle:
        yield handle


def phase_seconds(records: list[dict]) -> dict[str, float]:
    """Exclusive seconds per phase name over the phase spans in ``records``.

    A phase span's time goes to its phase, less the time of the phase spans
    nested in it (found through any non-phase spans ``records`` also
    holds). So a phase re-entered inside itself counts once, nested phases
    split the wall clock between them, and the values sum to the wall time
    spent inside any phase.
    """
    by_id: dict[str, dict] = {}
    for rec in span_records(records):
        if isinstance(rec["fields"].get("span_id"), str):
            by_id[rec["fields"]["span_id"]] = rec["fields"]
    totals: dict[str, float] = {}
    for f in by_id.values():
        name, sec = f.get("phase"), f.get("seconds")
        if name is None or not isinstance(sec, (int, float)):
            continue
        totals[name] = totals.get(name, 0.0) + sec
        outer = by_id.get(f.get("parent_id"))
        for _ in range(len(by_id)):  # bounded: a corrupt trace may cycle
            if outer is None or "phase" in outer:
                break
            outer = by_id.get(outer.get("parent_id"))
        if outer is not None and "phase" in outer:
            totals[outer["phase"]] = totals.get(outer["phase"], 0.0) - sec
    return totals


class _PhaseTap(TraceSink):
    """Forwards every record to ``inner`` and keeps the phase spans."""

    def __init__(self, inner: TraceSink, kept: list[dict]) -> None:
        self.inner = inner
        self.kept = kept

    def write(self, record: dict) -> None:
        self.inner.write(record)
        if record["kind"] == "span" and "phase" in record["fields"]:
            self.kept.append(record)


@contextmanager
def collect_phases():
    """Yield a list that fills with the phase spans the block closes.

    Records still flow through the installed telemetry, so an enclosing
    trace keeps every one of them; with none installed, a
    :class:`~repro.obs.sink.NullSink` session stands in for the block. Only
    phase spans are kept, so memory does not grow with the trial count.
    """
    t = current()
    if t is None:
        with session(sink=NullSink()), collect_phases() as kept:
            yield kept
        return
    kept: list[dict] = []
    inner = t.sink
    t.sink = _PhaseTap(inner, kept)
    try:
        yield kept
    finally:
        t.sink = inner


def span_records(records: list[dict]) -> list[dict]:
    """The ``span`` records of a parsed trace, in emission order."""
    return [r for r in records if r.get("kind") == "span"]


def span_tree(records: list[dict]) -> tuple[list[dict], dict[str, dict]]:
    """Materialize the span forest of a trace.

    Returns ``(roots, by_id)`` where each node is
    ``{"record": rec, "children": [node, ...]}``. Children are ordered by
    span *start* time (emission order is exit order, which inverts nesting).
    Orphans — spans whose parent never closed, e.g. in a truncated trace —
    are treated as roots so a partial tree still renders.
    """
    nodes: dict[str, dict] = {}
    for rec in span_records(records):
        sid = rec["fields"].get("span_id")
        if isinstance(sid, str) and sid and sid not in nodes:
            nodes[sid] = {"record": rec, "children": []}
    roots: list[dict] = []
    for node in nodes.values():
        pid = node["record"]["fields"].get("parent_id")
        if isinstance(pid, str) and pid in nodes and pid != node["record"]["fields"]["span_id"]:
            nodes[pid]["children"].append(node)
        else:
            roots.append(node)
    def start_of(node: dict) -> float:
        s = node["record"]["fields"].get("start")
        return s if isinstance(s, (int, float)) else 0.0
    for node in nodes.values():
        node["children"].sort(key=start_of)
    roots.sort(key=start_of)
    return roots, nodes


def _signature_of(node: dict, include_infra: bool):
    rec = node["record"]
    f = rec["fields"]
    if not include_infra and f.get("infra"):
        return None  # infra span: pruned with its whole subtree
    children = tuple(
        sig for sig in (
            _signature_of(c, include_infra) for c in node["children"]
        ) if sig is not None
    )
    attrs = tuple((k, f[k]) for k in _SIG_FIELDS if k in f)
    return (rec["name"], attrs, tuple(sorted(children)))


def structural_signature(records: list[dict], *, include_infra: bool = False):
    """A hashable shape of the span forest, stable across harness configs.

    Timing, ids, pids, and (by default) ``infra`` spans are excluded; what
    remains — span names, workload attributes (:data:`_SIG_FIELDS`), and
    parent/child structure — must be identical across ``REPRO_WORKERS``
    settings and engines for the same campaign. Children are sorted, so
    scheduling order does not leak into the signature.
    """
    roots, _ = span_tree(records)
    sigs = tuple(
        sig for sig in (_signature_of(r, include_infra) for r in roots)
        if sig is not None
    )
    return tuple(sorted(sigs))
