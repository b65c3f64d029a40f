"""Trace record construction and schema constants.

Every line of a JSONL trace is one *record*: a JSON object with exactly the
keys in :data:`RECORD_KEYS`, in that order. Keeping the key set fixed (absent
values are ``null``) makes traces trivially machine-parseable and lets
``scripts/trace_lint.py`` validate them without a schema library.

Record kinds
------------
``meta``
    First record of every trace: ``name="trace.meta"``, ``fields`` carries the
    schema version and producer.
``event``
    A domain event (``campaign.begin``, ``ga.generation``, ``vm.profile``, …).
``summary``
    Last record of a cleanly closed trace: the final counters.
``span``
    One closed interval in the hierarchical span tree, and the trace's only
    source of durations. Emitted at span *exit*; ``fields`` carries
    ``span_id``, ``parent_id`` (``null`` for a root), ``start`` (wall-clock
    begin), ``seconds`` (monotonic duration), optionally ``infra: true``
    for spans whose shape depends on the harness configuration (worker
    count, chunking) rather than on the workload, and ``phase`` for a
    pipeline phase (the Fig. 8 breakdown; see :mod:`repro.obs.spans`).
"""

from __future__ import annotations

__all__ = ["SCHEMA_VERSION", "RECORD_KEYS", "KINDS", "make_record", "jsonable"]

#: Version stamped into the ``trace.meta`` record; bump on key-set changes
#: (v2 added the ``span`` record kind; v3 dropped ``phase`` records, whose
#: time phase spans now carry).
SCHEMA_VERSION = 3

#: The exact key set of every trace record.
RECORD_KEYS = ("ts", "kind", "name", "run", "campaign", "trial", "fields")

#: Allowed values of the ``kind`` key.
KINDS = ("meta", "event", "summary", "span")


def jsonable(value):
    """Coerce a field value into plain JSON-serializable data.

    Sets become sorted lists and tuples become lists; mappings recurse. The
    coercion keeps traces stable across Python's nondeterministic set order.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def make_record(
    ts: float,
    kind: str,
    name: str,
    run: str,
    campaign: str | None = None,
    trial: int | None = None,
    fields: dict | None = None,
) -> dict:
    """Build one schema-conformant trace record."""
    return {
        "ts": ts,
        "kind": kind,
        "name": name,
        "run": run,
        "campaign": campaign,
        "trial": trial,
        "fields": jsonable(fields) if fields else {},
    }
