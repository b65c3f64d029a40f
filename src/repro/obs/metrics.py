"""Deterministic counters with multiprocessing reduction.

Counters are additive and deterministic in (program, input, seed): trial
counts, outcome tallies, VM step totals — identical whatever the worker
count. They are the only metric; durations live in spans
(:mod:`repro.obs.spans`).

Pool workers accumulate into a process-local registry and
:meth:`MetricsRegistry.drain` it into a plain dict shipped back with each
chunk's results; the parent :meth:`MetricsRegistry.merge`\\ s the delta. This
is the reducer half of the "queue/reducer" design: deltas ride the existing
``parallel_map`` result channel, so no extra IPC machinery (or queue
lifetime management) is needed and reduction order never affects totals.
"""

from __future__ import annotations

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Mergeable in-process counter store."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: dict[str, int | float] = {}

    def count(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> dict:
        """Full state as a plain (picklable, JSON-able) dict."""
        return {"counters": dict(self.counters)}

    def drain(self) -> dict:
        """Snapshot then reset — the worker side of the reducer."""
        snap = self.snapshot()
        self.counters.clear()
        return snap

    def merge(self, delta: dict) -> None:
        """Fold a drained snapshot from another registry into this one."""
        for name, n in delta.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + n
