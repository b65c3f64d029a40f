"""Exclusive-time phase timers (the pipelines' Fig. 8 breakdown).

Semantics
---------
Wall-clock time is charged to the **innermost active phase** — *exclusive*
time. Consequences, now defined and tested (the old ``Stopwatch`` double- or
multi-counted any overlap):

* Re-entering the same phase name inside itself never double-counts: the
  outer frame stops accruing while the inner one runs, so ``totals[name]``
  is the union of wall time spent under that name.
* Nesting different phases splits the wall clock: the parent keeps the time
  around the child, the child keeps its own. ``total()`` equals end-to-end
  wall time spent inside any phase, with no overlap inflation.
* An exception unwinds charges exactly like a normal exit.

Each charge is also emitted as a ``phase`` trace record through the active
:func:`repro.obs.core.current` telemetry (if any), which is how the Fig. 8
time breakdown lands in ``--trace`` files.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.core import current

__all__ = ["PhaseTimer"]


class PhaseTimer:
    """Accumulates exclusive wall-clock time into named phases."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self._stack: list[str] = []
        self._mark = 0.0

    def _charge(self, name: str, dt: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + dt
        t = current()
        if t is not None:
            t.emit_phase(name, dt)

    @contextmanager
    def phase(self, name: str):
        """Context manager charging elapsed time exclusively to ``name``."""
        now = time.perf_counter()
        if self._stack:
            # Suspend the enclosing phase: charge it up to this instant.
            self._charge(self._stack[-1], now - self._mark)
        self._stack.append(name)
        self._mark = now
        try:
            yield
        finally:
            now = time.perf_counter()
            self._charge(name, now - self._mark)
            self._stack.pop()
            self._mark = now  # resume the enclosing phase from here

    def total(self) -> float:
        """Sum of all phase times (== wall time spent inside phases)."""
        return sum(self.totals.values())

    def fractions(self) -> dict[str, float]:
        """Per-phase fraction of the total (empty dict if nothing recorded)."""
        t = self.total()
        if t <= 0:
            return {}
        return {k: v / t for k, v in self.totals.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in self.totals.items())
        return f"{type(self).__name__}({parts})"

