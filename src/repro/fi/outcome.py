"""Outcome classification of faulty runs.

Mirrors the taxonomy the paper (and the LLFI literature) uses:

========  ===========================================================
Outcome   Meaning
========  ===========================================================
BENIGN    Run completed, output equals the golden output (masked)
SDC       Run completed, output differs silently
CRASH     Run trapped (memory fault, divide-by-zero, stack overflow)
HANG      Run exceeded its dynamic-instruction budget
DETECTED  A duplication check caught a mismatch before corruption
========  ===========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Outcome", "OutcomeCounts", "outputs_equal", "classify_run"]


class Outcome(str, Enum):
    BENIGN = "benign"
    SDC = "sdc"
    CRASH = "crash"
    HANG = "hang"
    DETECTED = "detected"


def outputs_equal(
    golden: list,
    actual: list,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
) -> bool:
    """Compare emitted output streams.

    Integer values compare exactly; floats honour the app's tolerance (a
    scientific code's output is "corrupted" only beyond its accuracy bar —
    the standard SDC criterion in the HPC resilience literature). NaN in the
    actual output is always a corruption unless the golden value is NaN too.

    List ``==`` decides first, in C: when it holds, every pair is equal by
    the loop's own rules (equal ints; equal numbers, which are within any
    tolerance; or one NaN object on both sides), so only lists that differ
    take the loop.
    """
    if golden == actual:
        return True
    if len(golden) != len(actual):
        return False
    for g, a in zip(golden, actual):
        if isinstance(g, float) or isinstance(a, float):
            g_f, a_f = float(g), float(a)
            if math.isnan(g_f) and math.isnan(a_f):
                continue
            if math.isnan(g_f) or math.isnan(a_f):
                return False
            if math.isinf(g_f) or math.isinf(a_f):
                if g_f != a_f:
                    return False
                continue
            if not math.isclose(g_f, a_f, rel_tol=rel_tol, abs_tol=abs_tol):
                return False
        else:
            if g != a:
                return False
    return True


@dataclass
class OutcomeCounts:
    """Tally of outcomes over a campaign."""

    counts: dict[Outcome, int] = field(
        default_factory=lambda: {o: 0 for o in Outcome}
    )

    def record(self, outcome: Outcome) -> None:
        self.counts[outcome] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def probability(self, outcome: Outcome) -> float:
        """Fraction of trials with the given outcome (0 on empty tallies)."""
        t = self.total
        return self.counts[outcome] / t if t else 0.0

    @property
    def sdc_probability(self) -> float:
        """The paper's SDC probability: SDCs per manifested fault."""
        return self.probability(Outcome.SDC)

    def merged(self, other: "OutcomeCounts") -> "OutcomeCounts":
        out = OutcomeCounts()
        for o in Outcome:
            out.counts[o] = self.counts[o] + other.counts[o]
        return out

    def __repr__(self) -> str:
        parts = ", ".join(f"{o.value}={n}" for o, n in self.counts.items() if n)
        return f"OutcomeCounts({parts or 'empty'})"


def classify_run(
    golden_output: list,
    actual_output: list | None,
    trap: BaseException | None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
) -> Outcome:
    """Map a finished/trapped faulty run to its outcome."""
    from repro.errors import DetectedError, HangTimeout, Trap

    if trap is not None:
        if isinstance(trap, DetectedError):
            return Outcome.DETECTED
        if isinstance(trap, HangTimeout):
            return Outcome.HANG
        if isinstance(trap, Trap):
            return Outcome.CRASH
        raise trap  # toolchain bug: never classify programmer errors
    assert actual_output is not None
    if outputs_equal(golden_output, actual_output, rel_tol, abs_tol):
        return Outcome.BENIGN
    return Outcome.SDC
