"""Exception hierarchy for the repro virtual machine and toolchain.

The VM distinguishes *traps* (runtime events that terminate a program run and
are classified as Crash/Hang/Detected outcomes by the fault-injection layer)
from *toolchain errors* (bugs in IR construction or analysis, which should
never be swallowed).

A third family, *harness errors*, covers faults in the host machinery that
runs campaigns — a pool worker that hangs past its deadline, a chunk that
raises on every retry, a fabric peer that breaks the wire protocol. They are
strictly separate from guest :class:`Trap`\\ s: a trap is a classified
experimental outcome, a :class:`HarnessError` means the experiment
infrastructure itself failed after exhausting its retries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


# --------------------------------------------------------------------------
# Toolchain errors: invalid IR, bad configuration. These indicate programmer
# mistakes and are never caught by the fault-injection outcome classifier.
# --------------------------------------------------------------------------


class IRError(ReproError):
    """Invalid IR construction or use (wrong types, unknown names...)."""


class VerificationError(IRError):
    """Module failed the IR verifier."""


class ParseError(IRError):
    """Textual IR could not be parsed."""


class ConfigError(ReproError):
    """Invalid experiment or pipeline configuration."""


# --------------------------------------------------------------------------
# Harness errors: host-side infrastructure faults of the pooled map's
# supervisor (repro.util.supervisor). Raised only after bounded retries are
# exhausted; never conflated with guest Traps and never cached as campaign
# outcomes. A worker that keeps crashing raises nothing: its chunks finish
# serially in-process instead.
# --------------------------------------------------------------------------


class HarnessError(ReproError):
    """The campaign harness failed after exhausting its recovery budget."""


class WorkerTimeout(HarnessError):
    """A worker exceeded its per-chunk wall-clock deadline (hung)."""


class WorkerError(HarnessError):
    """A worker raised the same exception on every retry of a chunk.

    The final in-worker exception is attached as ``__cause__``.
    """


class ChaosError(HarnessError):
    """Deliberately injected harness fault (the ``REPRO_CHAOS`` hook)."""


# --------------------------------------------------------------------------
# Fabric errors: wire-protocol faults of the distributed campaign fabric
# (repro.fabric). Like the other harness errors they describe the transport
# infrastructure, never guest programs; docs/FABRIC.md specifies when each
# is raised.
# --------------------------------------------------------------------------


class ProtocolError(HarnessError):
    """A fabric peer violated the wire protocol (docs/FABRIC.md)."""


class FrameError(ProtocolError):
    """A byte frame failed validation: bad magic, CRC mismatch, an
    over-long declared length, or a stream that ended mid-frame."""


class HandshakeError(ProtocolError):
    """Version negotiation failed or a peer answered the HELLO wrongly."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection cleanly at a frame boundary."""


# --------------------------------------------------------------------------
# Traps: runtime events terminating a single program execution. The FI layer
# maps each trap class onto an Outcome.
# --------------------------------------------------------------------------


class Trap(ReproError):
    """Base class of run-terminating runtime events."""


class MemoryFault(Trap):
    """Out-of-bounds or unmapped memory access (classified as Crash)."""


class ArithmeticTrap(Trap):
    """Integer division/remainder by zero (classified as Crash)."""


class InvalidJump(Trap):
    """Branch to a block that does not exist (classified as Crash)."""


class StackOverflow(Trap):
    """Call depth exceeded the VM limit (classified as Crash)."""


class HangTimeout(Trap):
    """Dynamic instruction budget exhausted (classified as Hang)."""


class DetectedError(Trap):
    """A duplication check observed a mismatch (classified as Detected)."""

    def __init__(self, check_name: str, lhs: object, rhs: object) -> None:
        super().__init__(f"check {check_name}: {lhs!r} != {rhs!r}")
        self.check_name = check_name
        self.lhs = lhs
        self.rhs = rhs
