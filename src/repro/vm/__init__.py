"""Deterministic virtual machine executing the mini-IR.

Provides golden runs, dynamic profiling (per-instruction execution counts —
the input to the SID cost model and to MINPSID's weighted-CFG fitness — and
call-path counts, memoized per program and input and kept in the campaign
cache), golden checkpoints, a
single-bit-flip fault hook, and trap/hang semantics that the
fault-injection layer classifies into outcomes.
"""

from repro.vm.checkpoint import (
    CheckpointStore,
    FrameSnapshot,
    Snapshot,
    auto_interval,
    record_checkpoints,
)
from repro.vm.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.vm.memory import SEG_SHIFT, SEG_MASK
from repro.vm.interpreter import FaultSpec, Program, RunResult
from repro.vm.profiler import DynamicProfile, profile_run

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "SEG_SHIFT",
    "SEG_MASK",
    "Program",
    "RunResult",
    "FaultSpec",
    "DynamicProfile",
    "profile_run",
    "CheckpointStore",
    "FrameSnapshot",
    "Snapshot",
    "auto_interval",
    "record_checkpoints",
]
