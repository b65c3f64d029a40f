"""Fault-site sampling under the paper's fault model.

A fault site is a (static instruction, dynamic instance, bit) triple. Sites
are sampled from the *golden* dynamic execution of the program under the
studied input:

- whole-program campaigns pick a uniformly random dynamic instance among all
  executions of injectable instructions (LLFI's default behaviour), and
- per-instruction campaigns pick a uniformly random dynamic instance of one
  chosen static instruction.

Injectable instructions are the value-producing computational ops (ALU, FPU,
comparisons, casts, loads, address generation); see
:data:`repro.vm.interpreter.INJECTABLE_OPCODES`.
"""

from __future__ import annotations

import bisect

from repro.errors import ConfigError
from repro.ir.module import Module
from repro.util.rng import RngStream
from repro.vm.interpreter import INJECTABLE_OPCODES, FaultSpec
from repro.vm.profiler import DynamicProfile

__all__ = [
    "FaultSite",
    "injectable_iids",
    "sample_fault_sites",
    "sample_per_instruction_sites",
]


#: A concrete fault: static iid + dynamic instance + bit position. The VM's
#: own fault triple, so a sampled site is what a trial injects.
FaultSite = FaultSpec


def injectable_iids(module: Module) -> list[int]:
    """iids of fault-injectable instructions, in iid order."""
    return [
        instr.iid
        for instr in module.instructions()
        if instr.opcode in INJECTABLE_OPCODES
    ]


def _bit_width_of(module: Module, iid: int) -> int:
    t = module.instruction(iid).type
    return t.width


def sample_fault_sites(
    module: Module,
    profile: DynamicProfile,
    n: int,
    rng: RngStream,
) -> list[FaultSite]:
    """Sample ``n`` whole-program fault sites.

    The dynamic instance is uniform over *all* executions of injectable
    instructions under the profiled input, so hot instructions attract
    proportionally more faults — the activation-weighted sampling LLFI uses.
    """
    iids = injectable_iids(module)
    counts = profile.instr_counts
    weighted = [(iid, counts[iid]) for iid in iids if counts[iid] > 0]
    if not weighted:
        raise ConfigError("no injectable instruction executed under this input")
    # Cumulative counts for O(log n) instance -> iid mapping.
    cum: list[int] = []
    total = 0
    for _, c in weighted:
        total += c
        cum.append(total)
    sites: list[FaultSite] = []
    for _ in range(n):
        k = rng.randint(1, total)
        idx = bisect.bisect_left(cum, k)
        iid, c = weighted[idx]
        prev = cum[idx - 1] if idx else 0
        instance = k - prev  # 1-based instance of this static instruction
        bit = rng.randint(0, _bit_width_of(module, iid) - 1)
        sites.append(FaultSite(iid, instance, bit))
    return sites


def sample_per_instruction_sites(
    module: Module,
    profile: DynamicProfile,
    iid: int,
    n: int,
    rng: RngStream,
) -> list[FaultSite]:
    """Sample ``n`` fault sites targeting one static instruction.

    Returns an empty list if the instruction never executed under the input
    (its SDC probability is 0 by definition there — it cannot manifest).
    """
    if module.instruction(iid).opcode not in INJECTABLE_OPCODES:
        raise ConfigError(f"iid {iid} is not fault-injectable")
    count = profile.instr_counts[iid]
    if count == 0:
        return []
    width = _bit_width_of(module, iid)
    return [
        FaultSite(iid, rng.randint(1, count), rng.randint(0, width - 1))
        for _ in range(n)
    ]
