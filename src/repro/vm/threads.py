"""Multi-threaded execution support (§VIII-B of the paper).

The paper's argument for SID on parallel programs is that every thread runs
the same protected code and duplication checks fire before synchronization
points, i.e. before any cross-thread interaction — so detection behaves
per-thread exactly as in the sequential case. The studied multithreaded FFT
is fork-join data-parallel: threads partition index ranges within each
parallel phase and do not race.

:func:`make_thread_driver` models exactly that execution shape: it rewrites a
module's ``@main`` into a driver that runs every phase's worker function once
per thread over disjoint index ranges, sharing one memory image. Because the
phases are race-free, executing the thread quanta in tid order is an exact
linearization of the parallel execution, and fault injection then targets the
combined dynamic instruction stream — a fault lands in exactly one thread,
as in the paper's experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IRError
from repro.ir.builder import Builder
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import VOID

__all__ = ["ThreadPhase", "make_thread_driver", "partition_range"]


@dataclass(frozen=True)
class ThreadPhase:
    """One fork-join parallel phase.

    ``worker`` must be a void function taking ``(tid, lo, hi, *extra)`` i64
    arguments; the driver block-partitions ``[0, size)`` across threads.
    """

    worker: str
    size: int
    extra_args: tuple[int, ...] = ()


def partition_range(size: int, num_threads: int) -> list[tuple[int, int]]:
    """Block-partition ``[0, size)`` into contiguous per-thread ranges."""
    if num_threads < 1:
        raise IRError("need at least one thread")
    base, rem = divmod(size, num_threads)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for t in range(num_threads):
        hi = lo + base + (1 if t < rem else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def make_thread_driver(
    module: Module, phases: list[ThreadPhase], num_threads: int
) -> Module:
    """Rewrite a module's ``@main`` into a fork-join thread driver.

    Returns a *clone* of ``module`` whose ``@main`` executes every phase's
    worker once per thread over disjoint index ranges. The clone is
    re-finalized, so downstream profiles must be rebuilt against it.
    """
    m = module.clone()
    if "main" in m.functions:
        del m.functions["main"]
    for ph in phases:
        if ph.worker not in m.functions:
            raise IRError(f"unknown worker function @{ph.worker}")

    fn = Function("main", [], VOID)
    m.add_function(fn)
    fn.add_block("entry")
    b = Builder(fn)
    for ph in phases:
        for tid, (lo, hi) in enumerate(partition_range(ph.size, num_threads)):
            args = [b.i64(tid), b.i64(lo), b.i64(hi)]
            args += [b.i64(x) for x in ph.extra_args]
            b.call(ph.worker, args, VOID)
    b.ret()
    m.finalize()
    return m
