"""Host-speed calibration for timings taken on a shared machine.

The benchmark host is a shared VM with two hyperthreads of one core. A busy
sibling thread slows a CPU-bound Python loop by up to 80%, and how busy it
is drifts over minutes as other tenants come and go. Such contention slows
``repro``'s interpreter and this module's kernel alike (measured: +78% and
+82% under a spinning sibling), so the benchmark times the kernel,
written here and independent of ``repro``, all through a run's timed work,
and reports times scaled to a host on which one kernel sample takes
:data:`REFERENCE_S`. A change to ``repro`` cannot move the kernel, so it
cannot move the scale factor.

The kernel is a small register-machine interpreter (tuple decode, dict
registers, list memory, int and float arithmetic): the same kind of work as
``repro.vm``'s interpreter loop, where the study spends its time.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_S", "HostSpeed", "kernel"]

#: Kernel time that defines "reference speed": the typical sample on the
#: host the checked-in baseline was measured on (Xeon, 2 vCPUs, CPython
#: 3.11), so normalized times read close to that host's wall times.
REFERENCE_S = 0.005

_PROGRAM = (
    ("set", "i", 0),
    ("set", "acc", 0),
    ("lt", "c", "i", "n"),
    ("jz", "c", 13),
    ("mul", "t", "i", "i"),
    ("add", "acc", "acc", "t"),
    ("mod", "acc", "acc", "m"),
    ("store", "i", "acc"),
    ("fmul", "x", "x", "k"),
    ("load", "t", "j"),
    ("add", "j", "j", "one"),
    ("inc", "i"),
    ("jmp", 2),
    ("halt",),
)

_ITERATIONS = 3400


def kernel(iterations: int = _ITERATIONS) -> int:
    """Run the fixed interpreter program; returns a checksum."""
    regs = {"n": iterations, "m": 1_000_003, "x": 1.0, "k": 0.999_999,
            "j": 0, "one": 1}
    mem = [0] * 64
    code = _PROGRAM
    pc = 0
    while True:
        op = code[pc]
        kind = op[0]
        if kind == "set":
            regs[op[1]] = op[2]
        elif kind == "lt":
            regs[op[1]] = regs[op[2]] < regs[op[3]]
        elif kind == "jz":
            if not regs[op[1]]:
                pc = op[2]
                continue
        elif kind == "mul":
            regs[op[1]] = regs[op[2]] * regs[op[3]]
        elif kind == "fmul":
            regs[op[1]] = regs[op[2]] * regs[op[3]]
        elif kind == "add":
            regs[op[1]] = regs[op[2]] + regs[op[3]]
        elif kind == "mod":
            regs[op[1]] = regs[op[2]] % regs[op[3]]
        elif kind == "store":
            mem[regs[op[1]] & 63] = regs[op[2]]
        elif kind == "load":
            regs[op[1]] = mem[regs[op[2]] & 63]
        elif kind == "inc":
            regs[op[1]] += 1
        elif kind == "jmp":
            pc = op[1]
            continue
        elif kind == "halt":
            break
        pc += 1
    return regs["acc"]


class HostSpeed:
    """Kernel samples spread through one run's timed work.

    :meth:`tick` (called between units of work) samples the kernel once
    ``every`` seconds have passed since the last sample; the caller keeps
    the sampling time out of its own timings. The run's speed is the mean
    sample: samples land evenly in time, so short bursts of contention
    weigh in the share of the run they slowed.
    """

    def __init__(self, every: float = 0.1) -> None:
        self.every = every
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            t0 = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)

    def kernel_s(self) -> float:
        """Mean kernel sample of the run."""
        return statistics.fmean(self.samples)

    def factor(self) -> float:
        """Multiply wall times by this to read them at reference speed."""
        return REFERENCE_S / self.kernel_s()
