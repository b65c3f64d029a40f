"""Shared fixtures.

Expensive artifacts (app modules/programs, SID results) are session-scoped:
app IR is immutable after finalize, and protection pipelines are
deterministic in their seeds, so sharing them across tests is safe and keeps
the suite fast.
"""

from __future__ import annotations

import logging
import pickle
import struct

import pytest

from repro.apps import all_app_names, get_app
from repro.ir.builder import Builder
from repro.ir.module import Module
from repro.ir.types import F64, I64, VOID
from repro.vm.interpreter import (
    INJECTABLE_OPCODES,
    Program,
    RunResult,
    _RunState,
)
from repro.vm.memory import SEG_SHIFT


@pytest.fixture(autouse=True)
def _restore_repro_logging():
    """Put the ``repro`` logger back as it was before the test.

    ``cli.main()`` installs a stderr handler (``configure_logging``) that
    would otherwise outlive the test and print whatever a background
    thread — the serve tests' module-scoped server — logs later.
    """
    logger = logging.getLogger("repro")
    handlers, level = list(logger.handlers), logger.level
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)


class ReferenceProgram(Program):
    """A ``Program`` that executes on the reference ``if``-chain interpreter.

    Production code always runs the compile tier (:mod:`repro.vm.compiler`);
    the differential tests compare it against this oracle, entry point by
    entry point.
    """

    def _execute(self, frames, state):
        return self._exec_fn(frames[0].dfn, None, state, (frames, 0))


def cold_reference_run(
    program: Program, args=None, bindings=None, fault=None, step_limit=None
) -> RunResult:
    """A run the reference interpreter starts fresh at ``@main`` from a
    state built here by hand, not from an entry snapshot: the independent
    check that an entry snapshot holds exactly what a cold start does."""
    state = _RunState()
    state.limit = step_limit if step_limit is not None else 50_000_000
    state.next_seg = program._first_dyn_seg
    for seg, cells in program.global_template:
        state.mem[seg] = list(cells)
    for name, values in (bindings or {}).items():
        cells = state.mem[program.global_addr[name] >> SEG_SHIFT]
        cells[: len(values)] = values
    state.wmem = dict(state.mem)
    if fault is not None:
        state.f_iid, state.f_instance, state.f_bit = (
            fault.iid, fault.instance, fault.bit)
    params = program.module.functions["main"].args
    coerced = [float(a) if p.type.is_float else int(a) & p.type.mask
               for a, p in zip(args or [], params)]
    Program._exec_fn(program, program.functions["main"], coerced, state)
    return RunResult(output=state.output, steps=state.steps,
                     fault_fired=state.f_fired)


def bits(values) -> list:
    """Values with floats replaced by their binary64 encoding, so equality
    is bit equality (NaN payloads, -0.0) and int/float never conflate."""
    return [
        ("f", struct.pack("<d", v)) if type(v) is float else (type(v).__name__, v)
        for v in values
    ]


def snapshot_bits(snaps: list) -> bytes:
    """Snapshots with every float replaced by its encoding: equal bytes
    mean bit-identical snapshots."""
    return pickle.dumps([
        (s.steps, s.next_seg, bits(s.output), s.instr_counts,
         sorted((seg, bits(cells)) for seg, cells in s.mem.items()),
         [(f.fn, f.block, f.prev_gid, f.call_index, bits(f.slots))
          for f in s.frames])
        for s in snaps
    ])


def build_sum_squares_module(size: int = 32) -> Module:
    """sum of x[i]^2 over a global array — the suite's workhorse kernel."""
    m = Module("sumsq")
    g = m.add_global("data", F64, size)
    b = Builder.new_function(m, "main", [("n", I64)], VOID)
    acc = b.local(F64, b.f64(0.0), hint="acc")
    with b.for_loop(b.i64(0), b.function.arg("n")) as i:
        x = b.load(b.gep(g, i), F64)
        sq = b.fmul(x, x)
        b.set(acc, b.fadd(b.get(acc, F64), sq))
    b.emit_output(b.get(acc, F64))
    b.ret()
    return m.finalize()


def build_branchy_module() -> Module:
    """Kernel with data-dependent branches (for coverage-loss style tests).

    Counts inputs above a threshold and sums the large ones separately.
    """
    m = Module("branchy")
    g = m.add_global("data", F64, 64)
    b = Builder.new_function(m, "main", [("n", I64), ("thresh", F64)], VOID)
    cnt = b.local(I64, b.i64(0), hint="cnt")
    big = b.local(F64, b.f64(0.0), hint="big")
    small = b.local(F64, b.f64(0.0), hint="small")
    with b.for_loop(b.i64(0), b.function.arg("n")) as i:
        x = b.load(b.gep(g, i), F64)
        hot = b.fcmp("ogt", x, b.function.arg("thresh"))
        with b.if_then_else(hot) as otherwise:
            b.set(cnt, b.add(b.get(cnt, I64), b.i64(1)))
            b.set(big, b.fadd(b.get(big, F64), x))
            otherwise()
            b.set(small, b.fadd(b.get(small, F64), x))
    b.emit_output(b.get(cnt, I64))
    b.emit_output(b.get(big, F64))
    b.emit_output(b.get(small, F64))
    b.ret()
    return m.finalize()


@pytest.fixture(scope="session")
def sumsq_module() -> Module:
    return build_sum_squares_module()


@pytest.fixture(scope="session")
def sumsq_program(sumsq_module) -> Program:
    return Program(sumsq_module)


@pytest.fixture
def sumsq_data():
    return {"data": [float(i % 7) - 3.0 for i in range(32)]}


@pytest.fixture(scope="session")
def branchy_module() -> Module:
    return build_branchy_module()


@pytest.fixture(scope="session")
def branchy_program(branchy_module) -> Program:
    return Program(branchy_module)


def executed_sites(module, counts) -> list[int]:
    """The injectable iids a profile saw execute, in module order."""
    return [
        i.iid for i in module.instructions()
        if i.opcode in INJECTABLE_OPCODES and counts[i.iid] > 0
    ]


_APP_CACHE: dict[str, object] = {}


def cached_app(name: str):
    """Session-cached app instances (module build is the expensive part)."""
    app = _APP_CACHE.get(name)
    if app is None:
        app = get_app(name)
        app.module  # force build + finalize
        _APP_CACHE[name] = app
    return app


@pytest.fixture(params=all_app_names())
def each_app(request):
    """Parametrized fixture over all 11 benchmarks."""
    return cached_app(request.param)


@pytest.fixture
def pathfinder_app():
    return cached_app("pathfinder")


@pytest.fixture
def fft_app():
    return cached_app("fft")


@pytest.fixture
def kmeans_app():
    return cached_app("kmeans")
