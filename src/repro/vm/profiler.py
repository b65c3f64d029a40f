"""Dynamic profiling: the measurement half of SID preparation (① in Fig. 4).

A profiled golden run yields per-instruction execution counts and call-path
entry counts. Combined with the cost model the counts give each
instruction's dynamic cycles — the numerator of Eq. (1) — and the
terminators' counts weight MINPSID's CFG (⑤ in Fig. 4). A profiled run
executes the same compiled blocks as a plain one: the compile tier counts
block entries and expands them per instruction when the run returns.

A golden run is deterministic in (program, input), so each
:class:`~repro.vm.interpreter.Program` memoizes its profiles
(``Program.golden_profiles``): :func:`profile_run` executes an input at
most once per program, and a profiled checkpoint recording fills the memo
too. The memo lives and dies with its program. A run that traps or hangs
raises and leaves nothing in it. Callers share the memoized objects, so
none may mutate one.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.ir.module import Module
from repro.obs.core import current as _obs_current
from repro.vm.costmodel import DEFAULT_COST_MODEL
from repro.vm.interpreter import Program, RunResult

__all__ = [
    "DynamicProfile",
    "input_key",
    "memoized_profile",
    "profile_of",
    "profile_run",
]


@dataclass
class DynamicProfile:
    """Execution statistics of one (program, input) pair."""

    #: Executions of each static instruction, indexed by iid.
    instr_counts: list[int]
    #: Dynamic cycles of each static instruction, indexed by iid.
    instr_cycles: list[int]
    #: Total dynamic cycles of the run (denominator of Eq. 1).
    total_cycles: int
    #: Program output of the golden run (the SDC comparison baseline).
    output: list = field(default_factory=list)
    #: Total dynamic instructions executed.
    steps: int = 0
    #: Exclusive dynamic cycles per IR function name (sums to total_cycles).
    fn_cycles: dict[str, int] = field(default_factory=dict)
    #: Call-path entry counts keyed by the function-name tuple main → leaf.
    call_paths: dict[tuple[str, ...], int] = field(default_factory=dict)

    def cost_fraction(self, iid: int) -> float:
        """Eq. (1): the instruction's share of total dynamic cycles."""
        if self.total_cycles == 0:
            return 0.0
        return self.instr_cycles[iid] / self.total_cycles

    def executed_iids(self) -> list[int]:
        """iids that executed at least once under this input."""
        return [iid for iid, n in enumerate(self.instr_counts) if n > 0]

    def dynamic_value_instances(self, injectable_iids: list[int]) -> int:
        """Total dynamic instances across an injectable iid set."""
        return sum(self.instr_counts[iid] for iid in injectable_iids)


def input_key(args, bindings) -> bytes:
    """The memo key of one input, bit-exact over ``(args, bindings)``.

    Pickle writes every float as its IEEE-754 bits and every scalar under
    its own type, so ``1`` and ``1.0``, ``0.0`` and ``-0.0``, or NaNs with
    different payloads key apart, while two ``encode`` calls of one input
    key alike. Equal inputs may still key apart (a list shared by two
    bindings, another dict order): that costs a run, never a wrong profile.
    """
    return pickle.dumps((args, bindings), pickle.HIGHEST_PROTOCOL)


def memoized_profile(
    program: Program,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
) -> DynamicProfile | None:
    """``program``'s memoized golden profile of this input, or ``None``.

    Executes nothing. A hit is reported like a profiling run: one
    ``vm.profile`` event, with ``memo`` set.
    """
    prof = program.golden_profiles.get(input_key(args, bindings))
    if prof is not None:
        _note_profile(program.module, prof, memo=True)
    return prof


def profile_run(
    program: Program,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
) -> DynamicProfile:
    """The golden profile of ``program`` on one input.

    The first call per (program, input) runs the program with profiling
    and memoizes the profile; later calls return the same object and
    execute nothing.
    """
    prof = memoized_profile(program, args, bindings)
    if prof is None:
        result = program.run(args=args, bindings=bindings, profile=True)
        prof = profile_of(program, result, args, bindings)
    return prof


def profile_of(
    program: Program,
    result: RunResult,
    args: list | None,
    bindings: dict[str, list] | None,
) -> DynamicProfile:
    """The dynamic profile of a finished profiling run of ``program``.

    ``result`` comes from ``Program.run(profile=True)`` or from a profiled
    checkpoint recording (``Program.run_checkpointed(profile=True)``), which
    observe the same counts and call paths. The run's input is
    ``(args, bindings)``; unless the program already memoizes a profile of
    it, this one is memoized.
    """
    module: Module = program.module
    counts = result.instr_counts or [0] * module.instruction_count()
    cycles = [0] * len(counts)
    total = 0
    fn_cycles: dict[str, int] = {}
    for fn in module.functions.values():
        fn_total = 0
        for instr in fn.instructions():
            c = counts[instr.iid] * DEFAULT_COST_MODEL.cost_of(instr.opcode)
            cycles[instr.iid] = c
            fn_total += c
        fn_cycles[fn.name] = fn_total
        total += fn_total
    prof = DynamicProfile(
        instr_counts=counts,
        instr_cycles=cycles,
        total_cycles=total,
        output=result.output,
        steps=result.steps,
        fn_cycles=fn_cycles,
        call_paths=dict(result.call_paths or {}),
    )
    program.golden_profiles.setdefault(input_key(args, bindings), prof)
    _note_profile(module, prof, memo=False)
    return prof


def _note_profile(module: Module, prof: DynamicProfile, memo: bool) -> None:
    """Emit the ``vm.profile`` event of a profile a caller receives.

    One event per profile served, run or memoized (``memo``), so a trace's
    hotspot report sees every module a traced session profiled.
    """
    t = _obs_current()
    if t is None:
        return
    counts = prof.instr_counts
    cycles = prof.instr_cycles
    # Dynamic instruction mix: executed instances per opcode — the VM's
    # answer to "where do the cycles go" at trace granularity.
    mix: dict[str, int] = {}
    for instr in module.instructions():
        n = counts[instr.iid]
        if n:
            mix[instr.opcode] = mix.get(instr.opcode, 0) + n
    # The heaviest instructions by dynamic cycles: enough for the hotspot
    # table without shipping the whole per-iid vector in the trace.
    top = sorted(
        (iid for iid, c in enumerate(cycles) if c),
        key=lambda iid: -cycles[iid],
    )[:16]
    top_instructions = [
        {
            "iid": iid,
            "opcode": module.instruction(iid).opcode,
            "count": counts[iid],
            "cycles": cycles[iid],
        }
        for iid in top
    ]
    t.count("vm.profile_memo_hits" if memo else "vm.profile_runs")
    t.emit(
        "vm.profile",
        {
            "module": module.name,
            "memo": memo,
            "steps": prof.steps,
            "total_cycles": prof.total_cycles,
            "instruction_mix": mix,
            "functions": prof.fn_cycles,
            # JSON keys must be strings: the path tuple joins with ";".
            "call_paths": {
                ";".join(path): n for path, n in prof.call_paths.items()
            },
            "top_instructions": top_instructions,
        },
    )
