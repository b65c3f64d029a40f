"""Dynamic profiling: the measurement half of SID preparation (① in Fig. 4).

A profiled golden run yields per-instruction execution counts and call-path
entry counts. Combined with the cost model the counts give each
instruction's dynamic cycles — the numerator of Eq. (1) — and the
terminators' counts weight MINPSID's CFG (⑤ in Fig. 4). A profiled run
executes the same compiled blocks as a plain one: the compile tier counts
block entries and expands them per instruction when the run returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.module import Module
from repro.obs.core import current as _obs_current
from repro.vm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.vm.interpreter import Program, RunResult

__all__ = ["DynamicProfile", "profile_of", "profile_run"]


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


def profile_run(
    program: Program,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    step_limit: int | None = None,
) -> DynamicProfile:
    """Run ``program`` once with profiling and derive its dynamic profile."""
    result = program.run(
        args=args, bindings=bindings, profile=True, step_limit=step_limit
    )
    return profile_of(program, result, cost_model)


def profile_of(
    program: Program,
    result: RunResult,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> DynamicProfile:
    """The dynamic profile of a finished profiling run of ``program``.

    ``result`` comes from ``Program.run(profile=True)`` or from a profiled
    checkpoint recording (``Program.run_checkpointed(profile=True)``), which
    observe the same counts and call paths.
    """
    module: Module = program.module
    counts = result.instr_counts or [0] * module.instruction_count()
    cycles = [0] * len(counts)
    total = 0
    fn_cycles: dict[str, int] = {}
    for fn in module.functions.values():
        fn_total = 0
        for instr in fn.instructions():
            c = counts[instr.iid] * cost_model.cost_of(instr.opcode)
            cycles[instr.iid] = c
            fn_total += c
        fn_cycles[fn.name] = fn_total
        total += fn_total
    call_paths = dict(result.call_paths or {})
    t = _obs_current()
    if t is not None:
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
        t.count("vm.profile_runs")
        t.emit(
            "vm.profile",
            {
                "module": module.name,
                "steps": result.steps,
                "total_cycles": total,
                "instruction_mix": mix,
                "functions": fn_cycles,
                # JSON keys must be strings: the path tuple joins with ";".
                "call_paths": {
                    ";".join(path): n for path, n in call_paths.items()
                },
                "top_instructions": top_instructions,
            },
        )
    return DynamicProfile(
        instr_counts=counts,
        instr_cycles=cycles,
        total_cycles=total,
        output=result.output,
        steps=result.steps,
        fn_cycles=fn_cycles,
        call_paths=call_paths,
    )
