"""Dynamic profiling: the measurement half of SID preparation (① in Fig. 4).

A profiled golden run yields per-instruction execution counts and call-path
entry counts. Combined with the cost model the counts give each
instruction's dynamic cycles — the numerator of Eq. (1) — and the
terminators' counts weight MINPSID's CFG (⑤ in Fig. 4). A profiled run
executes the same compiled blocks as a plain one: the compile tier counts
block entries and expands them per instruction when the run returns.

A golden run is deterministic in (program, input), so each
:class:`~repro.vm.interpreter.Program` memoizes its profiles
(``Program.golden_profiles``): :func:`profile_run` takes an input's
profile at most once per program, and a profiled checkpoint recording
fills the memo too. The memo lives and dies with its program; the
campaign cache (:mod:`repro.cache`) is the tier behind it. A profile
depends only on (module text, input, ``CODE_SALT``), so a memo miss reads
the store's entry under :func:`~repro.cache.keys.golden_profile_key`
before it runs anything, and a profile it had to run is written there, for
the next program of the same text and the next process. An entry holds
the counts, steps, output and call paths; cycles are recomputed from the
counts with the current cost model. A run that traps or hangs raises and
leaves nothing in the memo or the store. Callers share the memoized
objects, so none may mutate one.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field

from repro.cache.keys import golden_profile_key
from repro.ir.module import Module
from repro.obs.core import current as _obs_current
from repro.runconfig import resolve_field
from repro.vm.costmodel import DEFAULT_COST_MODEL
from repro.vm.interpreter import Program, RunResult

__all__ = [
    "DynamicProfile",
    "input_key",
    "memoized_profile",
    "profile_of",
    "profile_run",
    "store_profile",
    "stored_profile",
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
        _note_profile(program.module, prof, "memo")
    return prof


def stored_profile(
    program: Program, args, bindings, store
) -> tuple[DynamicProfile | None, str | None]:
    """``program``'s golden profile of this input from the campaign cache.

    Executes nothing. Returns the profile (memoized on ``program``, and
    reported as one ``vm.profile`` event with ``cached`` set) or ``None``,
    and the entry's key, for :func:`store_profile` to write the profile a
    caller then takes; ``(None, None)`` without a ``store``. A malformed
    entry reads as a miss, and the write replaces it.
    """
    if store is None:
        return None, None
    key = golden_profile_key(program.text, args, bindings)
    payload = store.get(key)
    if payload is None:
        t = _obs_current()
        if t is not None:
            t.count("vm.profile_cache_misses")
        return None, key
    found = _decode_profile(payload, program.module)
    if found is None:
        return None, key
    prof = _memoize(program, args, bindings, _profile(program.module, *found))
    _note_profile(program.module, prof, "cache")
    return prof, key


def store_profile(store, key: str | None, prof: DynamicProfile) -> None:
    """Write a profile :func:`stored_profile` missed (no-op without a store)."""
    if store is not None:
        store.put(key, _encode_profile(prof))


def profile_run(
    program: Program,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    cache=None,
) -> DynamicProfile:
    """The golden profile of ``program`` on one input.

    The first call per (program, input) reads the campaign cache's entry
    or, on a miss, runs the program with profiling and writes the entry;
    either way the profile is memoized, and later calls return the same
    object and execute nothing. ``cache`` overrides the ambient campaign
    cache (:mod:`repro.runconfig`); ``False`` neither reads nor writes one.
    """
    prof = memoized_profile(program, args, bindings)
    if prof is None:
        store = resolve_field("cache", cache)
        prof, key = stored_profile(program, args, bindings, store)
        if prof is None:
            result = program.run(args=args, bindings=bindings, profile=True)
            prof = profile_of(program, result, args, bindings)
            store_profile(store, key, prof)
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
    prof = _memoize(program, args, bindings, _profile(
        module,
        result.instr_counts or [0] * module.instruction_count(),
        result.steps,
        result.output,
        dict(result.call_paths or {}),
    ))
    _note_profile(module, prof, "run")
    return prof


def _profile(
    module: Module, counts: list, steps: int, output: list, call_paths: dict
) -> DynamicProfile:
    """A profile from what its golden run observed; cycles come from the
    counts under the current cost model."""
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
    return DynamicProfile(
        instr_counts=counts,
        instr_cycles=cycles,
        total_cycles=total,
        output=output,
        steps=steps,
        fn_cycles=fn_cycles,
        call_paths=call_paths,
    )


def _memoize(program: Program, args, bindings, prof: DynamicProfile):
    program.golden_profiles.setdefault(input_key(args, bindings), prof)
    return prof


# ---------------------------------------------------------------------------
# Campaign-cache entries. Output floats are stored as the hex of their
# IEEE-754 bits: JSON float text loses NaN payloads, and outputs are compared
# bit for bit. The decoder is defensive, like the campaign decoders: any
# malformed entry reads as a miss, never an exception or a wrong profile.
# ---------------------------------------------------------------------------


def _encode_profile(prof: DynamicProfile) -> dict:
    return {
        "kind": "golden-profile",
        "counts": prof.instr_counts,
        "steps": prof.steps,
        "output": [
            struct.pack(">d", v).hex() if type(v) is float else v
            for v in prof.output
        ],
        "call_paths": [[list(p), n] for p, n in prof.call_paths.items()],
    }


def _decode_profile(payload: dict | None, module: Module) -> tuple | None:
    """``(counts, steps, output, call_paths)`` of a well-formed entry."""
    if not isinstance(payload, dict) or payload.get("kind") != "golden-profile":
        return None
    counts, steps = payload.get("counts"), payload.get("steps")
    output, paths = payload.get("output"), payload.get("call_paths")
    if (
        type(counts) is not list
        or len(counts) != module.instruction_count()
        or not set(map(type, counts)) <= {int}
        or type(steps) is not int
        or type(output) is not list
        or type(paths) is not list
    ):
        return None
    try:
        output = [
            v if type(v) is int else struct.unpack(">d", bytes.fromhex(v))[0]
            for v in output
        ]
        call_paths = {}
        for path, n in paths:
            if (
                type(path) is not list
                or not set(map(type, path)) <= {str}
                or type(n) is not int
            ):
                return None
            call_paths[tuple(path)] = n
    except (TypeError, ValueError, struct.error):
        return None
    return counts, steps, output, call_paths


#: The counter of each source :func:`_note_profile` reports.
_PROFILE_COUNTERS = {
    "run": "vm.profile_runs",
    "memo": "vm.profile_memo_hits",
    "cache": "vm.profile_cache_hits",
}


def _note_profile(module: Module, prof: DynamicProfile, source: str) -> None:
    """Emit the ``vm.profile`` event of a profile a caller receives.

    One event per profile served — run, memoized or read from the campaign
    cache (``source``) — so a trace's hotspot report sees every module a
    traced session profiled. Each source has its own counter.
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
    t.count(_PROFILE_COUNTERS[source])
    t.emit(
        "vm.profile",
        {
            "module": module.name,
            "memo": source == "memo",
            "cached": source == "cache",
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
