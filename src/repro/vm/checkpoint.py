"""Checkpoint/restore of interpreter state for FI-campaign acceleration.

Every fault-injection trial replays the program bit-identically from
instruction 0 up to the targeted dynamic instance before the flip happens.
For a campaign of N faults that replayed golden prefix dominates wall-clock:
>99% of interpreted instructions are redundant. The fix is the classic
checkpoint-resume scheme from the FI literature (FastFlip-style incremental
analysis): run the golden execution once while recording full interpreter
snapshots every K dynamic instructions, then start each trial from the
nearest snapshot *preceding* its injection point instead of from scratch.

A :class:`Snapshot` is a *portable* value object — function/block references
are stored by name, slots/memory as plain Python lists — so stores pickle
cheaply to worker processes, which re-resolve names against their own decoded
:class:`~repro.vm.interpreter.Program`.

Snapshots capture, at a block boundary:

- the full call stack (one :class:`FrameSnapshot` per active frame: function,
  current block, phi predecessor, suspended call site, and all value slots),
- every memory segment (globals and live allocas) plus the allocator cursor,
- the emitted output so far,
- per-instruction execution counts (so a fault's ``f_seen`` counter can be
  re-seated exactly) and the dynamic step counter.

The same snapshots double as *convergence* oracles: a faulty run whose state
becomes bit-identical to the golden state at a later checkpoint boundary is
guaranteed to finish exactly like the golden run, so the interpreter can stop
early and splice the golden output tail (see ``convergence`` in
:meth:`Program.run`/:meth:`Program.resume`). That prunes the post-fault tail
of masked faults, which checkpoint-skipping alone cannot touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.vm.costmodel import DEFAULT_COST_MODEL, CostModel

if TYPE_CHECKING:
    from repro.vm.profiler import DynamicProfile

__all__ = [
    "FrameSnapshot",
    "Snapshot",
    "CheckpointStore",
    "auto_interval",
    "record_checkpoints",
]


@dataclass
class FrameSnapshot:
    """One suspended interpreter frame, by-name so it survives pickling."""

    #: Function name (key into ``Program.functions``).
    fn: str
    #: Name of the block the frame is positioned at.
    block: str
    #: Predecessor block gid feeding this block's phis (-1 at function entry).
    prev_gid: int
    #: Index of the suspended ``call`` in the block's code list, or -1 for the
    #: innermost frame, which resumes at the block entry itself.
    call_index: int
    #: All value slots of the frame (args + produced values, ``None`` unset).
    slots: list
    #: Innermost frame only: resume mid-block at this code index (-1 resumes
    #: at the block entry). Used by the batch engine's detach path, whose
    #: address-stream divergences surface at an individual store; checkpoint
    #: recording always captures at block boundaries and leaves this at -1.
    code_index: int = -1


@dataclass
class Snapshot:
    """Full interpreter state at one golden-run block boundary."""

    #: Dynamic instruction counter at capture (before the block's accounting).
    steps: int
    #: Next free memory segment id.
    next_seg: int
    #: Output emitted so far.
    output: list
    #: Per-iid execution counts at capture — seats the fault's instance
    #: counter on resume and decides which faults a snapshot can serve.
    instr_counts: list
    #: Memory image: segment id -> cell list (globals + live allocas).
    mem: dict
    #: Call stack, outermost first; the last entry is the running frame.
    frames: list

    def cells(self) -> int:
        """Total memory cells held (rough size/memory accounting)."""
        return sum(len(c) for c in self.mem.values())


@dataclass
class CheckpointStore:
    """Ordered checkpoints of one golden (program, args, bindings) run."""

    interval: int
    snapshots: list
    #: Total steps of the recorded golden run.
    golden_steps: int = 0
    #: The recording run's :class:`~repro.vm.profiler.DynamicProfile` when
    #: it was also a profiling run (``record_checkpoints(profile=True)``).
    profile: DynamicProfile | None = field(
        default=None, repr=False, compare=False
    )
    _conv_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.snapshots)

    def snapshot_index_for(self, iid: int, instance: int) -> int:
        """Latest snapshot taken strictly before the fault's injection point.

        Returns -1 when no snapshot precedes it (the trial starts cold).
        A snapshot is usable iff the target instruction had executed fewer
        than ``instance`` times at capture — the flip has not happened yet,
        so the resumed prefix stays bit-identical to a cold run.
        """
        snaps = self.snapshots
        lo, hi = 0, len(snaps)
        while lo < hi:
            mid = (lo + hi) // 2
            if snaps[mid].instr_counts[iid] < instance:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    def snapshot_for(self, iid: int, instance: int):
        """The snapshot to resume from, or ``None`` for a cold start."""
        k = self.snapshot_index_for(iid, instance)
        return self.snapshots[k] if k >= 0 else None

    def convergence_from(self, index: int) -> list:
        """Snapshots after ``index`` (convergence oracles for that resume)."""
        tail = self._conv_cache.get(index)
        if tail is None:
            tail = self.snapshots[index + 1 :]
            self._conv_cache[index] = tail
        return tail

    def cells(self) -> int:
        """Total memory cells across all snapshots (memory footprint)."""
        return sum(s.cells() for s in self.snapshots)


#: Smallest ``"auto"`` interval: below it a snapshot copy costs more than
#: the replay it saves.
AUTO_MIN_INTERVAL = 256

#: An ``"auto"`` recording holds fewer snapshots than this — and at least
#: half as many once the run is long enough — so about 16 per golden run.
AUTO_MAX_SNAPSHOTS = 24


def auto_interval(golden_steps: int) -> int:
    """Checkpoint-interval heuristic: about 16 snapshots per golden run.

    The 256-step floor, doubled until the run holds fewer than
    :data:`AUTO_MAX_SNAPSHOTS` snapshots (12–23 once it is long enough).
    The average resumed prefix is interval/2 and convergence of a masked
    fault is detected at the *next* snapshot boundary, so a shorter
    interval cuts both — until snapshot recording (one full state copy
    each) and store memory (snapshots × live cells) dominate. Measured on
    the headline study, 16 snapshots ran as fast as 48 at a fraction of
    the memory. Short programs keep the floor: below it the snapshot copy
    costs more than the replay it saves.

    This is the interval :func:`record_checkpoints` ends with when it has
    to find one without knowing the run's length, so a campaign's store
    looks the same whether or not a profile preceded it.
    """
    interval = AUTO_MIN_INTERVAL
    while golden_steps >= AUTO_MAX_SNAPSHOTS * interval:
        interval *= 2
    return interval


def record_checkpoints(
    program,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    interval: int | None = None,
    steps_hint: int | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    step_limit: int | None = None,
    profile: bool = False,
) -> CheckpointStore:
    """Golden-run ``program`` once, recording snapshots every ``interval``.

    ``interval=None`` applies :func:`auto_interval` to ``steps_hint`` (pass
    ``profile.steps`` when a profile exists — the campaigns do). Lacking a
    hint, the same run finds the interval: it records from
    :data:`AUTO_MIN_INTERVAL` on and, whenever it holds
    :data:`AUTO_MAX_SNAPSHOTS` snapshots, drops every other one and doubles
    the interval, which keeps the survivors evenly spaced. The recorded run
    counts per-instruction executions, so each snapshot carries the counts
    needed to seat fault instance counters on resume.

    ``profile=True`` makes the recording run a full profiling run as well:
    the store's ``profile`` then holds its
    :class:`~repro.vm.profiler.DynamicProfile`, equal to
    :func:`~repro.vm.profiler.profile_run`'s, so a campaign that needs both
    executes the golden program once.
    """
    max_snapshots = None
    if interval is None:
        if steps_hint is None:
            interval, max_snapshots = AUTO_MIN_INTERVAL, AUTO_MAX_SNAPSHOTS
        else:
            interval = auto_interval(steps_hint)
    result, snapshots = program.run_checkpointed(
        args=args, bindings=bindings, interval=interval, step_limit=step_limit,
        profile=profile, max_snapshots=max_snapshots,
    )
    store = CheckpointStore(
        interval=result.checkpoint_interval, snapshots=snapshots,
        golden_steps=result.steps,
    )
    if profile:
        from repro.vm.profiler import profile_of

        store.profile = profile_of(program, result, cost_model)
    return store
