"""Checkpoint/restore of interpreter state for FI-campaign acceleration.

Every fault-injection trial replays the program bit-identically from
instruction 0 up to the targeted dynamic instance before the flip happens.
For a campaign of N faults that replayed golden prefix dominates wall-clock:
>99% of interpreted instructions are redundant. The fix is the classic
checkpoint-resume scheme from the FI literature (FastFlip-style incremental
analysis): run the golden execution once while recording interpreter
snapshots every K dynamic instructions, then start each trial from the
nearest snapshot *preceding* its injection point instead of from scratch.

Every execution starts from a snapshot. The first one of a store is the
*entry snapshot* (:meth:`~repro.vm.interpreter.Program.entry_snapshot`):
``@main`` on one input before its first block, at step 0. It precedes every
fault, so a trial always has a snapshot to restore, and a store recorded
with no interval at all holds the entry snapshot alone.

A :class:`Snapshot` is a *portable* value object — function/block references
are stored by name, slots/memory as plain Python lists — so stores pickle
cheaply to worker processes, which re-resolve names against their own decoded
:class:`~repro.vm.interpreter.Program`.

Snapshots capture, at a block entry:

- the full call stack (one :class:`FrameSnapshot` per active frame: function,
  current block, phi predecessor, suspended call site, and all value slots),
- every memory segment (globals and live allocas) plus the allocator cursor,
- the emitted output so far,
- per-instruction execution counts (so a fault's ``f_seen`` counter can be
  re-seated exactly) and the dynamic step counter.

Memory segments are copy-on-write, so a capture, a resume and a convergence
check cost what the run wrote, not what it holds. A snapshot's ``mem`` is a
shallow copy of the recording's segment map, after which the recording owns
no segment and copies each one the first time it stores to it; a recording
starts out owning none, since its entry snapshot is kept too. A resumed run
starts from a shallow copy of the snapshot's map and does the same.
Consecutive snapshots therefore share the list of every segment the golden
run did not store to between them, and pickling a store keeps that sharing.
Nothing may mutate a snapshot's lists.

The same snapshots double as *convergence* oracles: a faulty run whose state
becomes bit-identical to the golden state at a later checkpoint boundary is
guaranteed to finish exactly like the golden run, so the interpreter can stop
early and splice the golden output tail (see ``convergence`` in
:meth:`Program.resume`). That prunes the post-fault tail of masked faults,
which checkpoint-skipping alone cannot touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.vm.profiler import DynamicProfile

__all__ = [
    "FrameSnapshot",
    "Snapshot",
    "CheckpointStore",
    "auto_interval",
    "latest_before",
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


@dataclass
class Snapshot:
    """Full interpreter state at one block entry."""

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
    #: Lists are shared with neighbouring snapshots and resumed runs:
    #: never mutate one.
    mem: dict
    #: Call stack, outermost first; the last entry is the running frame.
    frames: list


@dataclass
class CheckpointStore:
    """Ordered checkpoints of one golden (program, args, bindings) run,
    the entry snapshot first."""

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
        """Latest snapshot taken strictly before the fault's injection point
        (:func:`latest_before`); the entry snapshot, index 0, precedes every
        fault."""
        return latest_before(self.snapshots, iid, instance)

    def convergence_from(self, index: int) -> list:
        """Snapshots after ``index`` (convergence oracles for that resume)."""
        tail = self._conv_cache.get(index)
        if tail is None:
            tail = self.snapshots[index + 1 :]
            self._conv_cache[index] = tail
        return tail


def latest_before(snapshots: list, iid: int, instance: int) -> int:
    """Index of the latest of ``snapshots`` (in steps order) taken strictly
    before the ``instance``-th execution of ``iid``.

    A snapshot is usable iff the target instruction had executed fewer than
    ``instance`` times at capture: the flip has not happened yet, so the
    resumed prefix stays bit-identical to a run from the entry snapshot.
    Returns -1 when none is, which a list that starts with an entry
    snapshot never gives.
    """
    lo, hi = 0, len(snapshots)
    while lo < hi:
        mid = (lo + hi) // 2
        if snapshots[mid].instr_counts[iid] < instance:
            lo = mid + 1
        else:
            hi = mid
    return lo - 1


#: Smallest ``"auto"`` interval: below it a capture costs more than the
#: replay it saves.
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
    interval cuts both — until snapshot recording (a copy of the segment
    map, frames and counts each, plus every segment stored to since the
    last one) and store memory dominate. Measured on the headline study,
    16 snapshots ran as fast as 48 at a fraction of the memory. Short
    programs keep the floor: below it a capture costs more than the
    replay it saves.

    An ``"auto"`` recording (:func:`record_checkpoints` with no interval)
    thins its way to this interval without knowing the run's length.
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
    step_limit: int | None = None,
    profile: bool = False,
) -> CheckpointStore:
    """Golden-run ``program`` once, recording snapshots every ``interval``.

    The store's first snapshot is the entry snapshot the recording started
    from. ``interval=None`` lets the run find its interval: it records from
    :data:`AUTO_MIN_INTERVAL` on and, whenever it has captured
    :data:`AUTO_MAX_SNAPSHOTS` snapshots, drops every other capture and
    doubles the interval, which keeps the survivors evenly spaced. It ends
    at :func:`auto_interval` of the run's length, so snapshot positions
    depend on the program and its input alone. The recorded run counts
    per-instruction executions, so each snapshot carries the counts needed
    to seat fault instance counters on resume.

    ``profile=True`` makes the recording run a full profiling run as well:
    the store's ``profile`` then holds its
    :class:`~repro.vm.profiler.DynamicProfile`, equal to
    :func:`~repro.vm.profiler.profile_run`'s and memoized like it, so a
    campaign that needs both executes the golden program once.
    """
    max_snapshots = None
    if interval is None:
        interval, max_snapshots = AUTO_MIN_INTERVAL, AUTO_MAX_SNAPSHOTS
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

        store.profile = profile_of(program, result, args, bindings)
    return store
