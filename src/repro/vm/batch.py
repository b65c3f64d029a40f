"""Lockstep batch execution: N fault-injection trials as one numpy program.

Every FI trial of the same (program, input) executes the *identical*
instruction stream as the golden run until its injected flip makes it
diverge — and the overwhelming majority never meaningfully diverge at all
(masked faults) or diverge only in data, not control flow. The scalar
interpreter pays the full per-instruction Python dispatch cost for each
trial separately; this module replays the golden trace **once** per batch
and carries the N trials along as vectorized numpy state.

Representation: the golden mirror + sparse diff columns
-------------------------------------------------------
A :class:`_BatchRun` re-executes the golden trace with exactly the scalar
interpreter's semantics (same step accounting, same operator formulas, same
trap conditions). Divergent per-trial state is held as *diff columns*:
length-N numpy arrays (``uint64`` for int/pointer/bool values, ``float64``
for floats, f32 values stored f32-rounded) attached to a value slot, a
memory cell, or an output position. ``None``/absent column means "all
trials hold the golden value" — the fast path, costing one extra ``is
None`` check per operand over the scalar interpreter, amortized over all N
rows. When a column's alive rows all equal the golden value bit-for-bit
again, the column is dropped (the batch equivalent of convergence pruning,
detected instantly instead of at the next checkpoint oracle).

Dirty operands take one of two tiers:

- **vectorized**: closed-form numpy expressions whose results are
  bit-identical to the scalar formulas (wrapping uint64 arithmetic,
  XOR-bias signed compares, hardware float ops shared with CPython);
- **scalar fixup**: ops whose CPython result can differ from numpy in bits
  (div/rem/shift traps, libm calls, huge-float casts, 0-divisor fdiv NaN
  payloads) are computed with the scalar formulas of :mod:`repro.vm.ops`,
  the ones the compile tier's generated code calls, on exactly the rows
  whose operands differ from golden.

The detach invariant
--------------------
A row stays in lockstep only while its control flow and trap state match
the golden trace and its memory writes are representable in the column
planes. Anything else leaves the batch with exact scalar state:

- **finalized in lockstep**: traps (invalid address, division by zero,
  failed ``check``) classify the row immediately — CRASH/DETECTED outcomes
  need no further execution;
- **detached to the scalar engine**: a row whose divergent-address store
  would need a mixed-dtype column (or whose branch divergence cannot
  reconverge, below) is materialized into a
  :class:`~repro.vm.checkpoint.Snapshot` (its exact slots, memory, and
  output, reconstructed from golden + columns) and finished by
  :meth:`Program.resume` with the usual convergence oracles.

Branch reconvergence (the SIMT trick)
-------------------------------------
A row that takes the other side of a conditional branch usually rejoins
the golden path a few instructions later — loop trip-count off by one,
guarded update skipped. Detaching it to a scalar tail forfeits all
remaining amortization, and data-dependent loop bounds make such rows the
dominant cost. Instead, like a GPU warp, the row executes its divergent
detour *privately* (a scalar mini-interpreter on its own slots/memory
copy, with exact step accounting) up to the branch's **immediate
post-dominator**, then *parks* there. When the golden mirror reaches that
block — it must, the block post-dominates the branch — the row wakes: its
step offset is carried per-row (preserving exact hang classification) and
its frozen state is diffed back into the column planes, including its own
phi inputs along its own incoming edge. Detours that trap finalize
exactly like lockstep traps; detours that hit ops a private copy cannot
carry (alloca, call, emit), and parked rows the mirror overtakes with an
alloca or emit (shared segment/output cursors), fall back to an ordinary
detach from their exact frozen state.

Outcomes are therefore bit-identical to the scalar engine *by
construction*: every value a row ever observes is either the golden value
(shared), computed by the same formula (vectorized/fixup tiers), or
produced by the scalar interpreter itself (detached tail).

Sticky host faults are scalar-only
----------------------------------
The amortization above assumes trials diverge from the golden trace
rarely and briefly — true for one-shot transient flips, false for a
sticky defective-host signature (:mod:`repro.fi.hostfault`), which
corrupts matching values for the *whole* run and never re-joins the
golden trajectory. Batched trials therefore carry no ``sticky`` hook;
the fleet simulator (:mod:`repro.fleet`) runs its defective-host jobs
through ``Program.run(sticky=...)`` on the scalar interpreter directly,
which also keeps fleet summaries byte-identical under ``REPRO_ENGINE``
overrides (the engine scope only routes FI *campaign* trials).
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as _np

from repro.errors import (
    ArithmeticTrap,
    ConfigError,
    DetectedError,
    HangTimeout,
    IRError,
    MemoryFault,
    Trap,
)
from repro.obs.core import current as _obs_current
from repro.obs.spans import span as _span
from repro.util.bitops import flip_value, float64_to_bits
from repro.vm.checkpoint import FrameSnapshot, Snapshot
from repro.vm.memory import SEG_MASK, SEG_SHIFT
from repro.vm.ops import coerce_load, f32, fdiv, fmath, int_op

__all__ = [
    "ENGINES",
    "ENGINE_ENV",
    "BATCH_SIZE_ENV",
    "DEFAULT_BATCH_SIZE",
    "BatchStats",
    "engine_scope",
    "resolve_engine",
    "resolve_batch_size",
    "run_trials_lockstep",
]

#: Recognised execution engines for FI campaigns.
ENGINES = ("scalar", "batch")
#: Environment variable selecting the campaign execution engine.
ENGINE_ENV = "REPRO_ENGINE"
#: Environment variable overriding the lockstep batch width.
BATCH_SIZE_ENV = "REPRO_BATCH_SIZE"
#: Default rows per lockstep batch. Wide enough to amortize the golden
#: mirror replay (~one scalar run per batch) far below the per-trial scalar
#: cost, small enough that column working sets stay cache-resident; the
#: measured per-trial sweet spot on the bundled apps.
DEFAULT_BATCH_SIZE = 1024

#: Steps between lockstep maintenance passes (column garbage collection +
#: row retirement). Large enough that scanning every live column costs a
#: small fraction of the replay between passes, small enough that masked
#: rows retire long before the program ends.
_MAINT_INTERVAL = 2048

_M64 = (1 << 64) - 1

# Ambient engine overrides installed by engine_scope(); innermost last.
_SCOPE: list = []


def resolve_engine(engine: str | None = None) -> str:
    """Resolve the campaign engine: explicit > ambient scope > env > default.

    Raises :class:`ConfigError` for unknown names.
    """
    if engine is None:
        for eng, _size in reversed(_SCOPE):
            if eng is not None:
                engine = eng
                break
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or "scalar"
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def resolve_batch_size(batch_size: int | None = None) -> int:
    """Resolve the lockstep batch width: explicit > scope > env > default."""
    if batch_size is None:
        for _eng, size in reversed(_SCOPE):
            if size is not None:
                batch_size = size
                break
    if batch_size is None:
        raw = os.environ.get(BATCH_SIZE_ENV)
        if raw:
            try:
                batch_size = int(raw)
            except ValueError:
                raise ConfigError(
                    f"{BATCH_SIZE_ENV} must be an integer, got {raw!r}"
                ) from None
        else:
            batch_size = DEFAULT_BATCH_SIZE
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    return batch_size


@contextmanager
def engine_scope(engine: str | None = None, batch_size: int | None = None):
    """Ambient engine selection for code paths without explicit threading.

    The CLI wraps command execution in this scope so that deeply nested
    campaign calls (supervisor retries, hybrid verify bands, model-guided
    refinement) pick up ``--engine``/``--batch-size`` without every
    intermediate layer growing parameters.
    """
    if engine is not None and engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    if batch_size is not None and batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    _SCOPE.append((engine, batch_size))
    try:
        yield
    finally:
        _SCOPE.pop()


@dataclass
class BatchStats:
    """Deterministic accounting of one lockstep batch (or a merged campaign).

    ``lockstep_steps`` counts dynamic instructions each row spent riding the
    shared mirror replay; ``scalar_steps`` counts instructions executed by
    detached rows' scalar tails. Their ratio — :meth:`occupancy` — is the
    fraction of trial-instructions the batch engine amortized.
    """

    trials: int = 0
    batches: int = 0
    detached: int = 0
    #: Rows whose branch divergence reconverged at the immediate
    #: post-dominator (parked or side-tripped) instead of detaching.
    reconverged: int = 0
    retired: int = 0
    finalized_crash: int = 0
    finalized_detected: int = 0
    lockstep_steps: int = 0
    scalar_steps: int = 0
    detach_reasons: dict = field(default_factory=dict)
    #: Detaches per guest site ("fn:block" of the row's innermost frame at
    #: detach time) — the batch engine's hotspot attribution.
    detach_sites: dict = field(default_factory=dict)
    #: Reconvergences per guest site ("fn:block" of the post-dominator the
    #: divergent row parked at).
    reconverge_sites: dict = field(default_factory=dict)

    def detach_rate(self) -> float:
        return self.detached / self.trials if self.trials else 0.0

    def occupancy(self) -> float:
        total = self.lockstep_steps + self.scalar_steps
        return self.lockstep_steps / total if total else 1.0

    def merge(self, other: "BatchStats") -> None:
        self.trials += other.trials
        self.batches += other.batches
        self.detached += other.detached
        self.reconverged += other.reconverged
        self.retired += other.retired
        self.finalized_crash += other.finalized_crash
        self.finalized_detected += other.finalized_detected
        self.lockstep_steps += other.lockstep_steps
        self.scalar_steps += other.scalar_steps
        for k, v in other.detach_reasons.items():
            self.detach_reasons[k] = self.detach_reasons.get(k, 0) + v
        for k, v in other.detach_sites.items():
            self.detach_sites[k] = self.detach_sites.get(k, 0) + v
        for k, v in other.reconverge_sites.items():
            self.reconverge_sites[k] = self.reconverge_sites.get(k, 0) + v

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "batches": self.batches,
            "detached": self.detached,
            "reconverged": self.reconverged,
            "retired": self.retired,
            "finalized_crash": self.finalized_crash,
            "finalized_detected": self.finalized_detected,
            "lockstep_steps": self.lockstep_steps,
            "scalar_steps": self.scalar_steps,
            "detach_rate": self.detach_rate(),
            "occupancy": self.occupancy(),
            "detach_reasons": dict(self.detach_reasons),
            "detach_sites": dict(self.detach_sites),
            "reconverge_sites": dict(self.reconverge_sites),
        }


class _AllDone(Exception):
    """Internal: every row finalized/detached — stop the mirror replay."""


class _RFrame:
    """A snapshot frame resolved for batch resume (golden slots + columns)."""

    __slots__ = ("dfn", "blk", "prev_gid", "call_index", "gslots", "cols")

    def __init__(self, dfn, blk, prev_gid, call_index, gslots):
        self.dfn = dfn
        self.blk = blk
        self.prev_gid = prev_gid
        self.call_index = call_index
        self.gslots = gslots
        self.cols = [None] * dfn.n_slots


class _RowMem(dict):
    """Lazy per-row memory view over frozen park-time segment refs.

    Side trips touch a handful of segments; copying the full memory image
    per reconverging row dominated reconvergence cost. Instead the view
    holds ``base`` — the golden segment *references* as of park time — and
    clones just the segments actually read or written. The refs stay
    frozen because the mirror's store path clones any golden segment it
    would mutate while rows are parked (see ``_store``/``_thawed``).
    Iteration only sees materialized segments, so anything that escapes
    into a :class:`Snapshot` goes through :meth:`materialize` first.
    """

    __slots__ = ("base",)

    def __init__(self, base: dict):
        super().__init__()
        self.base = base

    def __missing__(self, seg):
        cells = list(self.base[seg])
        self[seg] = cells
        return cells

    def get(self, seg, default=None):
        """Materializing get: a returned segment may be written to."""
        if seg in self:
            return dict.__getitem__(self, seg)
        if seg in self.base:
            return self[seg]
        return default

    def peek(self, addr: int):
        """Read one cell without materializing its segment."""
        cells = dict.get(self, addr >> SEG_SHIFT)
        if cells is None:
            cells = self.base[addr >> SEG_SHIFT]
        return cells[addr & SEG_MASK]

    def materialize(self) -> dict:
        """A plain, fully private dict (for Snapshot/resume consumers)."""
        return {seg: self[seg] for seg in self.base}


def _sneq(a, b) -> bool:
    """Bitwise scalar inequality, matching the column planes' notion.

    Floats compare by their binary64 encoding (NaN == NaN, -0.0 != 0.0),
    ints by value; a class mismatch (or exactly one ``None``) is always a
    difference. Used when reconciling a woken row's frozen state against
    the golden mirror.
    """
    if a is None or b is None:
        return a is not b
    af = type(a) is float
    if af != (type(b) is float):
        return True
    if af:
        return float64_to_bits(a) != float64_to_bits(b)
    return a != b


class _BatchRun:
    """One lockstep batch: golden mirror replay + N rows of diff columns."""

    def __init__(
        self,
        program,
        faults,
        args,
        bindings,
        golden_output,
        snapshot,
        convergence,
        step_limit,
    ):
        self.prog = program
        self.n = len(faults)
        self.args = args
        self.bindings = bindings
        self.golden_output = golden_output
        self.snapshot = snapshot
        self.convergence = convergence
        self.step_limit = step_limit

        np = _np
        self._U64 = np.uint64
        self._F64 = np.float64
        self.alive = np.ones(self.n, dtype=bool)
        self.alive_count = self.n
        # Rows waiting at a reconvergence point for the mirror to catch up.
        # ``exec_mask`` (= alive & ~parked) is what every execution-semantics
        # scan uses; ``alive`` alone gates only final-result bookkeeping.
        self.parked = np.zeros(self.n, dtype=bool)
        self.exec_mask = np.ones(self.n, dtype=bool)
        # Per-row dynamic-step offset relative to the mirror, picked up by
        # rows whose reconverged detour had a different step count. Only
        # positive offsets can change hang classification; ``max_extra``
        # makes that check one integer compare per block.
        self.extra = np.zeros(self.n, dtype=np.int64)
        self.max_extra = 0
        self.park_count = 0
        self.park_stack: list = []  # one {gid: [records]} per active frame
        # Memory addresses the mirror wrote while any row was parked —
        # with per-frame slot logs, the candidate set for wake-time
        # reconciliation (everything else provably equals golden).
        self.park_mem_log: set = set()
        # Golden segments cloned by the mirror since the most recent park
        # (clone-on-first-write keeps park records' segment refs frozen).
        self._thawed: set = set()
        self._ipdom_cache: dict = {}
        self.results: list = [None] * self.n
        self.stats = BatchStats(trials=self.n, batches=1)

        # Fault schedule: iid -> [(instance, row, bit), ...] sorted by
        # *descending* instance so the next-due fault pops off the end.
        self.f_by_iid: dict[int, list] = {}
        for row, spec in enumerate(faults):
            self.f_by_iid.setdefault(spec.iid, []).append(
                (spec.instance, row, spec.bit)
            )
        for lst in self.f_by_iid.values():
            lst.sort(reverse=True)
        self.f_seen: dict[int, int] = {iid: 0 for iid in self.f_by_iid}
        self.f_fired = np.zeros(self.n, dtype=bool)

        # Golden mirror state (exactly the scalar interpreter's).
        self.mem: dict[int, list] = {}
        self.next_seg = 1
        self.output: list = []
        self.steps = 0
        self.base_steps = 0

        # Diff planes.
        self.mem_cols: dict[int, object] = {}  # absolute address -> column
        self.out_overlays: list = []  # (output index, {row: value})
        self.out_diff = np.zeros(self.n, dtype=bool)
        self.shadow: list = []  # suspended caller frames, outermost first
        self.maint_at = _MAINT_INTERVAL

    # -- column helpers ------------------------------------------------
    def _bcast(self, gv):
        """A fresh column holding the golden value in every row."""
        if type(gv) is float:
            return _np.full(self.n, gv, dtype=self._F64)
        return _np.full(self.n, gv, dtype=self._U64)

    def _diff_raw(self, col, gv):
        """Unmasked bitwise column-vs-golden difference."""
        if col.dtype == self._F64:
            return col.view(self._U64) != self._U64(float64_to_bits(gv))
        return col != self._U64(gv)

    def _neq(self, col, gv):
        """Executing rows whose column value differs bit-for-bit from golden.

        Parked rows are excluded: their column entries go stale while they
        wait (their truth lives in the frozen park record and is reconciled
        at wake), so they must neither trigger divergence handling nor keep
        settled columns alive.
        """
        return self._diff_raw(col, gv) & self.exec_mask

    def _settled(self, col, gv) -> bool:
        return gv is not None and not bool(self._neq(col, gv).any())

    def _row_val(self, row: int, gv, col):
        """Row's scalar view of a value: golden unless a column overrides."""
        if col is None:
            return gv
        if col.dtype == self._F64:
            return float(col[row])
        return int(col[row])

    # -- row lifecycle -------------------------------------------------
    def _mark_done(self, row: int) -> None:
        self.alive[row] = False
        self.exec_mask[row] = False
        self.alive_count -= 1
        self.stats.lockstep_steps += self.steps - self.base_steps
        if self.alive_count == 0:
            raise _AllDone()

    def _finalize_trap(self, row: int, trap: Trap) -> None:
        """Classify a row in lockstep: its trap decides the outcome now."""
        self.results[row] = (None, trap)
        if isinstance(trap, DetectedError):
            self.stats.finalized_detected += 1
        else:
            self.stats.finalized_crash += 1
        self._mark_done(row)

    def _row_output(self, row: int) -> list:
        """Row's output so far (the shared golden list when undiverged)."""
        if not self.out_diff[row]:
            return self.output
        out = list(self.output)
        for pos, overrides in self.out_overlays:
            v = overrides.get(row)
            if v is not None or row in overrides:
                out[pos] = v
        return out

    def _row_mem(self, row: int) -> dict:
        mem = {seg: list(cells) for seg, cells in self.mem.items()}
        for addr, col in self.mem_cols.items():
            if col.dtype == self._F64:
                v = float(col[row])
            else:
                v = int(col[row])
            mem[addr >> SEG_SHIFT][addr & SEG_MASK] = v
        return mem

    def _row_slots(self, row: int, gslots: list, cols: list) -> list:
        return [self._row_val(row, gv, c) for gv, c in zip(gslots, cols)]

    def _detach_row(
        self, row, dfn, block_name, prev_gid, gslots, cols, code_index, reason
    ) -> None:
        """Materialize a diverged row's exact state and finish it scalar.

        ``code_index`` >= 0 resumes mid-block at that instruction (store
        divergence — the scalar run re-executes the store); -1 resumes at
        ``block_name``'s entry (branch divergence — ``self.steps`` is the
        step count at the target block's entry, pre-accounting, exactly
        where checkpoint snapshots are defined).
        """
        frames = [
            FrameSnapshot(f[0].name, f[3].name, f[4], f[5],
                          self._row_slots(row, f[1], f[2]))
            for f in self.shadow
        ]
        frames.append(
            FrameSnapshot(dfn.name, block_name, prev_gid, -1,
                          self._row_slots(row, gslots, cols), code_index)
        )
        snap = Snapshot(
            steps=self.steps + int(self.extra[row]),
            next_seg=self.next_seg,
            output=self._row_output(row),
            instr_counts=None,
            mem=self._row_mem(row),
            frames=frames,
        )
        self._finish_scalar(row, snap, reason)

    def _finish_scalar(self, row: int, snap: Snapshot, reason: str) -> None:
        """Run a detached row's scalar tail from ``snap`` and record it."""
        self.stats.detached += 1
        reasons = self.stats.detach_reasons
        reasons[reason] = reasons.get(reason, 0) + 1
        fr = snap.frames[-1]
        site = f"{fr.fn}:{fr.block}"
        sites = self.stats.detach_sites
        sites[site] = sites.get(site, 0) + 1
        self._mark_done_detached(row)
        trap: Trap | None = None
        output: list | None = None
        with _span("batch.detach", {"site": site, "reason": reason},
                   infra=True):
            try:
                res = self.prog.resume(
                    snap,
                    fault=None,
                    step_limit=self.step_limit,
                    convergence=self.convergence,
                    fault_fired=True,
                )
                output = res.output
                if res.converged:
                    output = output + self.golden_output[res.converged_output_len:]
                self.stats.scalar_steps += res.steps - snap.steps
            except Trap as t:
                trap = t
        self.results[row] = (output, trap)
        if self.alive_count == 0:
            raise _AllDone()

    def _mark_done_detached(self, row: int) -> None:
        # Like _mark_done but defers the _AllDone raise until the scalar
        # tail has run and the row's result is recorded.
        self.alive[row] = False
        self.exec_mask[row] = False
        self.alive_count -= 1
        self.stats.lockstep_steps += self.steps - self.base_steps

    # -- branch reconvergence ------------------------------------------
    def _ipdom_for(self, dfn) -> dict:
        """Block gid -> reconvergence block: the immediate post-dominator,
        or ``None`` when control only rejoins at function exit.

        Standard iterative post-dominator sets over the block graph (tiny:
        programs here have tens of blocks), cached per function. A branch
        whose divergent path must pass the ipdom before leaving the
        function lets the row rejoin the batch there instead of detaching.
        """
        cached = self._ipdom_cache.get(dfn.name)
        if cached is not None:
            return cached
        by_gid = {b.gid: b for b in dfn.blocks.values()}
        succs = {}
        for g, b in by_gid.items():
            t = b.term
            if t[0] == "br":
                succs[g] = (t[2].gid,)
            elif t[0] == "condbr":
                succs[g] = (t[4].gid, t[5].gid)
            else:
                succs[g] = ()
        EXIT = -1
        allset = frozenset(by_gid) | {EXIT}
        pdom = {g: allset for g in by_gid}
        pdom[EXIT] = frozenset({EXIT})
        changed = True
        while changed:
            changed = False
            for g in by_gid:
                ss = succs[g] or (EXIT,)
                new = frozenset({g}).union(
                    frozenset.intersection(*(pdom.get(s, allset) for s in ss))
                )
                if new != pdom[g]:
                    pdom[g] = new
                    changed = True
        res = {}
        for g in by_gid:
            cands = pdom[g] - {g}
            ip = None
            # The immediate post-dominator is the candidate every other
            # candidate post-dominates (candidates form a chain).
            for c in cands:
                if c != EXIT and cands <= pdom[c]:
                    ip = by_gid[c]
                    break
            res[g] = ip
        self._ipdom_cache[dfn.name] = res
        return res

    def _reconverge_row(self, row, dfn, blk, atarget, rblk, gslots, cols,
                        parks) -> None:
        """Branch-divergent row: run its detour privately up to the
        reconvergence block ``rblk``, then park it there until the golden
        mirror arrives (the mirror must pass ``rblk`` — it post-dominates
        the branch)."""
        slots = self._row_slots(row, gslots, cols)
        gmem = self.mem
        mem = _RowMem(dict(gmem))
        stale_addrs = []
        F64 = self._F64
        for addr, col in self.mem_cols.items():
            gv = gmem[addr >> SEG_SHIFT][addr & SEG_MASK]
            if col.dtype == F64:
                rv = float(col[row])
                if float64_to_bits(rv) == float64_to_bits(gv):
                    continue
            else:
                rv = int(col[row])
                if rv == gv:
                    continue
            mem[addr >> SEG_SHIFT][addr & SEG_MASK] = rv
            stale_addrs.append(addr)
        with _span("batch.reconverge", {"site": f"{dfn.name}:{rblk.name}"},
                   infra=True):
            rec = self._side_trip(row, dfn, atarget, blk.gid, slots, mem,
                                  rblk.gid, self.steps + int(self.extra[row]))
        if rec is None:
            return
        psteps, pgid, slots, mem, wslots, wmem = rec
        # Wake-time reconciliation candidates: the detour's writes plus
        # every location where the row already differed from golden at park
        # time. With the mirror's own write logs, that covers every
        # location that can differ at wake.
        for i, col in enumerate(cols):
            gv = gslots[i]
            if col is not None and gv is not None and self._stale(col, row, gv):
                wslots.add(i)
        wmem.update(stale_addrs)
        self.parked[row] = True
        self.exec_mask[row] = False
        self.extra[row] = 0  # the offset now lives in the park record
        self.park_count += 1
        self.stats.reconverged += 1
        site = f"{dfn.name}:{rblk.name}"
        rsites = self.stats.reconverge_sites
        rsites[site] = rsites.get(site, 0) + 1
        # The record now holds frozen refs to the current golden segments;
        # the mirror clones before its next write to any of them.
        self._thawed.clear()
        parks.setdefault(rblk.gid, []).append(
            (row, psteps, pgid, slots, mem, len(self.shadow), dfn, rblk.name,
             wslots, wmem)
        )

    def _side_trip(self, row, dfn, blk, prev_gid, slots, mem, r_gid, steps):
        """Scalar mini-interpreter for one row's divergent detour.

        Executes on the row's *private* slots/memory with exactly the
        scalar interpreter's step accounting, formulas, and trap
        conditions, until control reaches the reconvergence block
        ``r_gid`` (stop *before* its accounting — park state is at block
        entry, like checkpoint snapshots). Returns ``(steps, prev_gid,
        slots, mem, written slot set, written addr set)`` to park — the
        write sets feed wake-time reconciliation candidates — or ``None``
        when the row left the batch:
        trapped (finalized), or hit an op the private detour cannot carry
        — alloca (segment ids are global), call (frame bookkeeping), emit
        (shared output stream) — which detaches it to the full scalar
        engine from this exact point.
        """
        limit = self.step_limit
        t0 = steps
        wslots: set = set()
        wmem: set = set()
        while True:
            if blk.gid == r_gid:
                self.stats.scalar_steps += steps - t0
                return steps, prev_gid, slots, mem, wslots, wmem
            steps += len(blk.code) + 1
            if limit is not None and steps > limit:
                self.stats.scalar_steps += steps - t0
                self._finalize_trap(
                    row, HangTimeout(f"step limit {limit} exceeded")
                )
                return None
            if blk.phis:
                vals = []
                for d in blk.phis:
                    k, v = d[3][prev_gid]
                    vals.append(v if k == 0 else slots[v])
                for d, v in zip(blk.phis, vals):
                    slots[d[2]] = v
                    wslots.add(d[2])
                steps += len(blk.phis)
            for ci, d in enumerate(blk.code):
                op = d[0]
                try:
                    if op <= 12:
                        a = d[4] if d[3] == 0 else slots[d[4]]
                        b = d[6] if d[5] == 0 else slots[d[6]]
                        mask = d[7]
                        if op == 0:
                            val = (a + b) & mask
                        elif op == 1:
                            val = (a - b) & mask
                        elif op == 2:
                            val = (a * b) & mask
                        elif op == 7:
                            val = a & b
                        elif op == 8:
                            val = a | b
                        elif op == 9:
                            val = a ^ b
                        else:
                            val = int_op(op, a, b, d)
                    elif op <= 16:
                        a = d[4] if d[3] == 0 else slots[d[4]]
                        b = d[6] if d[5] == 0 else slots[d[6]]
                        if op == 13:
                            val = a + b
                        elif op == 14:
                            val = a - b
                        elif op == 15:
                            val = a * b
                        else:
                            val = fdiv(a, b)
                        if d[7]:
                            val = f32(val)
                    elif op == 17:
                        a = d[4] if d[3] == 0 else slots[d[4]]
                        b = d[6] if d[5] == 0 else slots[d[6]]
                        val = self._icmp_scalar(d, a, b)
                    elif op == 18:
                        a = d[4] if d[3] == 0 else slots[d[4]]
                        b = d[6] if d[5] == 0 else slots[d[6]]
                        val = self._fcmp_scalar(d, a, b)
                    elif op == 19:
                        c = d[4] if d[3] == 0 else slots[d[4]]
                        tv = d[6] if d[5] == 0 else slots[d[6]]
                        fv = d[8] if d[7] == 0 else slots[d[8]]
                        val = tv if c else fv
                    elif op == 20:
                        x = d[4] if d[3] == 0 else slots[d[4]]
                        val = fmath(x, d[5])
                        if d[6]:
                            val = f32(val)
                    elif op <= 29:
                        x = d[4] if d[3] == 0 else slots[d[4]]
                        val, _ = self._cast(op, d, x, None)
                    elif op == 31:  # load
                        addr = d[4] if d[3] == 0 else slots[d[4]]
                        cells = mem.get(addr >> SEG_SHIFT)
                        off = addr & SEG_MASK
                        if cells is None or off >= len(cells):
                            raise MemoryFault(f"load from {addr:#x}")
                        val = coerce_load(cells[off], d[5], d[6])
                    elif op == 32:  # store
                        v = d[4] if d[3] == 0 else slots[d[4]]
                        addr = d[6] if d[5] == 0 else slots[d[6]]
                        cells = mem.get(addr >> SEG_SHIFT)
                        off = addr & SEG_MASK
                        if cells is None or off >= len(cells):
                            raise MemoryFault(f"store to {addr:#x}")
                        cells[off] = v
                        wmem.add(addr)
                        continue
                    elif op == 33:  # gep
                        p = d[4] if d[3] == 0 else slots[d[4]]
                        idx = d[6] if d[5] == 0 else slots[d[6]]
                        w = d[7]
                        sidx = idx - (1 << w) if idx & (1 << (w - 1)) else idx
                        val = (p + sidx) & _M64
                    elif op == 37:  # check
                        a = d[4] if d[3] == 0 else slots[d[4]]
                        b = d[6] if d[5] == 0 else slots[d[6]]
                        if a != b and not (a != a and b != b):
                            raise DetectedError(d[7], a, b)
                        continue
                    elif op == 38:  # checkrange
                        x = d[4] if d[3] == 0 else slots[d[4]]
                        if x != x or x < d[5] or x > d[6]:
                            raise DetectedError(d[7], x, d[5])
                        continue
                    else:  # alloca / call / emit: detour can't carry it
                        self.stats.scalar_steps += steps - t0
                        self._side_abort(row, dfn, blk, prev_gid, slots,
                                         mem, ci, steps)
                        return None
                except Trap as tr:
                    self.stats.scalar_steps += steps - t0
                    self._finalize_trap(row, tr)
                    return None
                slots[d[2]] = val
                wslots.add(d[2])
            t = blk.term
            if t[0] == "br":
                prev_gid = blk.gid
                blk = t[2]
            elif t[0] == "condbr":
                c = t[3] if t[2] == 0 else slots[t[3]]
                prev_gid = blk.gid
                blk = t[4] if c else t[5]
            else:  # pragma: no cover - r_gid post-dominates, ret unreachable
                self.stats.scalar_steps += steps - t0
                self._side_abort(row, dfn, blk, prev_gid, slots, mem,
                                 len(blk.code), steps)
                return None

    def _side_abort(self, row, dfn, blk, prev_gid, slots, mem, code_index,
                    steps) -> None:
        """Detour hit an op it can't execute privately: detach the row with
        the detour's exact state, resuming at that instruction."""
        frames = [
            FrameSnapshot(f[0].name, f[3].name, f[4], f[5],
                          self._row_slots(row, f[1], f[2]))
            for f in self.shadow
        ]
        frames.append(
            FrameSnapshot(dfn.name, blk.name, prev_gid, -1, slots, code_index)
        )
        snap = Snapshot(
            steps=steps,
            next_seg=self.next_seg,
            output=self._row_output(row),
            instr_counts=None,
            mem=mem.materialize() if isinstance(mem, _RowMem) else mem,
            frames=frames,
        )
        self._finish_scalar(row, snap, "side-trip-op")

    def _detach_from_park(self, rec, reason: str) -> None:
        """Late-detach a parked row from its frozen park-time state (the
        caller has already cleared its parked flag)."""
        row, psteps, pgid, fslots, fmem, depth, dfn, rname = rec[:8]
        frames = [
            FrameSnapshot(f[0].name, f[3].name, f[4], f[5],
                          self._row_slots(row, f[1], f[2]))
            for f in self.shadow[:depth]
        ]
        frames.append(FrameSnapshot(dfn.name, rname, pgid, -1, list(fslots)))
        snap = Snapshot(
            steps=psteps,
            next_seg=self.next_seg,
            output=self._row_output(row),
            instr_counts=None,
            mem=fmem.materialize() if isinstance(fmem, _RowMem) else fmem,
            frames=frames,
        )
        self._finish_scalar(row, snap, reason)

    def _flush_parked(self, reason: str) -> None:
        """The mirror is about to execute an op parked rows cannot sit
        through — alloca (renumbers the shared segment cursor) or emit
        (advances the shared output stream) — so late-detach every parked
        row, in every frame, from its frozen state first."""
        for parks in self.park_stack:
            if parks:
                self._flush_dict(parks, reason)
        self.park_mem_log.clear()

    def _flush_dict(self, parks: dict, reason: str) -> None:
        for wl in parks.values():
            for rec in wl:
                row = rec[0]
                self.parked[row] = False
                self.park_count -= 1
                self._detach_from_park(rec, reason)
        parks.clear()

    def _stale(self, col, row: int, gv) -> bool:
        """Does this column's entry for ``row`` differ bitwise from ``gv``?"""
        if col.dtype == self._F64:
            return float64_to_bits(float(col[row])) != float64_to_bits(gv)
        return int(col[row]) != gv

    def _hang_extras(self) -> None:
        """Rows running ahead of the mirror (positive step offset) can
        exceed the hang budget where the mirror doesn't — exactly the
        scalar interpreter's block-entry check, offset per row."""
        limit = self.step_limit
        over = (self.extra > 0) & self.exec_mask
        over &= (self.steps + self.extra) > limit
        for r in _np.nonzero(over)[0]:
            self._finalize_trap(
                int(r), HangTimeout(f"step limit {limit} exceeded")
            )
        live = self.extra[self.exec_mask | self.parked]
        self.max_extra = int(live.max()) if live.size else 0

    def _wake_reconcile(self, rec, blk, dfn, gslots, cols, slot_log) -> None:
        """Fold a woken row's frozen detour state back into the columns.

        The row sat at this block's entry while the mirror caught up; the
        mirror has just run the block's phis. Reconciling = apply the
        row's *own* phi inputs (from its frozen slots, along its own
        incoming edge) and then diff against golden — not everywhere, only
        at the *candidates*: slots/cells the detour wrote, locations the
        row already differed at park time, and everything the mirror wrote
        while rows were parked (``slot_log``/``park_mem_log``). Anywhere
        else, frozen == park-time golden == current golden. Differences
        materialize columns; candidate entries gone stale while parked are
        scrubbed back to golden. A difference no column can hold
        (value-class flip, or a slot golden never set) falls back to a
        full detach from the frozen state — rare, and exactly as correct
        as any other detach.
        """
        row, psteps, pgid, fslots, fmem, depth, rdfn, rname, ws, wm = rec
        cand_slots = ws | slot_log
        if blk.phis:
            vals = []
            for d in blk.phis:
                k, v = d[3][pgid]
                vals.append(v if k == 0 else fslots[v])
                cand_slots.add(d[2])
            fslots = list(fslots)  # keep the frozen record for detach
            for d, v in zip(blk.phis, vals):
                fslots[d[2]] = v
        cand_mem = wm | self.park_mem_log
        # Representability scan first, so an unrepresentable diff detaches
        # from the untouched frozen record.
        for i in cand_slots:
            gv = gslots[i]
            rv = fslots[i]
            if rv is None and gv is None:
                continue
            if rv is None or gv is None or (
                (type(rv) is float) != (type(gv) is float)
            ):
                self._detach_from_park(rec, "reconverge-class")
                return
        mem = self.mem
        for addr in cand_mem:
            rv = fmem.peek(addr)
            gv = mem[addr >> SEG_SHIFT][addr & SEG_MASK]
            if (type(rv) is float) != (type(gv) is float):
                self._detach_from_park(rec, "reconverge-class")
                return
        # Apply: slots...
        for i in cand_slots:
            gv = gslots[i]
            if gv is None:
                continue
            rv = fslots[i]
            col = cols[i]
            if _sneq(rv, gv):
                ncol = col.copy() if col is not None else self._bcast(gv)
                ncol[row] = rv
                cols[i] = ncol
            elif col is not None and self._stale(col, row, gv):
                ncol = col.copy()
                ncol[row] = gv
                cols[i] = ncol
        # ...and memory cells.
        mem_cols = self.mem_cols
        for addr in cand_mem:
            rv = fmem.peek(addr)
            gv = mem[addr >> SEG_SHIFT][addr & SEG_MASK]
            col = mem_cols.get(addr)
            if _sneq(rv, gv):
                ncol = col.copy() if col is not None else self._bcast(gv)
                ncol[row] = rv
                mem_cols[addr] = ncol
            elif col is not None and self._stale(col, row, gv):
                ncol = col.copy()
                ncol[row] = gv
                mem_cols[addr] = ncol

    def _maintain(self, gslots, cols) -> None:
        """Periodic lockstep maintenance: column GC and row retirement.

        Drops columns whose alive rows all re-joined golden (row deaths and
        settled corruption leave stale diffs behind; every consumer masks by
        ``alive``, so GC is a fast-path restorer, not a correctness need).
        While scanning, accumulates a per-row any-diff mask: an alive row
        whose fault fired, with no fault still pending and no surviving diff
        in any slot, frame, or memory cell, is in a state bit-identical to
        golden — its remaining execution *is* the golden tail, so it retires
        immediately with the full golden output (plus any recorded output
        overlays). This is the batch-native convergence pruning, detected
        the moment corruption washes out instead of at checkpoint oracles.
        """
        self.maint_at = self.steps + _MAINT_INTERVAL
        dirty = _np.zeros(self.n, dtype=bool)
        # GC must keep columns alive for *parked* rows too: a parked row's
        # outer-frame diffs live only in the columns (its park record
        # freezes just the diverging frame), so dropping them would lose
        # state. Its current-frame entries may be stale garbage — keeping
        # those columns is merely conservative.
        if self.park_count:
            gcm = self.exec_mask | self.parked
        else:
            gcm = self.exec_mask
        frames = [(f[1], f[2]) for f in self.shadow]
        frames.append((gslots, cols))
        for f_gslots, f_cols in frames:
            for i, col in enumerate(f_cols):
                if col is None:
                    continue
                gv = f_gslots[i]
                if gv is None:  # pragma: no cover - defensive
                    f_cols[i] = None
                    continue
                m = self._diff_raw(col, gv) & gcm
                if not m.any():
                    f_cols[i] = None
                else:
                    dirty |= m
        mem = self.mem
        dead = []
        for addr, col in self.mem_cols.items():
            m = self._diff_raw(col, mem[addr >> SEG_SHIFT][addr & SEG_MASK])
            m &= gcm
            if not m.any():
                dead.append(addr)
            else:
                dirty |= m
        for addr in dead:
            del self.mem_cols[addr]
        pending = _np.zeros(self.n, dtype=bool)
        for lst in self.f_by_iid.values():
            for _inst, row, _bit in lst:
                pending[row] = True
        # Parked rows' diffs live in their frozen park records, invisible to
        # the column scan; rows running ahead of the mirror (positive step
        # offset) could still hang where golden finishes — neither may
        # retire on "bit-identical to golden" evidence.
        retire = self.exec_mask & self.f_fired & ~dirty & ~pending
        if self.max_extra > 0 and self.step_limit is not None:
            retire &= ~(self.extra > 0)
        if not retire.any():
            return
        golden = self.golden_output
        for r in _np.nonzero(retire)[0]:
            r = int(r)
            if self.out_diff[r]:
                out = list(golden)
                for pos, overrides in self.out_overlays:
                    if r in overrides:
                        out[pos] = overrides[r]
            else:
                out = golden
            self.results[r] = (out, None)
            self.stats.retired += 1
            self.alive[r] = False
            self.exec_mask[r] = False
            self.alive_count -= 1
            self.stats.lockstep_steps += self.steps - self.base_steps
        if self.alive_count == 0:
            raise _AllDone()

    # -- fault firing --------------------------------------------------
    def _fire_faults(self, iid: int, gval, col):
        """Apply every fault scheduled at this dynamic instance; returns the
        (possibly created/copied) column."""
        lst = self.f_by_iid.get(iid)
        if lst is None:
            return col
        seen = self.f_seen[iid] + 1
        self.f_seen[iid] = seen
        if not lst or lst[-1][0] != seen:
            return col
        kind, width = self.prog.flip_info[iid]
        owned = False
        while lst and lst[-1][0] == seen:
            _inst, row, bit = lst.pop()
            if not self.alive[row]:  # pragma: no cover - defensive
                continue
            if col is None:
                col = self._bcast(gval)
                owned = True
            elif not owned:
                col = col.copy()
                owned = True
            flipped = flip_value(self._row_val(row, gval, col), bit, kind, width)
            col[row] = flipped
            self.f_fired[row] = True
        if not lst:
            del self.f_by_iid[iid]
            del self.f_seen[iid]
        return col

    # -- memory ops ----------------------------------------------------
    def _coerce_load_col(self, col, want: int, mask: int):
        """Column version of the load type-reinterpretation rules."""
        U64 = self._U64
        if want == 0:
            if col.dtype == self._F64:
                return col.view(U64) & U64(mask)
            return col
        if want == 1:
            if col.dtype != self._F64:
                return col.view(self._F64)
            return col
        if col.dtype != self._F64:
            return (
                (col & U64(0xFFFFFFFF))
                .astype(_np.uint32)
                .view(_np.float32)
                .astype(self._F64)
            )
        return col

    def _load(self, d, gaddr, acol, dfn, gslots, cols):
        """Execute a load: golden value + result column; divergent-address
        rows read their own cells in lockstep (per-row), invalid addresses
        finalize as CRASH."""
        mem = self.mem
        cells = mem.get(gaddr >> SEG_SHIFT)
        off = gaddr & SEG_MASK
        # Golden addresses are always valid: the mirror follows a trace the
        # golden run completed.
        raw = cells[off]
        want, mask = d[5], d[6]
        gval = coerce_load(raw, want, mask)

        dv = None
        if acol is not None:
            dv = self._neq(acol, gaddr)
            if not dv.any():
                dv = None
        mc = self.mem_cols.get(gaddr)
        if dv is None:
            if mc is None:
                return gval, None
            col = self._coerce_load_col(mc, want, mask)
            if self._settled(col, gval):
                return gval, None
            return gval, col

        # Divergent address stream: per-row reads, in lockstep.
        if mc is not None:
            col = self._coerce_load_col(mc, want, mask).copy()
        else:
            col = self._bcast(gval)
        for r in _np.nonzero(dv)[0]:
            r = int(r)
            addr = int(acol[r])
            rcells = mem.get(addr >> SEG_SHIFT)
            roff = addr & SEG_MASK
            if rcells is None or roff >= len(rcells):
                self._finalize_trap(r, MemoryFault(f"load from {addr:#x}"))
                continue
            v = rcells[roff]
            rmc = self.mem_cols.get(addr)
            if rmc is not None:
                v = self._row_val(r, v, rmc)
            col[r] = coerce_load(v, want, mask)
        if self._settled(col, gval):
            return gval, None
        return gval, col

    def _store(self, d, idx, dfn, blk, prev_gid, gslots, cols) -> None:
        """Execute a store; divergent-address rows write their own columns
        (or detach when a column would need mixed dtypes)."""
        gv = d[4] if d[3] == 0 else gslots[d[4]]
        vcol = None if d[3] == 0 else cols[d[4]]
        gaddr = d[6] if d[5] == 0 else gslots[d[6]]
        acol = None if d[5] == 0 else cols[d[6]]
        mem = self.mem
        cells = mem.get(gaddr >> SEG_SHIFT)
        off = gaddr & SEG_MASK
        if self.park_count:
            self.park_mem_log.add(gaddr)
            seg = gaddr >> SEG_SHIFT
            if seg not in self._thawed:
                # Park records hold frozen refs to this segment's list —
                # clone before the first mutation since the last park.
                cells = mem[seg] = list(cells)
                self._thawed.add(seg)

        dv = None
        if acol is not None:
            dv = self._neq(acol, gaddr)
            if not dv.any():
                dv = None

        if dv is None:
            cells[off] = gv
            if vcol is None or self._settled(vcol, gv):
                self.mem_cols.pop(gaddr, None)
            else:
                self.mem_cols[gaddr] = vcol
            return

        # Divergent address stream. Pass 0: classify every divergent row
        # *before* any memory mutation, so detached rows materialize the
        # exact pre-store state (their scalar tail re-executes the store).
        old_gv = cells[off]
        class_flip = (type(old_gv) is float) != (type(gv) is float)
        new_is_float = type(gv) is float
        plans: list = []
        for r in _np.nonzero(dv)[0]:
            r = int(r)
            addr = int(acol[r])
            rcells = mem.get(addr >> SEG_SHIFT)
            roff = addr & SEG_MASK
            if rcells is None or roff >= len(rcells):
                self._finalize_trap(r, MemoryFault(f"store to {addr:#x}"))
                continue
            tgt_is_float = type(rcells[roff]) is float
            v_r = self._row_val(r, gv, vcol)
            if tgt_is_float != new_is_float or class_flip:
                # The row's view of some cell needs a dtype its column
                # cannot hold alongside golden — leave the batch instead.
                self._detach_row(
                    r, dfn, blk.name, prev_gid, gslots, cols, idx,
                    "store-dtype",
                )
                continue
            plans.append((r, addr, v_r))

        old_col = self.mem_cols.get(gaddr)
        # Golden write at the golden address.
        cells[off] = gv
        # Rebuild the golden address's column: rows that wrote elsewhere
        # keep their pre-store view; rows that wrote here get their value.
        dv &= self.exec_mask  # drop rows finalized/detached in pass 0
        if dv.any():
            base = old_col.copy() if old_col is not None else self._bcast(old_gv)
            wmask = self.exec_mask & ~dv
            if vcol is not None:
                base[wmask] = vcol[wmask]
            else:
                if type(gv) is float:
                    base[wmask] = gv
                else:
                    base[wmask] = self._U64(gv)
            if self._settled(base, gv):
                self.mem_cols.pop(gaddr, None)
            else:
                self.mem_cols[gaddr] = base
        else:
            if vcol is None or self._settled(vcol, gv):
                self.mem_cols.pop(gaddr, None)
            else:
                self.mem_cols[gaddr] = vcol
        # Per-row writes at divergent addresses (grouped: several rows may
        # target the same cell).
        by_addr: dict[int, list] = {}
        for r, addr, v_r in plans:
            if self.alive[r]:
                by_addr.setdefault(addr, []).append((r, v_r))
        for addr, writes in by_addr.items():
            tcol = self.mem_cols.get(addr)
            if tcol is None:
                tcells = mem[addr >> SEG_SHIFT]
                tcol = self._bcast(tcells[addr & SEG_MASK])
            else:
                tcol = tcol.copy()
            for r, v_r in writes:
                tcol[r] = v_r
            self.mem_cols[addr] = tcol

    # -- vectorized/fixup op tiers ------------------------------------
    def _operand_cols(self, d, gslots, cols):
        ca = None if d[3] == 0 else cols[d[4]]
        cb = None if d[5] == 0 else cols[d[6]]
        return ca, cb

    def _arr_u(self, col, gv):
        return col if col is not None else _np.full(self.n, gv, dtype=self._U64)

    def _arr_f(self, col, gv):
        return col if col is not None else _np.full(self.n, gv, dtype=self._F64)

    def _int_col(self, op, d, ga, gb, ca, cb, gval):
        U64 = self._U64
        if op in (0, 1, 2, 7, 8, 9):
            A = self._arr_u(ca, ga)
            B = self._arr_u(cb, gb)
            m = U64(d[7])
            if op == 0:
                return (A + B) & m
            if op == 1:
                return (A - B) & m
            if op == 2:
                return (A * B) & m
            if op == 7:
                return A & B
            if op == 8:
                return A | B
            return A ^ B
        # Fixup tier: shifts and div/rem — per-row CPython arithmetic on
        # exactly the rows whose operands differ from golden.
        col = self._bcast(gval)
        neq = _np.zeros(self.n, dtype=bool)
        if ca is not None:
            neq |= self._neq(ca, ga)
        if cb is not None:
            neq |= self._neq(cb, gb)
        for r in _np.nonzero(neq)[0]:
            r = int(r)
            a = int(ca[r]) if ca is not None else ga
            b = int(cb[r]) if cb is not None else gb
            try:
                col[r] = int_op(op, a, b, d)
            except ArithmeticTrap as t:
                self._finalize_trap(r, t)
        return col

    def _float_col(self, op, d, ga, gb, ca, cb):
        A = self._arr_f(ca, ga)
        B = self._arr_f(cb, gb)
        if op == 13:
            col = A + B
        elif op == 14:
            col = A - B
        elif op == 15:
            col = A * B
        else:
            col = A / B
            # 0-divisors take the interpreter's formula row by row: its
            # NaN payload (math.nan) differs from the hardware 0/0 qNaN.
            zero = (B == 0.0) & self.exec_mask
            if zero.any():
                for r in _np.nonzero(zero)[0]:
                    r = int(r)
                    col[r] = fdiv(float(A[r]), float(B[r]))
        if d[7]:
            col = col.astype(_np.float32).astype(self._F64)
        return col

    def _icmp_col(self, d, ga, gb, ca, cb):
        U64 = self._U64
        A = self._arr_u(ca, ga)
        B = self._arr_u(cb, gb)
        pred = d[7]
        if pred == 0:
            r = A == B
        elif pred == 1:
            r = A != B
        elif pred <= 5:  # signed: XOR-bias then compare unsigned
            bias = U64(1 << (d[8] - 1))
            Ax = A ^ bias
            Bx = B ^ bias
            if pred == 2:
                r = Ax < Bx
            elif pred == 3:
                r = Ax <= Bx
            elif pred == 4:
                r = Ax > Bx
            else:
                r = Ax >= Bx
        else:
            if pred == 6:
                r = A < B
            elif pred == 7:
                r = A <= B
            elif pred == 8:
                r = A > B
            else:
                r = A >= B
        return r.astype(U64)

    def _fcmp_col(self, d, ga, gb, ca, cb):
        A = self._arr_f(ca, ga)
        B = self._arr_f(cb, gb)
        pred = d[7]
        nan = _np.isnan(A) | _np.isnan(B)
        if pred == 0:
            r = A == B
        elif pred == 1:
            r = A != B
        elif pred == 2:
            r = A < B
        elif pred == 3:
            r = A <= B
        elif pred == 4:
            r = A > B
        else:
            r = A >= B
        return (r & ~nan).astype(self._U64)

    # -- execution -----------------------------------------------------
    def run(self):
        """Execute the batch; returns (results, stats) with one
        ``(output, trap)`` pair per row."""
        try:
            with _np.errstate(all="ignore"):
                if self.snapshot is None:
                    self._start_cold()
                else:
                    self._start_seeded()
        except _AllDone:
            pass
        if self.alive_count:
            for r in _np.nonzero(self.alive)[0]:
                r = int(r)
                self.results[r] = (self._row_output(r), None)
                self.stats.lockstep_steps += self.steps - self.base_steps
        return self.results, self.stats

    def _start_cold(self) -> None:
        prog = self.prog
        self.next_seg = prog._first_dyn_seg
        for seg, cells in prog.global_template:
            self.mem[seg] = list(cells)
        if self.bindings:
            for name, values in self.bindings.items():
                addr = prog.global_addr.get(name)
                if addr is None:
                    raise IRError(f"binding for unknown global @{name}")
                cells = self.mem[addr >> SEG_SHIFT]
                if len(values) > len(cells):
                    raise IRError(
                        f"binding for @{name} has {len(values)} values; "
                        f"global holds {len(cells)}"
                    )
                cells[: len(values)] = values
        main = prog.functions["main"]
        main_fn = prog.module.functions["main"]
        args = list(self.args) if self.args else []
        if len(args) != main.arg_slots:
            raise IRError(
                f"@main expects {main.arg_slots} arguments, got {len(args)}"
            )
        coerced = []
        for a, p in zip(args, main_fn.args):
            if p.type.is_float:
                coerced.append(float(a))
            else:
                coerced.append(int(a) & p.type.mask)
        self._exec_fn(main, coerced, [None] * len(coerced))

    def _start_seeded(self) -> None:
        snap = self.snapshot
        prog = self.prog
        self.steps = snap.steps
        self.base_steps = snap.steps
        self.maint_at = snap.steps + _MAINT_INTERVAL
        self.next_seg = snap.next_seg
        self.output = list(snap.output)
        self.mem = {seg: list(cells) for seg, cells in snap.mem.items()}
        for iid in self.f_by_iid:
            seen = snap.instr_counts[iid]
            for inst, _row, _bit in self.f_by_iid[iid]:
                if seen >= inst:
                    raise IRError(
                        f"snapshot at step {snap.steps} is past fault "
                        f"instance {inst} of iid {iid}"
                    )
            self.f_seen[iid] = seen
        frames = []
        for fr in snap.frames:
            dfn = prog.functions[fr.fn]
            frames.append(
                _RFrame(dfn, dfn.blocks[fr.block], fr.prev_gid,
                        fr.call_index, list(fr.slots))
            )
        self._exec_fn(frames[0].dfn, None, None, resume=(frames, 0))

    def _exec_fn(self, dfn, gargs, cargs, resume=None):
        """Mirror of ``Program._exec_fn``: golden replay + column planes.

        Returns the ret operand as a ``(golden value, column)`` pair.
        """
        # Rows parked at this frame's reconvergence blocks: gid -> records.
        parks: dict = {}
        self.park_stack.append(parks)
        # Slots the mirror writes in this frame while rows are parked here
        # (wake-time reconciliation candidates).
        slot_log: set = set()
        if resume is None:
            gslots = [None] * dfn.n_slots
            gslots[: len(gargs)] = gargs
            cols = [None] * dfn.n_slots
            cols[: len(cargs)] = cargs
            blk = dfn.entry
            prev_gid = -1
            code = None
            base_ci = 0
        else:
            frames, fi = resume
            fr = frames[fi]
            gslots = fr.gslots
            cols = fr.cols
            blk = fr.blk
            prev_gid = fr.prev_gid
            base_ci = 0
            if fi + 1 < len(frames):
                d = blk.code[fr.call_index]
                self.shadow.append(
                    (dfn, gslots, cols, blk, prev_gid, fr.call_index)
                )
                rv, rcol = self._exec_fn(
                    frames[fi + 1].dfn, None, None, (frames, fi + 1)
                )
                self.shadow.pop()
                if d[2] >= 0:
                    gslots[d[2]] = rv
                    cols[d[2]] = rcol
                base_ci = fr.call_index + 1
                code = blk.code[base_ci:]
            else:
                code = None
        mem = self.mem

        while True:
            if code is None:
                # Block entry: step accounting exactly as the scalar
                # interpreter; the golden replay cannot exceed the limit
                # (the golden run finished under it), so the hang check
                # below covers only rows running ahead of it.
                if self.steps >= self.maint_at:
                    self._maintain(gslots, cols)
                wl = parks.pop(blk.gid, None) if parks else None
                if wl is not None:
                    # The mirror reached a reconvergence point: wake the
                    # rows parked here. Their step offset is fixed before
                    # the block's accounting (park state and mirror state
                    # are both at block entry); their frozen state is
                    # reconciled after the mirror's phis run.
                    for rec in wl:
                        row = rec[0]
                        self.parked[row] = False
                        self.exec_mask[row] = True
                        self.park_count -= 1
                        ex = rec[1] - self.steps
                        self.extra[row] = ex
                        if ex > self.max_extra:
                            self.max_extra = ex
                self.steps += len(blk.code) + 1
                if (
                    self.max_extra > 0
                    and self.step_limit is not None
                    and self.steps + self.max_extra > self.step_limit
                ):
                    self._hang_extras()
                if blk.phis:
                    gvals = []
                    cvals = []
                    for d in blk.phis:
                        k, v = d[3][prev_gid]
                        if k == 0:
                            gvals.append(v)
                            cvals.append(None)
                        else:
                            gvals.append(gslots[v])
                            cvals.append(cols[v])
                    for d, gv, cv in zip(blk.phis, gvals, cvals):
                        gslots[d[2]] = gv
                        cols[d[2]] = cv
                        if parks:
                            slot_log.add(d[2])
                    self.steps += len(blk.phis)
                if wl is not None:
                    for rec in wl:
                        if self.alive[rec[0]]:
                            self._wake_reconcile(
                                rec, blk, dfn, gslots, cols, slot_log
                            )
                    if not parks:
                        slot_log.clear()
                    if self.park_count == 0:
                        self.park_mem_log.clear()
                code = blk.code
                base_ci = 0

            for ci, d in enumerate(code):
                op = d[0]
                col = None
                if op <= 12:  # integer binop ----------------------------
                    a = d[4] if d[3] == 0 else gslots[d[4]]
                    b = d[6] if d[5] == 0 else gslots[d[6]]
                    mask = d[7]
                    if op == 0:
                        val = (a + b) & mask
                    elif op == 1:
                        val = (a - b) & mask
                    elif op == 2:
                        val = (a * b) & mask
                    elif op == 7:
                        val = a & b
                    elif op == 8:
                        val = a | b
                    elif op == 9:
                        val = a ^ b
                    else:
                        val = int_op(op, a, b, d)
                    ca, cb = self._operand_cols(d, gslots, cols)
                    if ca is not None or cb is not None:
                        col = self._int_col(op, d, a, b, ca, cb, val)
                elif op <= 16:  # float binop ----------------------------
                    a = d[4] if d[3] == 0 else gslots[d[4]]
                    b = d[6] if d[5] == 0 else gslots[d[6]]
                    if op == 13:
                        val = a + b
                    elif op == 14:
                        val = a - b
                    elif op == 15:
                        val = a * b
                    else:
                        val = fdiv(a, b)
                    if d[7]:
                        val = f32(val)
                    ca, cb = self._operand_cols(d, gslots, cols)
                    if ca is not None or cb is not None:
                        col = self._float_col(op, d, a, b, ca, cb)
                elif op == 17:  # icmp -----------------------------------
                    a = d[4] if d[3] == 0 else gslots[d[4]]
                    b = d[6] if d[5] == 0 else gslots[d[6]]
                    val = self._icmp_scalar(d, a, b)
                    ca, cb = self._operand_cols(d, gslots, cols)
                    if ca is not None or cb is not None:
                        col = self._icmp_col(d, a, b, ca, cb)
                elif op == 18:  # fcmp -----------------------------------
                    a = d[4] if d[3] == 0 else gslots[d[4]]
                    b = d[6] if d[5] == 0 else gslots[d[6]]
                    val = self._fcmp_scalar(d, a, b)
                    ca, cb = self._operand_cols(d, gslots, cols)
                    if ca is not None or cb is not None:
                        col = self._fcmp_col(d, a, b, ca, cb)
                elif op == 19:  # select ---------------------------------
                    gc = d[4] if d[3] == 0 else gslots[d[4]]
                    gt = d[6] if d[5] == 0 else gslots[d[6]]
                    gf = d[8] if d[7] == 0 else gslots[d[8]]
                    val = gt if gc else gf
                    cc = None if d[3] == 0 else cols[d[4]]
                    ct = None if d[5] == 0 else cols[d[6]]
                    cf = None if d[7] == 0 else cols[d[8]]
                    if cc is not None or ct is not None or cf is not None:
                        C = self._arr_u(cc, gc)
                        if type(val) is float:
                            T = self._arr_f(ct, gt)
                            F = self._arr_f(cf, gf)
                        else:
                            T = self._arr_u(ct, gt)
                            F = self._arr_u(cf, gf)
                        col = _np.where(C != self._U64(0), T, F)
                elif op == 20:  # fmath ----------------------------------
                    x = d[4] if d[3] == 0 else gslots[d[4]]
                    val = fmath(x, d[5])
                    if d[6]:
                        val = f32(val)
                    cx = None if d[3] == 0 else cols[d[4]]
                    if cx is not None:
                        col = self._bcast(val)
                        for r in _np.nonzero(self._neq(cx, x))[0]:
                            r = int(r)
                            v = fmath(float(cx[r]), d[5])
                            col[r] = f32(v) if d[6] else v
                elif op <= 29:  # casts ----------------------------------
                    x = d[4] if d[3] == 0 else gslots[d[4]]
                    cx = None if d[3] == 0 else cols[d[4]]
                    val, col = self._cast(op, d, x, cx)
                elif op == 30:  # alloca ---------------------------------
                    if self.park_count:
                        self._flush_parked("golden-alloca")
                    seg = self.next_seg
                    self.next_seg = seg + 1
                    mem[seg] = [d[4]] * d[3]
                    val = seg << SEG_SHIFT
                elif op == 31:  # load -----------------------------------
                    gaddr = d[4] if d[3] == 0 else gslots[d[4]]
                    acol = None if d[3] == 0 else cols[d[4]]
                    val, col = self._load(d, gaddr, acol, dfn, gslots, cols)
                elif op == 32:  # store ----------------------------------
                    self._store(d, base_ci + ci, dfn, blk, prev_gid,
                                gslots, cols)
                    continue
                elif op == 33:  # gep ------------------------------------
                    p = d[4] if d[3] == 0 else gslots[d[4]]
                    idx = d[6] if d[5] == 0 else gslots[d[6]]
                    w = d[7]
                    sidx = idx - (1 << w) if idx & (1 << (w - 1)) else idx
                    val = (p + sidx) & _M64
                    ca, cb = self._operand_cols(d, gslots, cols)
                    if ca is not None or cb is not None:
                        P = self._arr_u(ca, p)
                        I = self._arr_u(cb, idx)
                        if w < 64:
                            sbit = self._U64(1 << (w - 1))
                            ext = self._U64((~((1 << w) - 1)) & _M64)
                            I = _np.where((I & sbit) != self._U64(0), I | ext, I)
                        col = P + I  # uint64 wrap == mod 2**64
                elif op == 35:  # call -----------------------------------
                    callee = d[3]
                    gcall = []
                    ccall = []
                    for k, v in d[4]:
                        if k == 0:
                            gcall.append(v)
                            ccall.append(None)
                        else:
                            gcall.append(gslots[v])
                            ccall.append(cols[v])
                    self.shadow.append((dfn, gslots, cols, blk, prev_gid, d[5]))
                    rv, rcol = self._exec_fn(callee, gcall, ccall)
                    self.shadow.pop()
                    if d[2] >= 0:
                        gslots[d[2]] = rv
                        cols[d[2]] = rcol
                        if parks:
                            slot_log.add(d[2])
                    continue
                elif op == 36:  # emit -----------------------------------
                    if self.park_count:
                        self._flush_parked("golden-emit")
                    gv = d[4] if d[3] == 0 else gslots[d[4]]
                    vcol = None if d[3] == 0 else cols[d[4]]
                    out = gv
                    if d[5] and out & d[5]:
                        out -= d[6]
                    self.output.append(out)
                    if vcol is not None:
                        rows = _np.nonzero(self._neq(vcol, gv))[0]
                        if rows.size:
                            pos = len(self.output) - 1
                            overrides = {}
                            if vcol.dtype == self._F64:
                                for r in rows:
                                    overrides[int(r)] = float(vcol[r])
                            else:
                                for r in rows:
                                    v = int(vcol[r])
                                    if d[5] and v & d[5]:
                                        v -= d[6]
                                    overrides[int(r)] = v
                            self.out_overlays.append((pos, overrides))
                            self.out_diff[rows] = True
                    continue
                elif op == 37:  # check ----------------------------------
                    a = d[4] if d[3] == 0 else gslots[d[4]]
                    b = d[6] if d[5] == 0 else gslots[d[6]]
                    ca, cb = self._operand_cols(d, gslots, cols)
                    if ca is not None or cb is not None:
                        neq = _np.zeros(self.n, dtype=bool)
                        if ca is not None:
                            neq |= self._neq(ca, a)
                        if cb is not None:
                            neq |= self._neq(cb, b)
                        for r in _np.nonzero(neq)[0]:
                            r = int(r)
                            ra = self._row_val(r, a, ca)
                            rb = self._row_val(r, b, cb)
                            if ra != rb and not (ra != ra and rb != rb):
                                self._finalize_trap(
                                    r, DetectedError(d[7], ra, rb)
                                )
                    continue
                elif op == 38:  # checkrange -----------------------------
                    # The golden value is inside [lo, hi] by construction
                    # (bounds are mined inclusively from the same input's
                    # golden run), so only divergent rows can trap.
                    x = d[4] if d[3] == 0 else gslots[d[4]]
                    cx = cols[d[4]] if d[3] == 1 else None
                    if cx is not None:
                        for r in _np.nonzero(self._neq(cx, x))[0]:
                            r = int(r)
                            rx = self._row_val(r, x, cx)
                            if rx != rx or rx < d[5] or rx > d[6]:
                                self._finalize_trap(
                                    r, DetectedError(d[7], rx, d[5])
                                )
                    continue
                else:  # pragma: no cover - phi handled at block entry
                    raise IRError(f"unexpected opcode {op} in body")

                # Fault tail + settle, mirroring the scalar interpreter's
                # value-producing common tail.
                col = self._fire_faults(d[1], val, col)
                if col is not None and self._settled(col, val):
                    col = None
                gslots[d[2]] = val
                cols[d[2]] = col
                if parks:
                    slot_log.add(d[2])

            # Terminator ------------------------------------------------
            code = None
            t = blk.term
            top = t[0]
            if top == "br":
                prev_gid = blk.gid
                blk = t[2]
            elif top == "condbr":
                gc = t[3] if t[2] == 0 else gslots[t[3]]
                cc = None if t[2] == 0 else cols[t[3]]
                if cc is not None:
                    truth = cc != self._U64(0)
                    dv = (truth != bool(gc)) & self.exec_mask
                    if dv.any():
                        # Divergent rows take the other branch — privately,
                        # up to this branch's immediate post-dominator,
                        # where they rejoin the batch. No post-dominator
                        # inside the function -> full detach as before.
                        atarget = t[5] if gc else t[4]
                        rblk = self._ipdom_for(dfn).get(blk.gid)
                        for r in _np.nonzero(dv)[0]:
                            r = int(r)
                            if rblk is None:
                                self._detach_row(
                                    r, dfn, atarget.name, blk.gid, gslots,
                                    cols, -1, "condbr",
                                )
                            else:
                                self._reconverge_row(
                                    r, dfn, blk, atarget, rblk, gslots,
                                    cols, parks,
                                )
                prev_gid = blk.gid
                blk = t[4] if gc else t[5]
            else:  # ret
                if parks:  # pragma: no cover - ipdoms precede the exit
                    self._flush_dict(parks, "frame-exit")
                self.park_stack.pop()
                if t[2] is None:
                    return None, None
                gv = t[3] if t[2] == 0 else gslots[t[3]]
                rcol = None if t[2] == 0 else cols[t[3]]
                return gv, rcol

    # -- scalar formulas shared with the golden mirror -----------------
    @staticmethod
    def _icmp_scalar(d, a, b) -> int:
        pred = d[7]
        if pred == 0:
            return 1 if a == b else 0
        if pred == 1:
            return 1 if a != b else 0
        if pred <= 5:
            w = d[8]
            sign = 1 << (w - 1)
            full = 1 << w
            sa = a - full if a & sign else a
            sb = b - full if b & sign else b
            if pred == 2:
                return 1 if sa < sb else 0
            if pred == 3:
                return 1 if sa <= sb else 0
            if pred == 4:
                return 1 if sa > sb else 0
            return 1 if sa >= sb else 0
        if pred == 6:
            return 1 if a < b else 0
        if pred == 7:
            return 1 if a <= b else 0
        if pred == 8:
            return 1 if a > b else 0
        return 1 if a >= b else 0

    @staticmethod
    def _fcmp_scalar(d, a, b) -> int:
        pred = d[7]
        if a != a or b != b:
            return 0
        if pred == 0:
            return 1 if a == b else 0
        if pred == 1:
            return 1 if a != b else 0
        if pred == 2:
            return 1 if a < b else 0
        if pred == 3:
            return 1 if a <= b else 0
        if pred == 4:
            return 1 if a > b else 0
        return 1 if a >= b else 0

    def _cast(self, op, d, x, cx):
        """Casts 21-29: golden value + column (vectorized where bit-safe,
        scalar fixup for fptosi/fptoui's arbitrary-precision truncation)."""
        U64 = self._U64
        F64 = self._F64
        col = None
        if op == 21:  # trunc
            val = x & d[7]
            if cx is not None:
                col = cx & U64(d[7])
        elif op == 22:  # zext
            val = x
            col = cx
        elif op == 23:  # sext
            sw = d[5]
            sign = 1 << (sw - 1)
            val = (x - (1 << sw) if x & sign else x) & d[7]
            if cx is not None:
                col = _np.where(
                    (cx & U64(sign)) != U64(0),
                    (cx - U64(1 << sw)) & U64(d[7]),
                    cx,
                )
        elif op == 24 or op == 25:  # fptosi / fptoui
            if x != x or x in (math.inf, -math.inf):
                val = 0
            else:
                val = int(x) & d[7]
            if cx is not None:
                col = self._bcast(val)
                for r in _np.nonzero(self._neq(cx, x))[0]:
                    r = int(r)
                    v = float(cx[r])
                    if v != v or v in (math.inf, -math.inf):
                        col[r] = 0
                    else:
                        col[r] = int(v) & d[7]
        elif op == 26:  # sitofp
            sw = d[5]
            sign = 1 << (sw - 1)
            val = float(x - (1 << sw)) if x & sign else float(x)
            if d[6] == 32:
                val = f32(val)
            if cx is not None:
                if sw >= 64:
                    ext = cx
                else:
                    ebits = U64((~((1 << sw) - 1)) & _M64)
                    ext = _np.where((cx & U64(sign)) != U64(0), cx | ebits, cx)
                col = ext.view(_np.int64).astype(F64)
                if d[6] == 32:
                    col = col.astype(_np.float32).astype(F64)
        elif op == 27:  # uitofp
            val = float(x)
            if d[6] == 32:
                val = f32(val)
            if cx is not None:
                col = cx.astype(F64)
                if d[6] == 32:
                    col = col.astype(_np.float32).astype(F64)
        elif op == 28:  # fpext
            val = x
            col = cx
        else:  # fptrunc
            val = f32(x)
            if cx is not None:
                col = cx.astype(_np.float32).astype(F64)
        return val, col


def run_trials_lockstep(
    program,
    faults,
    args: list | None = None,
    bindings: dict | None = None,
    golden_output: list | None = None,
    snapshot: Snapshot | None = None,
    convergence: list | None = None,
    step_limit: int | None = None,
):
    """Run one lockstep batch of fault trials; the batch engine's entry point.

    Parameters
    ----------
    faults:
        One :class:`~repro.vm.interpreter.FaultSpec` per row. When
        ``snapshot`` is given, every fault's target instance must lie after
        the snapshot (the campaign groups trials by checkpoint segment).
    golden_output:
        The golden run's output, used to splice converged detached tails.
    snapshot / convergence:
        Checkpoint seeding: start the mirror replay at ``snapshot`` and hand
        ``convergence`` oracles to detached rows' scalar tails.
    step_limit:
        Hang budget applied to detached scalar tails (lockstep rows follow
        the golden trace and cannot hang by construction).

    Returns ``(results, stats)`` where ``results[i]`` is ``(output, trap)``
    for row i — the same observables the scalar injector classifies — and
    ``stats`` is a :class:`BatchStats`.
    """
    if not faults:
        return [], BatchStats()
    run = _BatchRun(
        program,
        faults,
        args,
        bindings,
        golden_output if golden_output is not None else [],
        snapshot,
        convergence,
        step_limit,
    )
    with _span("batch.lockstep", infra=True) as sp:
        results, stats = run.run()
        sp.fields["trials"] = stats.trials
        sp.fields["detached"] = stats.detached
    t = _obs_current()
    if t is not None:
        t.count("batch.batches")
        t.count("batch.trials", stats.trials)
        t.count("batch.detached", stats.detached)
        t.count("batch.reconverged", stats.reconverged)
        t.count("batch.lockstep_steps", stats.lockstep_steps)
        t.count("batch.scalar_steps", stats.scalar_steps)
        for site, n in stats.detach_sites.items():
            t.count(f"batch.detach_site.{site}", n)
        for site, n in stats.reconverge_sites.items():
            t.count(f"batch.reconverge_site.{site}", n)
    return results, stats
