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
- **detached to the compile tier**: a row whose branch condition differs
  from golden is materialized into a
  :class:`~repro.vm.checkpoint.Snapshot` (its exact slots, memory, and
  output, reconstructed from golden + columns) at the other target's
  entry, where ``self.steps`` already counts the branching block — exactly
  where checkpoint snapshots are defined — and finished by
  :meth:`Program.resume` with the usual convergence oracles;
- **restarted on the compile tier**: a row whose divergent-address store
  would need a mixed-dtype column runs again as an ordinary scalar trial,
  from the latest of the batch's golden snapshots (its start and its
  oracles) that precedes its fault, with the later ones as oracles. So
  every snapshot a trial resumes from sits at a block entry.

A lockstep row follows the mirror step for step, so ``alive`` is the one
row mask, and such a row cannot hang: the golden run completed the same
trace under the step limit.

Outcomes are therefore bit-identical to the scalar engine *by
construction*: every value a row ever observes is either the golden value
(shared), computed by the same formula (vectorized/fixup tiers), or
produced by the compile tier itself (detached tail, restarted trial).

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
overrides (the run configuration's engine only routes FI *campaign*
trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as _np

from repro.errors import (
    ArithmeticTrap,
    DetectedError,
    IRError,
    MemoryFault,
    Trap,
)
from repro.obs.core import current as _obs_current
from repro.obs.spans import span as _span
from repro.runconfig import DEFAULT_BATCH_SIZE, ENGINES, run_scope
from repro.util.bitops import flip_value, float64_to_bits
from repro.vm.checkpoint import FrameSnapshot, Snapshot, latest_before
from repro.vm.memory import SEG_MASK, SEG_SHIFT
from repro.vm.ops import coerce_load, f32, fdiv, fmath, fnan, int_op

__all__ = [
    "ENGINES",
    "DEFAULT_BATCH_SIZE",
    "BatchStats",
    "engine_scope",
    "run_trials_lockstep",
]

#: Steps between lockstep maintenance passes (column garbage collection +
#: row retirement). Large enough that scanning every live column costs a
#: small fraction of the replay between passes, small enough that masked
#: rows retire long before the program ends.
_MAINT_INTERVAL = 2048

_M64 = (1 << 64) - 1
_QUIET = _np.uint64(1 << 51)


def engine_scope(engine=None, batch_size=None):  # bench/study.py imports it
    return run_scope(engine=engine, batch_size=batch_size)


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
    retired: int = 0
    finalized_crash: int = 0
    finalized_detected: int = 0
    lockstep_steps: int = 0
    scalar_steps: int = 0
    detach_reasons: dict = field(default_factory=dict)
    #: Detaches per guest site ("fn:block" of the row's innermost frame at
    #: detach time) — the batch engine's hotspot attribution.
    detach_sites: dict = field(default_factory=dict)

    def detach_rate(self) -> float:
        return self.detached / self.trials if self.trials else 0.0

    def occupancy(self) -> float:
        total = self.lockstep_steps + self.scalar_steps
        return self.lockstep_steps / total if total else 1.0

    def merge(self, other: "BatchStats") -> None:
        self.trials += other.trials
        self.batches += other.batches
        self.detached += other.detached
        self.retired += other.retired
        self.finalized_crash += other.finalized_crash
        self.finalized_detected += other.finalized_detected
        self.lockstep_steps += other.lockstep_steps
        self.scalar_steps += other.scalar_steps
        for k, v in other.detach_reasons.items():
            self.detach_reasons[k] = self.detach_reasons.get(k, 0) + v
        for k, v in other.detach_sites.items():
            self.detach_sites[k] = self.detach_sites.get(k, 0) + v

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


class _BatchRun:
    """One lockstep batch: golden mirror replay + N rows of diff columns."""

    def __init__(
        self, program, faults, golden_output, snapshot, convergence, step_limit
    ):
        self.prog = program
        self.n = len(faults)
        self.faults = faults
        self.golden_output = golden_output
        self.snapshot = snapshot
        self.convergence = convergence
        self.step_limit = step_limit

        np = _np
        self._U64 = np.uint64
        self._F64 = np.float64
        self.alive = np.ones(self.n, dtype=bool)
        self.alive_count = self.n
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
        """Alive rows whose column value differs bit-for-bit from golden."""
        return self._diff_raw(col, gv) & self.alive

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
        """Row's memory: the mirror's segments, shared, except for a copy of
        each segment a column overrides (``resume`` copies before it
        stores, so the mirror stays the golden state)."""
        golden = self.mem
        mem = dict(golden)
        for addr, col in self.mem_cols.items():
            if col.dtype == self._F64:
                v = float(col[row])
            else:
                v = int(col[row])
            seg = addr >> SEG_SHIFT
            cells = mem[seg]
            if cells is golden[seg]:
                cells = mem[seg] = list(cells)
            cells[addr & SEG_MASK] = v
        return mem

    def _row_slots(self, row: int, gslots: list, cols: list) -> list:
        return [self._row_val(row, gv, c) for gv, c in zip(gslots, cols)]

    def _detach_row(self, row, dfn, block_name, prev_gid, gslots, cols) -> None:
        """Materialize a branch-divergent row's exact state at
        ``block_name``'s entry and finish it scalar (``self.steps`` is the
        step count at that entry, pre-accounting, exactly where checkpoint
        snapshots are defined)."""
        frames = [
            FrameSnapshot(f[0].name, f[3].name, f[4], f[5],
                          self._row_slots(row, f[1], f[2]))
            for f in self.shadow
        ]
        frames.append(
            FrameSnapshot(dfn.name, block_name, prev_gid, -1,
                          self._row_slots(row, gslots, cols))
        )
        snap = Snapshot(
            steps=self.steps,
            next_seg=self.next_seg,
            output=self._row_output(row),
            instr_counts=None,
            mem=self._row_mem(row),
            frames=frames,
        )
        self._finish_scalar(row, f"{dfn.name}:{block_name}", "condbr", snap,
                            None, self.convergence)

    def _restart_row(self, row, site: str) -> None:
        """Run a row again as the scalar trial of its fault: from the latest
        golden snapshot of the batch (its start, then its oracles) that
        precedes the fault, with the later ones as oracles."""
        fault = self.faults[row]
        snaps = [self.snapshot, *self.convergence]
        k = latest_before(snaps, fault.iid, fault.instance)
        self._finish_scalar(row, site, "store-dtype", snaps[k], fault,
                            snaps[k + 1:])

    def _finish_scalar(
        self, row: int, site: str, reason: str, snap: Snapshot, fault,
        convergence: list,
    ) -> None:
        """Run a row that left the batch on the compile tier from ``snap``,
        after its flip (``fault`` None) or with it, and record it."""
        self.stats.detached += 1
        reasons = self.stats.detach_reasons
        reasons[reason] = reasons.get(reason, 0) + 1
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
                    fault=fault,
                    step_limit=self.step_limit,
                    convergence=convergence,
                    fault_fired=fault is None,
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
        self.alive_count -= 1
        self.stats.lockstep_steps += self.steps - self.base_steps

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
        alive = self.alive
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
                m = self._diff_raw(col, gv) & alive
                if not m.any():
                    f_cols[i] = None
                else:
                    dirty |= m
        mem = self.mem
        dead = []
        for addr, col in self.mem_cols.items():
            m = self._diff_raw(col, mem[addr >> SEG_SHIFT][addr & SEG_MASK])
            m &= alive
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
        retire = alive & self.f_fired & ~dirty & ~pending
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

    def _store(self, d, dfn, blk, gslots, cols) -> None:
        """Execute a store; divergent-address rows write their own columns
        (or restart when a column would need mixed dtypes)."""
        gv = d[4] if d[3] == 0 else gslots[d[4]]
        vcol = None if d[3] == 0 else cols[d[4]]
        gaddr = d[6] if d[5] == 0 else gslots[d[6]]
        acol = None if d[5] == 0 else cols[d[6]]
        mem = self.mem
        cells = mem.get(gaddr >> SEG_SHIFT)
        off = gaddr & SEG_MASK

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
        # before any memory mutation.
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
                self._restart_row(r, f"{dfn.name}:{blk.name}")
                continue
            plans.append((r, addr, v_r))

        old_col = self.mem_cols.get(gaddr)
        # Golden write at the golden address.
        cells[off] = gv
        # Rebuild the golden address's column: rows that wrote elsewhere
        # keep their pre-store view; rows that wrote here get their value.
        dv &= self.alive  # drop rows finalized/restarted in pass 0
        if dv.any():
            base = old_col.copy() if old_col is not None else self._bcast(old_gv)
            wmask = self.alive & ~dv
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
        nan = col != col
        if nan.any():
            # Two NaN operands: the first one wins, quieted (ops.fnan).
            first = nan & (A != A)
            col[first] = (A[first].view(self._U64) | _QUIET).view(self._F64)
        if op == 16:
            # 0-divisors take the interpreter's formula row by row: its
            # NaN payload (math.nan) differs from the hardware 0/0 qNaN.
            zero = (B == 0.0) & self.alive
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
                self._start()
        except _AllDone:
            pass
        if self.alive_count:
            for r in _np.nonzero(self.alive)[0]:
                r = int(r)
                self.results[r] = (self._row_output(r), None)
                self.stats.lockstep_steps += self.steps - self.base_steps
        return self.results, self.stats

    def _start(self) -> None:
        """Seat the mirror at the batch's snapshot and replay from there."""
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
        if resume is None:
            gslots = [None] * dfn.n_slots
            gslots[: len(gargs)] = gargs
            cols = [None] * dfn.n_slots
            cols[: len(cargs)] = cargs
            blk = dfn.entry
            prev_gid = -1
            code = None
        else:
            frames, fi = resume
            fr = frames[fi]
            gslots = fr.gslots
            cols = fr.cols
            blk = fr.blk
            prev_gid = fr.prev_gid
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
                code = blk.code[fr.call_index + 1:]
            else:
                code = None
        mem = self.mem

        while True:
            if code is None:
                # Block entry: step accounting exactly as the scalar
                # interpreter; the golden replay cannot exceed the limit
                # (the golden run finished under it), and neither can a
                # lockstep row, which follows it step for step.
                if self.steps >= self.maint_at:
                    self._maintain(gslots, cols)
                self.steps += len(blk.code) + 1
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
                    self.steps += len(blk.phis)
                code = blk.code

            for d in code:
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
                    if val != val and op != 16:
                        val = fnan(a, val)
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
                    seg = self.next_seg
                    self.next_seg = seg + 1
                    mem[seg] = [d[4]] * d[3]
                    val = seg << SEG_SHIFT
                elif op == 31:  # load -----------------------------------
                    gaddr = d[4] if d[3] == 0 else gslots[d[4]]
                    acol = None if d[3] == 0 else cols[d[4]]
                    val, col = self._load(d, gaddr, acol, dfn, gslots, cols)
                elif op == 32:  # store ----------------------------------
                    self._store(d, dfn, blk, gslots, cols)
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
                    continue
                elif op == 36:  # emit -----------------------------------
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
                    dv = (truth != bool(gc)) & self.alive
                    if dv.any():
                        # Divergent rows take the other branch: each one
                        # finishes on the compile tier from that target's
                        # entry (``self.steps`` already counts this block).
                        other = (t[5] if gc else t[4]).name
                        for r in _np.nonzero(dv)[0]:
                            self._detach_row(int(r), dfn, other, blk.gid,
                                             gslots, cols)
                prev_gid = blk.gid
                blk = t[4] if gc else t[5]
            else:  # ret
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
    snapshot: Snapshot,
    golden_output: list | None = None,
    convergence: list | None = None,
    step_limit: int | None = None,
):
    """Run one lockstep batch of fault trials; the batch engine's entry point.

    Parameters
    ----------
    faults:
        One :class:`~repro.vm.interpreter.FaultSpec` per row. Every fault's
        target instance must lie after ``snapshot`` (the campaign groups
        trials by checkpoint segment).
    snapshot:
        The golden snapshot the mirror replay starts from: a checkpoint, or
        :meth:`Program.entry_snapshot <repro.vm.interpreter.Program.entry_snapshot>`.
    golden_output:
        The golden run's output, used to splice converged detached tails.
    convergence:
        The golden snapshots after ``snapshot``: oracles for rows that
        leave the batch, and the start of a restarted row's trial.
    step_limit:
        Hang budget of the scalar runs of rows that leave the batch
        (lockstep rows follow the golden trace and cannot hang by
        construction).

    Returns ``(results, stats)`` where ``results[i]`` is ``(output, trap)``
    for row i — the same observables the scalar injector classifies — and
    ``stats`` is a :class:`BatchStats`.
    """
    if not faults:
        return [], BatchStats()
    run = _BatchRun(
        program,
        faults,
        golden_output if golden_output is not None else [],
        snapshot,
        convergence or [],
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
        t.count("batch.lockstep_steps", stats.lockstep_steps)
        t.count("batch.scalar_steps", stats.scalar_steps)
        for site, n in stats.detach_sites.items():
            t.count(f"batch.detach_site.{site}", n)
    return results, stats
