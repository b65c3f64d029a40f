"""Single-fault execution: run a program once with one bit flip and classify.

This is the inner loop of every campaign; it deliberately stays tiny.
"""

from __future__ import annotations

from repro.errors import Trap
from repro.fi.faultmodel import FaultSite
from repro.fi.outcome import Outcome, classify_run
from repro.obs.spans import span as _span
from repro.vm.checkpoint import CheckpointStore
from repro.vm.interpreter import Program, RunResult

__all__ = ["golden_run", "inject_one", "inject_one_resumed"]


def golden_run(
    program: Program,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    step_limit: int | None = None,
) -> RunResult:
    """Fault-free execution (raises on traps — a golden run must succeed)."""
    return program.run(args=args, bindings=bindings, step_limit=step_limit)


def inject_one(
    program: Program,
    site: FaultSite,
    golden_output: list,
    golden_steps: int,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    hang_factor: int = 8,
) -> Outcome:
    """Execute once with ``site``'s bit flip and classify the outcome.

    The run starts at instruction 0, from the input's entry snapshot: a
    :func:`inject_one_resumed` trial on a store that holds only that
    snapshot. The hang budget is ``hang_factor``× the golden dynamic
    instruction count (plus slack for short programs), the usual
    FI-practice heuristic.
    """
    store = CheckpointStore(
        interval=0, snapshots=[program.entry_snapshot(args, bindings)],
        golden_steps=golden_steps,
    )
    return inject_one_resumed(
        program, site, store, golden_output, golden_steps, rel_tol=rel_tol,
        abs_tol=abs_tol, hang_factor=hang_factor,
    )


def inject_one_resumed(
    program: Program,
    site: FaultSite,
    store: CheckpointStore,
    golden_output: list,
    golden_steps: int,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    hang_factor: int = 8,
    snapshot_index: int | None = None,
) -> Outcome:
    """Like :func:`inject_one`, resuming from the nearest golden checkpoint.

    The trial restores the latest snapshot of ``store`` taken before the
    fault's dynamic instance (the entry snapshot when no later one
    precedes it) and runs with the later snapshots as convergence oracles:
    a faulty state that re-joins the golden trajectory bit-for-bit stops
    early and splices the golden output tail. The classified outcome is
    the same from any snapshot that precedes the fault, by construction.

    ``snapshot_index`` (as from :meth:`CheckpointStore.snapshot_index_for`)
    skips the lookup when the scheduler already sorted sites by it.
    """
    if snapshot_index is None:
        snapshot_index = store.snapshot_index_for(site.iid, site.instance)
    limit = golden_steps * hang_factor + 10_000
    trap: Trap | None = None
    output: list | None = None
    with _span("trial", {"iid": site.iid}, infra=True):
        try:
            with _span(
                "checkpoint.restore", {"snapshot": snapshot_index}, infra=True
            ):
                result = program.resume(
                    store.snapshots[snapshot_index],
                    fault=site,
                    step_limit=limit,
                    convergence=store.convergence_from(snapshot_index),
                )
            output = result.output
            if result.converged:
                output = output + golden_output[result.converged_output_len :]
        except Trap as t:
            trap = t
    return classify_run(golden_output, output, trap, rel_tol, abs_tol)
