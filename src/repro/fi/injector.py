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

    The run starts cold, at instruction 0. The hang budget is
    ``hang_factor``× the golden dynamic instruction count (plus slack for
    short programs), the usual FI-practice heuristic.
    """
    return inject_one_resumed(
        program, site, None, golden_output, golden_steps, args=args,
        bindings=bindings, rel_tol=rel_tol, abs_tol=abs_tol,
        hang_factor=hang_factor,
    )


def inject_one_resumed(
    program: Program,
    site: FaultSite,
    store: CheckpointStore | None,
    golden_output: list,
    golden_steps: int,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    hang_factor: int = 8,
    snapshot_index: int | None = None,
) -> Outcome:
    """Like :func:`inject_one`, resuming from the nearest golden checkpoint.

    The trial restores the latest snapshot taken before the fault's dynamic
    instance (cold start when none precedes it) and runs with the later
    snapshots as convergence oracles: a faulty state that re-joins the
    golden trajectory bit-for-bit stops early and splices the golden output
    tail. Both paths are bit-identical to :func:`inject_one` by
    construction — the classified outcome never differs.

    ``snapshot_index`` (as from :meth:`CheckpointStore.snapshot_index_for`)
    skips the lookup when the scheduler already sorted sites by it. Without
    a ``store`` the trial runs cold, with no oracles (:func:`inject_one`).
    """
    if store is None:
        snapshot_index, convergence = -1, None
    else:
        if snapshot_index is None:
            snapshot_index = store.snapshot_index_for(site.iid, site.instance)
        convergence = store.convergence_from(snapshot_index)
    limit = golden_steps * hang_factor + 10_000
    trap: Trap | None = None
    output: list | None = None
    with _span("trial", {"iid": site.iid}, infra=True):
        try:
            if snapshot_index < 0:
                with _span("vm.run", infra=True):
                    result = program.run(
                        args=args,
                        bindings=bindings,
                        fault=site.to_spec(),
                        step_limit=limit,
                        convergence=convergence,
                    )
            else:
                with _span(
                    "checkpoint.restore",
                    {"snapshot": snapshot_index},
                    infra=True,
                ):
                    result = program.resume(
                        store.snapshots[snapshot_index],
                        fault=site.to_spec(),
                        step_limit=limit,
                        convergence=convergence,
                    )
            output = result.output
            if result.converged:
                output = output + golden_output[result.converged_output_len :]
        except Trap as t:
            trap = t
    return classify_run(golden_output, output, trap, rel_tol, abs_tol)
