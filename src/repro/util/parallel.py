"""Process-pool fan-out for fault-injection campaigns.

The paper parallelizes all FIs over a 4-node/40-core farm; we provide the
single-node equivalent. Work items must be picklable and the worker function a
module-level callable. Results are returned in submission order regardless of
completion order, so seeded campaigns are bit-reproducible whether run serially
or in parallel.

The pooled path is executed by the supervisor in
:mod:`repro.util.supervisor`: worker crashes, hangs, and exceptions are
retried with backoff and a broken pool is respawned (degrading to serial
execution as the last resort), so one bad worker no longer aborts an
hours-long campaign. The worker count and the supervision knobs
(``max_retries``, ``task_timeout``, the deterministic ``REPRO_CHAOS`` hook
for testing the recovery paths) come from the run configuration
(:mod:`repro.runconfig`), and so does the pool's lifetime: pooled maps
inside one run scope share its pool, and a map outside every scope forks
and joins its own.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from repro.runconfig import RunConfig, default_workers, resolve
from repro.util.supervisor import SupervisorConfig, supervised_map

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map", "default_workers"]


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    *,
    workers: int | None = None,
    chunksize: int | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_result: Callable[[R], None] | None = None,
    run: RunConfig | None = None,
    pool_factory: Callable | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across supervised processes.

    ``run`` is the resolved run configuration the pool follows (worker
    count, retries, deadline, chaos); without one it resolves here, with
    ``workers`` as the explicit layer over the ambient scope and
    ``REPRO_WORKERS``. 0/1 workers (or a single item) runs serially
    in-process, which is what the test suite uses. ``chunksize=None``
    picks ~4 chunks per worker so callers don't inherit the pathological
    pool default of 1 item per IPC round-trip. ``initializer(*initargs)``
    runs once per worker per map (and once in-process on the serial path)
    before that worker's first item — campaign workers use it to pin the
    campaign's program and checkpoint store. On the pooled path both must
    pickle: they travel in the chunk payloads, because the pool outlives
    the map. ``on_result`` is invoked in the parent, in submission order,
    as each result becomes available — the telemetry layer uses it to
    stream progress and merge worker metric deltas while later items are
    still running. Order of results always matches the order of ``items``.

    ``pool_factory`` (see :func:`repro.util.supervisor.supervised_map`)
    replaces the process pool with another executor — the campaign fabric
    passes its transport-backed pool here. With a factory set, dispatch
    always goes through the supervisor so the chosen transport is never
    silently bypassed by the serial shortcut.
    """
    items = list(items)
    if run is None:
        run = resolve(workers=workers)
    if pool_factory is None and (run.workers <= 1 or len(items) <= 1):
        if initializer is not None:
            initializer(*initargs)
        out: list[R] = []
        for item in items:
            r = fn(item)
            out.append(r)
            if on_result is not None:
                on_result(r)
        return out
    return supervised_map(
        fn,
        items,
        workers=run.workers,
        chunksize=chunksize,
        initializer=initializer,
        initargs=initargs,
        on_result=on_result,
        config=SupervisorConfig.from_run(run),
        pool_factory=pool_factory,
    )
