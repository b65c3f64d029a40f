"""Process-pool fan-out for fault-injection campaigns.

The paper parallelizes all FIs over a 4-node/40-core farm; we provide the
single-node equivalent. Work items must be picklable and the worker function a
module-level callable. Results are returned in submission order regardless of
completion order, so seeded campaigns are bit-reproducible whether run serially
or in parallel.

:func:`parallel_map` is the one pooled map. Its pooled path is the
supervisor of :mod:`repro.util.supervisor`: worker crashes, hangs, and
exceptions are retried with backoff and a broken pool is respawned
(degrading to serial execution as the last resort), so one bad worker no
longer aborts an hours-long campaign; and when the parent traces, worker
counters and spans come home with each chunk, so callers never handle
worker telemetry. The worker count and the supervision knobs
(``max_retries``, ``task_timeout``, the deterministic ``REPRO_CHAOS`` hook
for testing the recovery paths) come from the run configuration
(:mod:`repro.runconfig`), and so does the pool's lifetime: pooled maps
inside one run scope share its pool, and a map outside every scope forks
and joins its own.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from repro.runconfig import RunConfig, default_workers, resolve
from repro.util.supervisor import _Supervisor

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map", "default_workers"]


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    *,
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_result: Callable[[R], None] | None = None,
    run: RunConfig | None = None,
    pool_factory: Callable | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across supervised processes.

    ``run`` is the resolved run configuration the pool follows (worker
    count, retries, deadline, chaos); without one it resolves here from
    the ambient scope and ``REPRO_WORKERS``. 0/1 workers (or a single
    item) runs serially in-process — chaos and supervision never apply
    there. Pooled items travel in about four chunks per worker, not one
    IPC round trip per item.
    ``initializer(*initargs)`` runs once per worker per map (and once
    in-process on the serial path) before that worker's first item —
    campaign workers use it to pin the campaign's program and checkpoint
    store. On the pooled path both must pickle: they travel in the chunk
    payloads, because the pool outlives the map. ``on_result`` is invoked
    in the parent, in submission order, as each result becomes available,
    after the worker telemetry that came home with that result's chunk is
    merged into the parent's session. Order of results always matches the
    order of ``items``.

    ``pool_factory`` swaps the executor: any callable with the
    ``ProcessPoolExecutor(max_workers=)`` signature returning an
    executor-shaped pool (``submit``/``shutdown``/killable
    ``_processes``) — the campaign fabric (:mod:`repro.fabric.harness`)
    passes its transport-backed pool here. Maps in one scope share a pool
    when their worker counts and factories compare equal. With a factory
    set, dispatch always goes through the pool, so the chosen transport is
    never silently bypassed by the serial shortcut.
    """
    items = list(items)
    if run is None:
        run = resolve()
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
    size = max(1, -(-len(items) // (max(1, run.workers) * 4)))
    chunks = [items[off:off + size] for off in range(0, len(items), size)]
    return _Supervisor(
        fn, chunks, run, initializer, initargs, on_result, pool_factory
    ).run()
