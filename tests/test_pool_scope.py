"""One worker pool per run scope.

The outermost :func:`repro.runconfig.run_scope` of a process owns the pool
its pooled maps share: reused from one campaign to the next, replaced when
the supervisor kills it, shut down with its workers joined when the scope
exits — however it exits — and invisible to a process forked inside it.
A map outside every scope forks and joins its own pool. Each map's
initializer reaches the shared workers in its chunk payloads.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.errors import WorkerError
from repro.fi.campaign import run_campaign
from repro.obs.core import session
from repro.obs.sink import MemorySink
from repro.runconfig import resolve, run_scope, scope_pool
from repro.util.parallel import parallel_map

from tests.conftest import cached_app

FAULTS = 40  # >= 32 trials: the campaign reaches the pool
SEED = 13


def _campaign(name: str, **run):
    app = cached_app(name)
    args, bindings = app.encode(app.reference_input)
    return run_campaign(
        app.program, FAULTS, SEED, args=args, bindings=bindings,
        rel_tol=app.rel_tol, abs_tol=app.abs_tol, **run,
    )


def _worker_pids(sink: MemorySink) -> set[int]:
    return {
        r["fields"]["pid"] for r in sink.records
        if r.get("name") == "campaign.batch"
        and r["fields"]["mode"] == "worker"
    }


def _pool_pids() -> set[int]:
    return set(scope_pool().pool._processes)


_ctx: list = []


def _set_ctx(tag):
    _ctx.append(tag)


def _read_ctx(_x):
    return list(_ctx), os.getpid()


def _square(x):
    return x * x


@pytest.fixture(scope="module")
def serial():
    return {name: _campaign(name, workers=0).per_fault
            for name in ("bfs", "xsbench")}


class TestReuse:
    def test_campaigns_in_one_scope_share_two_workers(self, serial):
        pids, pools = [], []
        with run_scope(workers=2):
            for name in ("bfs", "xsbench", "bfs"):
                sink = MemorySink()
                with session(sink=sink):
                    result = _campaign(name)
                assert result.per_fault == serial[name]
                pids.append(_worker_pids(sink))
                pools.append(scope_pool().pool)
            assert pools[0] is pools[1] is pools[2]
            assert len(_pool_pids()) == 2
            assert set().union(*pids) <= _pool_pids()
        assert all(pids)

    def test_campaigns_outside_a_scope_fork_their_own_pools(self, serial):
        pids = []
        for name in ("bfs", "xsbench"):
            sink = MemorySink()
            with session(sink=sink):
                assert _campaign(name, workers=2).per_fault == serial[name]
            pids.append(_worker_pids(sink))
        assert all(pids)
        assert not pids[0] & pids[1]

    def test_fabric_pool_is_reused_across_campaigns(self, serial):
        with run_scope(workers=2, transport="inproc"):
            assert _campaign("bfs").per_fault == serial["bfs"]
            pool = scope_pool().pool
            assert _campaign("xsbench").per_fault == serial["xsbench"]
            assert scope_pool().pool is pool
        assert pool._closed


class TestPerMapContext:
    def test_each_map_sees_only_its_own_initargs(self):
        items = list(range(16))
        with run_scope(workers=2):
            first = parallel_map(_read_ctx, items,
                                 initializer=_set_ctx, initargs=("a",))
            second = parallel_map(_read_ctx, items,
                                  initializer=_set_ctx, initargs=("b",))
        assert all(ctx[-1] == "a" for ctx, _pid in first)
        assert all(ctx[-1] == "b" for ctx, _pid in second)
        # Once per worker per map: a worker's history never repeats a map.
        for ctx, _pid in first + second:
            assert ctx in (["a"], ["b"], ["a", "b"])
        assert _ctx == []  # the parent never ran either initializer


class TestNoLeaks:
    def test_normal_exit_joins_the_workers(self):
        assert multiprocessing.active_children() == []
        with run_scope(workers=2):
            assert parallel_map(_square, range(8)) == [x * x for x in range(8)]
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []

    def test_a_map_outside_any_scope_joins_its_workers(self):
        assert parallel_map(_square, range(8), run=resolve(workers=2)) == [
            x * x for x in range(8)
        ]
        assert multiprocessing.active_children() == []

    def test_worker_error_escaping_the_scope_leaves_no_worker(self):
        with pytest.raises(WorkerError):
            with run_scope(workers=2, chaos="exc@0#*", max_retries=0):
                parallel_map(_square, range(8))
        assert multiprocessing.active_children() == []

    def test_a_failed_map_discards_the_pool(self):
        # Chunks of the failed map may still be in flight: the next map
        # must not queue behind them on the same pool.
        with run_scope(workers=2, max_retries=0):
            with run_scope(chaos="exc@0#*"):
                with pytest.raises(WorkerError):
                    parallel_map(_square, range(8))
            assert scope_pool().pool is None
            assert multiprocessing.active_children() == []
            assert parallel_map(_square, range(8)) == [x * x for x in range(8)]
        assert multiprocessing.active_children() == []

    def test_keyboard_interrupt_inside_the_scope_leaves_no_worker(self):
        with pytest.raises(KeyboardInterrupt):
            with run_scope(workers=2):
                parallel_map(_square, range(8))
                assert multiprocessing.active_children()
                raise KeyboardInterrupt
        assert multiprocessing.active_children() == []


def _adapter_children() -> list[str]:
    """Pids of this process's live fabric adapter subprocesses."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = f.read().rsplit(")", 1)[1].split()[1]
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmdline = f.read()
        except (OSError, IndexError):
            continue
        if int(ppid) == os.getpid() and b"repro.fabric.adapter" in cmdline:
            found.append(entry)
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_a_killed_fabric_pool_leaves_no_adapter(serial):
    # A hang deadline kills the socketpair pool while a dispatcher thread
    # is mid-chunk; the adapter it reconnects must die with the pool.
    with run_scope(workers=2, transport="socketpair", chaos="hang@0",
                   task_timeout=2.0):
        assert _campaign("bfs").per_fault == serial["bfs"]
    assert _adapter_children() == []


class TestRecovery:
    def test_a_killed_pool_is_replaced_for_the_next_campaign(self, serial):
        with run_scope(workers=2, chaos="crash@1"):
            with session(sink=MemorySink()) as t:
                assert _campaign("bfs").per_fault == serial["bfs"]
                assert _campaign("xsbench").per_fault == serial["xsbench"]
            assert t.metrics.counters.get("harness.pool_respawns", 0) >= 1
        assert multiprocessing.active_children() == []


def _child_sees_no_pool():
    assert scope_pool() is None
    assert parallel_map(_square, range(8), run=resolve(workers=2)) == [
        x * x for x in range(8)
    ]


class TestPidGuard:
    def test_a_forked_process_does_not_see_the_parents_pool(self):
        fork = multiprocessing.get_context("fork")
        with run_scope(workers=2):
            parallel_map(_square, range(8))
            pool, pids = scope_pool().pool, _pool_pids()
            child = fork.Process(target=_child_sees_no_pool)
            child.start()
            child.join(timeout=60)
            assert child.exitcode == 0
            assert scope_pool().pool is pool
            assert _pool_pids() == pids
            assert parallel_map(_square, range(8)) == [x * x for x in range(8)]
        assert multiprocessing.active_children() == []
