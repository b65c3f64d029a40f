"""Supervised process-pool execution: self-healing fan-out for campaigns.

:func:`repro.util.parallel.parallel_map` used to drive a bare ``pool.map``:
one OOM-killed worker raised ``BrokenProcessPool`` and aborted an hours-long
campaign, and a hung worker stalled the run forever. This module replaces
that pooled path with a *supervisor*: futures-based per-chunk dispatch with

* **bounded retries with exponential backoff** — a chunk whose worker raised
  is re-submitted up to ``max_retries`` times before a typed
  :class:`~repro.errors.HarnessError` surfaces;
* **pool recovery** — a broken pool is respawned (same worker count) and
  only unfinished chunks are re-submitted;
* **hang detection** — with ``task_timeout`` set, an in-flight chunk past its
  wall-clock deadline has its workers killed and is retried on a fresh pool;
* **graceful degradation** — after ``max_pool_respawns`` crash-respawns the
  supervisor stops fighting the infrastructure and finishes the remaining
  chunks serially in-process instead of crashing the campaign.

Results are delivered in submission order regardless of completion order and
work functions are deterministic, so a supervised run — retries, respawns,
degradation and all — returns results **bit-identical** to a serial run.

The pool belongs to the run scope (:func:`repro.runconfig.run_scope`), not
to one map: the outermost scope's :class:`~repro.runconfig.PoolSlot` hands
every pooled map with the same worker count and transport the same pool,
and the scope's exit shuts it down with its workers joined. A map outside
any scope opens its own, so its pool lives exactly as long as the call.
Pools therefore hold no per-map state: a map's initializer travels,
pickled once per map, inside every chunk payload (:class:`_MapTask`), and
each worker runs it once before its first item of that map.

The ``REPRO_CHAOS`` hook (:func:`parse_chaos`) injects worker crashes
(``os._exit``), hangs, and exceptions *into the harness itself* —
deterministic fault injection aimed at the fault injector — which is how the
test suite and the CI chaos job prove the recovery paths work. Chaos fires
only inside pool workers, never in the parent or on the serial path.

Host-side failures are reported through ``repro.obs`` as ``harness.*``
events/counters (surfaced by ``repro obs report``). These counters are
infrastructure-dependent and deliberately excluded from the deterministic
counter guarantee: a healthy run emits none of them.
"""

from __future__ import annotations

import os
import pickle
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from repro.errors import (
    ChaosError,
    ConfigError,
    PoolDegraded,
    WorkerCrash,
    WorkerError,
    WorkerTimeout,
)
from repro.runconfig import resolve, run_scope, scope_pool

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "SupervisorConfig",
    "ChaosFault",
    "parse_chaos",
    "set_chaos_identity",
    "chaos_identity",
    "supervised_map",
    "CHAOS_IDENTITY_ENV",
]

#: An injected hang sleeps this long — far past any sane task deadline, so
#: the supervisor's kill path (not the sleep expiring) ends it.
_CHAOS_HANG_SECONDS = 3600.0
#: Exit status of an injected crash (distinctive in worker-death logs).
_CHAOS_EXIT_CODE = 113


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout policy of one supervised map."""

    #: Failed chunk re-submissions allowed before a typed error surfaces.
    max_retries: int = 2
    #: Per-chunk wall-clock deadline in seconds (None = no hang detection).
    task_timeout: float | None = None
    #: First retry backoff; doubles per attempt up to :attr:`backoff_max`.
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    #: Pool crash-respawns tolerated before degrading to serial execution.
    max_pool_respawns: int = 3
    #: Degrade to in-process serial execution instead of raising
    #: :class:`~repro.errors.PoolDegraded` when the respawn budget runs out.
    serial_fallback: bool = True
    #: Parsed chaos faults shipped to workers (see :func:`parse_chaos`).
    chaos: tuple["ChaosFault", ...] = ()

    @classmethod
    def from_run(cls, run) -> "SupervisorConfig":
        """The policy of a resolved :class:`repro.runconfig.RunConfig`."""
        return cls(max_retries=run.max_retries, task_timeout=run.task_timeout,
                   chaos=run.chaos)


# ---------------------------------------------------------------------------
# Chaos self-injection (REPRO_CHAOS)
# ---------------------------------------------------------------------------

_CHAOS_KINDS = ("crash", "hang", "exc")


@dataclass(frozen=True)
class ChaosFault:
    """One injected harness fault: ``kind`` hits ``chunk`` on ``attempt``.

    ``attempt=None`` (spec suffix ``#*``) fires on *every* attempt — the way
    to force retry exhaustion; the default (attempt 0) fires once, so the
    retry must succeed. ``chunk=None`` (spec ``kind@*``) matches every
    chunk, and ``target`` restricts the fault to the worker or adapter
    whose chaos identity (:func:`set_chaos_identity`) matches — together
    they express a *sticky bad host*: ``crash@*#*@adapter1`` kills
    ``adapter1`` on every chunk it ever touches, while its peers stay
    healthy. The fleet tests use exactly that to force a persistent
    defective host through the ordinary chaos path.
    """

    kind: str
    chunk: int | None
    attempt: int | None = 0
    target: str | None = None


def parse_chaos(spec: str) -> tuple[ChaosFault, ...]:
    """Parse a ``REPRO_CHAOS`` spec: ``kind@chunk[#attempt|#*][@target]``.

    Comma-separated list. ``chunk`` is an index or ``*`` (every chunk);
    the optional ``@target`` suffix names the worker/adapter the fault is
    pinned to (see :func:`set_chaos_identity`). Examples: ``crash@1``
    (kill the worker running chunk 1, first attempt only),
    ``hang@3#0,exc@5#*`` (hang chunk 3 once; raise in chunk 5 on every
    attempt), ``crash@*#*@adapter1`` (sticky: adapter1 dies on every
    chunk, every attempt). Kinds: ``crash`` (``os._exit``), ``hang``
    (sleep past any deadline), ``exc`` (raise
    :class:`~repro.errors.ChaosError`).
    """
    faults: list[ChaosFault] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            kind, sep, rest = part.partition("@")
            if kind not in _CHAOS_KINDS or not sep:
                raise ValueError
            chunk_s, hsep, att_s = rest.partition("#")
            target = None
            if hsep:
                att_s, tsep, tgt = att_s.partition("@")
            else:
                chunk_s, tsep, tgt = chunk_s.partition("@")
            if tsep:
                if not tgt:
                    raise ValueError
                target = tgt
            chunk = None if chunk_s == "*" else int(chunk_s)
            attempt = 0 if not hsep else (None if att_s == "*" else int(att_s))
        except ValueError:
            raise ConfigError(
                f"bad REPRO_CHAOS entry {part!r}: expected "
                f"kind@chunk[#attempt|#*][@target] with kind in "
                f"{_CHAOS_KINDS} and chunk an index or '*'"
            ) from None
        faults.append(ChaosFault(kind, chunk, attempt, target))
    return tuple(faults)


#: Environment fallback for the worker/adapter chaos identity, so spawned
#: adapter processes inherit their name without argument plumbing.
CHAOS_IDENTITY_ENV = "REPRO_CHAOS_IDENTITY"

_chaos_identity: str | None = None


def set_chaos_identity(name: str | None) -> None:
    """Name this process for targeted chaos (``@target`` spec suffix).

    Called by fabric adapters (``--name``) and worker initializers; a
    ``None`` clears it back to the :data:`CHAOS_IDENTITY_ENV` fallback.
    """
    global _chaos_identity
    _chaos_identity = name


def chaos_identity() -> str | None:
    """This process's chaos identity, or ``None`` when anonymous."""
    if _chaos_identity is not None:
        return _chaos_identity
    return os.environ.get(CHAOS_IDENTITY_ENV, "").strip() or None


def maybe_chaos(
    faults: Sequence[ChaosFault], chunk: int, attempt: int
) -> None:
    """Worker-side trigger: fire any fault matching (chunk, attempt).

    Called at chunk start, *before* any work item runs, so an injected
    failure never leaves partial results or stale worker-metric residue.
    Targeted faults additionally require this process's
    :func:`chaos_identity` to equal their ``target`` — an anonymous
    process never matches a targeted fault.
    """
    for f in faults:
        if f.chunk is not None and f.chunk != chunk:
            continue
        if f.attempt is not None and f.attempt != attempt:
            continue
        if f.target is not None and f.target != chaos_identity():
            continue
        if f.kind == "crash":
            os._exit(_CHAOS_EXIT_CODE)
        if f.kind == "hang":
            time.sleep(_CHAOS_HANG_SECONDS)
        raise ChaosError(
            f"injected exception in chunk {chunk}, attempt {attempt}"
        )


# ---------------------------------------------------------------------------
# Worker entry
# ---------------------------------------------------------------------------


def _scrub_worker_metrics() -> None:
    """Discard metric residue a previous, aborted attempt left behind.

    Worker metrics are drained into every completed batch's return value, so
    a healthy worker's registry is empty between chunks; anything found at
    chunk start is exactly the partial accounting of an attempt that died
    mid-flight. Dropping it keeps deterministic counters (``vm.steps``,
    ``fi.trials``) identical between failure-free and retried runs. The same
    holds for buffered span records: a chunk that died mid-flight leaves its
    partial span subtree behind, and shipping it with the *retry's* batch
    would double-charge the chunk in the trace — drain it (and reset the
    nesting stack) before any new work runs.
    """
    from repro.obs.core import current

    t = current()
    if t is not None and t.is_worker:
        t.metrics.drain()
        t.drain_spans()
        t._span_stack.clear()


#: The map whose initializer this worker ran last (a :class:`_MapTask` token).
_worker_map: str | None = None


class _MapTask(NamedTuple):
    """A map's ``fn`` carrying the map's initializer to the worker.

    Stands in for ``fn`` in chunk payloads, so the payload keeps its shape.
    ``init`` is ``(initializer, initargs)`` pickled once per map; a worker
    unpickles and runs it before its first item of a map whose ``token``
    it has not seen — once per worker per map, what a pool initializer
    did when every map forked its own pool.
    """

    fn: Callable
    token: str
    init: bytes

    def __call__(self, item):
        global _worker_map
        if _worker_map != self.token:
            initializer, initargs = pickle.loads(self.init)
            initializer(*initargs)
            _worker_map = self.token
        return self.fn(item)


def _run_chunk(payload):
    """Pool-worker entry: apply ``fn`` to one chunk of items, in order."""
    fn, chunk_items, index, attempt, chaos = payload
    _scrub_worker_metrics()
    if chaos:
        maybe_chaos(chaos, index, attempt)
    return [fn(item) for item in chunk_items]


# ---------------------------------------------------------------------------
# Parent-side supervisor
# ---------------------------------------------------------------------------


def _note(
    event: str | None = None,
    fields: dict | None = None,
    counters: dict | None = None,
) -> None:
    """Emit harness telemetry when a session is active (else free)."""
    from repro.obs.core import current

    t = current()
    if t is None:
        return
    for name, n in (counters or {}).items():
        t.count(name, n)
    if event:
        t.emit(event, fields or {})


class _Chunk:
    """Supervisor bookkeeping for one submitted slice of the work list."""

    __slots__ = ("index", "items", "attempts", "result", "done",
                 "ready_at", "deadline", "last_error")

    def __init__(self, index: int, items: list) -> None:
        self.index = index
        self.items = items
        self.attempts = 0          # failures charged so far
        self.result: list | None = None
        self.done = False
        self.ready_at = 0.0        # backoff: not re-submittable before this
        self.deadline: float | None = None
        self.last_error: str | None = None


class _Supervisor:
    def __init__(
        self,
        fn: Callable,
        chunks: list[_Chunk],
        workers: int,
        initializer: Callable | None,
        initargs: tuple,
        on_result: Callable | None,
        config: SupervisorConfig,
        pool_factory: Callable | None = None,
    ) -> None:
        self.fn = fn
        self.chunks = chunks
        self.workers = workers
        self.initializer = initializer
        self.initargs = initargs
        # What workers run: fn itself, or fn with the map's initializer.
        self.task = fn if initializer is None else _MapTask(
            fn, uuid.uuid4().hex, pickle.dumps((initializer, initargs))
        )
        self.on_result = on_result
        self.config = config
        self.pool_factory = pool_factory
        self.slot = None           # the scope's PoolSlot, set by run()
        self.pool: ProcessPoolExecutor | None = None
        self.respawns = 0          # crash-triggered respawns (degrade budget)
        self.degraded = False
        self._initialized_in_parent = False
        self._next_emit = 0        # ordered-delivery cursor

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self.pool is None:
            factory = self.pool_factory or ProcessPoolExecutor
            self.pool = self.slot.get(
                (self.workers, self.pool_factory),
                lambda: factory(max_workers=self.workers),
            )
        return self.pool

    def _kill_pool(self) -> None:
        """Tear the pool down hard — also ends hung or wedged workers —
        and take it out of the scope, whose next map gets a fresh one."""
        pool, self.pool = self.pool, None
        if pool is None:
            return
        self.slot.drop(pool)
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:
                pass
        # The killed workers are reaped before the map goes on.
        pool.shutdown(wait=True, cancel_futures=True)

    # -- ordered delivery -----------------------------------------------
    def _complete(self, chunk: _Chunk) -> None:
        chunk.done = True
        while (self._next_emit < len(self.chunks)
               and self.chunks[self._next_emit].done):
            ready = self.chunks[self._next_emit]
            if self.on_result is not None:
                for r in ready.result:
                    self.on_result(r)
            self._next_emit += 1

    # -- failure accounting ---------------------------------------------
    def _charge(self, chunk: _Chunk, reason: str, error=None) -> None:
        """One failure against ``chunk``; raises when retries are exhausted."""
        chunk.attempts += 1
        chunk.last_error = f"{type(error).__name__}: {error}" if error else reason
        _note(
            "harness.retry",
            {"chunk": chunk.index, "attempt": chunk.attempts,
             "reason": reason},
            counters={"harness.retries": 1},
        )
        if chunk.attempts <= self.config.max_retries:
            delay = min(
                self.config.backoff_max,
                self.config.backoff_base * (2 ** (chunk.attempts - 1)),
            )
            chunk.ready_at = time.monotonic() + delay
            return
        if reason == "crash" and self.config.serial_fallback:
            # A chunk whose worker keeps dying still has the serial escape
            # hatch — degradation, not a raise, is the crash-path endgame.
            self._degrade("worker crashes exhausted retries")
            return
        summary = (
            f"chunk {chunk.index} ({len(chunk.items)} items) failed "
            f"{chunk.attempts} attempt(s); last failure: {chunk.last_error}"
        )
        _note(
            "harness.failed",
            {"chunk": chunk.index, "reason": reason,
             "attempts": chunk.attempts},
            counters={"harness.chunks_failed": 1},
        )
        if reason == "timeout":
            raise WorkerTimeout(
                f"{summary} (deadline {self.config.task_timeout}s)"
            )
        if reason == "crash":
            raise WorkerCrash(summary)
        err = WorkerError(summary)
        if isinstance(error, BaseException):
            raise err from error
        raise err

    def _degrade(self, why: str) -> None:
        if not self.config.serial_fallback:
            raise PoolDegraded(
                f"process pool failed {self.respawns} time(s) and serial "
                f"fallback is disabled ({why})"
            )
        if not self.degraded:
            self.degraded = True
            _note(
                "harness.degraded", {"reason": why},
                counters={"harness.degraded": 1},
            )

    def _pool_break(
        self, inflight: dict, queue: list, reason: str,
        victims: list | None = None,
    ) -> None:
        """Respawn after a broken pool; requeue every unfinished chunk."""
        self._kill_pool()
        self.respawns += 1
        _note(
            "harness.pool_respawn",
            {"respawns": self.respawns, "reason": reason},
            counters={"harness.pool_respawns": 1,
                      "harness.worker_crashes": 1},
        )
        # Any in-flight chunk may be the one that killed its worker; each is
        # charged one attempt (they all must re-run anyway), front-queued to
        # preserve rough submission order.
        affected = list(victims or []) + list(inflight.values())
        for chunk in affected:
            self._charge(chunk, "crash")
        inflight.clear()
        queue[:0] = sorted(affected, key=lambda c: c.index)
        if self.respawns > self.config.max_pool_respawns:
            self._degrade(
                f"pool broke {self.respawns} times "
                f"(budget {self.config.max_pool_respawns})"
            )

    def _expire_deadlines(self, inflight: dict, queue: list) -> None:
        """Kill the pool when any in-flight chunk overran its deadline."""
        now = time.monotonic()
        hung = [c for c in inflight.values()
                if c.deadline is not None and now > c.deadline]
        if not hung:
            return
        self._kill_pool()
        for chunk in hung:
            _note(
                "harness.retry",
                {"chunk": chunk.index, "attempt": chunk.attempts + 1,
                 "reason": "timeout"},
            )
        _note(counters={"harness.worker_timeouts": len(hung),
                        "harness.pool_respawns": 1})
        for chunk in hung:
            chunk.attempts += 1
            chunk.last_error = "deadline exceeded"
            if chunk.attempts > self.config.max_retries:
                _note(
                    "harness.failed",
                    {"chunk": chunk.index, "reason": "timeout",
                     "attempts": chunk.attempts},
                    counters={"harness.chunks_failed": 1},
                )
                raise WorkerTimeout(
                    f"chunk {chunk.index} ({len(chunk.items)} items) hung "
                    f"past its {self.config.task_timeout}s deadline on "
                    f"{chunk.attempts} attempt(s)"
                )
            chunk.ready_at = now + min(
                self.config.backoff_max,
                self.config.backoff_base * (2 ** (chunk.attempts - 1)),
            )
        # Innocent bystanders of the kill are requeued blame-free: their
        # results recompute deterministically, so nothing is lost but time.
        requeue = sorted(inflight.values(), key=lambda c: c.index)
        inflight.clear()
        queue[:0] = requeue

    # -- serial paths ----------------------------------------------------
    def _run_serial(self, chunk: _Chunk) -> None:
        # Chaos is a *worker* fault model: it never fires in the parent, so
        # the degraded path (like the plain serial path) runs fn directly
        # and lets real fn exceptions propagate raw.
        if self.initializer is not None and not self._initialized_in_parent:
            self.initializer(*self.initargs)
            self._initialized_in_parent = True
        chunk.result = [self.fn(item) for item in chunk.items]
        self._complete(chunk)

    # -- main loop -------------------------------------------------------
    def run(self) -> list:
        # Outside any run scope this one owns the pool, so the pool lives
        # exactly as long as the call; inside one it stays for the next map.
        with run_scope():
            self.slot = scope_pool()
            try:
                self._loop()
            except BaseException:
                # Work may still be in flight: never hand that pool on.
                self._kill_pool()
                raise
            self.pool = None
        out: list = []
        for chunk in self.chunks:
            out.extend(chunk.result)
        return out

    def _loop(self) -> None:
        queue: list[_Chunk] = list(self.chunks)
        inflight: dict = {}  # Future -> _Chunk
        while queue or inflight:
            if self.degraded:
                for chunk in sorted(
                    list(inflight.values()) + queue, key=lambda c: c.index
                ):
                    self._run_serial(chunk)
                self._kill_pool()
                return
            now = time.monotonic()
            broke_on_submit = False
            i = 0
            while len(inflight) < self.workers and i < len(queue):
                chunk = queue[i]
                if chunk.ready_at > now:  # still backing off
                    i += 1
                    continue
                queue.pop(i)
                try:
                    fut = self._submit(chunk)
                except BrokenProcessPool:
                    queue.insert(0, chunk)
                    self._pool_break(inflight, queue, "broken on submit")
                    broke_on_submit = True
                    break
                inflight[fut] = chunk
            if broke_on_submit:
                continue
            if not inflight:
                # Everything runnable is backing off; sleep to the earliest.
                soonest = min((c.ready_at for c in queue), default=now)
                time.sleep(max(0.0, min(soonest - now, 0.5)))
                continue
            done, _ = wait(
                set(inflight),
                timeout=self._poll_timeout(inflight, queue),
                return_when=FIRST_COMPLETED,
            )
            victims: list[_Chunk] = []
            for fut in done:
                chunk = inflight.pop(fut)
                try:
                    chunk.result = fut.result()
                except BrokenProcessPool:
                    victims.append(chunk)
                except Exception as e:  # fn raised inside the worker
                    _note(counters={"harness.worker_errors": 1})
                    self._charge(chunk, "error", e)
                    queue.append(chunk)
                else:
                    self._complete(chunk)
            if victims:
                self._pool_break(inflight, queue, "worker died", victims)
                continue
            self._expire_deadlines(inflight, queue)

    def _submit(self, chunk: _Chunk):
        pool = self._ensure_pool()
        # A pool that declines chaos (the in-process fabric adapter, whose
        # ``crash`` kind would os._exit the harness itself) gets chunk
        # payloads with the fault list stripped.
        chaos = (self.config.chaos
                 if getattr(pool, "supports_chaos", True) else ())
        fut = pool.submit(
            _run_chunk,
            (self.task, chunk.items, chunk.index, chunk.attempts, chaos),
        )
        chunk.deadline = (
            time.monotonic() + self.config.task_timeout
            if self.config.task_timeout is not None else None
        )
        return fut

    def _poll_timeout(self, inflight: dict, queue: list) -> float | None:
        """Wake for the earliest deadline or backoff expiry (None = block)."""
        now = time.monotonic()
        marks = [c.deadline for c in inflight.values()
                 if c.deadline is not None]
        marks += [c.ready_at for c in queue if c.ready_at > now]
        if not marks:
            return None
        return max(0.01, min(marks) - now)


def supervised_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    *,
    workers: int,
    chunksize: int | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_result: Callable[[R], None] | None = None,
    config: SupervisorConfig | None = None,
    pool_factory: Callable | None = None,
) -> list[R]:
    """Map ``fn`` over ``items`` across a self-healing process pool.

    The supervised equivalent of the pooled path of
    :func:`repro.util.parallel.parallel_map` (same contract: submission-order
    results, ``on_result`` streamed in order, ``initializer(*initargs)``
    once per worker per map — both must pickle), plus the recovery
    behaviour described in the module docstring. The pool is the run
    scope's (see the module docstring).
    ``chunksize`` groups items into per-future chunks (default ~4 chunks per
    worker); ``config`` defaults to the policy of the ambient run
    configuration (:func:`repro.runconfig.resolve`). ``workers <= 1`` or
    a single item runs serially in-process — chaos and supervision never
    apply there.

    ``pool_factory`` swaps the executor: any callable with the
    ``ProcessPoolExecutor(max_workers=)`` signature returning an
    executor-shaped pool (``submit``/``shutdown``/killable
    ``_processes``) — this is how the fabric of
    :mod:`repro.fabric.harness` reuses the supervisor as its scheduler.
    Maps in one scope share a pool when their worker counts and factories
    compare equal.
    With a factory set, dispatch always goes through the pool (the serial
    shortcut would silently bypass the chosen transport), using at least
    one worker slot.
    """
    items = list(items)
    if config is None:
        config = SupervisorConfig.from_run(resolve())
    if pool_factory is None and (workers <= 1 or len(items) <= 1):
        if initializer is not None:
            initializer(*initargs)
        out: list[R] = []
        for item in items:
            r = fn(item)
            out.append(r)
            if on_result is not None:
                on_result(r)
        return out
    workers = max(1, workers)
    if chunksize is None:
        chunksize = max(1, -(-len(items) // (workers * 4)))
    chunksize = max(1, chunksize)
    chunks = [
        _Chunk(k, items[off:off + chunksize])
        for k, off in enumerate(range(0, len(items), chunksize))
    ]
    sup = _Supervisor(
        fn, chunks, workers, initializer, initargs, on_result, config,
        pool_factory=pool_factory,
    )
    return sup.run()
