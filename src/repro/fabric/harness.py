"""Harness side of the fabric: a pool of adapters behind the supervisor.

The design move of the whole fabric is here: :class:`FabricPool` speaks the
``ProcessPoolExecutor`` surface the chunk supervisor already drives —
``submit`` returning futures, ``shutdown``, a ``_processes`` mapping whose
values answer ``kill()`` — so :mod:`repro.util.supervisor` schedules
adapters over any transport with **zero changes to its recovery logic**.
Retries with backoff, hang deadlines, pool respawn, serial degradation,
and bit-identical ordered reassembly all carry over because the supervisor
cannot tell a fabric from a process pool.

Failure mapping (docs/FABRIC.md §errors):

* adapter raises inside ``fn`` → ``CHUNK_ERROR`` rides home and becomes the
  future's exception → the supervisor's *error* retry path;
* transport drops mid-chunk → the dispatcher fails the future with
  :class:`~repro.errors.ConnectionClosed` (again the error-retry path, so
  the chunk re-runs on a surviving adapter) and then tries one reconnect
  for subsequent chunks;
* every adapter gone and unreachable → the pool marks itself broken and
  fails pending futures with ``BrokenProcessPool`` — exactly the signal
  that makes the supervisor respawn the pool, which reconnects everything.

The transport and TCP endpoints are fields of the run configuration
(:mod:`repro.runconfig`): a campaign resolves them with every other knob
and hands the result to :func:`pool_factory`; ``local`` (the default)
means no fabric, the plain process pool.

Health is visible as ``fabric.*`` obs counters (adapters connected,
chunks per adapter, disconnects, reconnects, handshake failures) — the
"Fabric health" table of ``repro obs report``. Like ``harness.*`` they are
infrastructure-dependent and excluded from the deterministic-counter
guarantee.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.errors import (
    ConfigError,
    ConnectionClosed,
    FrameError,
    HandshakeError,
    ProtocolError,
    WorkerError,
)
from repro.fabric.protocol import (
    decode_message,
    encode_message,
    handshake_connect,
)
from repro.fabric.transport import (
    Transport,
    connect_tcp,
    spawn_socketpair_adapter,
)
from repro.runconfig import TRANSPORTS

__all__ = ["TRANSPORTS", "FabricPool", "pool_factory"]


def pool_factory(run):
    """The supervisor's pool factory for a resolved run configuration.

    ``None`` for the ``local`` transport (keep the plain process pool);
    otherwise a callable with the supervisor's factory signature
    ``(max_workers=) -> FabricPool`` over ``run.transport``, dialing
    ``run.addrs`` under tcp. Factories for the same transport and
    endpoints compare equal, which is how a run scope's later campaigns
    find the fabric pool its first one connected.
    """
    if run.transport == "local":
        return None
    return _Factory(run.transport, run.addrs)


@dataclass(frozen=True)
class _Factory:
    """:func:`pool_factory`'s answer: a FabricPool maker with equality."""

    transport: str
    addrs: tuple | None

    def __call__(self, max_workers: int = 1) -> "FabricPool":
        return FabricPool(
            self.transport, max_workers=max_workers, addrs=self.addrs
        )


# ---------------------------------------------------------------------------
# Obs plumbing (infra counters; never part of the deterministic guarantee)
# ---------------------------------------------------------------------------

_count_lock = threading.Lock()


def _count(name: str, n: int = 1) -> None:
    from repro.obs.core import current

    t = current()
    if t is None:
        return
    with _count_lock:  # dispatcher threads share the parent registry
        t.count(name, n)


def _log():
    from repro.obs.log import get_logger

    return get_logger("fabric.harness")


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class _AdapterHandle:
    """One connected adapter: its transport plus whatever can be killed."""

    __slots__ = ("transport", "proc", "label", "dead")

    def __init__(self, transport: Transport, proc=None, label: str = "") -> None:
        self.transport = transport
        self.proc = proc  # subprocess.Popen for socketpair adapters
        self.label = label or transport.label
        self.dead = False

    def kill(self) -> None:
        """Hard stop — the supervisor's hang-recovery hook (``proc.kill()``
        shape). Closing the transport unblocks any dispatcher recv."""
        self.dead = True
        if self.proc is not None:
            try:
                self.proc.kill()
            except Exception:
                pass
        try:
            self.transport.close()
        except Exception:
            pass
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            try:
                self.proc.wait(timeout=5)
            except Exception:
                pass


_STOP = object()  # dispatcher wake-up sentinel


class FabricPool:
    """Adapters behind the ``ProcessPoolExecutor`` surface.

    One dispatcher thread per adapter slot pulls ``(future, payload)`` work
    off a shared queue, ships the payload as a CHUNK, and resolves the
    future from the RESULT / CHUNK_ERROR answer. The supervisor never sees
    the wire: it submits and waits on futures as it always did.
    """

    def __init__(
        self,
        kind: str,
        max_workers: int = 1,
        addrs: tuple | None = None,
    ) -> None:
        if kind not in ("inproc", "socketpair", "tcp"):
            raise ConfigError(f"FabricPool cannot speak transport {kind!r}")
        self.kind = kind
        self.addrs = addrs or ()
        if kind == "inproc":
            # The inproc adapter shares the harness process and telemetry;
            # one slot keeps the ambient span stack single-writer.
            slots = 1
        elif kind == "tcp":
            slots = len(self.addrs)
            if slots == 0:
                raise ConfigError("tcp FabricPool needs at least one endpoint")
        else:
            slots = max(1, max_workers)
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._seq = 0
        self._broken = False
        self._closed = False
        #: Slots whose adapter is connected or may still reconnect.
        self._live: set[int] = set()
        #: Supervisor kill surface: slot -> _AdapterHandle (kill()-able).
        self._processes: dict[int, _AdapterHandle] = {}
        self._threads: list[threading.Thread] = []
        failures = 0
        for slot in range(slots):
            try:
                self._processes[slot] = self._connect(slot)
                self._live.add(slot)
            except (HandshakeError, ProtocolError, OSError) as e:
                failures += 1
                _count("fabric.handshake_failures")
                _log().warning("adapter slot %d failed to connect: %s", slot, e)
        if not self._live:
            raise BrokenProcessPool(
                f"no fabric adapter reachable over {kind} "
                f"({failures} connection failure(s))"
            )
        for slot in range(slots):
            th = threading.Thread(
                target=self._dispatch,
                args=(slot,),
                name=f"repro-fabric-dispatch-{slot}",
                daemon=True,
            )
            th.start()
            self._threads.append(th)

    # ``crash`` chaos is ``os._exit``: fatal to the harness when the
    # adapter is an in-process thread, so the supervisor strips chaos from
    # chunk payloads unless the pool advertises support.
    @property
    def supports_chaos(self) -> bool:
        return self.kind != "inproc"

    # -- connection management ------------------------------------------
    def _connect(self, slot: int) -> _AdapterHandle:
        if self.kind == "inproc":
            from repro.fabric.adapter import spawn_inproc_adapter

            transport, _thread = spawn_inproc_adapter()
            handle = _AdapterHandle(transport, label="inproc")
        elif self.kind == "socketpair":
            transport, proc = spawn_socketpair_adapter()
            handle = _AdapterHandle(transport, proc=proc,
                                    label=f"pid{proc.pid}")
        else:
            host, port = self.addrs[slot]
            transport = connect_tcp(host, port)
            handle = _AdapterHandle(transport, label=f"{host}:{port}")
        try:
            handshake_connect(transport, role="harness")
            # The pool outlives campaigns, so INIT carries no campaign
            # context: each chunk payload brings its map's initializer.
            transport.send_bytes(
                encode_message("INIT", {"initializer": None, "initargs": ()})
            )
        except BaseException:
            handle.kill()
            raise
        _count("fabric.adapters_connected")
        return handle

    def _reconnect(self, slot: int) -> _AdapterHandle | None:
        """Replace a dead adapter in-place; None when it cannot be done."""
        old = self._processes.get(slot)
        if old is not None:
            old.kill()
        if self._closed:
            return None
        try:
            handle = self._connect(slot)
        except (HandshakeError, ProtocolError, OSError) as e:
            _count("fabric.handshake_failures")
            _log().warning("adapter slot %d reconnect failed: %s", slot, e)
            return None
        with self._lock:
            closed = self._closed
            if not closed:
                self._processes[slot] = handle
                self._live.add(slot)
        if closed:
            # Shut down while connecting (a supervisor kill): shutdown()
            # never saw this adapter, so it must not outlive the pool.
            handle.kill()
            return None
        _count("fabric.reconnects")
        return handle

    def _slot_lost(self, slot: int) -> None:
        """``slot`` has no adapter and could not reconnect; break the pool
        when no live slot is left. Idempotent: a slot counts once."""
        with self._lock:
            self._live.discard(slot)
            last = not self._live and not self._closed
            if last:
                self._broken = True
        if last:
            _log().warning("all fabric adapters lost; marking pool broken")
            self._fail_pending(BrokenProcessPool(
                "every fabric adapter disconnected and reconnection failed"
            ))

    def _fail_pending(self, exc: BaseException) -> None:
        """Drain the queue, failing waiting futures so the supervisor's
        wait() observes the breakage instead of blocking forever."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            fut, _payload = item
            if fut.set_running_or_notify_cancel():
                fut.set_exception(exc)

    # -- executor surface ------------------------------------------------
    def submit(self, fn, payload) -> Future:
        """Queue one chunk payload; ``fn`` is always the supervisor's
        ``_run_chunk``, which the adapter invokes on its own side."""
        del fn
        if self._closed:
            raise RuntimeError("cannot submit to a shut-down FabricPool")
        if self._broken:
            raise BrokenProcessPool("fabric pool is broken")
        fut: Future = Future()
        self._queue.put((fut, payload))
        return fut

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._processes.values())
        if cancel_futures:
            self._fail_pending(BrokenProcessPool("fabric pool shut down"))
        for _ in self._threads:
            self._queue.put(_STOP)
        for handle in handles:
            if not handle.dead:
                try:
                    handle.transport.send_bytes(encode_message("BYE"))
                except Exception:
                    pass
            handle.kill()
        if wait:
            for th in self._threads:
                th.join(timeout=5)

    # -- dispatcher ------------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _dispatch(self, slot: int) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP or self._closed:
                return
            fut, payload = item
            if not fut.set_running_or_notify_cancel():
                continue
            handle = self._processes.get(slot)
            if handle is None or handle.dead:
                handle = self._reconnect(slot)
                if handle is None:
                    # This slot cannot serve; hand the work back unless the
                    # whole pool just died (then fail it with the rest).
                    self._requeue_or_fail(fut, payload)
                    self._slot_lost(slot)
                    return
            self._serve_one(slot, handle, fut, payload)

    def _requeue_or_fail(self, fut: Future, payload) -> None:
        with self._lock:
            broken = self._broken or self._closed or not self._live
        if broken:
            fut.set_exception(BrokenProcessPool(
                "every fabric adapter disconnected and reconnection failed"
            ))
        else:
            refut: Future = Future()
            # Chain: the supervisor holds `fut`; mirror the requeued
            # future's resolution onto it.
            self._queue.put((refut, payload))
            refut.add_done_callback(lambda f: _mirror(f, fut))


    def _serve_one(
        self, slot: int, handle: _AdapterHandle, fut: Future, payload
    ) -> None:
        msg_id = self._next_id()
        try:
            handle.transport.send_bytes(
                encode_message("CHUNK", {"id": msg_id, "payload": payload})
            )
            while True:
                name, body = decode_message(handle.transport.recv_frame())
                if name == "RESULT":
                    _count(f"fabric.chunks.{handle.label}")
                    fut.set_result(body["value"])
                    return
                if name == "CHUNK_ERROR":
                    _count(f"fabric.retries.{handle.label}")
                    err = body.get("error")
                    if not isinstance(err, BaseException):
                        err = WorkerError(
                            body.get("repr") or "adapter chunk failed"
                        )
                    fut.set_exception(err)
                    return
                if name == "ERROR":
                    code = body.get("code") if isinstance(body, dict) else "?"
                    raise ProtocolError(
                        f"adapter {handle.label} reported {code}: "
                        f"{body.get('message') if isinstance(body, dict) else body}"
                    )
                if name == "PONG":
                    continue
                raise ProtocolError(
                    f"unexpected {name} from adapter {handle.label}"
                )
        except (ConnectionClosed, FrameError, ProtocolError, OSError) as e:
            # Mid-chunk loss: fail *this* future onto the supervisor's
            # error-retry path (the chunk re-runs on a surviving adapter)
            # and retire the connection; the next chunk triggers a
            # reconnect attempt for this slot.
            _count("fabric.disconnects")
            _count(f"fabric.disconnects.{handle.label}")
            _count(f"fabric.retries.{handle.label}")
            _log().warning(
                "adapter %s lost mid-chunk: %s", handle.label, e
            )
            handle.kill()
            if self._reconnect(slot) is None:
                self._slot_lost(slot)
            if not fut.done():
                fut.set_exception(
                    e if isinstance(e, ConnectionClosed)
                    else ConnectionClosed(
                        f"adapter {handle.label} lost mid-chunk: {e}"
                    )
                )


def _mirror(src: Future, dst: Future) -> None:
    if dst.done():
        return
    exc = src.exception()
    if exc is not None:
        dst.set_exception(exc)
    else:
        dst.set_result(src.result())
