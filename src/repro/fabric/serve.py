"""``repro serve``: the campaign fabric as a long-running service.

An asyncio front-end that accepts campaign requests over the same framed
protocol the harness/adapter link speaks (SUBMIT → PROGRESS… → DONE),
dedupes them through the content-addressed campaign cache, dispatches
trials across whatever fabric transport the server was started with, and
streams obs records back to the submitting client as PROGRESS frames.

Request dedup is the FastFlip-shaped payoff: campaigns are pure functions
of (program, input, fault model, plan), so the server runs each one inside
the ambient :mod:`repro.cache` scope — a repeated identical SUBMIT answers
straight from the store with **zero trials dispatched** (the DONE frame
carries ``dispatched: 0, cached: true``, and the preceding PROGRESS stream
shows the ``cache.hit`` event instead of campaign spans).

Campaigns run one at a time: trial outcomes are deterministic regardless,
but the telemetry session that powers progress streaming is process-global,
so a lock serializes execution while the asyncio loop keeps accepting and
queueing connections. The campaign itself runs in a worker thread
(``run_in_executor``); a :class:`ForwardSink` hops each obs record back
onto the loop with ``call_soon_threadsafe``.

Trusted-network assumption: SUBMIT bodies contain pickled module text and
argument structures, like every fabric message — bind ``repro serve`` and
its adapters to loopback or a private network only (docs/FABRIC.md).
"""

from __future__ import annotations

import asyncio
import time

from repro.errors import ConnectionClosed, FrameError, HandshakeError
from repro.fabric.frames import FrameDecoder
from repro.fabric.protocol import (
    SUPPORTED_VERSIONS,
    decode_message,
    encode_message,
    error_body,
    hello_body,
    negotiate,
    welcome_body,
)
from repro.fabric.transport import Transport, connect_tcp
from repro.obs.sink import TraceSink
from repro.runconfig import run_scope

__all__ = ["ForwardSink", "CampaignService", "run_serve", "submit"]


class ForwardSink(TraceSink):
    """A trace sink that hands every record to a callback.

    The serve loop passes a ``call_soon_threadsafe`` trampoline so records
    produced in the campaign's executor thread surface in the asyncio loop;
    a callback failure must never fail the campaign, so errors are dropped.
    """

    def __init__(self, forward) -> None:
        self._forward = forward

    def write(self, record: dict) -> None:
        try:
            self._forward(record)
        except Exception:
            pass


def _log():
    from repro.obs.log import get_logger

    return get_logger("fabric.serve")


# ---------------------------------------------------------------------------
# Async frame plumbing (the sync Transport blocks, so serve re-frames here)
# ---------------------------------------------------------------------------


async def _read_message(reader: asyncio.StreamReader, decoder: FrameDecoder):
    while True:
        frame = decoder.next_frame()
        if frame is not None:
            return decode_message(frame)
        data = await reader.read(1 << 16)
        if not data:
            if decoder.at_boundary():
                raise ConnectionClosed("client closed the connection")
            raise FrameError(
                "client closed the connection mid-frame "
                f"({decoder.pending_bytes()} bytes stranded)"
            )
        decoder.feed(data)


async def _write(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(data)
    await writer.drain()


# ---------------------------------------------------------------------------
# Request execution
# ---------------------------------------------------------------------------


def _load_request_program(request: dict):
    """Resolve a SUBMIT body to ``(program, args, bindings, meta)``.

    Two request shapes: ``{"app": name, "input": {...}}`` picks a bundled
    benchmark (``input`` ``None`` means its reference input), while
    ``{"module": ir_text, "args": [...], "bindings": {...}}`` ships a
    program directly.
    """
    if request.get("app"):
        from repro.apps.registry import get_app

        app = get_app(request["app"])
        inp = request.get("input") or app.reference_input
        args, bindings = app.encode(inp)
        return app.program, args, bindings, {"app": app.name}
    if request.get("module"):
        from repro.ir.parser import parse_module
        from repro.vm.interpreter import Program

        program = Program(parse_module(request["module"]))
        return (
            program,
            request.get("args"),
            request.get("bindings"),
            {"app": None},
        )
    raise ValueError("SUBMIT needs either 'app' or 'module'")


def _execute_request(request: dict, forward, run: dict | None = None) -> dict:
    """Run one campaign (executor thread) and shape the DONE body.

    ``run`` holds the server's run-configuration fields (cache, transport,
    endpoints), installed here as one run scope — around the campaign, not
    around the accept loop — so it is held exactly while a request
    executes and never leaks to other code sharing the process (``None``
    fields keep the environment defaults). A request may still narrow
    ``workers``/``engine`` for itself.
    """
    from repro.fi.campaign import run_campaign
    from repro.obs.core import session

    program, args, bindings, meta = _load_request_program(request)
    t0 = time.perf_counter()
    with run_scope(**(run or {})), session(sink=ForwardSink(forward)) as t:
        result = run_campaign(
            program,
            int(request.get("n_faults", 100)),
            int(request.get("seed", 0)),
            args=args,
            bindings=bindings,
            rel_tol=float(request.get("rel_tol", 0.0)),
            abs_tol=float(request.get("abs_tol", 0.0)),
            workers=request.get("workers"),
            engine=request.get("engine"),
        )
        dispatched = int(
            t.metrics.snapshot()["counters"].get("fi.trials", 0)
        )
    return {
        "ok": True,
        "app": meta["app"],
        "counts": {
            o.value: n for o, n in result.counts.counts.items() if n
        },
        "sdc_probability": result.sdc_probability,
        "trials": result.trials,
        "dispatched": dispatched,
        "cached": dispatched == 0,
        "seconds": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


class CampaignService:
    """Connection handler + the one-campaign-at-a-time execution lock."""

    def __init__(self, cache=None, transport=None, adapters=None) -> None:
        self._lock = asyncio.Lock()
        self._run = dict(cache=cache, transport=transport, addrs=adapters)
        #: Writers of currently open client connections, so a shutdown can
        #: say goodbye instead of slamming sockets shut.
        self._writers: set = set()

    async def shutdown(self) -> None:
        """Close every open connection politely (server shutdown path).

        Each client still connected gets a ``BYE`` before its stream
        closes, so a waiting ``repro submit`` sees an orderly end of
        session rather than a reset.
        """
        for writer in list(self._writers):
            try:
                await _write(writer, encode_message("BYE", {}))
            except Exception:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
        self._writers.clear()

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        log = _log()
        self._writers.add(writer)
        try:
            await self._handshake(reader, writer, decoder)
            while True:
                try:
                    name, body = await _read_message(reader, decoder)
                except ConnectionClosed:
                    return
                if name == "BYE":
                    return
                if name == "PING":
                    await _write(writer, encode_message("PONG", body))
                    continue
                if name != "SUBMIT":
                    await _write(writer, encode_message(
                        "ERROR",
                        error_body("protocol", f"unexpected {name}"),
                    ))
                    return
                await self._serve_submit(writer, body)
        except (FrameError, HandshakeError, ConnectionResetError) as e:
            log.warning("client connection failed: %s", e)
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _handshake(self, reader, writer, decoder) -> None:
        name, body = await _read_message(reader, decoder)
        if name != "HELLO":
            await _write(writer, encode_message(
                "ERROR", error_body("protocol", f"expected HELLO, got {name}")
            ))
            raise HandshakeError(f"expected HELLO, client sent {name}")
        try:
            version = negotiate(body)
        except HandshakeError as e:
            await _write(writer, encode_message(
                "ERROR",
                error_body("version-mismatch", str(e),
                           supported=list(SUPPORTED_VERSIONS)),
            ))
            raise
        await _write(writer, encode_message(
            "WELCOME", welcome_body(version, "serve"), version=version
        ))

    async def _serve_submit(self, writer, request) -> None:
        loop = asyncio.get_running_loop()
        records: "asyncio.Queue" = asyncio.Queue()
        done = object()

        def forward(record: dict) -> None:
            loop.call_soon_threadsafe(records.put_nowait, record)

        async with self._lock:
            task = loop.run_in_executor(
                None, _execute_request, dict(request or {}), forward,
                self._run,
            )

            async def pump() -> None:
                while True:
                    rec = await records.get()
                    if rec is done:
                        return
                    await _write(writer, encode_message("PROGRESS", rec))

            pumper = asyncio.ensure_future(pump())
            try:
                outcome = await task
            except Exception as e:
                records.put_nowait(done)
                await pumper
                await _write(writer, encode_message("DONE", {
                    "ok": False,
                    "error": f"{type(e).__name__}: {e}",
                }))
                return
            records.put_nowait(done)
            await pumper
        await _write(writer, encode_message("DONE", outcome))


async def _serve_async(
    host: str, port: int, *, cache=None, transport=None, adapters=None,
    ready_stream=None, started: "asyncio.Event | None" = None,
) -> None:
    import signal
    import sys

    service = CampaignService(cache=cache, transport=transport,
                              adapters=adapters)
    server = await asyncio.start_server(service.handle, host, port)
    bound = server.sockets[0].getsockname()

    stream = ready_stream if ready_stream is not None else sys.stdout
    print(f"REPRO-SERVE LISTENING {bound[0]}:{bound[1]}",
          file=stream, flush=True)
    if started is not None:
        started.set()
    # Orderly shutdown on SIGINT/SIGTERM: stop accepting, BYE the open
    # connections, return — so the CLI's obs session flushes its trace
    # and the process exits 0 instead of dying in an asyncio traceback.
    # Where the loop can't own signals (non-main thread, non-Unix), the
    # KeyboardInterrupt fallback in run_serve covers Ctrl-C.
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    hooked: list = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            hooked.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    try:
        async with server:
            await stop.wait()
    finally:
        for sig in hooked:
            loop.remove_signal_handler(sig)
        server.close()
        await server.wait_closed()
        await service.shutdown()
        _log().info("serve: shut down cleanly")


def run_serve(
    host: str, port: int, *, cache=None, transport=None, adapters=None,
    ready_stream=None,
) -> None:
    """Run the campaign service until interrupted.

    ``cache`` is a directory for the campaign cache (``None`` keeps the
    ambient/environment cache — set one, or dedup is off); ``transport`` /
    ``adapters`` pick the dispatch fabric for every campaign the service
    runs, with the usual ``REPRO_FABRIC_*`` environment fallback. They
    form one run scope (:mod:`repro.runconfig`), installed around each
    request's execution, not around the accept loop, so nothing ambient
    leaks between requests.

    SIGINT/SIGTERM end the service cleanly: the listener closes, every
    open connection gets a ``BYE``, and the call returns (letting the CLI
    flush any obs trace) rather than surfacing an asyncio traceback.
    """
    try:
        asyncio.run(_serve_async(
            host, port, cache=cache, transport=transport, adapters=adapters,
            ready_stream=ready_stream,
        ))
    except KeyboardInterrupt:
        pass


# ---------------------------------------------------------------------------
# The client (``repro submit``)
# ---------------------------------------------------------------------------


def submit(
    host: str, port: int, request: dict, on_progress=None,
    timeout: float | None = None,
) -> dict:
    """Submit one campaign request and block for its DONE body.

    ``on_progress`` receives each streamed obs record dict as it arrives.
    Raises :class:`~repro.errors.HandshakeError` on version mismatch and
    :class:`~repro.errors.ProtocolError` kin on wire trouble; a campaign
    failure comes back as ``{"ok": False, "error": ...}`` rather than an
    exception, so the caller can render it.
    """
    transport: Transport = connect_tcp(host, port, timeout=timeout)
    try:
        transport.send_bytes(encode_message("HELLO", hello_body("client")))
        name, body = decode_message(transport.recv_frame(timeout=timeout))
        if name == "ERROR":
            code = body.get("code", "?") if isinstance(body, dict) else "?"
            raise HandshakeError(f"server rejected handshake ({code}): "
                                 f"{body.get('message') if isinstance(body, dict) else body}")
        if name != "WELCOME":
            raise HandshakeError(f"expected WELCOME, server sent {name}")
        transport.send_bytes(encode_message("SUBMIT", request))
        while True:
            name, body = decode_message(transport.recv_frame(timeout=timeout))
            if name == "PROGRESS":
                if on_progress is not None:
                    on_progress(body)
                continue
            if name == "DONE":
                return body
            if name == "ERROR":
                raise ConnectionClosed(
                    f"server error: {body.get('message') if isinstance(body, dict) else body}"
                )
    finally:
        transport.close()
