"""The adapter side of the fabric: a wire-protocol shell around FI workers.

An adapter is what a pool worker becomes when the pool is replaced by a
byte stream. It accepts the handshake, then serves a simple request loop:

* ``INIT`` — run the initializer it carries, if any. The harness sends
  none: its pool serves a whole run scope, so each campaign's context
  (``repro.fi.campaign._init_worker`` and its arguments) rides in the
  chunk payloads instead and runs once per map before the first item;
* ``CHUNK`` — execute one supervisor chunk payload through
  :func:`repro.util.supervisor._run_chunk` (the *same* entry pool workers
  use, so metric scrubbing, chaos triggers, and worker-obs installation
  carry over byte-for-byte) and answer ``RESULT``, or ``CHUNK_ERROR``
  carrying the raised exception;
* ``PING``/``BYE`` — liveness probe and clean shutdown.

Because worker entries call ``_ensure_worker_obs`` themselves, an adapter
subprocess ships drained metric deltas and span subtrees home inside each
``RESULT`` with no fabric-specific obs code at all. An *in-process*
adapter (``allow_chaos=False``) instead shares the harness session — and
must therefore never execute chaos faults, whose ``crash`` kind is
``os._exit``; chunk payloads are scrubbed of chaos before running.

Run standalone with either end of the transport spectrum::

    python -m repro.fabric.adapter --fd 5            # inherited socketpair
    python -m repro.fabric.adapter --listen :9440    # TCP server
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading

from repro.errors import ConnectionClosed, FrameError, HandshakeError
from repro.fabric.protocol import (
    decode_message,
    encode_message,
    error_body,
    handshake_accept,
)
from repro.fabric.transport import (
    InprocTransport,
    SocketTransport,
    Transport,
    inproc_pair,
    parse_addr,
)

__all__ = ["run_adapter", "spawn_inproc_adapter", "serve_forever", "main"]


def _log():
    from repro.obs.log import get_logger

    return get_logger("fabric.adapter")


def run_adapter(
    transport: Transport,
    *,
    allow_chaos: bool = True,
    name: str | None = None,
) -> None:
    """Serve one harness connection until BYE or disconnect.

    ``allow_chaos=False`` marks an adapter sharing the harness process (the
    inproc transport): any :class:`~repro.util.supervisor.ChaosFault` list in
    a chunk payload is replaced with ``()`` so an injected ``os._exit`` can
    never take the harness down with it.

    ``name`` registers this adapter's chaos identity
    (:func:`repro.util.supervisor.set_chaos_identity`), making it
    addressable by targeted ``REPRO_CHAOS`` directives like
    ``crash@*#*@name`` — the sticky-bad-host hook the fleet tests use.
    """
    from repro.util.supervisor import _run_chunk, set_chaos_identity

    if name is not None:
        set_chaos_identity(name)

    try:
        handshake_accept(transport, role="adapter")
    except (HandshakeError, FrameError, ConnectionClosed):
        transport.close()
        return
    try:
        while True:
            try:
                name, body = decode_message(transport.recv_frame())
            except ConnectionClosed:
                return
            if name == "BYE":
                return
            if name == "PING":
                transport.send_bytes(encode_message("PONG", body))
                continue
            if name == "INIT":
                try:
                    initializer = body.get("initializer")
                    if initializer is not None:
                        initializer(*body.get("initargs", ()))
                except BaseException as e:
                    transport.send_bytes(
                        encode_message(
                            "ERROR",
                            error_body(
                                "init-failed",
                                f"{type(e).__name__}: {e}",
                            ),
                        )
                    )
                    return
                continue
            if name == "CHUNK":
                _serve_chunk(transport, body, _run_chunk, allow_chaos)
                continue
            transport.send_bytes(
                encode_message(
                    "ERROR",
                    error_body("protocol", f"unexpected message {name}"),
                )
            )
            return
    finally:
        transport.close()


def _serve_chunk(
    transport: Transport, body: dict, _run_chunk, allow_chaos: bool
) -> None:
    chunk_id = body.get("id")
    payload = body.get("payload")
    if not allow_chaos and payload is not None:
        fn, items, index, attempt, _chaos = payload
        payload = (fn, items, index, attempt, ())
    try:
        value = _run_chunk(payload)
    except BaseException as e:
        # fn's exception rides home for the supervisor's "error" retry
        # path; an unpicklable one degrades to its repr.
        try:
            frame = encode_message(
                "CHUNK_ERROR", {"id": chunk_id, "error": e}
            )
        except Exception:
            frame = encode_message(
                "CHUNK_ERROR",
                {"id": chunk_id, "error": None,
                 "repr": f"{type(e).__name__}: {e}"},
            )
        transport.send_bytes(frame)
        return
    transport.send_bytes(encode_message("RESULT", {"id": chunk_id, "value": value}))


def spawn_inproc_adapter() -> tuple[Transport, threading.Thread]:
    """An adapter running as a daemon thread of this process.

    Returns the harness-side transport. The thread serves with
    ``allow_chaos=False`` (see :func:`run_adapter`) and exits when the
    harness closes its end.
    """
    harness_end, adapter_end = inproc_pair()
    thread = threading.Thread(
        target=run_adapter,
        args=(adapter_end,),
        kwargs={"allow_chaos": False},
        name="repro-fabric-inproc-adapter",
        daemon=True,
    )
    thread.start()
    return harness_end, thread


# ---------------------------------------------------------------------------
# Standalone entry (socketpair child / TCP server)
# ---------------------------------------------------------------------------


def serve_forever(
    host: str, port: int, *, once: bool = False, ready_stream=None,
    name: str | None = None,
) -> None:
    """Listen on TCP and serve harness connections one at a time.

    Chunk execution pins per-process worker state (program caches, trial
    context), so connections are served sequentially — parallelism comes
    from running more adapters, which is also what keeps one adapter's
    crash from taking out another's chunks. Prints
    ``FABRIC-ADAPTER LISTENING host:port`` (actual port, so ``:0`` works)
    once the socket is bound.
    """
    srv = socket.create_server((host, port))
    bound_host, bound_port = srv.getsockname()[:2]
    stream = ready_stream if ready_stream is not None else sys.stdout
    print(f"FABRIC-ADAPTER LISTENING {bound_host}:{bound_port}",
          file=stream, flush=True)
    log = _log()
    try:
        while True:
            conn, peer = srv.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            label = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else "peer"
            log.info("harness connected from %s", label)
            try:
                run_adapter(SocketTransport(conn, label=label), name=name)
            except Exception:
                log.exception("connection from %s failed", label)
            if once:
                return
    finally:
        srv.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric.adapter",
        description="Serve repro fabric chunks over a socket "
                    "(see docs/FABRIC.md).",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--fd", type=int, metavar="N",
        help="serve one connection on inherited socket file descriptor N",
    )
    group.add_argument(
        "--listen", metavar="HOST:PORT",
        help="listen for harness TCP connections (:0 picks a free port)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="with --listen: exit after the first connection closes",
    )
    parser.add_argument(
        "--name", metavar="NAME", default=None,
        help="chaos identity for targeted REPRO_CHAOS directives "
        "(kind@chunk@NAME); default: the REPRO_CHAOS_IDENTITY environment",
    )
    args = parser.parse_args(argv)
    if args.fd is not None:
        sock = socket.socket(fileno=args.fd)
        run_adapter(SocketTransport(sock, label="harness"), name=args.name)
        return 0
    host, port = parse_addr(args.listen)
    serve_forever(host, port, once=args.once, name=args.name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
