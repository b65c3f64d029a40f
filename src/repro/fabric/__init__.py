"""Distributed campaign fabric: harness/adapter split over a wire protocol.

The fabric turns FI worker dispatch transport-agnostic. The *harness* side
(:mod:`repro.fabric.harness`) keeps the chunk supervisor of
:mod:`repro.util.supervisor` as its scheduler — retries, deadlines, chaos
injection, and bit-identical reassembly carry over unchanged — but ships
chunks to *adapters* instead of pool workers. An adapter
(:mod:`repro.fabric.adapter`) wraps the existing campaign worker entry
points behind a CRC-framed, length-prefixed, versioned byte protocol
(:mod:`repro.fabric.frames` / :mod:`repro.fabric.protocol`) spoken over
pluggable transports (:mod:`repro.fabric.transport`): in-process byte
pipes, subprocess socketpairs, and TCP sockets. On top,
:mod:`repro.fabric.serve` is an asyncio service front-end (``repro serve``
/ ``repro submit``) that accepts campaign requests over the same protocol,
dedupes them through the content-addressed campaign cache, and streams
progress/span obs events back to clients.

The full wire-protocol specification lives in ``docs/FABRIC.md``;
``scripts/doc_lint.py`` keeps its message-type table in lockstep with
:data:`repro.fabric.protocol.MESSAGES`.
"""

from repro.fabric.frames import (
    FrameDecoder,
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    encode_frame,
)
from repro.fabric.harness import TRANSPORTS, FabricPool, pool_factory
from repro.fabric.protocol import MESSAGES, MessageSpec

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "HEADER_SIZE",
    "FrameDecoder",
    "encode_frame",
    "MESSAGES",
    "MessageSpec",
    "TRANSPORTS",
    "FabricPool",
    "pool_factory",
]
