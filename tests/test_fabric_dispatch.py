"""Fabric chunk dispatch: bit-identical campaigns on every transport.

The contract under test is the cross-cutting invariant of the whole
stack: a campaign dispatched through ``repro.fabric`` adapters — in-proc,
over a socketpair to spawned subprocesses, or over TCP loopback —
produces byte-identical outcomes to a serial in-process run, at any
worker count, and adapter loss mid-chunk is recovered by the ordinary
supervisor retry machinery (docs/FABRIC.md).
"""

from __future__ import annotations

import re
import socket
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.fabric.harness import pool_factory
from repro.fabric.transport import _adapter_env, adapter_command
from repro.fi.campaign import run_campaign
from repro.obs.core import session
from repro.obs.sink import MemorySink
from repro.runconfig import KNOBS, resolve, run_scope

ADDR_ENV = KNOBS["addrs"].env
TRANSPORT_ENV = KNOBS["transport"].env
CHAOS_ENV = KNOBS["chaos"].env
MAX_RETRIES_ENV = KNOBS["max_retries"].env

from tests.conftest import cached_app

FAULTS = 40
SEED = 7


def _kwargs(app):
    return dict(rel_tol=app.rel_tol, abs_tol=app.abs_tol)


@pytest.fixture(scope="module")
def needle():
    return cached_app("needle")


@pytest.fixture(scope="module")
def serial(needle):
    a, b = needle.encode(needle.reference_input)
    return run_campaign(
        needle.program, FAULTS, SEED, args=a, bindings=b, **_kwargs(needle)
    )


@pytest.fixture(scope="module")
def tcp_adapters():
    """Two standalone TCP adapters on loopback, reaped after the module."""
    procs, addrs = [], []
    for _ in range(2):
        proc = subprocess.Popen(
            adapter_command(["--listen", "127.0.0.1:0"]),
            stdout=subprocess.PIPE, env=_adapter_env(), text=True,
        )
        line = proc.stdout.readline()
        m = re.search(r"FABRIC-ADAPTER LISTENING (\S+)", line)
        assert m, f"no ready line from adapter: {line!r}"
        procs.append(proc)
        addrs.append(m.group(1))
    yield addrs
    for proc in procs:
        proc.kill()
        proc.wait(timeout=10)


class TestByteIdenticalAcrossTransports:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("transport", ["inproc", "socketpair"])
    def test_local_transports(self, needle, serial, transport, workers):
        a, b = needle.encode(needle.reference_input)
        with run_scope(transport=transport):
            got = run_campaign(
                needle.program, FAULTS, SEED, args=a, bindings=b,
                workers=workers, **_kwargs(needle),
            )
        assert got.per_fault == serial.per_fault
        assert got.counts == serial.counts

    @pytest.mark.parametrize("workers", [0, 2])
    def test_tcp_loopback(self, needle, serial, tcp_adapters, workers):
        a, b = needle.encode(needle.reference_input)
        with run_scope(transport="tcp", addrs=",".join(tcp_adapters)):
            got = run_campaign(
                needle.program, FAULTS, SEED, args=a, bindings=b,
                workers=workers, **_kwargs(needle),
            )
        assert got.per_fault == serial.per_fault
        assert got.counts == serial.counts

    def test_tcp_pool_keeps_its_live_adapter(self, needle, serial,
                                             tcp_adapters):
        """One live adapter and one closed port: the live adapter serves
        every chunk, and the pool never breaks or degrades."""
        a, b = needle.encode(needle.reference_input)
        with socket.socket() as s:  # a port nothing listens on
            s.bind(("127.0.0.1", 0))
            closed = f"127.0.0.1:{s.getsockname()[1]}"
        addrs = f"{tcp_adapters[0]},{closed}"
        with session(sink=MemorySink()) as t, \
                run_scope(transport="tcp", addrs=addrs):
            got = run_campaign(
                needle.program, FAULTS, SEED, args=a, bindings=b,
                workers=2, **_kwargs(needle),
            )
            counters = t.metrics.snapshot()["counters"]
        assert got.per_fault == serial.per_fault
        assert got.counts == serial.counts
        assert "harness.pool_respawns" not in counters
        assert "harness.degraded" not in counters

    def test_explicit_transport_argument_wins(self, needle, serial):
        a, b = needle.encode(needle.reference_input)
        got = run_campaign(
            needle.program, FAULTS, SEED, args=a, bindings=b,
            workers=2, transport="socketpair", **_kwargs(needle),
        )
        assert got.per_fault == serial.per_fault


class TestDisconnectRecovery:
    def test_adapter_death_mid_chunk_retries_on_survivor(
        self, needle, serial, monkeypatch
    ):
        """A chaos-crashed adapter subprocess drops its connection mid-chunk;
        the supervisor retries the chunk on a surviving adapter and the
        campaign stays byte-identical."""
        monkeypatch.setenv(CHAOS_ENV, "crash@1")
        monkeypatch.setenv(MAX_RETRIES_ENV, "3")
        a, b = needle.encode(needle.reference_input)
        with session(sink=MemorySink()) as t, run_scope(transport="socketpair"):
            got = run_campaign(
                needle.program, FAULTS, SEED, args=a, bindings=b,
                workers=2, **_kwargs(needle),
            )
            counters = t.metrics.snapshot()["counters"]
        assert got.per_fault == serial.per_fault
        assert got.counts == serial.counts
        assert counters.get("fabric.disconnects", 0) >= 1
        assert counters.get("harness.retries", 0) >= 1
        # The lost connection was replaced: more handshakes than slots.
        assert counters["fabric.adapters_connected"] >= 3
        # The drop and the retry it caused are attributed to the specific
        # adapter that died (per-label counters feed the per-adapter
        # columns of the "Fabric health" report table).
        dropped = [k for k in counters if k.startswith("fabric.disconnects.")]
        assert dropped and all(counters[k] >= 1 for k in dropped)
        assert any(
            k.replace("disconnects", "retries") in counters for k in dropped
        )

    def test_chunks_are_attributed_per_adapter_label(self, needle):
        a, b = needle.encode(needle.reference_input)
        with session(sink=MemorySink()) as t, run_scope(transport="inproc"):
            run_campaign(
                needle.program, 10, SEED, args=a, bindings=b,
                workers=2, **_kwargs(needle),
            )
            counters = t.metrics.snapshot()["counters"]
        assert counters.get("fabric.chunks.inproc", 0) >= 1

    def test_inproc_adapter_strips_chaos(self, needle, serial, monkeypatch):
        """The in-process adapter must never execute a chaos crash directive
        — it would take the host down — so the supervisor strips chaos for
        pools advertising ``supports_chaos = False``."""
        monkeypatch.setenv(CHAOS_ENV, "crash@1")
        a, b = needle.encode(needle.reference_input)
        with run_scope(transport="inproc"):
            got = run_campaign(
                needle.program, FAULTS, SEED, args=a, bindings=b,
                workers=2, **_kwargs(needle),
            )
        assert got.per_fault == serial.per_fault


class TestTransportResolution:
    def test_precedence_explicit_over_scope_over_env(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV, "socketpair")
        assert resolve().transport == "socketpair"
        with run_scope(transport="inproc"):
            assert resolve().transport == "inproc"
            assert resolve(transport="local").transport == "local"
        monkeypatch.delenv(TRANSPORT_ENV)
        assert resolve().transport == "local"

    def test_unknown_transport_is_a_config_error(self):
        with pytest.raises(ConfigError, match="transport"):
            resolve(transport="carrier-pigeon")

    def test_tcp_without_endpoints_is_a_config_error(self, monkeypatch):
        monkeypatch.delenv(ADDR_ENV, raising=False)
        with pytest.raises(ConfigError, match="endpoint"):
            resolve(transport="tcp")

    def test_local_yields_no_pool_factory(self):
        run = resolve(transport="local")
        assert run.transport == "local" and pool_factory(run) is None

    def test_fabric_counters_only_appear_on_fabric_runs(self, needle):
        a, b = needle.encode(needle.reference_input)
        with session(sink=MemorySink()) as t:
            run_campaign(
                needle.program, 10, SEED, args=a, bindings=b,
                workers=2, **_kwargs(needle),
            )
            counters = t.metrics.snapshot()["counters"]
        assert not any(k.startswith("fabric.") for k in counters)
