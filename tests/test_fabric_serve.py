"""The campaign service: ``repro serve`` / ``repro submit``.

Exercises the service end to end over TCP loopback: SUBMIT streams
PROGRESS records and a DONE body, a repeated identical request answers
from the content-addressed cache with zero trials dispatched, campaign
failures come back structured, and handshake-version skew is rejected
before any request is read.
"""

from __future__ import annotations

import io
import logging
import re
import threading
import time

import pytest

from repro.errors import HandshakeError
from repro.fabric.frames import FrameDecoder
from repro.fabric.protocol import (
    decode_message,
    encode_message,
    hello_body,
)
from repro.fabric.serve import run_serve, submit
from repro.fabric.transport import connect_tcp
from repro.fi.campaign import run_campaign

from tests.conftest import cached_app

FAULTS = 30
SEED = 5


class _ReadyPipe(io.TextIOBase):
    """Captures the server's LISTENING ready line and signals the port."""

    def __init__(self):
        self.event = threading.Event()
        self.addr = None

    def write(self, text):
        m = re.search(r"REPRO-SERVE LISTENING (\S+):(\d+)", text)
        if m:
            self.addr = (m.group(1), int(m.group(2)))
            self.event.set()
        return len(text)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """A serve loop on a free loopback port with a module-scoped cache."""
    cache = tmp_path_factory.mktemp("serve-cache")
    ready = _ReadyPipe()
    thread = threading.Thread(
        target=run_serve,
        args=("127.0.0.1", 0),
        kwargs={"cache": str(cache), "ready_stream": ready},
        daemon=True,
    )
    thread.start()
    assert ready.event.wait(timeout=20), "serve never announced its port"
    return ready.addr


def _wait_for_warning(caplog, text: str, timeout: float = 20.0) -> None:
    """Wait until the server thread logs a warning containing ``text``.

    The server logs a rejected connection after answering it, so the
    client side of a test finishes first; waiting keeps the record inside
    the test that caused it.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(
            r.levelno == logging.WARNING and text in r.getMessage()
            for r in caplog.records
        ):
            return
        time.sleep(0.01)
    pytest.fail(f"the server never logged a warning containing {text!r}")


def _request(**extra):
    app = cached_app("needle")
    req = {
        "app": "needle", "n_faults": FAULTS, "seed": SEED,
        "rel_tol": app.rel_tol, "abs_tol": app.abs_tol,
    }
    req.update(extra)
    return req


class TestSubmit:
    def test_first_submit_runs_and_streams_progress(self, server):
        host, port = server
        records = []
        outcome = submit(
            host, port, _request(), on_progress=records.append, timeout=60
        )
        assert outcome["ok"] is True
        assert outcome["app"] == "needle"
        assert outcome["trials"] == FAULTS
        assert outcome["dispatched"] == FAULTS
        assert outcome["cached"] is False
        # The PROGRESS stream is real obs telemetry, not a placeholder.
        kinds = {r.get("kind") for r in records if isinstance(r, dict)}
        assert "span" in kinds or "event" in kinds

    def test_repeat_submit_answers_from_cache_zero_dispatch(self, server):
        host, port = server
        first = submit(host, port, _request(), timeout=60)
        again = submit(host, port, _request(), timeout=60)
        assert again["dispatched"] == 0
        assert again["cached"] is True
        assert again["counts"] == first["counts"]
        assert again["sdc_probability"] == first["sdc_probability"]

    def test_outcome_matches_a_local_campaign(self, server):
        host, port = server
        app = cached_app("needle")
        a, b = app.encode(app.reference_input)
        local = run_campaign(
            app.program, FAULTS, SEED, args=a, bindings=b,
            rel_tol=app.rel_tol, abs_tol=app.abs_tol,
        )
        remote = submit(host, port, _request(), timeout=60)
        assert remote["sdc_probability"] == local.sdc_probability
        assert remote["counts"] == {
            o.value: n for o, n in local.counts.counts.items() if n
        }

    def test_explicit_input_record(self, server):
        host, port = server
        app = cached_app("needle")
        inp = dict(app.reference_input)
        outcome = submit(host, port, _request(input=inp), timeout=60)
        assert outcome["ok"] is True and outcome["trials"] == FAULTS

    def test_bad_request_fails_structured_not_fatal(self, server):
        host, port = server
        outcome = submit(
            host, port, {"app": "no-such-benchmark"}, timeout=60
        )
        assert outcome["ok"] is False
        assert "no-such-benchmark" in outcome["error"]
        # The server survives: the next submit still works.
        assert submit(host, port, _request(), timeout=60)["ok"] is True

    def test_multiple_submits_on_one_connection(self, server):
        """The session loop serves sequential SUBMITs until BYE/close."""
        host, port = server
        transport = connect_tcp(host, port, timeout=20)
        try:
            transport.send_bytes(
                encode_message("HELLO", hello_body("client"))
            )
            name, _ = decode_message(transport.recv_frame(timeout=20))
            assert name == "WELCOME"
            for _ in range(2):
                transport.send_bytes(encode_message("SUBMIT", _request()))
                while True:
                    name, body = decode_message(
                        transport.recv_frame(timeout=60)
                    )
                    if name == "DONE":
                        assert body["ok"] is True
                        break
                    assert name == "PROGRESS"
        finally:
            transport.close()


class TestServeHandshake:
    def test_version_mismatch_rejected(self, server, caplog):
        host, port = server
        caplog.set_level(logging.WARNING, logger="repro")
        transport = connect_tcp(host, port, timeout=20)
        try:
            transport.send_bytes(encode_message(
                "HELLO", dict(hello_body("client"), versions=[999])
            ))
            name, body = decode_message(transport.recv_frame(timeout=20))
            assert name == "ERROR"
            assert body["code"] == "version-mismatch"
        finally:
            transport.close()
        _wait_for_warning(caplog, "no common protocol version")

    def test_client_raises_handshake_error_on_rejection(
        self, server, monkeypatch, caplog
    ):
        host, port = server
        import repro.fabric.serve as serve_mod

        caplog.set_level(logging.WARNING, logger="repro")
        monkeypatch.setattr(
            serve_mod, "hello_body",
            lambda role: dict(role=role, versions=[999]),
        )
        with pytest.raises(HandshakeError, match="version-mismatch"):
            submit(host, port, _request(), timeout=20)
        _wait_for_warning(caplog, "no common protocol version")

    def test_submit_before_hello_is_a_protocol_error(self, server, caplog):
        host, port = server
        caplog.set_level(logging.WARNING, logger="repro")
        transport = connect_tcp(host, port, timeout=20)
        try:
            transport.send_bytes(encode_message("SUBMIT", _request()))
            name, body = decode_message(transport.recv_frame(timeout=20))
            assert name == "ERROR" and body["code"] == "protocol"
        finally:
            transport.close()
        _wait_for_warning(caplog, "expected HELLO, client sent SUBMIT")

    def test_decoder_survives_frame_split_across_tcp_reads(self, server):
        """Sanity: the server's incremental decoder reassembles a HELLO
        deliberately dribbled one byte at a time."""
        host, port = server
        transport = connect_tcp(host, port, timeout=20)
        try:
            data = encode_message("HELLO", hello_body("client"))
            for i in range(0, len(data), 7):
                transport._sock.sendall(data[i:i + 7])
            name, _ = decode_message(transport.recv_frame(timeout=20))
            assert name == "WELCOME"
        finally:
            transport.close()

    def test_decoder_is_importable_for_clients(self):
        # submit() builds on the same FrameDecoder the server uses.
        assert FrameDecoder().at_boundary()


class TestCleanShutdown:
    """SIGTERM/SIGINT end ``repro serve`` cleanly (no asyncio traceback):
    the listener closes, open connections get a ``BYE``, and the process
    exits 0 so a ``--trace`` obs session can flush."""

    @pytest.mark.parametrize("sig", ["SIGTERM", "SIGINT"])
    def test_signal_closes_listener_and_byes_clients(self, sig):
        import signal
        import subprocess
        import sys

        from repro.fabric.transport import _adapter_env

        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.fabric.serve import run_serve\n"
             "run_serve('127.0.0.1', 0)\n"
             "print('SERVE-RETURNED', flush=True)\n"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_adapter_env(), text=True,
        )
        try:
            line = proc.stdout.readline()
            m = re.search(r"REPRO-SERVE LISTENING (\S+):(\d+)", line)
            assert m, f"no ready line: {line!r}"
            transport = connect_tcp(m.group(1), int(m.group(2)), timeout=20)
            try:
                transport.send_bytes(
                    encode_message("HELLO", hello_body("client"))
                )
                name, _ = decode_message(transport.recv_frame(timeout=20))
                assert name == "WELCOME"
                proc.send_signal(getattr(signal, sig))
                name, _ = decode_message(transport.recv_frame(timeout=20))
                assert name == "BYE"
            finally:
                transport.close()
            out, err = proc.communicate(timeout=20)
            assert proc.returncode == 0, err
            assert "SERVE-RETURNED" in out  # run_serve returned, not died
            assert "Traceback" not in err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
