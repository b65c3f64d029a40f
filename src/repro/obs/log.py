"""Diagnostic logging honoring ``-v``/``--log-level``.

All diagnostic output (anything that is *about* a run rather than a result)
goes through the ``repro`` logger to **stderr**, keeping stdout clean for
machine-readable tables and IR. The default level is WARNING, so library use
stays silent; the CLI raises it with ``-v`` (INFO) / ``-vv`` (DEBUG) or an
explicit ``--log-level``.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["get_logger", "configure_logging", "resolve_level"]

_ROOT = logging.getLogger("repro")
_ROOT.addHandler(logging.NullHandler())

LEVELS = ("debug", "info", "warning", "error", "critical")


def get_logger(name: str | None = None) -> logging.Logger:
    """The ``repro`` logger, or a child of it."""
    return _ROOT.getChild(name) if name else _ROOT


def resolve_level(verbose: int = 0, log_level: str | None = None) -> int:
    """Map CLI flags to a logging level; an explicit ``--log-level`` wins."""
    if log_level:
        return getattr(logging, log_level.upper())
    if verbose >= 2:
        return logging.DEBUG
    if verbose == 1:
        return logging.INFO
    return logging.WARNING


class _StderrHandler(logging.StreamHandler):
    """A stream handler that writes to ``sys.stderr`` as it is at emit time.

    Binding the object current at configuration time breaks once that
    object is closed (a test harness's capture stream, say): every later
    record would print ``--- Logging error ---`` and be lost.
    """

    def __init__(self) -> None:
        super().__init__(sys.stderr)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:
        pass  # always the current sys.stderr


def configure_logging(
    verbose: int = 0,
    log_level: str | None = None,
    stream=None,
) -> logging.Logger:
    """Install a stderr handler on the ``repro`` logger and set its level.

    Without an explicit ``stream`` the handler looks ``sys.stderr`` up on
    every record. Idempotent: reconfiguring replaces the previous handler,
    so repeated CLI invocations in one process (the test suite) never stack
    handlers.
    """
    handler = (logging.StreamHandler(stream) if stream is not None
               else _StderrHandler())
    handler.setFormatter(
        logging.Formatter("[repro] %(levelname)s %(name)s: %(message)s")
    )
    _ROOT.handlers[:] = [h for h in _ROOT.handlers
                         if isinstance(h, logging.NullHandler)]
    _ROOT.addHandler(handler)
    _ROOT.setLevel(resolve_level(verbose, log_level))
    return _ROOT
