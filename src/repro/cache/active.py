"""``cache_scope(spec)``: a run scope that sets only the campaign cache.

The cache is the ``cache`` field of :mod:`repro.runconfig`; new code calls
``run_scope(cache=spec)`` directly.
"""

from __future__ import annotations

from repro.runconfig import run_scope

__all__ = ["cache_scope"]


def cache_scope(spec):  # bench/study.py imports it
    return run_scope(cache=spec)
