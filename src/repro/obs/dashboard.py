"""Live campaign dashboard: an in-place TTY status panel.

``--dashboard`` on ``repro fi`` / ``repro protect`` replaces the scrolling
heartbeat lines with a small panel repainted in place on every throttled
progress emit. The panel reads the *live merged* metrics of the installed
telemetry — worker deltas land there with each completed chunk — so
it shows, mid-campaign:

* throughput (done/total, rate, ETA) from the active progress reporter;
* worker health (``harness.*`` retries, crashes, timeouts, respawns);
* campaign-cache hit rate (``cache.*``);
* batch-engine detach rate and occupancy signals (``batch.*``).

The dashboard writes only to the progress stream (stderr by default) and
never emits trace records, so campaign outcomes and traces stay bit-identical
with it on or off. Repainting uses two ANSI sequences (cursor-up and
erase-below); on a dumb terminal the panel degrades to appended blocks.
"""

from __future__ import annotations

import sys

__all__ = ["Dashboard"]

_CURSOR_UP = "\x1b[{n}F"   # move to column 0, n lines up
_ERASE_BELOW = "\x1b[J"    # clear from cursor to end of screen


class Dashboard:
    """Throttled in-place renderer fed by ``ProgressReporter`` emits."""

    def __init__(self, stream=None, ansi: bool | None = None) -> None:
        self.stream = stream
        self._painted = 0   # lines currently on screen (0 = nothing yet)
        self._closed = False
        if ansi is None:
            out = stream if stream is not None else sys.stderr
            ansi = bool(getattr(out, "isatty", lambda: False)())
        self.ansi = ansi

    # ------------------------------------------------------------------
    def render(self, telemetry, reporter, final: bool = False) -> None:
        """Repaint the panel from the telemetry's current metrics."""
        if self._closed:
            return
        lines = self._lines(telemetry, reporter, final)
        out = self.stream if self.stream is not None else sys.stderr
        if self.ansi and self._painted:
            out.write(_CURSOR_UP.format(n=self._painted) + _ERASE_BELOW)
        out.write("\n".join(lines) + "\n")
        try:
            out.flush()
        except (AttributeError, OSError):
            pass
        self._painted = len(lines)

    def close(self) -> None:
        """Stop repainting; the last painted panel is left on screen."""
        self._closed = True

    # ------------------------------------------------------------------
    def _lines(self, telemetry, reporter, final: bool) -> list[str]:
        snap = telemetry.metrics.snapshot()
        counters = snap.get("counters", {})
        done, total = reporter.done, reporter.total
        pct = done / total if total else 1.0
        rate = reporter.rate()
        if final:
            eta = f"done in {reporter.elapsed():.1f}s"
        elif done and rate > 0:
            eta = f"eta {(total - done) / rate:.1f}s"
        else:
            eta = "eta ?"
        bar_w = 24
        fill = int(round(pct * bar_w))
        bar = "#" * fill + "-" * (bar_w - fill)
        lines = [
            f"[repro] {reporter.label}",
            f"  [{bar}] {done}/{total} ({pct:.0%}) | {rate:.1f}/s | {eta}",
        ]
        crashes = counters.get("harness.worker_crashes", 0)
        timeouts = counters.get("harness.worker_timeouts", 0)
        retries = counters.get("harness.retries", 0)
        respawns = counters.get("harness.pool_respawns", 0)
        degraded = counters.get("harness.degraded", 0)
        health = "ok" if not (crashes or timeouts or retries) else "recovering"
        if degraded:
            health = "degraded-to-serial"
        lines.append(
            f"  workers: {health} | crashes {crashes:g} | timeouts {timeouts:g}"
            f" | retries {retries:g} | respawns {respawns:g}"
        )
        hits = counters.get("cache.hit", 0)
        misses = counters.get("cache.miss", 0)
        lookups = hits + misses
        if lookups:
            lines.append(
                f"  cache: {hits / lookups:.1%} hit ({hits:g}/{lookups:g})"
                f" | writes {counters.get('cache.write', 0):g}"
            )
        btrials = counters.get("batch.trials", 0)
        if btrials:
            detached = counters.get("batch.detached", 0)
            lines.append(
                f"  batch: {detached / btrials:.1%} detached"
                f" ({detached:g}/{btrials:g})"
                f" | reconverged {counters.get('batch.reconverged', 0):g}"
                f" | batches {counters.get('batch.batches', 0):g}"
            )
        return lines
