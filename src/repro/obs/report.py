"""Trace summarization: the ``repro obs report`` subcommand.

Reads a JSONL trace produced under ``--trace`` and renders:

* the **phase breakdown** (Fig. 8 style) — exclusive seconds per phase
  name from the phase spans, plus the traced time outside any phase;
* the **campaign table** — one row per FI campaign with outcome counts and
  the wall time and throughput of its ``campaign`` span;
* the **campaign-cache effectiveness** table (hits, misses, writes, hit
  rate) whenever the run consulted a result cache;
* the **harness health** table (chunk retries, worker crashes/timeouts,
  pool respawns, serial degradations) whenever the supervisor had to
  recover from a worker failure;
* the **fabric health** table (adapters seen, chunks per adapter,
  reconnects, handshake failures) whenever campaigns dispatched over a
  :mod:`repro.fabric` transport (docs/FABRIC.md);
* the **static-model table** (predictions, section-summary cache hit rate,
  hybrid verify split, per-app rank agreement) whenever the run used
  :mod:`repro.analysis`;
* the **detector-configurations table** (per-detector assignment mix,
  predicted vs. measured overhead and coverage, per-kind detection splits)
  whenever the run validated :mod:`repro.detectors` configurations;
* the **final counters** from the trailing summary record (VM steps,
  checkpoint restores, GA generations, …);
* the **perf references** table — every ``BENCH_*.json`` artifact found
  under ``--bench-dir``, checked ReFrame-style against the tolerance bands
  the bench declared for its headline keys (see :mod:`repro.util.benchmeta`).

The report is tolerant of truncated traces (a crashed run has no summary
record); ``scripts/trace_lint.py`` is the strict half.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fi.outcome import Outcome
from repro.obs.schema import lint_records
from repro.obs.spans import phase_seconds, span_records
from repro.util.benchmeta import reference_status
from repro.util.tables import format_table

__all__ = ["load_trace", "perf_references_table", "render_report"]


def load_trace(
    path: str | Path,
    *,
    tolerate_torn_tail: bool = False,
    warnings: list[str] | None = None,
) -> list[dict]:
    """Parse a JSONL trace file into its record list.

    Mid-file garbage always raises — that is corruption, not truncation. With
    ``tolerate_torn_tail`` the one case a crashed run legitimately produces —
    a half-written *final* line (torn write) — is dropped instead, appending
    a note to ``warnings`` when a list is supplied. ``scripts/trace_lint.py``
    stays strict by never setting the flag.
    """
    records = []
    lines = [
        (i, line)
        for i, line in enumerate(Path(path).read_text().splitlines(), 1)
        if line.strip()
    ]
    for pos, (i, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            if tolerate_torn_tail and pos == len(lines) - 1:
                if warnings is not None:
                    warnings.append(
                        f"{path}:{i}: dropped torn final line ({e.msg})"
                    )
                break
            raise ValueError(f"{path}:{i}: invalid trace line ({e.msg})") from e
    return records


def _phase_table(records: list[dict], wall: float) -> str | None:
    """Exclusive seconds per phase, as shares of the traced ``wall`` time."""
    totals = phase_seconds(records)
    if not totals:
        return None
    inside = sum(totals.values())

    def row(label: str, sec: float) -> list[str]:
        return [label, f"{sec:.3f}s", f"{sec / wall:.1%}" if wall > 0 else "-"]

    rows = [
        row(name, sec)
        for name, sec in sorted(totals.items(), key=lambda kv: -kv[1])
    ]
    rows += [
        row("inside any phase", inside),
        row("outside any phase", wall - inside),
        row("traced wall time", wall),
    ]
    return format_table(
        ["Phase", "Seconds", "Share"], rows,
        title="Phase breakdown (exclusive time, Fig. 8 style)",
    )


def _campaign_table(records: list[dict]) -> str | None:
    begun: dict[str, dict] = {}
    wall = {
        r["campaign"]: r["fields"].get("seconds", 0.0)
        for r in span_records(records) if r["name"] == "campaign"
    }
    rows = []
    outcome_names = [o.value for o in Outcome]
    for rec in records:
        if rec.get("kind") != "event":
            continue
        cid = rec.get("campaign")
        if rec["name"] == "campaign.begin" and cid:
            begun[cid] = rec["fields"]
        elif rec["name"] == "campaign.end" and cid:
            f = rec["fields"]
            outcomes = f.get("outcomes", {})
            trials = f.get("trials", 0)
            seconds = wall.get(cid, 0.0)
            rate = trials / seconds if seconds > 0 else 0.0
            rows.append(
                [cid, f.get("label", begun.get(cid, {}).get("label", "?"))]
                + [str(outcomes.get(o, 0)) for o in outcome_names]
                + [str(trials), f"{seconds:.2f}s", f"{rate:.1f}"]
            )
            begun.pop(cid, None)
    for cid, f in begun.items():  # began but never ended (truncated trace)
        rows.append(
            [cid, f.get("label", "?")] + ["-"] * len(outcome_names)
            + [str(f.get("trials", "?")), "(unfinished)", "-"]
        )
    if not rows:
        return None
    return format_table(
        ["Campaign", "Label"] + outcome_names + ["Trials", "Wall", "Trials/s"],
        rows,
        title="FI campaigns: outcomes and throughput",
    )


def _span_table(records: list[dict]) -> str | None:
    """Span rollup: count and total seconds per span name (schema v2)."""
    totals: dict[str, list[float]] = {}
    for rec in records:
        if rec.get("kind") != "span":
            continue
        sec = rec.get("fields", {}).get("seconds", 0.0)
        if not isinstance(sec, (int, float)):
            sec = 0.0
        agg = totals.setdefault(rec["name"], [0, 0.0])
        agg[0] += 1
        agg[1] += sec
    if not totals:
        return None
    rows = [
        [name, str(int(n)), f"{sec:.3f}s"]
        for name, (n, sec) in sorted(totals.items(), key=lambda kv: -kv[1][1])
    ]
    return format_table(
        ["Span", "Count", "Total"], rows,
        title="Span rollup (inclusive time; see `repro obs export` for the tree)",
    )


def _summary_counters(records: list[dict]) -> dict:
    summary = next(
        (r for r in reversed(records) if r.get("kind") == "summary"), None
    )
    if summary is None:
        return {}
    return summary.get("fields", {}).get("counters", {}) or {}


def _cache_table(records: list[dict]) -> str | None:
    """Store effectiveness. Golden-profile reads (:mod:`repro.vm.profiler`)
    share the store; their hits and misses are shown apart, so the hit
    rate stays the campaigns'."""
    counters = _summary_counters(records)
    if not any(k.startswith("cache.") for k in counters):
        return None
    served = counters.get("vm.profile_cache_hits", 0)
    profile_misses = counters.get("vm.profile_cache_misses", 0)
    hits = counters.get("cache.hit", 0) - served
    misses = counters.get("cache.miss", 0) - profile_misses
    lookups = hits + misses
    rows = [
        ["lookups", f"{lookups:g}"],
        ["hits", f"{hits:g}"],
        ["misses", f"{misses:g}"],
        ["hit rate", f"{hits / lookups:.1%}" if lookups else "-"],
        ["golden profiles served", f"{served:g}"],
        ["golden-profile misses", f"{profile_misses:g}"],
        ["writes", f"{counters.get('cache.write', 0):g}"],
        ["corrupt entries", f"{counters.get('cache.corrupt', 0):g}"],
        ["evicted entries", f"{counters.get('cache.evicted', 0):g}"],
    ]
    return format_table(
        ["Cache", "Value"], rows, title="Campaign cache effectiveness"
    )


def _harness_table(records: list[dict]) -> str | None:
    """Supervisor health: retries, crashes, hangs, degradations.

    All-zero on a healthy run, so the section only appears when the
    harness actually had to recover from something (or gave up).
    """
    counters = _summary_counters(records)
    if not any(k.startswith("harness.") for k in counters):
        return None
    rows = [
        ["chunk retries", f"{counters.get('harness.retries', 0):g}"],
        ["worker crashes", f"{counters.get('harness.worker_crashes', 0):g}"],
        ["worker timeouts", f"{counters.get('harness.worker_timeouts', 0):g}"],
        ["worker errors", f"{counters.get('harness.worker_errors', 0):g}"],
        ["pool respawns", f"{counters.get('harness.pool_respawns', 0):g}"],
        ["degraded to serial", f"{counters.get('harness.degraded', 0):g}"],
        ["chunks failed", f"{counters.get('harness.chunks_failed', 0):g}"],
    ]
    return format_table(
        ["Harness", "Value"], rows, title="Harness health (worker recovery)"
    )


def _fabric_table(records: list[dict]) -> str | None:
    """Dispatch-fabric health: fleet-wide totals plus per-adapter columns.

    Appears only when campaigns ran over a :mod:`repro.fabric` transport —
    ``fabric.*`` counters are infra-only telemetry (docs/FABRIC.md), so a
    local-pool run has none and the section vanishes. Each adapter the
    harness talked to gets its own health row (chunks served, retries it
    caused, mid-chunk disconnects), built from the per-adapter labels on
    the ``fabric.chunks.*`` / ``fabric.retries.*`` /
    ``fabric.disconnects.*`` counters — the same taxonomy the fleet
    simulator applies to defective hosts (:mod:`repro.util.health`).
    """
    counters = _summary_counters(records)
    if not any(k.startswith("fabric.") for k in counters):
        return None

    def per_label(prefix: str) -> dict:
        return {
            k[len(prefix):]: n
            for k, n in counters.items() if k.startswith(prefix)
        }

    chunks = per_label("fabric.chunks.")
    retries = per_label("fabric.retries.")
    disconnects = per_label("fabric.disconnects.")
    labels = sorted(set(chunks) | set(retries) | set(disconnects))
    rows = [
        ["adapters seen", f"{counters.get('fabric.adapters_connected', 0):g}"],
        ["chunks served", f"{sum(chunks.values()):g}"],
        ["disconnects", f"{counters.get('fabric.disconnects', 0):g}"],
        ["reconnects", f"{counters.get('fabric.reconnects', 0):g}"],
        ["handshake failures",
         f"{counters.get('fabric.handshake_failures', 0):g}"],
    ]
    summary = format_table(
        ["Fabric", "Value"], rows, title="Fabric health (dispatch transport)"
    )
    if not labels:
        return summary
    adapter_rows = [
        [
            label,
            f"{chunks.get(label, 0):g}",
            f"{retries.get(label, 0):g}",
            f"{disconnects.get(label, 0):g}",
        ]
        for label in labels
    ]
    return summary + "\n" + format_table(
        ["Adapter", "Chunks", "Retries", "Disconnects"], adapter_rows
    )


def _model_table(records: list[dict]) -> str | None:
    """Static-model activity: predictions, validations, hybrid savings.

    Appears whenever the run touched :mod:`repro.analysis` — the summary
    carries ``model.*`` counters, and each ``model.validate`` event becomes
    a per-app rank-agreement row.
    """
    counters = _summary_counters(records)
    validations = [
        r for r in records
        if r.get("kind") == "event" and r.get("name") == "model.validate"
    ]
    if not any(k.startswith("model.") for k in counters) and not validations:
        return None
    hits = counters.get("model.summary_hits", 0)
    misses = counters.get("model.summary_misses", 0)
    lookups = hits + misses
    rows = [
        ["predictions", f"{counters.get('model.predictions', 0):g}"],
        ["validations", f"{counters.get('model.validations', 0):g}"],
        ["section summaries analyzed",
         f"{counters.get('model.sections_analyzed', 0):g}"],
        ["section-summary cache hit rate",
         f"{hits / lookups:.1%}" if lookups else "-"],
        ["hybrid: FI-verified instructions",
         f"{counters.get('model.hybrid_verified', 0):g}"],
        ["hybrid: model-only instructions",
         f"{counters.get('model.hybrid_model_only', 0):g}"],
    ]
    out = format_table(
        ["Model", "Value"], rows, title="Static error-propagation model"
    )
    if validations:
        vrows = [
            [
                f.get("app", "?"),
                f"{f.get('spearman', 0.0):.3f}",
                f"{f.get('top_k_overlap', 0.0):.2f} (k={f.get('top_k', 0)})",
                f"{f.get('mean_abs_error', 0.0):.3f}",
                str(f.get("n_instructions", 0)),
            ]
            for f in (r.get("fields", {}) for r in validations)
        ]
        out += "\n\n" + format_table(
            ["App", "Spearman", "Top-k overlap", "MAE", "Instructions"],
            vrows,
            title="Model validation (predicted vs. injected)",
        )
    return out


def _detectors_table(records: list[dict]) -> str | None:
    """Detector-zoo activity: one row per validated configuration.

    Appears whenever the run touched :mod:`repro.detectors` — the summary
    carries ``detectors.*`` counters, and each ``detectors.config`` event
    becomes one row of the configurations table (predicted vs. measured,
    with the per-kind detection split from the FI campaign).
    """
    counters = _summary_counters(records)
    configs = [
        r for r in records
        if r.get("kind") == "event" and r.get("name") == "detectors.config"
    ]
    if not any(k.startswith("detectors.") for k in counters) and not configs:
        return None
    mined = counters.get("detectors.value_profile.mined", 0)
    warm = counters.get("detectors.value_profile.cache_hits", 0)
    rows = [
        ["frontiers traced", f"{counters.get('detectors.frontiers', 0):g}"],
        ["frontier points",
         f"{counters.get('detectors.frontier_points', 0):g}"],
        ["configurations validated",
         f"{counters.get('detectors.validations', 0):g}"],
        ["value profiles mined / warm", f"{mined:g} / {warm:g}"],
    ]
    assigned = sorted(
        (k.split(".", 2)[2], n) for k, n in counters.items()
        if k.startswith("detectors.assigned.")
    )
    if assigned:
        rows.append(["assignments",
                     " ".join(f"{k}:{n:g}" for k, n in assigned)])
    out = format_table(["Detectors", "Value"], rows, title="Detector zoo")
    if configs:
        crows = []
        for f in (r.get("fields", {}) for r in configs):
            mix = " ".join(
                f"{k}:{n}" for k, n in sorted(
                    (f.get("assigned") or {}).items())
            )
            per = " ".join(
                f"{k}:{v[0]}/{v[1]}" for k, v in sorted(
                    (f.get("per_detector") or {}).items())
            )
            mc = f.get("measured_coverage")
            crows.append([
                f.get("app", "?"),
                f"{f.get('budget', 0.0):.0%}",
                mix or "-",
                f"{f.get('predicted_overhead', 0.0):.1%}"
                f" / {f.get('measured_overhead', 0.0):.1%}",
                f"{f.get('predicted_coverage', 0.0):.1%}"
                f" / {mc:.1%}" if mc is not None else
                f"{f.get('predicted_coverage', 0.0):.1%} / -",
                f"{f.get('detected_rate', 0.0):.1%}",
                per or "-",
            ])
        out += "\n\n" + format_table(
            ["App", "Budget", "Assigned", "Overhead p/m",
             "Coverage p/m", "Detected", "Per-kind det/faults"],
            crows,
            title="Detector configurations (predicted vs. measured)",
        )
    return out


def _band(lo: float | None, hi: float | None) -> str:
    if lo is not None and hi is not None:
        return f"{lo:g}..{hi:g}"
    if lo is not None:
        return f">= {lo:g}"
    if hi is not None:
        return f"<= {hi:g}"
    return "-"


def perf_references_table(bench_dir: str | Path) -> str | None:
    """Perf dashboard: ``BENCH_*.json`` records vs. their declared bands.

    One row per declared reference key; records without an envelope or
    without references still get a presence row so a missing artifact is
    distinguishable from a silent one. ``None`` when the directory holds
    no bench records at all.
    """
    rows = []
    for path in sorted(Path(bench_dir).glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            rows.append([path.name, "(unreadable)", "-", "-", "-", "FAIL"])
            continue
        if not isinstance(record, dict):
            rows.append([path.name, "(not a record)", "-", "-", "-", "FAIL"])
            continue
        status = reference_status(record)
        if not status:
            rows.append([path.name, "(no references)", "-", "-", "-", "-"])
            continue
        for key, measured, ref, lo, hi, ok in status:
            rows.append([
                path.name,
                key,
                "-" if measured is None else f"{measured:g}",
                "-" if ref is None else f"{ref:g}",
                _band(lo, hi),
                "ok" if ok else "FAIL",
            ])
    if not rows:
        return None
    return format_table(
        ["Record", "Key", "Measured", "Expected", "Band", "Status"],
        rows,
        title=f"Perf references ({bench_dir})",
    )


def _counters_table(records: list[dict]) -> str | None:
    counters = _summary_counters(records)
    if not counters:
        return None
    rows = [[k, f"{v:g}"] for k, v in sorted(counters.items())]
    return format_table(["Counter", "Value"], rows, title="Final counters")


def render_report(path: str | Path, bench_dir: str | Path | None = None) -> str:
    """Render the full text report for one trace file.

    ``bench_dir`` additionally appends the perf-references section when the
    directory holds any ``BENCH_*.json`` artifacts (a missing or empty
    directory just omits the section).
    """
    warnings: list[str] = []
    records = load_trace(path, tolerate_torn_tail=True, warnings=warnings)
    if not records:
        return f"{path}: empty trace"
    meta = records[0] if records[0].get("kind") == "meta" else None
    run = meta["run"] if meta else records[0].get("run", "?")
    wall = records[-1].get("ts", 0.0) - records[0].get("ts", 0.0)
    issues = lint_records(records, require_summary=False)
    head = [
        f"trace {path}: run {run}, {len(records)} records, {wall:.2f}s span"
    ]
    for w in warnings:
        head.append(f"WARNING: {w}")
    if issues:
        head.append(f"WARNING: {len(issues)} schema issue(s); first: {issues[0]}")
    sections = [
        s for s in (
            _phase_table(records, wall),
            _campaign_table(records),
            _span_table(records),
            _cache_table(records),
            _harness_table(records),
            _fabric_table(records),
            _model_table(records),
            _detectors_table(records),
            _counters_table(records),
        ) if s
    ]
    if not sections:
        sections = ["(no phase spans, campaigns or summary in this trace)"]
    if bench_dir is not None:
        perf = perf_references_table(bench_dir)
        if perf:
            sections.append(perf)
    return "\n\n".join(head + sections)
