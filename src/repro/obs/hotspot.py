"""Guest hotspot attribution: where do a workload's VM cycles go?

Consumes a parsed telemetry trace and renders the guest-side performance
picture from two sources:

* ``vm.profile`` events (one per profiled golden run) carry per-IR-function
  exclusive cycles, call-path entry counts, the dynamic instruction mix, and
  the heaviest individual instructions — emitted by
  :func:`repro.vm.profiler.profile_run`;
* the summary counters carry the batch engine's per-site attribution
  (``batch.detach_site.{fn:block}``) and the lockstep/scalar step split
  behind its occupancy.

Two render targets: :func:`render_hotspots` (tables for ``repro obs
hotspot``) and :func:`folded_stacks` (``repro obs flame``), the
semicolon-folded stack format every flamegraph tool ingests
(``flamegraph.pl``, speedscope, inferno)::

    pathfinder;main;row_solve 10240

A function's *exclusive* cycles are distributed across the call paths that
reach it proportional to each path's entry count — an approximation (entry
counts, not per-path cycle measurements), but an exact one whenever a
function's per-call cost is path-independent, which holds for every app in
the suite.
"""

from __future__ import annotations

from repro.util.tables import format_table

__all__ = [
    "profile_fields",
    "folded_stacks",
    "render_hotspots",
]


def profile_fields(records: list[dict]) -> list[dict]:
    """The ``vm.profile`` field payloads, keeping the last per module."""
    by_module: dict[str, dict] = {}
    for rec in records:
        if rec.get("kind") == "event" and rec.get("name") == "vm.profile":
            f = rec.get("fields", {})
            by_module[f.get("module", "?")] = f
    return list(by_module.values())


def _summary_counters(records: list[dict]) -> dict:
    summary = next(
        (r for r in reversed(records) if r.get("kind") == "summary"), None
    )
    if summary is None:
        return {}
    return summary.get("fields", {}).get("counters", {}) or {}


def _function_table(profiles: list[dict]) -> str | None:
    rows = []
    for prof in profiles:
        module = prof.get("module", "?")
        fns = prof.get("functions") or {}
        total = prof.get("total_cycles") or sum(fns.values()) or 0
        for name, cycles in sorted(fns.items(), key=lambda kv: -kv[1]):
            if not cycles:
                continue
            rows.append([
                module, name, f"{cycles:,}",
                f"{cycles / total:.1%}" if total else "-",
            ])
    if not rows:
        return None
    return format_table(
        ["Module", "Function", "Cycles", "Share"], rows,
        title="Guest hotspots: exclusive cycles per IR function",
    )


def _instruction_table(profiles: list[dict]) -> str | None:
    rows = []
    for prof in profiles:
        module = prof.get("module", "?")
        for entry in prof.get("top_instructions") or []:
            rows.append([
                module,
                str(entry.get("iid", "?")),
                str(entry.get("opcode", "?")),
                f"{entry.get('count', 0):,}",
                f"{entry.get('cycles', 0):,}",
            ])
    if not rows:
        return None
    return format_table(
        ["Module", "iid", "Opcode", "Executions", "Cycles"], rows,
        title="Hottest instructions (dynamic cycles)",
    )


def _mix_table(profiles: list[dict]) -> str | None:
    rows = []
    for prof in profiles:
        module = prof.get("module", "?")
        mix = prof.get("instruction_mix") or {}
        total = sum(mix.values())
        for opcode, n in sorted(mix.items(), key=lambda kv: -kv[1])[:10]:
            rows.append([
                module, opcode, f"{n:,}",
                f"{n / total:.1%}" if total else "-",
            ])
    if not rows:
        return None
    return format_table(
        ["Module", "Opcode", "Executions", "Share"], rows,
        title="Dynamic instruction mix (top opcodes)",
    )


def _batch_site_table(records: list[dict]) -> str | None:
    counters = _summary_counters(records)
    prefix = "batch.detach_site."
    sites = {
        key[len(prefix):]: n
        for key, n in counters.items() if key.startswith(prefix)
    }
    if not sites:
        return None
    rows = [
        [site, f"{n:g}"]
        for site, n in sorted(sites.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    lock = counters.get("batch.lockstep_steps", 0)
    scal = counters.get("batch.scalar_steps", 0)
    title = "Batch engine: divergence sites (fn:block)"
    if lock + scal:
        title += f" — occupancy {lock / (lock + scal):.1%}"
    return format_table(["Site", "Detaches"], rows, title=title)


def folded_stacks(records: list[dict]) -> list[str]:
    """Semicolon-folded stacks with cycle weights, one line per call path.

    Each function's exclusive cycles are split across its entry paths in
    proportion to the path entry counts. Profiles without call-path data
    (schema-v1 traces) degrade to one single-frame stack per function.
    """
    lines: list[str] = []
    for prof in profile_fields(records):
        module = prof.get("module", "?")
        fns = prof.get("functions") or {}
        raw_paths = prof.get("call_paths") or {}
        paths = {
            tuple(k.split(";")): n for k, n in raw_paths.items() if k
        }
        entries: dict[str, int] = {}
        for path, n in paths.items():
            entries[path[-1]] = entries.get(path[-1], 0) + n
        emitted: set[str] = set()
        for path, n in sorted(paths.items()):
            leaf = path[-1]
            cycles = fns.get(leaf, 0)
            total = entries.get(leaf, 0)
            weight = round(cycles * n / total) if total else 0
            if weight:
                lines.append(f"{module};{';'.join(path)} {weight}")
                emitted.add(leaf)
        for name, cycles in sorted(fns.items()):
            if cycles and name not in emitted and name not in entries:
                lines.append(f"{module};{name} {cycles}")
    return lines


def render_hotspots(records: list[dict]) -> str:
    """The full hotspot report for one parsed trace."""
    profiles = profile_fields(records)
    sections = [
        s for s in (
            _function_table(profiles),
            _instruction_table(profiles),
            _mix_table(profiles),
            _batch_site_table(records),
        ) if s
    ]
    if not sections:
        return (
            "(no vm.profile events or batch.* site counters in this trace — "
            "run a campaign or `repro profile` with --trace)"
        )
    return "\n\n".join(sections)
