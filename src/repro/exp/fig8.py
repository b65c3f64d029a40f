"""Fig. 8 driver: MINPSID execution-time breakdown.

Runs the full MINPSID pipeline per app and reports wall-clock spent in the
paper's three dominant components — per-instruction FI on the reference input
(①), per-instruction FI for incubative identification (⑦), and the input
search engine (③–⑥) — plus everything else, read from the pipeline's
phase spans (:func:`repro.obs.spans.phase_seconds`). Absolute minutes are
machine- and scale-specific; the reproduced claim is the *shape*:
incubative FI and the search engine dominate, reference FI is
comparatively small, and the whole cost is a one-time compile-time
expense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import get_app
from repro.exp.config import ScaleConfig
from repro.exp.fig6 import minpsid_config_for
from repro.minpsid.pipeline import minpsid
from repro.obs.spans import collect_phases, phase_seconds
from repro.util.tables import format_table

__all__ = ["TimingRow", "run_fig8_study", "render_fig8"]

PHASES = ("per_inst_fi_ref", "per_inst_fi_incubative", "search_engine")


@dataclass
class TimingRow:
    """Per-app phase timings in seconds (``total``: time inside phases)."""

    app: str
    phases: dict[str, float] = field(default_factory=dict)
    total: float = 0.0

    def fraction(self, phase: str) -> float:
        return self.phases.get(phase, 0.0) / self.total if self.total else 0.0


def run_fig8_study(app_names: list[str], scale: ScaleConfig, level: float = 0.5) -> list[TimingRow]:
    """Time the MINPSID pipeline on each app.

    Phase spans are collected through the installed telemetry, so an
    enclosing trace records them too (:func:`collect_phases`).
    """
    rows = []
    with scale.run_scope(), collect_phases() as spans:
        for name in app_names:
            app = get_app(name)
            spans.clear()
            minpsid(app, minpsid_config_for(scale, level, name))
            phases = phase_seconds(spans)
            rows.append(
                TimingRow(app=name, phases=phases, total=sum(phases.values()))
            )
    return rows


def render_fig8(rows: list[TimingRow]) -> str:
    """Render the breakdown table (the Fig. 8 series in text form)."""
    headers = ["Benchmark", "FI(ref)", "FI(incubative)", "Search", "Other", "Total [s]"]
    out = []
    for r in rows:
        other = r.total - sum(r.phases.get(p, 0.0) for p in PHASES)
        out.append(
            [
                r.app,
                f"{r.phases.get('per_inst_fi_ref', 0.0):.2f}s",
                f"{r.phases.get('per_inst_fi_incubative', 0.0):.2f}s",
                f"{r.phases.get('search_engine', 0.0):.2f}s",
                f"{max(0.0, other):.2f}s",
                f"{r.total:.2f}",
            ]
        )
    return format_table(headers, out, title="Fig. 8: MINPSID execution time")
