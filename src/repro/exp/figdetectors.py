"""Detector-frontier figure: coverage-vs-overhead per app.

The detector-zoo analogue of the paper's protection-level story: for each
app, the multi-detector Pareto optimizer (:mod:`repro.detectors`) sweeps
the budget ladder and traces the coverage-vs-overhead frontier, with each
configuration FI-validated at the scale's campaign size. Rendered as one
ASCII frontier per app plus a kinds/monotonicity gate line — the same
frontier the ``detector-smoke`` CI job asserts non-dominated and monotone.
"""

from __future__ import annotations

from repro.apps.registry import all_app_names, get_app
from repro.detectors import (
    FrontierConfig,
    FrontierResult,
    build_frontier,
    frontier_detector_kinds,
    frontier_is_monotone,
    frontier_is_nondominated,
)
from repro.exp.config import ScaleConfig

__all__ = [
    "detectors_dimensions",
    "run_figdetectors_study",
    "render_figdetectors",
]

#: Apps studied per scale (None = all 11). fft rides along at every scale
#: so an algorithm-checksum app is always on the figure.
DETECTOR_APPS = {
    "tiny": ("pathfinder", "fft"),
    "small": ("pathfinder", "fft", "kmeans", "hpccg"),
    "full": None,
}


def detectors_dimensions(scale: ScaleConfig) -> tuple[str, ...]:
    """The app list for a scale preset (unknown names get tiny's)."""
    apps = scale.apps or DETECTOR_APPS.get(scale.name, DETECTOR_APPS["tiny"])
    return tuple(apps) if apps else tuple(all_app_names())


def run_figdetectors_study(
    scale: ScaleConfig, seed: int | None = None
) -> list[tuple[str, FrontierResult]]:
    """Trace + FI-validate each app's frontier; ``[(app, result), ...]``."""
    out = []
    with scale.run_scope():
        for name in detectors_dimensions(scale):
            app = get_app(name)
            a, b = app.encode(app.reference_input)
            res = build_frontier(
                app.module, a, b,
                FrontierConfig(
                    detectors=scale.detectors,
                    budgets=scale.frontier_budgets,
                    profile_source="model",
                    per_instruction_trials=scale.per_instr_trials,
                    seed=seed if seed is not None else scale.seed,
                    rel_tol=app.rel_tol,
                    abs_tol=app.abs_tol,
                    validate_faults=scale.campaign_faults,
                ),
            )
            out.append((name, res))
    return out


def render_figdetectors(results) -> str:
    """One ASCII coverage-vs-overhead frontier per app, plus gate lines."""
    lines: list[str] = []
    for name, res in results:
        lines.append(f"== {name} ==")
        vals = res.validations or [None] * len(res.points)
        for p, v in zip(res.points, vals):
            c = p.config
            bar = "#" * max(1, round(30 * c.coverage))
            mix = " ".join(
                f"{k}:{n}" for k, n in sorted(c.by_kind.items())
            )
            mc = (
                f"{v.measured_coverage:6.1%}"
                if v is not None and v.measured_coverage is not None
                else "   n/a"
            )
            lines.append(
                f"  {p.budget:>4.0%} ovh {c.overhead:6.1%} "
                f"|{bar:<30}| pred {c.coverage:6.1%} meas {mc} "
                f"[{mix or 'none'}]"
            )
        ok = frontier_is_monotone(res.points) and frontier_is_nondominated(
            res.points
        )
        kinds = ",".join(frontier_detector_kinds(res.points))
        lines.append(
            f"  frontier: {'monotone+nondominated' if ok else 'VIOLATED'}"
            f", kinds {kinds}"
        )
        lines.append("")
    return "\n".join(lines)
