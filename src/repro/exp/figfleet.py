"""Fleet policy-sweep figure: the escape-rate / throughput-cost frontier.

The fleet simulator (:mod:`repro.fleet`) turns the Meta "SDCs at Scale"
operational question into a figure: walking the policy ladder from lax to
paranoid in-field testing, the fleet-wide SDC escape rate falls
monotonically while throughput cost rises — the tradeoff the paper frames
qualitatively, measured here on the repo's own 11-app job mix under SID
protection. The same sweep (fixed seed, small fleet) is byte-diffed and
monotonicity-gated by the ``fleet-smoke`` CI job.
"""

from __future__ import annotations

from repro.exp.config import ScaleConfig
from repro.fleet import render_sweep, run_sweep
from repro.fleet.sweep import sweep_is_monotone

__all__ = ["fleet_dimensions", "run_figfleet_study", "render_figfleet"]

#: Per-scale fleet shape: (hosts, defective, rounds, apps or None = all).
FLEET_SCALES = {
    "tiny": (24, 2, 8, ("kmeans", "fft")),
    "small": (200, 2, 24, None),
    "full": (2000, 20, 64, None),
}


def fleet_dimensions(scale: ScaleConfig) -> tuple:
    """The fleet shape for a scale preset (unknown names get tiny's)."""
    return FLEET_SCALES.get(scale.name, FLEET_SCALES["tiny"])


def run_figfleet_study(scale: ScaleConfig, seed: int | None = None):
    """Run the policy ladder; returns ``[(policy_name, FleetResult), ...]``."""
    hosts, defective, rounds, apps = fleet_dimensions(scale)
    apps = scale.apps or apps  # --apps narrows the job mix here too
    with scale.run_scope():
        return run_sweep(
            hosts, 0.01, seed if seed is not None else scale.seed,
            rounds=rounds, apps=list(apps) if apps else None,
            n_defective=defective,
        )


def render_figfleet(results) -> str:
    """The sweep table plus an ASCII cost/escape frontier."""
    lines = [render_sweep(results), ""]
    max_cost = max(r.throughput_cost for _, r in results) or 1.0
    for name, r in results:
        bar = "#" * max(1, round(24 * r.throughput_cost / max_cost))
        lines.append(
            f"{name:<9} cost {r.throughput_cost:6.3f} |{bar:<24}| "
            f"escapes {r.sdc_escapes}"
        )
    lines.append("")
    lines.append(
        "frontier: "
        + ("monotone — paying for tests buys escapes down"
           if sweep_is_monotone(results)
           else "NOT monotone at this seed/scale")
    )
    return "\n".join(lines)
