"""FI validation of detector configurations: predicted vs. measured.

Every Pareto-frontier point is a *prediction* — cycle costs from the cost
model, coverage from a-priori estimators. This module closes the loop the
way the paper validates the static story (§III): one whole-program FI
campaign on the unprotected program, one per protected configuration, and
``measured coverage = 1 − SDC_prot / SDC_unprot`` on the same input. The
campaigns go through :func:`repro.fi.run_campaign`, so they inherit the
cache (keyed on the protected module's text), the batch engine and the
supervisor for free.

Results are published as ``detectors.*`` counters and one
``detectors.config`` event per configuration, which feed the "Detector
configurations" table of ``repro obs report``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detectors.optimizer import DetectorConfig, FrontierPoint
from repro.detectors.transform import ProtectedModule, apply_plan
from repro.fi.campaign import (
    CampaignResult,
    per_detector_detection,
    run_campaign,
)
from repro.fi.outcome import Outcome
from repro.obs.core import current as _obs_current
from repro.sid.coverage import measured_coverage
from repro.vm.interpreter import Program

__all__ = ["ConfigValidation", "validate_config", "validate_frontier"]


@dataclass(frozen=True)
class ConfigValidation:
    """Measured behaviour of one detector configuration on one input."""

    config: DetectorConfig
    protected: ProtectedModule
    unprotected: CampaignResult
    campaign: CampaignResult
    #: 1 − SDC_prot/SDC_unprot, or None when the baseline saw no SDCs.
    measured_coverage: float | None
    #: Fraction of trials classified DETECTED under this configuration.
    detected_rate: float
    #: Measured dynamic-cycle overhead of the protected golden run.
    measured_overhead: float


def _protect(program: Program, config: DetectorConfig) -> ProtectedModule:
    return apply_plan(program.module, config.plan, checksum=config.checksum)


def validate_config(
    program: Program,
    config: DetectorConfig,
    n_faults: int,
    seed: int,
    args=None,
    bindings=None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    baseline: CampaignResult | None = None,
    app: str | None = None,
) -> ConfigValidation:
    """Protect ``program`` per ``config`` and measure it with FI campaigns.

    ``baseline`` is the unprotected campaign on the same input; pass it in
    when validating several configurations to pay for it once.
    """
    if baseline is None:
        baseline = run_campaign(
            program, n_faults, seed, args=args, bindings=bindings,
            rel_tol=rel_tol, abs_tol=abs_tol,
        )
    protected = _protect(program, config)
    prot_program = Program(protected.module)
    campaign = run_campaign(
        prot_program, n_faults, seed, args=args, bindings=bindings,
        rel_tol=rel_tol, abs_tol=abs_tol,
    )
    cov = measured_coverage(
        baseline.counts.sdc_probability, campaign.counts.sdc_probability
    )
    detected = campaign.counts.probability(Outcome.DETECTED)
    base_cycles = _golden_cycles(program, args, bindings)
    prot_cycles = _golden_cycles(prot_program, args, bindings)
    overhead = (
        (prot_cycles - base_cycles) / base_cycles if base_cycles else 0.0
    )
    per_kind = per_detector_detection(campaign, protected)
    t = _obs_current()
    if t:
        t.count("detectors.validations")
        for kind, n in sorted(config.by_kind.items()):
            t.count(f"detectors.assigned.{kind}", n)
        t.emit(
            "detectors.config",
            {
                "app": app or program.module.name,
                "budget": config.budget,
                "assigned": dict(sorted(config.by_kind.items())),
                "per_detector": {
                    k: list(v) for k, v in sorted(per_kind.items())
                },
                "checks": protected.checks,
                "range_checks": protected.range_checks,
                "predicted_overhead": config.overhead,
                "measured_overhead": overhead,
                "predicted_coverage": config.coverage,
                "measured_coverage": cov,
                "detected_rate": detected,
                "trials": campaign.trials,
            },
        )
    return ConfigValidation(
        config=config,
        protected=protected,
        unprotected=baseline,
        campaign=campaign,
        measured_coverage=cov,
        detected_rate=detected,
        measured_overhead=overhead,
    )


def validate_frontier(
    program: Program,
    points: list[FrontierPoint],
    n_faults: int,
    seed: int,
    **kwargs,
) -> list[ConfigValidation]:
    """Validate each distinct configuration on a frontier, reusing the
    unprotected baseline campaign across all of them."""
    args = kwargs.get("args")
    bindings = kwargs.get("bindings")
    baseline = run_campaign(
        program, n_faults, seed, args=args, bindings=bindings,
        rel_tol=kwargs.get("rel_tol", 0.0),
        abs_tol=kwargs.get("abs_tol", 0.0),
    )
    out: list[ConfigValidation] = []
    seen: dict[int, ConfigValidation] = {}
    for p in points:
        marker = id(p.config)
        if marker in seen:
            out.append(seen[marker])
            continue
        v = validate_config(
            program, p.config, n_faults, seed,
            baseline=baseline, **kwargs,
        )
        seen[marker] = v
        out.append(v)
    return out


def _golden_cycles(program: Program, args, bindings) -> int:
    """Total dynamic cycles of one golden run (cost-model weighted)."""
    from repro.vm.profiler import profile_run

    return profile_run(program, args=args, bindings=bindings).total_cycles
