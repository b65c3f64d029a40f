"""Model-validation study: static predictions vs. FI ground truth per app.

The driver behind ``repro analyze --validate`` and the CI model smoke job.
For each app it runs one golden profile, a full per-instruction FI campaign
(the ground truth), the static error-propagation model, and a hybrid
predict-then-verify campaign, then scores:

* **rank agreement** — Spearman correlation and top-k overlap between
  predicted and measured SDC probabilities (the model's job is ranking);
* **selection agreement** — whether the knapsack, fed the hybrid profile,
  protects the *same instruction set* as when fed pure FI measurements, at
  each protection level. Pure FI's selection is itself a Monte-Carlo
  estimate — re-running the ground-truth sweep under an independent seed
  moves the set — so "same" means the hybrid disagrees with the ground
  truth by **no more instructions than a second, equally-sized FI sweep
  does** (statistically indistinguishable from pure FI);
* **trial savings** — FI trials a full sweep would have cost vs. what the
  hybrid actually spent.

Every row is emitted as a ``model.validate`` / ``model.hybrid`` telemetry
event, so ``repro obs report`` renders the same numbers from a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.model import predict_sdc_probabilities
from repro.analysis.validate import ValidationResult, validate_model
from repro.apps.registry import get_app
from repro.exp.config import ScaleConfig
from repro.fi.campaign import run_model_guided_campaign, run_per_instruction_campaign
from repro.sid.profiles import build_cost_benefit_profile
from repro.sid.selection import select_instructions
from repro.util.rng import derive_seed
from repro.util.tables import format_table
from repro.vm.profiler import profile_run

__all__ = ["AppModelValidation", "run_model_validation", "render_model_validation"]


@dataclass
class AppModelValidation:
    """Model-vs-FI agreement for one application."""

    app: str
    validation: ValidationResult
    #: Hybrid-vs-FI selection disagreement is within FI's own seed-to-seed
    #: disagreement, per protection level.
    selection_match: dict[float, bool] = field(default_factory=dict)
    #: |hybrid selection ∆ FI selection| per protection level.
    selection_diff: dict[float, int] = field(default_factory=dict)
    #: |FI selection ∆ FI-reseeded selection| per protection level.
    fi_self_diff: dict[float, int] = field(default_factory=dict)
    fi_trials_full: int = 0
    fi_trials_hybrid: int = 0

    @property
    def trials_saved_factor(self) -> float:
        if self.fi_trials_hybrid <= 0:
            return float("inf") if self.fi_trials_full else 1.0
        return self.fi_trials_full / self.fi_trials_hybrid

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "validation": self.validation.to_dict(),
            "selection_match": {
                str(k): v for k, v in self.selection_match.items()
            },
            "selection_diff": {
                str(k): v for k, v in self.selection_diff.items()
            },
            "fi_self_diff": {
                str(k): v for k, v in self.fi_self_diff.items()
            },
            "fi_trials_full": self.fi_trials_full,
            "fi_trials_hybrid": self.fi_trials_hybrid,
            "trials_saved_factor": self.trials_saved_factor,
        }


def run_model_validation(
    scale: ScaleConfig,
    apps: tuple[str, ...] | None = None,
    verify_margin: float = 0.3,
) -> list[AppModelValidation]:
    """Validate the model against FI ground truth on each app.

    Apps default to the scale preset's selection (or all 11). The FI ground
    truth uses ``scale.per_instr_trials`` faults per instruction, cached
    like any campaign, so repeated validations replay instead of re-inject.
    A second, independently-seeded ground-truth sweep calibrates how much
    pure FI's own selection moves between runs; the hybrid passes when its
    disagreement stays within that bound.
    """
    from repro.apps.registry import all_app_names

    names = apps or scale.apps or tuple(all_app_names())
    out: list[AppModelValidation] = []
    with scale.run_scope():
        for name in names:
            app = get_app(name)
            args, bindings = app.encode(app.reference_input)
            program = app.program
            seed = derive_seed(scale.seed, "modelval", name)
            dyn = profile_run(program, args=args, bindings=bindings)
            fi = run_per_instruction_campaign(
                program,
                scale.per_instr_trials,
                seed=seed,
                args=args,
                bindings=bindings,
                rel_tol=app.rel_tol,
                abs_tol=app.abs_tol,
                profile=dyn,
            )
            fi_alt = run_per_instruction_campaign(
                program,
                scale.per_instr_trials,
                seed=derive_seed(scale.seed, "modelval-alt", name),
                args=args,
                bindings=bindings,
                rel_tol=app.rel_tol,
                abs_tol=app.abs_tol,
                profile=dyn,
            )
            predicted = predict_sdc_probabilities(
                app.module, dyn, rel_tol=app.rel_tol
            )
            validation = validate_model(predicted, fi, app=name)
            hybrid = run_model_guided_campaign(
                program,
                scale.per_instr_trials,
                seed=seed,
                args=args,
                bindings=bindings,
                rel_tol=app.rel_tol,
                abs_tol=app.abs_tol,
                profile=dyn,
                protection_levels=scale.protection_levels,
                verify_margin=verify_margin,
            )
            fi_profile = build_cost_benefit_profile(
                app.module, dyn, fi, source="fi"
            )
            fi_alt_profile = build_cost_benefit_profile(
                app.module, dyn, fi_alt, source="fi"
            )
            hy_profile = build_cost_benefit_profile(
                app.module,
                dyn,
                hybrid,
                source="hybrid",
                provenance=hybrid.provenance,
            )
            row = AppModelValidation(
                app=name,
                validation=validation,
                fi_trials_full=hybrid.full_sweep_trials,
                fi_trials_hybrid=hybrid.fi_trials,
            )
            for level in scale.protection_levels:
                sel_fi = set(select_instructions(fi_profile, level).selected)
                sel_alt = set(
                    select_instructions(fi_alt_profile, level).selected
                )
                sel_hy = set(select_instructions(hy_profile, level).selected)
                self_diff = len(sel_fi ^ sel_alt)
                hy_diff = len(sel_fi ^ sel_hy)
                row.fi_self_diff[level] = self_diff
                row.selection_diff[level] = hy_diff
                row.selection_match[level] = hy_diff <= self_diff
            out.append(row)
    return out


def render_model_validation(rows: list[AppModelValidation]) -> str:
    """Per-app agreement table (the ``repro analyze --validate`` output)."""
    headers = [
        "Benchmark",
        "Spearman",
        "Top-k overlap",
        "MAE",
        "Selection match",
        "Sel diff (hybrid/reseed)",
        "FI trials (full -> hybrid)",
    ]
    body = []
    for r in rows:
        v = r.validation
        match = (
            f"{sum(r.selection_match.values())}/{len(r.selection_match)}"
            if r.selection_match
            else "-"
        )
        diffs = (
            f"{sum(r.selection_diff.values())}/{sum(r.fi_self_diff.values())}"
            if r.selection_diff
            else "-"
        )
        body.append(
            [
                r.app,
                f"{v.spearman:.3f}",
                f"{v.top_k_overlap:.2f} (k={v.top_k})",
                f"{v.mean_abs_error:.3f}",
                match,
                diffs,
                f"{r.fi_trials_full} -> {r.fi_trials_hybrid} "
                f"({r.trials_saved_factor:.1f}x)",
            ]
        )
    return format_table(
        headers, body, title="Model validation: static prediction vs. FI"
    )
