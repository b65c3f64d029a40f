"""Fig. 2 / Table II driver: the loss of SDC coverage in existing SID.

For every benchmark: build classic SID at each protection level using the
app's reference input, then measure SDC coverage across random evaluation
inputs. The candlesticks (min/quartiles/max of measured coverage) against the
expected-coverage bars reproduce Fig. 2; the fraction of inputs below the
expected bar reproduces Table II.
"""

from __future__ import annotations

from repro.apps import all_app_names, get_app
from repro.exp.config import ScaleConfig
from repro.exp.results import CoverageStudyResult
from repro.exp.runner import evaluate_protection, generate_eval_inputs
from repro.sid.pipeline import SIDConfig, classic_sid
from repro.util.rng import derive_seed

__all__ = ["run_fig2_study"]


def run_fig2_study(
    scale: ScaleConfig, measure_duplication: bool = False
) -> CoverageStudyResult:
    """Run the baseline-SID coverage study over apps × protection levels.

    Incremental: with ``scale.cache_dir`` set, the per-instruction benefit
    sweeps inside ``classic_sid`` and every evaluation campaign replay
    persisted results when nothing relevant changed.
    """
    study = CoverageStudyResult(technique="sid", scale=scale.name)
    apps = scale.apps if scale.apps is not None else tuple(all_app_names())
    # The scale's run configuration reaches classic_sid's per-instruction
    # sweeps too, not only the evaluation campaigns.
    with scale.run_scope():
        return _run_fig2_apps(scale, study, apps, measure_duplication)


def _run_fig2_apps(scale, study, apps, measure_duplication):
    for app_name in apps:
        app = get_app(app_name)
        args, bindings = app.encode(app.reference_input)
        inputs = generate_eval_inputs(
            app, scale.eval_inputs, derive_seed(scale.seed, "eval", app_name)
        )
        for level in scale.protection_levels:
            sid = classic_sid(
                app.program,
                args,
                bindings,
                SIDConfig(
                    protection_level=level,
                    per_instruction_trials=scale.per_instr_trials,
                    seed=derive_seed(scale.seed, "sid", app_name, level),
                    rel_tol=app.rel_tol,
                    abs_tol=app.abs_tol,
                    profile_source=scale.profile_source,
                ),
            )
            study.results.append(
                evaluate_protection(
                    app,
                    sid.protected,
                    sid.expected_coverage,
                    technique="sid",
                    protection_level=level,
                    inputs=inputs,
                    scale=scale,
                    measure_duplication=measure_duplication,
                )
            )
    return study
