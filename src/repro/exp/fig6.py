"""Fig. 6 / Table III driver: MINPSID's mitigation of the coverage loss.

Identical evaluation protocol to the Fig. 2 study but the protected binary
comes from the MINPSID pipeline (input search + re-prioritization). The same
evaluation inputs are used for both techniques so their candlesticks are
directly comparable.
"""

from __future__ import annotations

from repro.apps import all_app_names, get_app
from repro.exp.config import ScaleConfig
from repro.exp.results import CoverageStudyResult
from repro.exp.runner import evaluate_protection, generate_eval_inputs
from repro.minpsid.ga import GAConfig
from repro.minpsid.pipeline import MINPSIDConfig, minpsid
from repro.minpsid.search import InputSearchConfig
from repro.util.rng import derive_seed

__all__ = ["minpsid_config_for", "run_fig6_study"]


def minpsid_config_for(scale: ScaleConfig, level: float, app_name: str) -> MINPSIDConfig:
    """MINPSID configuration derived from a scale preset."""
    return MINPSIDConfig(
        protection_level=level,
        per_instruction_trials=scale.per_instr_trials,
        seed=derive_seed(scale.seed, "minpsid", app_name, level),
        search=InputSearchConfig(
            max_inputs=scale.search_max_inputs,
            stall_limit=scale.search_stall,
            per_instruction_trials=scale.search_per_instr_trials,
            ga=GAConfig(
                population_size=scale.ga_population,
                max_generations=scale.ga_generations,
            ),
        ),
        profile_source=scale.profile_source,
    )


def run_fig6_study(
    scale: ScaleConfig, measure_duplication: bool = False
) -> CoverageStudyResult:
    """Run the MINPSID coverage study over apps × protection levels.

    Incremental: with ``scale.cache_dir`` set, a re-run whose programs,
    inputs, and campaign plans are unchanged replays every FI campaign from
    the cache (bit-identical results, no trials dispatched).
    """
    study = CoverageStudyResult(technique="minpsid", scale=scale.name)
    apps = scale.apps if scale.apps is not None else tuple(all_app_names())
    # The scale's run configuration reaches MINPSID's reference and search
    # sweeps too, not only the evaluation campaigns.
    with scale.run_scope():
        return _run_fig6_apps(scale, study, apps, measure_duplication)


def _run_fig6_apps(scale, study, apps, measure_duplication):
    for app_name in apps:
        app = get_app(app_name)
        inputs = generate_eval_inputs(
            app, scale.eval_inputs, derive_seed(scale.seed, "eval", app_name)
        )
        for level in scale.protection_levels:
            res = minpsid(app, minpsid_config_for(scale, level, app_name))
            study.results.append(
                evaluate_protection(
                    app,
                    res.protected,
                    res.expected_coverage,
                    technique="minpsid",
                    protection_level=level,
                    inputs=inputs,
                    scale=scale,
                    measure_duplication=measure_duplication,
                )
            )
    return study
