"""Fig. 9 / Table IV driver: the real-world-input case study (§VII).

Protect BFS and Kmeans with both techniques exactly as in the main
evaluation (reference input + random-input search), then *evaluate* the
protected binaries on dataset-derived inputs: KONECT-like graphs for BFS,
Kaggle-like clustering sets for Kmeans.
"""

from __future__ import annotations

from repro.apps.datasets import (
    DatasetBfsApp,
    DatasetKmeansApp,
    kaggle_like_clusterings,
    konect_like_graphs,
)
from repro.exp.config import ScaleConfig
from repro.exp.fig6 import minpsid_config_for
from repro.exp.results import CoverageStudyResult
from repro.exp.runner import evaluate_protection
from repro.minpsid.pipeline import minpsid
from repro.sid.pipeline import SIDConfig, classic_sid
from repro.util.rng import derive_seed

__all__ = ["run_fig9_study", "case_study_apps"]


def case_study_apps(scale: ScaleConfig):
    """The two dataset-backed apps, corpus sizes scaled to the preset."""
    n_graphs = min(30, max(4, scale.eval_inputs))
    n_clusterings = min(10, max(3, scale.eval_inputs // 2))
    bfs = DatasetBfsApp(konect_like_graphs(n_graphs, seed=scale.seed))
    kmeans = DatasetKmeansApp(kaggle_like_clusterings(n_clusterings, seed=scale.seed))
    return [bfs, kmeans]


def run_fig9_study(
    scale: ScaleConfig,
) -> tuple[CoverageStudyResult, CoverageStudyResult]:
    """Run the case study; returns (baseline study, MINPSID study)."""
    base = CoverageStudyResult(technique="sid", scale=scale.name)
    hardened = CoverageStudyResult(technique="minpsid", scale=scale.name)

    with scale.run_scope():
        for ds_app in case_study_apps(scale):
            # Protection is built on the *generator-backed* app — the paper
            # protects the program as usual; only the evaluation inputs are
            # real-world datasets.
            from repro.apps import get_app

            gen_app = get_app(ds_app.name)
            args, bindings = gen_app.encode(gen_app.reference_input)
            inputs = ds_app.dataset_inputs()

            for level in scale.protection_levels:
                sid = classic_sid(
                    gen_app.program, args, bindings,
                    SIDConfig(
                        protection_level=level,
                        per_instruction_trials=scale.per_instr_trials,
                        seed=derive_seed(scale.seed, "fig9-sid", ds_app.name, level),
                        rel_tol=gen_app.rel_tol, abs_tol=gen_app.abs_tol,
                        profile_source=scale.profile_source,
                    ),
                )
                base.results.append(
                    evaluate_protection(
                        ds_app, sid.protected, sid.expected_coverage,
                        technique="sid", protection_level=level,
                        inputs=inputs, scale=scale,
                    )
                )
                mres = minpsid(gen_app, minpsid_config_for(scale, level, ds_app.name))
                hardened.results.append(
                    evaluate_protection(
                        ds_app, mres.protected, mres.expected_coverage,
                        technique="minpsid", protection_level=level,
                        inputs=inputs, scale=scale,
                    )
                )
    return base, hardened
