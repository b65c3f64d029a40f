"""Fig. 7 driver: efficiency of the GA input search vs a random searcher.

Runs MINPSID's input search twice per app — once with the weighted-CFG GA
(the real engine) and once with the blind random baseline — under the same
input budget, and reports the cumulative number of incubative instructions
found after each searched input (normalized per app, as the paper plots).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import get_app
from repro.exp.config import ScaleConfig
from repro.fi.campaign import run_per_instruction_campaign
from repro.minpsid.ga import GAConfig
from repro.minpsid.search import InputSearchConfig, run_input_search
from repro.sid.profiles import build_cost_benefit_profile
from repro.util.rng import derive_seed

__all__ = ["SearchComparison", "run_fig7_study"]


@dataclass
class SearchComparison:
    """GA-vs-random traces for one app."""

    app: str
    ga_trace: list[int] = field(default_factory=list)
    random_trace: list[int] = field(default_factory=list)
    ga_found: int = 0
    random_found: int = 0

    @property
    def advantage(self) -> float:
        """Relative surplus of GA over random at convergence (paper: +45.6%)."""
        if self.random_found == 0:
            return float(self.ga_found > 0)
        return (self.ga_found - self.random_found) / self.random_found

    def normalized(self, trace: list[int]) -> list[float]:
        peak = max(self.ga_found, self.random_found, 1)
        return [t / peak for t in trace]


def _reference_benefits(app, scale: ScaleConfig) -> dict[int, float]:
    """The reference sweep's benefit map; its golden pass memoizes the
    reference profile that both searches then read."""
    args, bindings = app.encode(app.reference_input)
    fi = run_per_instruction_campaign(
        app.program,
        scale.per_instr_trials,
        derive_seed(scale.seed, "fig7-ref", app.name),
        args=args,
        bindings=bindings,
        rel_tol=app.rel_tol,
        abs_tol=app.abs_tol,
    )
    return build_cost_benefit_profile(app.module, fi.profile, fi).benefit


def run_fig7_study(app_name: str, scale: ScaleConfig) -> SearchComparison:
    """Compare search strategies on one app under the same budget."""
    with scale.run_scope():
        app = get_app(app_name)
        ref_benefits = _reference_benefits(app, scale)
        out = SearchComparison(app=app_name)
        for strategy in ("ga", "random"):
            cfg = InputSearchConfig(
                max_inputs=scale.search_max_inputs,
                stall_limit=max(scale.search_stall, scale.search_max_inputs),  # fixed budget
                per_instruction_trials=scale.search_per_instr_trials,
                ga=GAConfig(
                    population_size=scale.ga_population,
                    max_generations=scale.ga_generations,
                ),
                strategy=strategy,
            )
            outcome = run_input_search(
                app,
                reference_benefits=ref_benefits,
                seed=derive_seed(scale.seed, "fig7", app_name, strategy),
                config=cfg,
            )
            if strategy == "ga":
                out.ga_trace = outcome.trace
                out.ga_found = len(outcome.incubative)
            else:
                out.random_trace = outcome.trace
                out.random_found = len(outcome.incubative)
    return out
