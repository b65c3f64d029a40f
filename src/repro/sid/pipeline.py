"""End-to-end classic SID (the paper's baseline technique).

Given a program and its *reference input*, measure cost and benefit per
instruction (①②), select under the protection level, transform, and report
the expected coverage — exactly the workflow existing SID studies use with a
single input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detectors.transform import ProtectedModule, duplicate_instructions
from repro.obs.spans import phase
from repro.sid.profiles import CostBenefitProfile, build_profile_from_source
from repro.sid.selection import SelectionResult, select_instructions
from repro.vm.interpreter import Program

__all__ = ["SIDConfig", "SIDResult", "classic_sid"]


@dataclass(frozen=True)
class SIDConfig:
    """Knobs of the classic SID pipeline."""

    #: Fraction of total dynamic cycles allowed for duplication.
    protection_level: float = 0.5
    #: Faults per static instruction in the benefit measurement.
    per_instruction_trials: int = 20
    #: Master seed of the benefit campaign.
    seed: int = 2022
    #: Knapsack solver ("greedy" per the paper, or "dp").
    knapsack_method: str = "greedy"
    #: Check placement: "sync" per the paper, "immediate" (the ablation),
    #: or "store" (verify only at the next in-block store — the zoo's
    #: store-only detector; see :mod:`repro.detectors`).
    check_placement: str = "sync"
    #: Output comparison tolerances (per-app SDC criterion).
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    #: Where SDC probabilities come from: "fi" (inject — the paper's
    #: method), "model" (static prediction), or "hybrid" (predict, verify
    #: near the knapsack cut).
    profile_source: str = "fi"


@dataclass
class SIDResult:
    """Everything classic SID produces for one program."""

    protected: ProtectedModule
    selection: SelectionResult
    profile: CostBenefitProfile = field(repr=False)

    @property
    def expected_coverage(self) -> float:
        return self.selection.expected_coverage


def classic_sid(
    program: Program,
    args: list | None,
    bindings: dict[str, list] | None,
    config: SIDConfig = SIDConfig(),
) -> SIDResult:
    """Run the full baseline SID pipeline on the reference input.

    ``program`` is the caller's, so its golden memo serves every protection
    level (pass an app's ``app.program``); the transform copies
    ``program.module`` and leaves it as it was.

    Its phases are trace spans (:func:`repro.obs.spans.phase`): MINPSID's,
    minus the search engine — that is the baseline's whole point.
    """
    with phase("per_inst_fi_ref"):
        profile = build_profile_from_source(
            program,
            args,
            bindings,
            source=config.profile_source,
            trials_per_instruction=config.per_instruction_trials,
            seed=config.seed,
            rel_tol=config.rel_tol,
            abs_tol=config.abs_tol,
            protection_levels=(config.protection_level,),
        )
    with phase("selection"):
        selection = select_instructions(
            profile, config.protection_level, method=config.knapsack_method
        )
    with phase("transform"):
        protected = duplicate_instructions(
            program.module, selection.selected,
            check_placement=config.check_placement,
        )
    return SIDResult(protected=protected, selection=selection, profile=profile)
