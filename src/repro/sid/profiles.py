"""Cost/benefit profiles — Equations (1) and (2) of the paper.

For every fault-injectable instruction *i* under a given input:

- ``cost_i``   = dynamic cycles of *i* / total dynamic cycles  (Eq. 1)
- ``benefit_i`` = SDC probability of *i* × cost_i              (Eq. 2)

The SDC probability comes from a per-instruction FI campaign; the cycles from
a profiled golden run. The knapsack optimizes benefit under a cycle budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fi.campaign import PerInstructionResult
from repro.fi.faultmodel import injectable_iids
from repro.ir.module import Module
from repro.vm.profiler import DynamicProfile

__all__ = [
    "CostBenefitProfile",
    "build_cost_benefit_profile",
    "build_profile_from_source",
    "PROFILE_SOURCES",
]

#: Recognized values of the ``--profile-source`` knob.
PROFILE_SOURCES = ("fi", "model", "hybrid")


@dataclass
class CostBenefitProfile:
    """Per-instruction cost/benefit map for one (program, input) pair."""

    #: iids eligible for duplication (injectable instructions).
    iids: list[int]
    #: Eq. 1 cost per iid (fraction of total cycles).
    cost: dict[int, float]
    #: Absolute dynamic cycles per iid (the knapsack weight).
    cycles: dict[int, int]
    #: Dynamic execution count per iid.
    counts: dict[int, int]
    #: Measured SDC probability per iid.
    sdc_prob: dict[int, float]
    #: Eq. 2 benefit per iid.
    benefit: dict[int, float] = field(default_factory=dict)
    #: Total dynamic cycles of the run.
    total_cycles: int = 0
    #: How the SDC probabilities were obtained: ``"fi"`` (injection),
    #: ``"model"`` (static prediction), or ``"hybrid"`` (predict-then-verify).
    source: str = "fi"
    #: Hybrid provenance per iid: ``"fi"`` where trials were spent,
    #: ``"model"`` where the prediction was kept. Empty for pure profiles.
    provenance: dict[int, str] = field(default_factory=dict)
    #: The golden run's dynamic profile the costs come from.
    dyn_profile: DynamicProfile | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.benefit:
            self.benefit = {
                iid: self.sdc_prob[iid] * self.cost[iid] for iid in self.iids
            }

    def sdc_mass(self, iid: int) -> float:
        """Expected SDC contribution of an instruction: P(sdc|hit) × hits.

        Faults land on instructions proportionally to their dynamic instance
        counts, so this weight is what coverage aggregation uses.
        """
        return self.sdc_prob.get(iid, 0.0) * self.counts.get(iid, 0)

    def total_sdc_mass(self) -> float:
        return sum(self.sdc_mass(iid) for iid in self.iids)

    def with_benefits(self, new_benefit: dict[int, float]) -> "CostBenefitProfile":
        """Copy with some benefits replaced (MINPSID re-prioritization ⑧)."""
        merged = dict(self.benefit)
        merged.update(new_benefit)
        return CostBenefitProfile(
            iids=list(self.iids),
            cost=dict(self.cost),
            cycles=dict(self.cycles),
            counts=dict(self.counts),
            sdc_prob=dict(self.sdc_prob),
            benefit=merged,
            total_cycles=self.total_cycles,
            source=self.source,
            provenance=dict(self.provenance),
            dyn_profile=self.dyn_profile,
        )


def build_cost_benefit_profile(
    module: Module,
    dyn_profile: DynamicProfile,
    fi_result: PerInstructionResult,
    source: str = "fi",
    provenance: dict[int, str] | None = None,
) -> CostBenefitProfile:
    """Combine a dynamic profile and per-instruction SDC probabilities.

    ``fi_result`` is duck-typed: a :class:`PerInstructionResult` from an FI
    campaign (SID ①②), a :class:`repro.analysis.model.PredictedResult` from
    the static model, or a hybrid merge — anything exposing
    ``sdc_probability(iid)``. ``source``/``provenance`` label where the
    probabilities came from and travel with the profile into results.
    """
    iids = injectable_iids(module)
    total = dyn_profile.total_cycles or 1
    cost = {iid: dyn_profile.instr_cycles[iid] / total for iid in iids}
    cycles = {iid: dyn_profile.instr_cycles[iid] for iid in iids}
    counts = {iid: dyn_profile.instr_counts[iid] for iid in iids}
    sdc = {iid: fi_result.sdc_probability(iid) for iid in iids}
    return CostBenefitProfile(
        iids=iids,
        cost=cost,
        cycles=cycles,
        counts=counts,
        sdc_prob=sdc,
        total_cycles=dyn_profile.total_cycles,
        source=source,
        provenance=dict(provenance) if provenance else {},
        dyn_profile=dyn_profile,
    )


def build_profile_from_source(
    program,
    args: list | None,
    bindings: dict[str, list] | None,
    source: str = "fi",
    trials_per_instruction: int = 20,
    seed: int = 2022,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    protection_levels: tuple[float, ...] = (0.3, 0.5, 0.7),
    verify_margin: float = 0.3,
    dyn_profile: DynamicProfile | None = None,
) -> CostBenefitProfile:
    """One cost/benefit profile, by any of the three SDC-probability sources.

    ``source`` selects how probabilities are obtained:

    - ``"fi"``     — a full per-instruction Monte-Carlo campaign (the
      paper's method, and the ground truth);
    - ``"model"``  — the static error-propagation model only
      (:mod:`repro.analysis`): zero injections, milliseconds;
    - ``"hybrid"`` — model everywhere, FI verification for instructions
      near the knapsack cut at the given ``protection_levels``.

    All three share the golden run (``dyn_profile`` may be passed to skip
    re-profiling; without one, ``"fi"`` takes it from its sweep's golden
    pass, which also records the sweep's checkpoints) and return a
    :class:`CostBenefitProfile` whose ``source``/``provenance`` record what
    produced each probability and whose ``dyn_profile`` is that golden run.
    """
    from repro.errors import ConfigError
    from repro.fi.campaign import (
        run_model_guided_campaign,
        run_per_instruction_campaign,
    )
    from repro.vm.profiler import profile_run

    if source not in PROFILE_SOURCES:
        raise ConfigError(
            f"unknown profile source {source!r}; expected one of "
            f"{', '.join(PROFILE_SOURCES)}"
        )
    module = program.module
    if source == "fi":
        fi = run_per_instruction_campaign(
            program,
            trials_per_instruction=trials_per_instruction,
            seed=seed,
            args=args,
            bindings=bindings,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            profile=dyn_profile,
        )
        return build_cost_benefit_profile(module, fi.profile, fi, source="fi")
    dyn = dyn_profile
    if dyn is None:
        dyn = profile_run(program, args=args, bindings=bindings)
    if source == "model":
        from repro.analysis.model import predict_sdc_probabilities

        predicted = predict_sdc_probabilities(module, dyn, rel_tol=rel_tol)
        return build_cost_benefit_profile(
            module,
            dyn,
            predicted,
            source="model",
            provenance={iid: "model" for iid in predicted.sdc_prob},
        )
    hybrid = run_model_guided_campaign(
        program,
        trials_per_instruction=trials_per_instruction,
        seed=seed,
        args=args,
        bindings=bindings,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        profile=dyn,
        protection_levels=protection_levels,
        verify_margin=verify_margin,
    )
    return build_cost_benefit_profile(
        module, dyn, hybrid, source="hybrid", provenance=hybrid.provenance
    )
