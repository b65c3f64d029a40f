"""§IV driver: root-cause statistics of the coverage loss.

Reproduces the paper's three §IV quantifications:

1. *Target instructions*: instructions that cause no SDCs under the
   reference input on the SID-protected binary but cause SDCs under other
   inputs — the instructions behind the coverage loss.
2. *Cross-level persistence*: the share of level-L target instructions that
   remain targets at the next level (paper: 54.4% from 30→50%, 41.3% from
   50→70%).
3. *Incubative fraction and attribution*: the share of injectable
   instructions that are incubative (paper: 6.20%–32.09%, avg 15.79%) and
   the share of new-SDC faults attributable to them (paper: ≥97%).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import get_app
from repro.apps.base import App, Input
from repro.exp.config import ScaleConfig
from repro.exp.runner import generate_eval_inputs
from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.fi.faultmodel import injectable_iids
from repro.minpsid.incubative import IncubativeConfig, find_incubative
from repro.sid.pipeline import SIDConfig, classic_sid
from repro.util.rng import derive_seed
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run

__all__ = ["Sec4AppResult", "run_sec4_analysis"]


@dataclass
class Sec4AppResult:
    """§IV statistics for one application."""

    app: str
    #: level -> set of target (coverage-loss-causing) original iids.
    targets_by_level: dict[float, set[int]] = field(default_factory=dict)
    #: (level_a, level_b) -> |targets_a ∩ targets_b| / |targets_a|.
    persistence: dict[tuple[float, float], float] = field(default_factory=dict)
    #: Incubative instructions found from per-instruction FI across inputs.
    incubative: set[int] = field(default_factory=set)
    #: |incubative| / |injectable|.
    incubative_fraction: float = 0.0
    #: Share of new-SDC faults whose origin instruction is incubative.
    attribution: float = 0.0
    new_sdc_faults: int = 0


def _sdc_origins(
    program: Program, protected, app: App, inp: Input, faults: int, seed: int,
) -> tuple[set[int], list[int]]:
    """Origins (original iids) of SDC-causing faults on the protected binary.

    Returns (distinct origins, per-fault origin list).
    """
    args, bindings = app.encode(inp)
    res = run_campaign(
        program, faults, seed, args=args, bindings=bindings,
        rel_tol=app.rel_tol, abs_tol=app.abs_tol,
    )
    origins: list[int] = []
    from repro.fi.outcome import Outcome

    for iid, outcome in res.per_fault:
        if outcome is Outcome.SDC:
            origin = protected.origin_of(iid)
            if origin is not None:
                origins.append(origin)
    return set(origins), origins


def run_sec4_analysis(app_name: str, scale: ScaleConfig) -> Sec4AppResult:
    """Run the full §IV analysis for one benchmark."""
    app = get_app(app_name)
    result = Sec4AppResult(app=app_name)
    args, bindings = app.encode(app.reference_input)
    inputs = generate_eval_inputs(
        app, scale.eval_inputs, derive_seed(scale.seed, "sec4-eval", app_name)
    )

    with scale.run_scope():
        # 1/2: target instructions per protection level on SID binaries.
        for level in scale.protection_levels:
            sid = classic_sid(
                app.program, args, bindings,
                SIDConfig(
                    protection_level=level,
                    per_instruction_trials=scale.per_instr_trials,
                    seed=derive_seed(scale.seed, "sec4-sid", app_name, level),
                    rel_tol=app.rel_tol, abs_tol=app.abs_tol,
                ),
            )
            prog = Program(sid.protected.module)
            ref_origins, _ = _sdc_origins(
                prog, sid.protected, app, app.reference_input,
                scale.campaign_faults,
                derive_seed(scale.seed, "sec4-ref", app_name, level),
            )
            targets: set[int] = set()
            all_new_origins: list[int] = []
            for k, inp in enumerate(inputs):
                origins, per_fault = _sdc_origins(
                    prog, sid.protected, app, inp, scale.campaign_faults,
                    derive_seed(scale.seed, "sec4-in", app_name, level, k),
                )
                targets |= origins - ref_origins
                all_new_origins.extend(o for o in per_fault if o not in ref_origins)
            result.targets_by_level[level] = targets
            if level == scale.protection_levels[-1]:
                result._last_new_origins = all_new_origins  # type: ignore[attr-defined]

        levels = list(scale.protection_levels)
        for a, b in zip(levels, levels[1:]):
            ta, tb = result.targets_by_level[a], result.targets_by_level[b]
            result.persistence[(a, b)] = len(ta & tb) / len(ta) if ta else 0.0

        # 3: incubative identification from per-instruction FI across inputs.
        program = app.program
        history = []
        for k, inp in enumerate([app.reference_input] + inputs[: max(2, scale.search_max_inputs)]):
            a2, b2 = app.encode(inp)
            prof = profile_run(program, args=a2, bindings=b2)
            fi = run_per_instruction_campaign(
                program, scale.search_per_instr_trials,
                derive_seed(scale.seed, "sec4-fi", app_name, k),
                args=a2, bindings=b2, rel_tol=app.rel_tol, abs_tol=app.abs_tol,
                profile=prof,
            )
            total = prof.total_cycles or 1
            history.append(
                {
                    iid: c.sdc_probability * prof.instr_cycles[iid] / total
                    for iid, c in fi.per_iid.items()
                }
            )
    result.incubative = find_incubative(history, IncubativeConfig())
    n_inj = len(injectable_iids(app.module))
    result.incubative_fraction = len(result.incubative) / n_inj if n_inj else 0.0

    # Attribution: share of new-SDC faults with incubative origins.
    new_origins = getattr(result, "_last_new_origins", [])
    result.new_sdc_faults = len(new_origins)
    if new_origins:
        hits = sum(1 for o in new_origins if o in result.incubative)
        result.attribution = hits / len(new_origins)
    return result
