"""The static error-propagation model: per-instruction SDC prediction.

Composes the per-function section summaries (:mod:`repro.analysis.
summaries`) across the call graph and joins them with a golden run's
dynamic counts (:class:`repro.vm.profiler.DynamicProfile`) to predict, for
every fault-injectable instruction, the probability that a random bit flip
in its result silently corrupts the program output — the quantity the FI
campaigns in :mod:`repro.fi` estimate by Monte Carlo, here for the price of
one golden run and a linear pass over the IR.

Composition (DETOx/FastFlip-style):

* ``sigma(f, s)`` — probability a corruption at source *s* of function *f*
  silently reaches a global sink (emitted output, memory, redirected
  control), including through callees via their argument summaries;
* ``rho(f, s)`` — probability it reaches *f*'s return value;
* ``CTX(f)`` — probability a corrupted return value of *f* reaches a sink,
  averaged over *f*'s dynamic call sites;
* prediction: ``P(i) = bits(i) × min(1, sigma + rho × CTX)`` where
  ``bits(i)`` is the bit-observability of the instruction's result type
  under the app's output tolerance, and instructions that never executed
  predict 0 (nothing to corrupt — the paper's convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.masking import DEFAULT_MASKING, MaskingModel
from repro.analysis.summaries import FunctionSummary, module_summaries
from repro.fi.faultmodel import injectable_iids
from repro.ir.module import Module
from repro.obs.core import current as _obs_current
from repro.obs.spans import span as _span
from repro.vm.profiler import DynamicProfile

__all__ = [
    "PredictedResult",
    "predict_sdc_probabilities",
    "predicted_whole_program_sdc",
    "model_verify_set",
    "density_ranked",
]

#: Sweeps of the cross-function resolution fixed point (bounds propagation
#: through call chains and call-site loops; call graphs here are shallow).
_CALL_SWEEPS = 6


@dataclass
class PredictedResult:
    """Model predictions for one (program, input) pair.

    Duck-typed like :class:`repro.fi.campaign.PerInstructionResult`: it
    exposes ``sdc_probability``/``sdc_probabilities`` and carries the golden
    profile, so every profile consumer accepts either source.
    """

    #: Predicted SDC probability per injectable iid (0 if never executed).
    sdc_prob: dict[int, float]
    profile: DynamicProfile
    #: No faults were injected to produce this.
    trials_per_instruction: int = 0
    #: Propagation probability before bit-observability scaling (diagnostics).
    propagation: dict[int, float] = field(default_factory=dict, repr=False)

    def sdc_probability(self, iid: int) -> float:
        return self.sdc_prob.get(iid, 0.0)

    def sdc_probabilities(self) -> dict[int, float]:
        return dict(self.sdc_prob)

    def ranked(self) -> list[tuple[int, float]]:
        """(iid, prediction) sorted most-SDC-prone first (ties by iid)."""
        return sorted(self.sdc_prob.items(), key=lambda kv: (-kv[1], kv[0]))


def _resolve_sources(
    module: Module,
    summaries: dict[str, FunctionSummary],
) -> tuple[dict[tuple[str, int], float], dict[tuple[str, int], float],
           dict[tuple[str, int], float], dict[tuple[str, int], float]]:
    """Fixed point of the cross-function composition.

    Returns ``(sigma, rho)`` keyed by (function, local instruction index)
    and ``(arg_sigma, arg_rho)`` keyed by (function, argument index).
    """
    sigma: dict[tuple[str, int], float] = {}
    rho: dict[tuple[str, int], float] = {}
    arg_sigma: dict[tuple[str, int], float] = {}
    arg_rho: dict[tuple[str, int], float] = {}
    for name, s in summaries.items():
        for idx in s.instr:
            sigma[(name, idx)] = 0.0
            rho[(name, idx)] = 0.0
        for k in s.args:
            arg_sigma[(name, k)] = 0.0
            arg_rho[(name, k)] = 0.0

    def resolve(name: str, ch) -> tuple[float, float]:
        s_val = ch.sink
        r_val = ch.ret
        for (callee, arg, res), w in ch.calls.items():
            a_s = arg_sigma.get((callee, arg), 0.0)
            a_r = arg_rho.get((callee, arg), 0.0)
            cont_s = sigma.get((name, res), 0.0) if res >= 0 else 0.0
            cont_r = rho.get((name, res), 0.0) if res >= 0 else 0.0
            s_val += w * (a_s + a_r * cont_s)
            r_val += w * a_r * cont_r
        return min(1.0, s_val), min(1.0, r_val)

    for _ in range(_CALL_SWEEPS):
        changed = 0.0
        for name, summ in summaries.items():
            for idx, ch in summ.instr.items():
                new_s, new_r = resolve(name, ch)
                changed = max(
                    changed,
                    abs(new_s - sigma[(name, idx)]),
                    abs(new_r - rho[(name, idx)]),
                )
                sigma[(name, idx)] = new_s
                rho[(name, idx)] = new_r
            for k, ch in summ.args.items():
                new_s, new_r = resolve(name, ch)
                changed = max(
                    changed,
                    abs(new_s - arg_sigma[(name, k)]),
                    abs(new_r - arg_rho[(name, k)]),
                )
                arg_sigma[(name, k)] = new_s
                arg_rho[(name, k)] = new_r
        if changed < 1e-9:
            break
    return sigma, rho, arg_sigma, arg_rho


def _return_contexts(
    module: Module,
    summaries: dict[str, FunctionSummary],
    sigma: dict[tuple[str, int], float],
    rho: dict[tuple[str, int], float],
    iid_of: dict[tuple[str, int], int],
    counts: list[int],
) -> dict[str, float]:
    """CTX(f): silent-sink probability of f's returned value, per function.

    Call sites are weighted by dynamic execution counts so a helper called
    a million times from the hot loop inherits the hot context; functions
    never called dynamically fall back to uniform static weights.
    """
    entry = next(iter(module.functions), None)
    ctx = {name: 0.0 for name in module.functions}
    # (caller, call local idx, callee) triples.
    sites = [
        (caller, idx, callee)
        for caller, summ in summaries.items()
        for idx, callee in summ.call_sites
    ]
    for _ in range(_CALL_SWEEPS):
        changed = 0.0
        for name in module.functions:
            if name == entry:
                continue  # the harness discards @main's return value
            num = 0.0
            den = 0.0
            for caller, idx, callee in sites:
                if callee != name:
                    continue
                iid = iid_of.get((caller, idx))
                weight = float(counts[iid]) if iid is not None else 0.0
                if weight <= 0.0:
                    weight = 1e-12  # static fallback keeps dead sites tiny
                reach = sigma.get((caller, idx), 0.0) + rho.get(
                    (caller, idx), 0.0
                ) * ctx[caller]
                num += weight * min(1.0, reach)
                den += weight
            new = num / den if den > 0 else 0.0
            changed = max(changed, abs(new - ctx[name]))
            ctx[name] = new
        if changed < 1e-9:
            break
    return ctx


def predict_sdc_probabilities(
    module: Module,
    dyn_profile: DynamicProfile,
    rel_tol: float = 0.0,
    masking: MaskingModel = DEFAULT_MASKING,
    cache=None,
) -> PredictedResult:
    """Predict per-instruction SDC probabilities without injecting a fault.

    ``cache`` controls section-summary reuse (``None`` = ambient store,
    ``False`` = always recompute). The prediction itself is a pure function
    of (module text, masking constants, dynamic profile, ``rel_tol``), so
    it is deterministic across runs, workers, and cache states. A traced
    run records it as one ``model.predict`` span.
    """
    with _span("model.predict") as sp:
        result = _predict(module, dyn_profile, rel_tol, masking, cache)
        t = _obs_current()
        if t is not None:
            t.count("model.predictions", len(result.sdc_prob))
            sp.fields.update(
                module=module.name,
                n_instructions=len(result.sdc_prob),
                n_functions=len(module.functions),
                whole_program_sdc=predicted_whole_program_sdc(result),
            )
    return result


def _predict(
    module: Module,
    dyn_profile: DynamicProfile,
    rel_tol: float,
    masking: MaskingModel,
    cache,
) -> PredictedResult:
    summaries = module_summaries(module, masking, cache=cache)
    # local index <-> module iid maps, per function.
    iid_of: dict[tuple[str, int], int] = {}
    for name, fn in module.functions.items():
        for idx, instr in enumerate(fn.instructions()):
            iid_of[(name, idx)] = instr.iid
    sigma, rho, _arg_s, _arg_r = _resolve_sources(module, summaries)
    ctx = _return_contexts(
        module, summaries, sigma, rho, iid_of, dyn_profile.instr_counts
    )

    prop: dict[int, float] = {}
    pred: dict[int, float] = {}
    by_iid = {iid: key for key, iid in iid_of.items()}
    for iid in injectable_iids(module):
        if dyn_profile.instr_counts[iid] == 0:
            prop[iid] = 0.0
            pred[iid] = 0.0
            continue
        name, idx = by_iid[iid]
        p = min(1.0, sigma.get((name, idx), 0.0)
                + rho.get((name, idx), 0.0) * ctx.get(name, 0.0))
        prop[iid] = p
        pred[iid] = p * masking.bit_observability(
            module.instruction(iid), rel_tol
        )
    return PredictedResult(sdc_prob=pred, profile=dyn_profile, propagation=prop)


def predicted_whole_program_sdc(predicted: PredictedResult) -> float:
    """Activation-weighted whole-program SDC probability.

    Mirrors the whole-program campaign's fault model: faults land on
    dynamic instances uniformly, so each instruction's prediction is
    weighted by its execution count.
    """
    counts = predicted.profile.instr_counts
    num = sum(p * counts[iid] for iid, p in predicted.sdc_prob.items())
    den = sum(counts[iid] for iid in predicted.sdc_prob)
    return num / den if den else 0.0


def model_verify_set(
    predicted: PredictedResult,
    cycles: dict[int, int],
    total_cycles: int,
    protection_level: float,
    verify_margin: float = 0.3,
) -> list[int]:
    """The predict-then-verify trial budget: iids worth an FI campaign.

    Ranks executed instructions by predicted benefit density (the greedy
    knapsack's criterion) and returns the **band around the knapsack
    cut**: ``verify_margin`` × the selected count on each side. A modest
    ranking error can only change the protected set near the cut —
    instructions far above it are protected either way and instructions
    far below stay out — so only the band is worth injection trials; the
    hybrid campaign pins the two unverified flanks to the band's measured
    extremes to keep the merged ranking consistent.
    """
    ranked = density_ranked(predicted, cycles, total_cycles)
    budget = protection_level * total_cycles
    spent = 0.0
    n_selected = 0
    for iid in ranked:
        w = cycles.get(iid, 0)
        if w <= 0 or spent + w <= budget:
            spent += max(0, w)
            n_selected += 1
        # Greedy keeps scanning past misfits, and so does the verify cut.
    half = math.ceil(verify_margin * max(1, n_selected))
    lo = max(0, n_selected - half)
    hi = min(len(ranked), n_selected + half)
    return sorted(ranked[lo:hi])


def density_ranked(
    predicted: PredictedResult,
    cycles: dict[int, int],
    total_cycles: int,
) -> list[int]:
    """Executed iids in the greedy knapsack's processing order.

    Benefit density under Eq. 2 is ``(p × cycles / total) / cycles`` — the
    cycle weight cancels, so the order is by predicted probability with
    the greedy's ascending-iid tie-break (zero-cycle iids sort first,
    mirroring the knapsack's free items).
    """
    counts = predicted.profile.instr_counts
    executed = [
        iid for iid, p in predicted.sdc_prob.items() if counts[iid] > 0
    ]

    def density(iid: int) -> float:
        c = cycles.get(iid, 0)
        if c <= 0:
            return float("inf")
        return predicted.sdc_prob[iid] * (c / max(1, total_cycles)) / c

    return sorted(executed, key=lambda i: (-density(i), i))
