"""Shared evaluation machinery of the coverage studies.

``evaluate_protection`` is the core loop behind Figs. 2/6/9 and Tables
II/III/IV: run whole-program FI campaigns on the unprotected and protected
binaries under each evaluation input and convert SDC probabilities into
measured coverage.

The loop is **incremental**: when the scale preset names a ``cache_dir``
(or a cache is already installed), every campaign consults the
content-addressed store first, so re-running an unchanged study — the
common case when regenerating a figure after an unrelated edit — dispatches
zero campaigns and replays persisted, bit-identical results.
"""

from __future__ import annotations

from repro.apps.base import App, Input
from repro.detectors.transform import ProtectedModule
from repro.errors import Trap
from repro.exp.config import ScaleConfig
from repro.exp.results import AppLevelResult
from repro.fi.campaign import run_campaign
from repro.sid.coverage import measured_coverage
from repro.util.rng import RngStream, derive_seed
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run

__all__ = ["generate_eval_inputs", "duplication_fraction", "evaluate_protection"]


def generate_eval_inputs(app: App, n: int, seed: int) -> list[Input]:
    """The paper's random evaluation inputs (filtered to run cleanly).

    Random inputs that trap or hang on a golden run are discarded — the
    paper's generator likewise rejects inputs that "produce reported errors"
    (§III-A2). With our domain-constrained specs rejection is rare. Only
    guest :class:`~repro.errors.Trap`\\ s count as rejection; any other
    exception is a toolchain bug and propagates instead of being silently
    swallowed as a "rejected input". The filtering run is a profiling run,
    so every accepted input's golden profile is memoized on
    ``app.program`` for the evaluation campaigns and
    :func:`duplication_fraction`.
    """
    rng = RngStream(seed, app.name, "eval-inputs")
    out: list[Input] = []
    attempt = 0
    while len(out) < n and attempt < 20 * n:
        attempt += 1
        inp = app.random_input(rng.child(attempt))
        try:
            args, bindings = app.encode(inp)
            profile_run(app.program, args=args, bindings=bindings)
        except Trap:
            continue
        out.append(inp)
    return out


def duplication_fraction(
    protected: ProtectedModule, program: Program, args, bindings
) -> float:
    """Duplicated share of dynamic cycles under one input (§VIII-A).

    ``program`` runs the *unprotected* module. The protected program's own
    golden profile is not needed: the protection inserts each duplicate
    and check into its original's block, and no check fires on a golden
    run, so a duplicate executes exactly as often as its original. The
    share is the duplicated originals' cycles over the original's total.
    Within :func:`evaluate_protection` the profile is a memo hit: the
    input filter or the evaluation campaign already ran it.
    """
    prof = profile_run(program, args=args, bindings=bindings)
    if not prof.total_cycles:
        return 0.0
    dup_cycles = sum(prof.instr_cycles[iid] for iid in protected.dup_map)
    return dup_cycles / prof.total_cycles


def evaluate_protection(
    app: App,
    protected: ProtectedModule,
    expected_coverage: float,
    technique: str,
    protection_level: float,
    inputs: list[Input],
    scale: ScaleConfig,
    measure_duplication: bool = False,
    profile_source: str | None = None,
) -> AppLevelResult:
    """Measure coverage of one protected binary across evaluation inputs.

    ``profile_source`` labels how the protection profile's SDC
    probabilities were obtained (fi/model/hybrid); it defaults to the scale
    preset's setting and travels into the emitted result row.
    """
    result = AppLevelResult(
        app=app.name,
        technique=technique,
        protection_level=protection_level,
        expected_coverage=expected_coverage,
        profile_source=(
            profile_source if profile_source is not None
            else scale.profile_source
        ),
    )
    prog_unprot = app.program
    prog_prot = Program(protected.module)
    with scale.run_scope():
        for k, inp in enumerate(inputs):
            args, bindings = app.encode(inp)
            seed_u = derive_seed(
                scale.seed, app.name, technique, protection_level, k, "u"
            )
            seed_p = derive_seed(
                scale.seed, app.name, technique, protection_level, k, "p"
            )
            pu = run_campaign(
                prog_unprot, scale.campaign_faults, seed_u,
                args=args, bindings=bindings,
                rel_tol=app.rel_tol, abs_tol=app.abs_tol,
            ).sdc_probability
            pp = run_campaign(
                prog_prot, scale.campaign_faults, seed_p,
                args=args, bindings=bindings,
                rel_tol=app.rel_tol, abs_tol=app.abs_tol,
            ).sdc_probability
            result.sdc_unprotected.append(pu)
            result.sdc_protected.append(pp)
            result.measured.append(measured_coverage(pu, pp))
            if measure_duplication:
                result.dup_fraction.append(
                    duplication_fraction(protected, prog_unprot, args, bindings)
                )
    return result
