"""Model-vs-FI profiling speedup measurement.

The whole point of the static model is to replace a per-instruction
Monte-Carlo campaign (seconds to minutes) with a dataflow pass
(milliseconds). :func:`measure_model_speedup` times both paths on the same
(program, input) pair — cache disabled, golden profile shared — and reports
the wall-clock ratio plus the rank agreement between the two probability
maps, so speed is never reported without the accompanying fidelity number.

Consumed by ``benchmarks/test_perf_model_profile.py`` (perf gate, emits
``BENCH_model.json``) and ``scripts/bench_model.py`` (standalone CLI).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.apps import get_app
from repro.runconfig import run_scope
from repro.sid.profiles import build_profile_from_source
from repro.vm.profiler import profile_run

__all__ = ["ModelSpeedupReport", "measure_model_speedup"]


@dataclass
class ModelSpeedupReport:
    """Timing and fidelity of the model path vs. an equivalent FI campaign."""

    app: str
    n_instructions: int
    trials_per_instruction: int
    fi_trials: int
    fi_seconds: float
    model_seconds: float
    speedup: float
    #: Rank agreement of the two probability maps (sanity, not a gate here;
    #: the accuracy gates live in :mod:`repro.exp.modelval`).
    spearman: float

    def to_dict(self) -> dict:
        return asdict(self)


def measure_model_speedup(
    app_name: str,
    trials_per_instruction: int = 12,
    seed: int = 2022,
    repeats: int = 3,
) -> ModelSpeedupReport:
    """Time ``source="model"`` against ``source="fi"`` on one app.

    Both paths receive the same pre-computed golden :class:`DynamicProfile`,
    so the measured interval is exactly the probability-source stage: the
    full per-instruction campaign on one side, the dataflow fixed point on
    the other. Caches are disabled for the timed region; the best of
    ``repeats`` runs is reported for each side.
    """
    from repro.analysis.validate import spearman as _spearman

    app = get_app(app_name)
    args, bindings = app.encode(app.reference_input)
    dyn = profile_run(app.program, args=args, bindings=bindings)

    def build(source: str):
        return build_profile_from_source(
            app.program,
            args,
            bindings,
            source=source,
            trials_per_instruction=trials_per_instruction,
            seed=seed,
            rel_tol=app.rel_tol,
            abs_tol=app.abs_tol,
            dyn_profile=dyn,
        )

    def best_of(source: str):
        best, profile = float("inf"), None
        for _ in range(repeats):
            with run_scope(workers=0, cache=False):
                t0 = time.perf_counter()
                profile = build(source)
                best = min(best, time.perf_counter() - t0)
        return best, profile

    fi_seconds, fi = best_of("fi")
    model_seconds, model = best_of("model")

    iids = sorted(fi.sdc_prob)
    rho = _spearman(
        [model.sdc_prob[i] for i in iids], [fi.sdc_prob[i] for i in iids]
    )
    return ModelSpeedupReport(
        app=app_name,
        n_instructions=len(iids),
        trials_per_instruction=trials_per_instruction,
        fi_trials=len(iids) * trials_per_instruction,
        fi_seconds=fi_seconds,
        model_seconds=model_seconds,
        speedup=fi_seconds / model_seconds if model_seconds > 0 else float("inf"),
        spearman=rho,
    )
