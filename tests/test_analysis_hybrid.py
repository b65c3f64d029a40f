"""Determinism and merge invariants of the model-guided (hybrid) campaign.

The hybrid campaign must behave like every other campaign path: bit-identical
results across worker counts and across warm/cold cache states, because its
verify set is a pure function of (module, golden profile, masking constants)
and its FI subset rides the ordinary per-instruction machinery.
"""

import pytest

from repro.analysis.model import model_verify_set, predict_sdc_probabilities
from repro.fi.campaign import run_model_guided_campaign
from repro.fi.faultmodel import injectable_iids
from repro.runconfig import run_scope
from repro.sid.profiles import build_profile_from_source
from repro.vm.profiler import profile_run

TRIALS = 4
SEED = 99


def _hybrid(app, workers=0, cache=None):
    a, b = app.encode(app.reference_input)
    return run_model_guided_campaign(
        app.program,
        TRIALS,
        SEED,
        args=a,
        bindings=b,
        rel_tol=app.rel_tol,
        abs_tol=app.abs_tol,
        workers=workers,
        cache=cache,
        protection_levels=(0.5,),
    )


class TestHybridResult:
    def test_provenance_covers_every_instruction(self, pathfinder_app):
        res = _hybrid(pathfinder_app)
        assert set(res.provenance) == set(res.sdc_prob)
        assert set(res.provenance.values()) <= {"fi", "model"}
        assert any(v == "fi" for v in res.provenance.values())
        assert any(v == "model" for v in res.provenance.values())

    def test_verified_band_carries_fi_probabilities(self, pathfinder_app):
        app = pathfinder_app
        a, b = app.encode(app.reference_input)
        dyn = profile_run(app.program, args=a, bindings=b)
        predicted = predict_sdc_probabilities(
            app.module, dyn, rel_tol=app.rel_tol
        )
        cycles = {
            iid: dyn.instr_cycles[iid] for iid in injectable_iids(app.module)
        }
        band = model_verify_set(
            predicted, cycles, dyn.total_cycles, 0.5, verify_margin=0.3
        )
        res = _hybrid(pathfinder_app)
        assert band, "verify band must not be empty"
        # Everything in the band is FI-measured (margins may widen it).
        assert all(res.provenance[iid] == "fi" for iid in band)

    def test_trials_accounting(self, pathfinder_app):
        res = _hybrid(pathfinder_app)
        verified = sum(1 for v in res.provenance.values() if v == "fi")
        executed = len(
            [iid for iid, v in res.provenance.items() if v in ("fi", "model")]
        )
        assert res.fi_trials == verified * TRIALS
        assert res.full_sweep_trials >= res.fi_trials
        assert res.trials_saved_factor >= 1.0
        assert executed >= verified

    def test_flanks_stay_consistent_with_measurements(self, pathfinder_app):
        # The merge pins the unverified flanks to the band's measured
        # extremes: above the band no prediction ranks below the measured
        # ceiling, below it none ranks above the measured floor.
        from repro.analysis.model import density_ranked

        app = pathfinder_app
        a, b = app.encode(app.reference_input)
        dyn = profile_run(app.program, args=a, bindings=b)
        predicted = predict_sdc_probabilities(
            app.module, dyn, rel_tol=app.rel_tol
        )
        cycles = {
            iid: dyn.instr_cycles[iid] for iid in injectable_iids(app.module)
        }
        ranked = density_ranked(predicted, cycles, dyn.total_cycles)
        res = _hybrid(pathfinder_app)
        fi_vals = {
            iid: p for iid, p in res.sdc_prob.items()
            if res.provenance[iid] == "fi"
        }
        assert fi_vals
        ceiling, floor = max(fi_vals.values()), min(fi_vals.values())
        pos = {iid: k for k, iid in enumerate(ranked)}
        vpos = [pos[i] for i in fi_vals]
        lo, hi = min(vpos), max(vpos)
        for iid, p in res.sdc_prob.items():
            if res.provenance[iid] != "model" or iid not in pos:
                continue
            if pos[iid] < lo:
                assert p >= ceiling
            elif pos[iid] > hi:
                assert p <= floor


class TestHybridDeterminism:
    def test_bit_identical_across_worker_counts(
        self, pathfinder_app, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        serial = _hybrid(pathfinder_app, workers=None)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pooled = _hybrid(pathfinder_app, workers=None)
        assert serial.sdc_prob == pooled.sdc_prob
        assert serial.provenance == pooled.provenance
        assert serial.fi_trials == pooled.fi_trials

    def test_bit_identical_across_cold_and_warm_cache(
        self, pathfinder_app, tmp_path
    ):
        with run_scope(cache=tmp_path / "store"):
            cold = _hybrid(pathfinder_app)
            warm = _hybrid(pathfinder_app)
        uncached = _hybrid(pathfinder_app, cache=False)
        assert cold.sdc_prob == warm.sdc_prob
        assert cold.provenance == warm.provenance
        assert cold.sdc_prob == uncached.sdc_prob

    def test_profile_source_hybrid_is_deterministic(
        self, pathfinder_app, monkeypatch
    ):
        app = pathfinder_app
        a, b = app.encode(app.reference_input)

        def build():
            return build_profile_from_source(
                app.program,
                a,
                b,
                source="hybrid",
                trials_per_instruction=TRIALS,
                seed=SEED,
                rel_tol=app.rel_tol,
                abs_tol=app.abs_tol,
                protection_levels=(0.5,),
            )

        monkeypatch.setenv("REPRO_WORKERS", "0")
        p0 = build()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        p2 = build()
        assert p0.sdc_prob == p2.sdc_prob
        assert p0.provenance == p2.provenance
        assert p0.source == p2.source == "hybrid"


class TestProfileSourceValidation:
    def test_unknown_source_is_a_config_error(self, pathfinder_app):
        from repro.errors import ConfigError

        app = pathfinder_app
        a, b = app.encode(app.reference_input)
        with pytest.raises(ConfigError):
            build_profile_from_source(app.program, a, b, source="psychic")
