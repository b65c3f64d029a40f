"""Smoke tests of every experiment driver at micro scale, plus the result
and reporting machinery."""

import pytest

from repro.exp import TINY, Candlestick
from repro.exp.config import FULL, SMALL, ScaleConfig
from repro.exp.results import AppLevelResult, CoverageStudyResult, load_json, save_json

MICRO = TINY.with_(
    apps=("pathfinder",),
    eval_inputs=2,
    campaign_faults=25,
    per_instr_trials=2,
    search_per_instr_trials=2,
    search_max_inputs=1,
    search_stall=1,
    ga_population=3,
    ga_generations=1,
    protection_levels=(0.5,),
)


class TestConfig:
    def test_presets_ordered(self):
        assert TINY.campaign_faults < SMALL.campaign_faults < FULL.campaign_faults

    def test_with_override(self):
        assert TINY.with_(eval_inputs=99).eval_inputs == 99
        assert TINY.eval_inputs != 99

    def test_paper_levels_default(self):
        assert SMALL.protection_levels == (0.3, 0.5, 0.7)


class TestCandlestick:
    def test_five_numbers(self):
        c = Candlestick.from_values([0.1, 0.2, 0.3, 0.4, 0.5])
        assert c.lo == 0.1 and c.hi == 0.5 and c.median == 0.3
        assert c.q1 <= c.median <= c.q3

    def test_empty(self):
        c = Candlestick.from_values([])
        assert c.n == 0 and c.spread == 0.0

    def test_roundtrip(self):
        c = Candlestick.from_values([0.5, 0.9])
        assert Candlestick.from_dict(c.to_dict()) == c


class TestResults:
    def make_result(self):
        return AppLevelResult(
            app="x", technique="sid", protection_level=0.5,
            expected_coverage=0.9,
            measured=[0.95, 0.85, None, 0.7],
            sdc_unprotected=[0.3, 0.3, 0.0, 0.2],
            sdc_protected=[0.01, 0.04, 0.0, 0.06],
        )

    def test_loss_fraction_ignores_none(self):
        r = self.make_result()
        assert r.loss_input_fraction() == pytest.approx(2 / 3)

    def test_min_coverage(self):
        assert self.make_result().min_coverage() == 0.7

    def test_study_json_roundtrip(self, tmp_path):
        study = CoverageStudyResult(technique="sid", scale="tiny")
        study.results.append(self.make_result())
        path = tmp_path / "study.json"
        save_json(path, study.to_dict())
        back = CoverageStudyResult.from_dict(load_json(path))
        assert back.results[0].measured == study.results[0].measured

    def test_average_loss(self):
        study = CoverageStudyResult(technique="sid", scale="tiny")
        study.results.append(self.make_result())
        assert study.average_loss_fraction(0.5) == pytest.approx(2 / 3)
        assert study.average_loss_fraction(0.3) == 0.0


class TestEngineScope:
    def test_scale_engine_reaches_every_campaign(self, monkeypatch):
        """``ScaleConfig.engine`` alone, with no caller scope and no cache,
        sends every campaign of both studies to the lockstep engine: the
        SID and MINPSID sweeps as well as the evaluation campaigns."""
        import repro.fi.campaign as campaign
        from repro.exp.fig2 import run_fig2_study
        from repro.exp.fig6 import run_fig6_study

        for var in ("REPRO_ENGINE", "REPRO_CACHE_DIR", "REPRO_WORKERS"):
            monkeypatch.delenv(var, raising=False)
        lockstep_calls = []
        reached = []
        real_lockstep = campaign.run_trials_lockstep
        real_dispatch = campaign._dispatch_sites

        def lockstep(*args, **kwargs):
            lockstep_calls.append(1)
            return real_lockstep(*args, **kwargs)

        def dispatch(program, sites, *args, **kwargs):
            before = len(lockstep_calls)
            out = real_dispatch(program, sites, *args, **kwargs)
            reached.append(not sites or len(lockstep_calls) > before)
            return out

        monkeypatch.setattr(campaign, "run_trials_lockstep", lockstep)
        monkeypatch.setattr(campaign, "_dispatch_sites", dispatch)
        scale = MICRO.with_(apps=("bfs",), eval_inputs=1, campaign_faults=10,
                            per_instr_trials=1, search_per_instr_trials=1,
                            ga_population=2, engine="batch")
        run_fig2_study(scale)
        run_fig6_study(scale)
        assert len(reached) >= 5
        assert all(reached)


class TestDrivers:
    def test_fig2(self):
        from repro.exp.fig2 import run_fig2_study
        from repro.exp.report import render_coverage_figure, render_loss_table

        study = run_fig2_study(MICRO)
        assert len(study.results) == 1
        assert render_loss_table(study, "t")
        assert render_coverage_figure(study, "f")

    def test_fig6(self):
        from repro.exp.fig6 import run_fig6_study

        study = run_fig6_study(MICRO)
        assert study.technique == "minpsid"
        assert study.results[0].measured

    def test_fig3(self):
        from repro.exp.fig3 import find_incubative_example

        ex = find_incubative_example(
            MICRO.with_(eval_inputs=3), app_name="pathfinder"
        )
        assert ex.swing >= 0.0
        assert "SDC probability" in ex.render()

    def test_fig7(self):
        from repro.exp.fig7 import run_fig7_study

        cmp = run_fig7_study("pathfinder", MICRO.with_(search_max_inputs=2))
        assert cmp.ga_trace and cmp.random_trace
        assert cmp.ga_trace[0] == 0  # reference input alone finds nothing

    def test_fig8(self):
        from repro.exp.fig8 import render_fig8, run_fig8_study

        rows = run_fig8_study(["pathfinder"], MICRO)
        assert rows[0].total > 0
        assert "Fig. 8" in render_fig8(rows)

    def test_sec4(self):
        from repro.exp.sec4 import run_sec4_analysis

        res = run_sec4_analysis("pathfinder", MICRO.with_(protection_levels=(0.3, 0.5)))
        assert set(res.targets_by_level) == {0.3, 0.5}
        assert (0.3, 0.5) in res.persistence
        assert 0.0 <= res.incubative_fraction <= 1.0

    def test_fig9(self):
        from repro.exp.fig9 import run_fig9_study

        base, hardened = run_fig9_study(
            MICRO.with_(eval_inputs=4, campaign_faults=20)
        )
        assert {r.app for r in base.results} == {"bfs", "kmeans"}
        assert len(hardened.results) == len(base.results)

    def test_overhead(self):
        from repro.exp.overhead import render_overhead, run_overhead_study, summarize_overhead

        base, hardened = run_overhead_study(MICRO)
        rows = summarize_overhead(base) + summarize_overhead(hardened)
        assert rows
        for r in rows:
            assert 0.0 <= r.mean_actual <= r.target_level + 1e-9
        assert "VIII-A" in render_overhead(rows)

    def test_mt_fft(self):
        from repro.exp.mt_fft import run_mt_fft_study

        rows = run_mt_fft_study(
            MICRO.with_(eval_inputs=2, campaign_faults=20),
            thread_counts=(1, 2),
        )
        assert [r.threads for r in rows] == [1, 2]
        for r in rows:
            assert 0.0 <= r.sid_loss <= 1.0
            assert 0.0 <= r.minpsid_loss <= 1.0

    def test_table1(self):
        from repro.exp.report import render_table1

        out = render_table1()
        assert "Table I" in out
        for name in ("xsbench", "hpccg", "fft", "kmeans"):
            assert name in out

    def test_comparison_rendering(self):
        from repro.exp.fig2 import run_fig2_study
        from repro.exp.fig6 import run_fig6_study
        from repro.exp.report import render_comparison

        base = run_fig2_study(MICRO)
        hard = run_fig6_study(MICRO)
        out = render_comparison(base, hard, "cmp")
        assert "pathfinder" in out
