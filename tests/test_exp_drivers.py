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

#: bench/workloads.py: the headline-cold study size, bfs alone.
HEADLINE_BFS = TINY.with_(
    apps=("bfs",), seed=2022, campaign_faults=10, per_instr_trials=1,
    search_per_instr_trials=1, eval_inputs=2, search_max_inputs=1,
    search_stall=1, ga_population=4, ga_generations=2,
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


class TestScaleReach:
    def test_scale_fields_reach_every_campaign(self, monkeypatch, tmp_path):
        """Each execution field of a ``ScaleConfig`` alone, with no caller
        scope or environment, reaches every campaign of a TINY bfs fig2 +
        fig6 study: the SID and MINPSID sweeps as well as the evaluation
        campaigns. The run configuration each campaign resolved is captured
        at dispatch; the trials then run serially on the local pool, so the
        pool, fabric and supervisor settings are checked without paying for
        them."""
        from dataclasses import replace

        import repro.fi.campaign as campaign
        from repro.cache.store import store_for
        from repro.exp.fig2 import run_fig2_study
        from repro.exp.fig6 import run_fig6_study
        from repro.runconfig import KNOBS

        for knob in KNOBS.values():
            if knob.env:
                monkeypatch.delenv(knob.env, raising=False)
        # ScaleConfig field -> (RunConfig field, scale value, resolved value)
        table = {
            "workers": ("workers", 2, 2),
            "engine": ("engine", "batch", "batch"),
            "batch_size": ("batch_size", 16, 16),
            "checkpoint_interval": ("checkpoint_interval", None, 0),
            "transport": ("transport", "inproc", "inproc"),
            "max_retries": ("max_retries", 0, 0),
            "task_timeout": ("task_timeout", 30.0, 30.0),
            "cache_dir": ("cache", str(tmp_path), store_for(tmp_path)),
        }
        seen = []
        real_dispatch = campaign._dispatch_sites

        def dispatch(program, sites, store, *args):
            run, label = args[3], args[4]
            seen.append((label, run, store))
            local = replace(run, workers=0, transport="local")
            return real_dispatch(
                program, sites, store, *args[:3], local, *args[4:]
            )

        monkeypatch.setattr(campaign, "_dispatch_sites", dispatch)
        scale = TINY.with_(
            apps=("bfs",), eval_inputs=1, campaign_faults=10,
            per_instr_trials=1, search_per_instr_trials=1, ga_population=2,
            **{name: value for name, (_, value, _) in table.items()},
        )
        run_fig2_study(scale)
        run_fig6_study(scale)
        labels = [label for label, _, _ in seen]
        assert labels.count("per-instruction fi") >= 3  # SID, MINPSID, search
        assert labels.count("fi campaign") >= 4  # evaluation campaigns
        missed = {
            name: sum(getattr(run, field) != want for _, run, _ in seen)
            for name, (field, _, want) in table.items()
        }
        assert not any(missed.values()), missed
        # Cold replay: each store holds only the input's entry snapshot.
        assert all(len(store) == 1 for _, _, store in seen)


class TestCheckpointDefault:
    def test_sid_sweeps_resume_from_checkpoints(self, monkeypatch):
        """With no caller threading and no cache, a TINY fig2 study on bfs
        records checkpoints for its per-instruction sweeps and resumes
        their trials from them, like its evaluation campaigns."""
        import repro.fi.campaign as campaign
        from repro.exp.fig2 import run_fig2_study
        from repro.vm.interpreter import Program

        for var in ("REPRO_ENGINE", "REPRO_CACHE_DIR", "REPRO_WORKERS"):
            monkeypatch.delenv(var, raising=False)
        resumes = []
        sweeps = []
        real_resume = Program.resume
        real_dispatch = campaign._dispatch_sites

        def resume(self, *args, **kwargs):
            resumes.append(1)
            return real_resume(self, *args, **kwargs)

        def dispatch(program, sites, store, *args, **kwargs):
            before = len(resumes)
            out = real_dispatch(program, sites, store, *args, **kwargs)
            if args[4] == "per-instruction fi":
                sweeps.append((len(store) > 1, len(resumes) > before))
            return out

        monkeypatch.setattr(Program, "resume", resume)
        monkeypatch.setattr(campaign, "_dispatch_sites", dispatch)
        run_fig2_study(TINY.with_(apps=("bfs",), eval_inputs=1,
                                  campaign_faults=10, per_instr_trials=1))
        assert sweeps and all(recorded and resumed
                              for recorded, resumed in sweeps)


class TestReferenceGoldenRuns:
    def test_reference_input_runs_golden_twice_per_study(
        self, monkeypatch, tmp_path
    ):
        """A bfs fig2 + fig6 study at the benchmark's ``headline-cold``
        sizes executes bfs's unprotected program on its reference input
        twice on a cold cache, once per reference sweep: SID's golden pass
        profiles while it records and writes the profile to the cache, and
        MINPSID's, on Fig. 6's own program, reads it from there and
        records unprofiled, with the same snapshots. On a warm
        cache both sweeps and the profile are cache hits, so nothing
        runs. The SID and MINPSID pipelines, the input search and its GA
        take the profile from there."""
        from repro.apps import get_app
        from repro.exp.fig2 import run_fig2_study
        from repro.exp.fig6 import run_fig6_study
        from repro.ir.printer import print_module
        from repro.runconfig import KNOBS, run_scope
        from repro.vm.interpreter import Program

        for knob in KNOBS.values():
            if knob.env:
                monkeypatch.delenv(knob.env, raising=False)
        app = get_app("bfs")
        reference = (print_module(app.module),
                     app.encode(app.reference_input))
        texts: dict = {}
        runs = []

        def on_reference(program, args, bindings) -> bool:
            key = id(program.module)
            if key not in texts:
                # Hold the module: a freed module's id can be reused.
                texts[key] = (program.module, print_module(program.module))
            return (texts[key][1], (args, bindings)) == reference

        real_run, real_recording = Program.run, Program.run_checkpointed

        def run(self, args=None, bindings=None, **kwargs):
            if on_reference(self, args, bindings):
                runs.append(("run", kwargs.get("profile")))
            return real_run(self, args, bindings, **kwargs)

        def run_checkpointed(self, args=None, bindings=None, **kwargs):
            if on_reference(self, args, bindings):
                runs.append(("recording", kwargs.get("profile")))
            return real_recording(self, args, bindings, **kwargs)

        monkeypatch.setattr(Program, "run", run)
        monkeypatch.setattr(Program, "run_checkpointed", run_checkpointed)
        scale = HEADLINE_BFS
        studies = {}
        for cache in ("cold", "warm"):
            runs.clear()
            with run_scope(cache=str(tmp_path)):
                studies[cache] = (
                    run_fig2_study(scale, measure_duplication=True).to_dict(),
                    run_fig6_study(scale, measure_duplication=True).to_dict(),
                )
            expected = (
                [("recording", True), ("recording", False)]
                if cache == "cold" else []
            )
            assert runs == expected, cache
        assert studies["warm"] == studies["cold"]


class TestSIDLevels:
    def test_levels_share_one_program(self, monkeypatch, tmp_path):
        """A bfs Fig. 2 study at three protection levels decodes the
        unprotected module once, cold cache or warm: every level's
        ``classic_sid`` runs on the app's ``Program``. On a cold cache the
        first level's sweep takes the reference profile from its
        recording; on a warm one the first level reads it from the cache.
        Either way no plain golden run executes, and the other levels
        read the program's memo."""
        from repro.apps import get_app
        from repro.exp.fig2 import run_fig2_study
        from repro.runconfig import KNOBS, run_scope
        from repro.vm.interpreter import Program

        for knob in KNOBS.values():
            if knob.env:
                monkeypatch.delenv(knob.env, raising=False)
        app = get_app("bfs")
        unprotected = app.program.text
        reference = app.encode(app.reference_input)
        decodes, runs = [], []
        real_init, real_run = Program.__init__, Program.run

        def init(self, module):
            real_init(self, module)
            if self.text == unprotected:
                decodes.append(self)

        def run(self, args=None, bindings=None, **kwargs):
            if self.text == unprotected and (
                args, bindings) == reference:
                runs.append(kwargs.get("profile"))
            return real_run(self, args, bindings, **kwargs)

        monkeypatch.setattr(Program, "__init__", init)
        monkeypatch.setattr(Program, "run", run)
        scale = HEADLINE_BFS.with_(protection_levels=(0.3, 0.5, 0.7))
        for cache in ("cold", "warm"):
            decodes.clear()
            runs.clear()
            with run_scope(cache=str(tmp_path)):
                study = run_fig2_study(scale)
            assert len(study.results) == 3
            assert len(decodes) == 1, cache
            assert runs == [], cache


class TestEvaluationGoldenRuns:
    def test_each_evaluation_input_runs_golden_once_per_driver(
        self, monkeypatch, tmp_path
    ):
        """In a bfs Fig. 2 + Fig. 6 study on a cold cache, Fig. 2's input
        filter profiles each evaluation input and writes the profile to
        the cache; Fig. 6's filter, on its own program, reads it from
        there. The evaluation campaigns and ``duplication_fraction`` take
        the profile from each program's memo, and each figure's
        evaluation campaign records its checkpoints, unprofiled, with the
        interval the profile's step count names. On a warm cache the
        filters read every profile from the cache and every campaign is a
        cache hit, so no evaluation input runs."""
        from repro.apps import get_app
        from repro.exp.fig2 import run_fig2_study
        from repro.exp.fig6 import run_fig6_study
        from repro.exp.runner import generate_eval_inputs
        from repro.runconfig import KNOBS, run_scope
        from repro.util.rng import derive_seed
        from repro.vm.interpreter import Program
        from repro.vm.profiler import input_key

        for knob in KNOBS.values():
            if knob.env:
                monkeypatch.delenv(knob.env, raising=False)
        scale = HEADLINE_BFS
        app = get_app("bfs")
        unprotected = app.program.text
        evaluation = {
            input_key(*app.encode(inp))
            for inp in generate_eval_inputs(
                app, scale.eval_inputs, derive_seed(scale.seed, "eval", "bfs")
            )
        }
        assert len(evaluation) == scale.eval_inputs
        golden: dict = {}

        def note(program, args, bindings, what) -> None:
            key = input_key(args, bindings)
            if program.text == unprotected and key in evaluation:
                # Hold the program: a freed program's id can be reused.
                golden.setdefault((id(program), key), [program]).append(what)

        real_run, real_recording = Program.run, Program.run_checkpointed

        def run(self, args=None, bindings=None, **kwargs):
            note(self, args, bindings, ("run", kwargs.get("profile")))
            return real_run(self, args, bindings, **kwargs)

        def run_checkpointed(self, args=None, bindings=None, **kwargs):
            note(self, args, bindings, ("recording", kwargs.get("profile")))
            return real_recording(self, args, bindings, **kwargs)

        monkeypatch.setattr(Program, "run", run)
        monkeypatch.setattr(Program, "run_checkpointed", run_checkpointed)
        recording = ("recording", False)
        expected = {
            "cold": ([("run", True), recording], [recording]),
            "warm": (None, None),
        }
        for cache in ("cold", "warm"):
            for run_study, want in zip(
                (run_fig2_study, run_fig6_study), expected[cache]
            ):
                golden.clear()
                with run_scope(cache=str(tmp_path)):
                    run_study(scale, measure_duplication=True)
                if want is None:
                    assert golden == {}, (cache, run_study.__name__)
                    continue
                assert len(golden) == scale.eval_inputs, cache
                for runs in golden.values():
                    assert runs[1:] == want, (cache, run_study.__name__)


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
        from repro.exp.fig8 import PHASES, render_fig8, run_fig8_study

        rows = run_fig8_study(["pathfinder"], MICRO)
        assert rows[0].total > 0
        assert set(PHASES) <= set(rows[0].phases)
        assert rows[0].total == pytest.approx(sum(rows[0].phases.values()))
        assert "Fig. 8" in render_fig8(rows)

    def test_fig8_records_into_the_enclosing_trace(self):
        """Fig. 8 collects its phases through an installed session instead
        of shadowing it: the outer trace keeps every record."""
        from repro.exp.fig8 import PHASES, run_fig8_study
        from repro.obs.core import session
        from repro.obs.schema import lint_records
        from repro.obs.sink import MemorySink
        from repro.obs.spans import phase_seconds, span_records

        sink = MemorySink()
        with session(sink=sink):
            rows = run_fig8_study(["pathfinder"], MICRO)
        records = sink.records
        assert lint_records(records) == []
        assert len({r["run"] for r in records}) == 1
        ids = [r["fields"]["span_id"] for r in span_records(records)]
        assert len(ids) == len(set(ids))
        assert set(PHASES) <= set(phase_seconds(records))
        assert rows[0].phases == phase_seconds(records)

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
