"""Integration tests: full pipelines at tiny scale."""

import pytest

from repro.apps import all_app_names, get_app
from repro.detectors.transform import duplicate_instructions
from repro.exp import TINY
from repro.exp.runner import duplication_fraction, generate_eval_inputs
from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.minpsid.ga import GAConfig
from repro.minpsid.pipeline import MINPSIDConfig, minpsid
from repro.minpsid.search import InputSearchConfig, run_input_search
from repro.obs.spans import collect_phases, phase_seconds
from repro.sid.coverage import measured_coverage
from repro.sid.pipeline import SIDConfig, classic_sid
from repro.sid.profiles import build_cost_benefit_profile
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run
from tests.conftest import cached_app, executed_sites

TINY_SEARCH = InputSearchConfig(
    max_inputs=2,
    stall_limit=2,
    per_instruction_trials=2,
    ga=GAConfig(population_size=3, max_generations=2),
)


@pytest.fixture(scope="module")
def pathfinder_minpsid_run():
    """One MINPSID run on pathfinder, with the phase spans it closed."""
    app = cached_app("pathfinder")
    cfg = MINPSIDConfig(
        protection_level=0.5,
        per_instruction_trials=3,
        seed=99,
        search=TINY_SEARCH,
    )
    with collect_phases() as spans:
        res = minpsid(app, cfg)
    return app, res, spans


@pytest.fixture(scope="module")
def pathfinder_minpsid(pathfinder_minpsid_run):
    app, res, _ = pathfinder_minpsid_run
    return app, res


class TestInputSearch:
    def _ref_benefits(self, app):
        args, bindings = app.encode(app.reference_input)
        prof = profile_run(app.program, args=args, bindings=bindings)
        fi = run_per_instruction_campaign(
            app.program, 3, seed=5, args=args, bindings=bindings, profile=prof
        )
        return build_cost_benefit_profile(app.module, prof, fi).benefit

    def test_ga_search_runs(self):
        app = cached_app("pathfinder")
        out = run_input_search(app, self._ref_benefits(app), seed=3, config=TINY_SEARCH)
        assert len(out.inputs) >= 2  # reference + at least one searched
        assert len(out.trace) == len(out.inputs)
        assert out.trace == sorted(out.trace)  # cumulative counts only grow

    def test_random_search_runs(self):
        app = cached_app("pathfinder")
        cfg = InputSearchConfig(
            max_inputs=2, stall_limit=2, per_instruction_trials=2, strategy="random"
        )
        out = run_input_search(app, self._ref_benefits(app), seed=3, config=cfg)
        assert len(out.inputs) >= 2

    def test_search_deterministic(self):
        app = cached_app("pathfinder")
        ref = self._ref_benefits(app)
        a = run_input_search(app, ref, seed=11, config=TINY_SEARCH)
        b = run_input_search(app, ref, seed=11, config=TINY_SEARCH)
        assert a.inputs == b.inputs
        assert a.incubative == b.incubative


class TestMinpsidPipeline:
    def test_produces_protected_module(self, pathfinder_minpsid):
        app, res = pathfinder_minpsid
        assert res.protected.checks == len(res.selection.selected)
        assert 0.0 <= res.expected_coverage <= 1.0

    def test_protected_behaviour_preserved(self, pathfinder_minpsid):
        app, res = pathfinder_minpsid
        args, bindings = app.encode(app.reference_input)
        golden = app.program.run(args=args, bindings=bindings)
        prot = Program(res.protected.module).run(args=args, bindings=bindings)
        assert prot.output == golden.output

    def test_stopwatch_has_paper_phases(self, pathfinder_minpsid_run):
        _, _, spans = pathfinder_minpsid_run
        totals = phase_seconds(spans)
        for phase in ("per_inst_fi_ref", "search_engine", "selection", "transform"):
            assert phase in totals

    def test_incubative_get_selected(self, pathfinder_minpsid):
        """Re-prioritized incubative instructions should tend to be picked."""
        _, res = pathfinder_minpsid
        if not res.incubative:
            pytest.skip("no incubative found at tiny scale")
        picked = set(res.selection.selected) & res.incubative
        # the re-prioritization exists precisely to pull these in
        assert picked or res.selection.used_budget >= 0.49

    def test_protection_actually_protects(self, pathfinder_minpsid):
        app, res = pathfinder_minpsid
        args, bindings = app.encode(app.reference_input)
        pu = run_campaign(
            app.program, 80, seed=1, args=args, bindings=bindings
        ).sdc_probability
        pp = run_campaign(
            Program(res.protected.module), 80, seed=2, args=args, bindings=bindings
        ).sdc_probability
        cov = measured_coverage(pu, pp)
        assert cov is None or cov > 0.3

    def test_ablation_no_reprioritization(self):
        app = cached_app("pathfinder")
        cfg = MINPSIDConfig(
            protection_level=0.5,
            per_instruction_trials=3,
            seed=99,
            search=TINY_SEARCH,
            apply_reprioritization=False,
        )
        res = minpsid(app, cfg)
        assert res.protected is not None

    def test_ablation_mean_rule(self):
        app = cached_app("pathfinder")
        cfg = MINPSIDConfig(
            protection_level=0.5,
            per_instruction_trials=3,
            seed=99,
            search=TINY_SEARCH,
            reprioritize_rule="mean",
        )
        res = minpsid(app, cfg)
        assert res.protected is not None


class TestEvalHelpers:
    def test_generate_eval_inputs(self):
        app = cached_app("knn")
        inputs = generate_eval_inputs(app, 4, seed=5)
        assert len(inputs) == 4
        assert all(app.input_spec.validate(i) == i for i in inputs)

    def test_eval_inputs_deterministic(self):
        app = cached_app("knn")
        assert generate_eval_inputs(app, 3, seed=5) == generate_eval_inputs(
            app, 3, seed=5
        )

    def test_duplication_fraction_tracks_level(self):
        app = cached_app("knn")
        args, bindings = app.encode(app.reference_input)
        fracs = {}
        for level in (0.3, 0.7):
            sid = classic_sid(
                Program(app.module), args, bindings,
                SIDConfig(protection_level=level, per_instruction_trials=3),
            )
            fracs[level] = duplication_fraction(
                sid.protected, app.program, args, bindings
            )
        assert 0.0 < fracs[0.3] <= 0.3 + 1e-9
        assert fracs[0.3] < fracs[0.7] <= 0.7 + 1e-9


@pytest.mark.parametrize("name", all_app_names())
def test_duplication_fraction_matches_protected_profile(name):
    """The share priced from the original's profile equals the protected
    program's own golden profile: duplicate cycles over the cycles of
    everything that is neither a duplicate nor a check."""
    app = cached_app(name)
    (inp,) = generate_eval_inputs(app, 1, seed=41)
    args, bindings = app.encode(inp)
    golden = app.program.run(args=args, bindings=bindings, profile=True)
    sites = executed_sites(app.module, golden.instr_counts)[::2]
    for placement in ("sync", "store"):
        protected = duplicate_instructions(app.module, sites, placement)
        prof = profile_run(Program(protected.module), args=args,
                           bindings=bindings)
        dup = base = 0
        for instr in protected.module.instructions():
            if instr.opcode in ("check", "checkrange"):
                continue
            if instr.origin is not None:
                dup += prof.instr_cycles[instr.iid]
            else:
                base += prof.instr_cycles[instr.iid]
        assert dup > 0, placement
        assert duplication_fraction(
            protected, app.program, args, bindings
        ) == dup / base, placement


class TestThreadedExecution:
    def test_threaded_fft_matches_serial(self):
        from repro.exp.mt_fft import ThreadedFftApp

        serial = cached_app("fft")
        inp = {"m": 4, "scale": 1.0, "waveform": "noise", "seed": 23}
        s_args, s_bind = serial.encode(inp)
        golden = serial.program.run(args=s_args, bindings=s_bind)
        for t in (1, 2, 4):
            mt = ThreadedFftApp(num_threads=t, m=4)
            args, bindings = mt.encode({k: v for k, v in inp.items() if k != "m"})
            r = mt.program.run(args=args, bindings=bindings)
            assert r.output == pytest.approx(golden.output)

    def test_partition_range(self):
        from repro.vm.threads import partition_range

        parts = partition_range(10, 4)
        assert parts == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert partition_range(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_thread_driver_rewrite(self):
        from repro.vm.threads import ThreadPhase, make_thread_driver

        app = cached_app("fft")
        driver = make_thread_driver(
            app.module, [ThreadPhase(worker="stage_worker", size=4, extra_args=(4,))], 2
        )
        assert "main" in driver.functions
        calls = [
            i for i in driver.functions["main"].instructions() if i.opcode == "call"
        ]
        assert len(calls) == 2  # one per thread


class TestDatasets:
    def test_graph_corpus(self):
        from repro.apps.datasets import konect_like_graphs

        corpus = konect_like_graphs(8, seed=1)
        assert len(corpus) == 8
        for ds in corpus:
            n = ds["n"]
            assert ds["row_off"][0] == 0
            assert ds["row_off"][-1] == len(ds["cols"])
            assert all(0 <= c < n for c in ds["cols"])

    def test_clustering_corpus(self):
        from repro.apps.datasets import kaggle_like_clusterings

        corpus = kaggle_like_clusterings(6, seed=1)
        assert len(corpus) == 6
        shapes = {ds["name"].split("-")[0] for ds in corpus}
        assert len(shapes) >= 4  # geometry actually varies

    def test_dataset_apps_run(self):
        from repro.apps.datasets import DatasetBfsApp, DatasetKmeansApp
        from repro.apps.datasets import kaggle_like_clusterings, konect_like_graphs

        bfs = DatasetBfsApp(konect_like_graphs(3, seed=2))
        km = DatasetKmeansApp(kaggle_like_clusterings(3, seed=2))
        for app in (bfs, km):
            for inp in app.dataset_inputs():
                args, bindings = app.encode(inp)
                r = app.program.run(args=args, bindings=bindings)
                assert r.output

    def test_dataset_app_shares_module(self):
        from repro.apps.datasets import DatasetBfsApp, konect_like_graphs
        from repro.ir.printer import print_module

        ds = DatasetBfsApp(konect_like_graphs(2, seed=3))
        assert print_module(ds.module) == print_module(cached_app("bfs").module)
