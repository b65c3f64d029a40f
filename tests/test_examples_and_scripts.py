"""Smoke tests: the example scripts and the experiment runner stay importable
and their entry points run at micro scale.

Full example runs take minutes; these tests execute the cheap paths (module
import, argument parsing, tiny harness invocations) so refactors cannot
silently break the documented entry points.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestExamplesImportable:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "coverage_loss_study",
            "minpsid_pipeline",
            "input_search_demo",
            "custom_kernel",
        ],
    )
    def test_example_loads_and_has_main(self, name):
        mod = load_script(ROOT / "examples" / f"{name}.py")
        assert callable(mod.main)


class TestCustomKernelApp:
    def test_heat_stencil_is_a_valid_app(self):
        mod = load_script(ROOT / "examples" / "custom_kernel.py")
        app = mod.HeatStencilApp()
        r = app.run_reference()
        assert r.output
        # Conservation sanity: interior diffusion with fixed boundaries keeps
        # values within the initial range.
        assert all(v == v for v in r.output)  # no NaN

    def test_heat_stencil_matches_numpy(self):
        import numpy as np

        mod = load_script(ROOT / "examples" / "custom_kernel.py")
        app = mod.HeatStencilApp()
        inp = app.reference_input
        args, bindings = app.encode(inp)
        n, steps, alpha = args
        u = np.array(bindings["u"][:n])
        for _ in range(steps):
            nxt = u.copy()
            nxt[1:-1] = u[1:-1] + alpha * (u[:-2] - 2 * u[1:-1] + u[2:])
            u = nxt
        got = app.run_reference().output
        assert got[:n] == pytest.approx(list(u), rel=1e-9)


class TestRunExperimentsScript:
    def test_cli_parses_and_runs_micro(self, tmp_path):
        script = load_script(ROOT / "scripts" / "run_experiments.py")
        rc = script.main(
            [
                "--scale", "tiny",
                "--out", str(tmp_path),
                "--apps", "pathfinder",
                "--skip", "fig3", "fig7", "fig8", "fig9", "mt",
            ]
        )
        assert rc == 0
        for artifact in ("table1", "fig2", "table2", "fig6", "table3",
                         "overhead", "fleet", "summary"):
            assert (tmp_path / f"{artifact}.txt").exists(), artifact
        assert (tmp_path / "fig2.json").exists()

    def test_one_failing_study_does_not_sink_the_batch(
        self, tmp_path, monkeypatch, capsys
    ):
        """Per-figure isolation: fig2 dies, fig6 still runs, exit is 1."""
        script = load_script(ROOT / "scripts" / "run_experiments.py")

        def explode(*a, **kw):
            raise RuntimeError("injected study failure")

        monkeypatch.setattr(script, "run_fig2_study", explode)
        rc = script.main(
            [
                "--scale", "tiny",
                "--out", str(tmp_path),
                "--apps", "pathfinder",
                "--skip", "fig3", "fig7", "fig8", "fig9", "mt",
            ]
        )
        assert rc == 1
        # The failing figure's artifacts are absent...
        assert not (tmp_path / "fig2.txt").exists()
        # ...but the rest of the batch still ran to completion.
        for artifact in ("table1", "fig6", "table3"):
            assert (tmp_path / f"{artifact}.txt").exists(), artifact
        err = capsys.readouterr().err
        assert "1 experiment(s) failed" in err
        assert "fig2: RuntimeError: injected study failure" in err


class TestDocPathLint:
    """``scripts/doc_lint.py``: docs name only modules that exist."""

    def test_docs_name_only_existing_modules(self):
        assert load_script(ROOT / "scripts" / "doc_lint.py").lint_doc_paths() == []

    def test_stale_paths_are_flagged(self):
        lint = load_script(ROOT / "scripts" / "doc_lint.py")
        text = (
            "`repro/exp/fig8_timing.py`, `repro/ir/{types,nope}.py`, "
            "`repro/sid/*`, `src/repro/cache`, repro/obs/timers.PhaseTimer"
        )
        named = [
            p for m in lint._DOC_PATH.finditer(text)
            for p in lint._expand_braces(m.group())
        ]
        assert named == [
            "repro/exp/fig8_timing.py", "repro/ir/types.py", "repro/ir/nope.py",
            "repro/sid/*", "repro/cache", "repro/obs/timers",
        ]
        assert [p for p in named if lint._doc_path_missing(p)] == [
            "repro/exp/fig8_timing.py", "repro/ir/nope.py", "repro/obs/timers",
        ]
