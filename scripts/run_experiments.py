#!/usr/bin/env python3
"""Run the full evaluation harness and write results + reports to results/.

This is the top-level entry point for regenerating every table and figure of
the paper in one go (what the per-table benchmarks do piecewise):

    python scripts/run_experiments.py --scale tiny      # seconds-scale smoke
    python scripts/run_experiments.py --scale small     # minutes; EXPERIMENTS.md
    python scripts/run_experiments.py --scale full      # paper-shaped (hours)

Artifacts written to --out (default results/<scale>/):
  fig2.json/.txt, table2.txt, fig6.json/.txt, table3.txt, fig3.txt,
  fig7.txt, fig8.txt, fig9.txt, table4.txt, overhead.txt, fleet.txt,
  detectors.txt, mt_fft.txt, summary.txt
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.cli import _interval
from repro.exp.config import FULL, SMALL, TINY, ScaleConfig
from repro.exp.fig2 import run_fig2_study
from repro.exp.fig3 import find_incubative_example
from repro.exp.fig6 import run_fig6_study
from repro.exp.fig7 import run_fig7_study
from repro.exp.fig8 import render_fig8, run_fig8_study
from repro.exp.fig9 import run_fig9_study
from repro.exp.figdetectors import render_figdetectors, run_figdetectors_study
from repro.exp.figfleet import render_figfleet, run_figfleet_study
from repro.exp.mt_fft import run_mt_fft_study
from repro.exp.overhead import render_overhead, summarize_overhead
from repro.exp.report import (
    render_comparison,
    render_coverage_figure,
    render_loss_table,
    render_table1,
)
from repro.exp.results import save_json
from repro.obs.core import session
from repro.obs.log import LEVELS, configure_logging, get_logger
from repro.runconfig import resolve_field
from repro.util.tables import format_percent, format_table

SCALES = {"tiny": TINY, "small": SMALL, "full": FULL}

log = get_logger("scripts.run_experiments")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", choices=SCALES, default="tiny")
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--workers", type=int, default=None,
                    help="FI process fan-out (default: REPRO_WORKERS env "
                    "or serial)")
    ap.add_argument("--checkpoint-interval", type=_interval, default="auto",
                    metavar="N|auto",
                    help="resume FI trials from golden snapshots every N "
                    "instructions (default 'auto': about 16 snapshots per "
                    "golden run; 0 replays every trial cold)")
    ap.add_argument("--max-retries", type=int, default=None, metavar="N",
                    help="retries per failed worker chunk before a harness "
                    "failure surfaces (default: REPRO_MAX_RETRIES env, "
                    "else 2)")
    ap.add_argument("--task-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="per-chunk wall-clock deadline for hung-worker "
                    "detection (default: REPRO_TASK_TIMEOUT env, else off)")
    ap.add_argument("--engine", choices=("scalar", "batch"), default=None,
                    help="FI trial executor: 'batch' vectorizes trials in "
                    "lockstep (bit-identical outcomes, much faster; "
                    "default: REPRO_ENGINE env, else scalar)")
    ap.add_argument("--batch-size", type=int, default=None, metavar="N",
                    help="trials per lockstep batch with --engine=batch "
                    "(default: REPRO_BATCH_SIZE env, else engine default)")
    ap.add_argument("--cache-dir", metavar="PATH", default=None,
                    help="reuse bit-identical campaign results persisted "
                    "under PATH (default: REPRO_CACHE_DIR env, else no "
                    "caching); re-running an unchanged scale dispatches "
                    "zero campaigns")
    ap.add_argument("--no-cache", action="store_true",
                    help="recompute every campaign, ignoring any "
                    "configured cache")
    ap.add_argument("--apps", nargs="*", default=None,
                    help="restrict to these benchmarks")
    ap.add_argument("--skip", nargs="*", default=[],
                    help="experiment ids to skip (fig7 fig8 fig9 fleet "
                    "detectors mt ...)")
    ap.add_argument("-v", "--verbose", action="count", default=0,
                    help="diagnostic logging to stderr (-v info, -vv debug)")
    ap.add_argument("--log-level", choices=LEVELS, default=None,
                    help="explicit log level (overrides -v)")
    ap.add_argument("--trace", metavar="PATH", default=None,
                    help="record a JSONL telemetry trace to PATH")
    ap.add_argument("--progress", action="store_true",
                    help="print campaign heartbeat lines to stderr")
    args = ap.parse_args(argv)
    configure_logging(verbose=args.verbose, log_level=args.log_level)

    if args.trace or args.progress:
        with session(trace=args.trace, progress=args.progress):
            rc = _run(args)
        if args.trace:
            log.info("telemetry trace written to %s", args.trace)
        return rc
    return _run(args)


def _run(args) -> int:
    # Every driver installs these flags as its run scope (repro.runconfig);
    # --no-cache disables caching even where REPRO_CACHE_DIR names a store.
    scale: ScaleConfig = SCALES[args.scale].with_(
        workers=args.workers, checkpoint_interval=args.checkpoint_interval,
        max_retries=args.max_retries, task_timeout=args.task_timeout,
        engine=args.engine, batch_size=args.batch_size,
        cache_dir=False if args.no_cache else args.cache_dir,
    )
    if args.apps:
        scale = scale.with_(apps=tuple(args.apps))
    store = resolve_field("cache", scale.cache_dir)
    if store is not None:
        log.info("campaign cache: %s", store.root)
    return _run_experiments(args, scale)


def _run_experiments(args, scale: ScaleConfig) -> int:
    out = args.out or Path("results") / scale.name
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.time()
    failures: list[tuple[str, BaseException]] = []

    def write(name: str, text: str) -> None:
        (out / f"{name}.txt").write_text(text + "\n")
        print(f"[{time.time() - t_start:7.1f}s] wrote {out / name}.txt")

    def step(name: str, fn):
        """Run one experiment, isolating its failure from the batch.

        A study that dies — harness exhaustion, a toolchain bug — is
        logged and recorded; the remaining figures still run and the
        process exits nonzero with a failure summary at the end.
        """
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - isolation point by design
            log.error("experiment %s failed: %s: %s",
                      name, type(exc).__name__, exc)
            failures.append((name, exc))
            return None

    step("table1", lambda: write("table1", render_table1()))

    # Fig. 2 / Table II (baseline SID) with §VIII-A duplication measurement.
    def _fig2():
        base = run_fig2_study(scale, measure_duplication=True)
        save_json(out / "fig2.json", base.to_dict())
        write("fig2", render_coverage_figure(
            base,
            "Fig. 2: baseline SID coverage across inputs (E = expected)"))
        write("table2", render_loss_table(
            base, "Table II: % coverage-loss inputs (baseline SID)"))
        return base

    base = step("fig2", _fig2)

    # Fig. 6 / Table III (MINPSID).
    def _fig6():
        hardened = run_fig6_study(scale, measure_duplication=True)
        save_json(out / "fig6.json", hardened.to_dict())
        fig6 = render_coverage_figure(
            hardened, "Fig. 6: MINPSID coverage across inputs (E = expected)")
        if base is not None:
            fig6 += "\n\n" + render_comparison(base, hardened,
                                               "SID vs MINPSID")
        write("fig6", fig6)
        write("table3", render_loss_table(
            hardened, "Table III: % coverage-loss inputs (MINPSID)"))
        return hardened

    hardened = step("fig6", _fig6)

    # §VIII-A overhead variance (derived from the two studies above).
    if base is not None and hardened is not None:
        step("overhead", lambda: write("overhead", render_overhead(
            summarize_overhead(base) + summarize_overhead(hardened))))

    if "fig3" not in args.skip:
        step("fig3", lambda: write(
            "fig3", find_incubative_example(scale, app_name="fft").render()))

    if "fig7" not in args.skip:
        def _fig7():
            apps7 = scale.apps or ("pathfinder", "kmeans", "fft", "knn")
            rows = []
            for app in apps7:
                c = run_fig7_study(app, scale)
                rows.append([app, str(c.ga_found), str(c.random_found),
                             f"{100 * c.advantage:+.1f}%"])
            write("fig7", format_table(
                ["Benchmark", "GA found", "Random found", "Advantage"], rows,
                title="Fig. 7: incubative instructions found at equal "
                "budget"))

        step("fig7", _fig7)

    if "fig8" not in args.skip:
        def _fig8():
            apps8 = list(
                scale.apps or ("pathfinder", "knn", "xsbench", "kmeans"))
            write("fig8", render_fig8(run_fig8_study(apps8, scale)))

        step("fig8", _fig8)

    if "fig9" not in args.skip:
        def _fig9():
            b9, h9 = run_fig9_study(scale)
            write("fig9", render_coverage_figure(b9, "Fig. 9 baseline")
                  + "\n" + render_coverage_figure(h9, "Fig. 9 MINPSID")
                  + "\n\n" + render_comparison(b9, h9, "Case-study summary"))
            rows = []
            for app in ("bfs", "kmeans"):
                for study, label in ((b9, "Baseline"), (h9, "MINPSID")):
                    rows.append(
                        [f"{app} ({label})"]
                        + [format_percent(
                            study.by_app_level(app, l).loss_input_fraction())
                           for l in study.levels()]
                    )
            write("table4", format_table(
                ["Benchmark"] + [f"{int(100 * l)}%" for l in b9.levels()],
                rows, title="Table IV: case-study coverage-loss inputs"))

        step("fig9", _fig9)

    if "fleet" not in args.skip:
        def _fleet():
            write("fleet", render_figfleet(run_figfleet_study(scale)))

        step("fleet", _fleet)

    if "detectors" not in args.skip:
        def _detectors():
            write("detectors", render_figdetectors(
                run_figdetectors_study(scale)))

        step("detectors", _detectors)

    if "mt" not in args.skip:
        def _mt():
            rows = run_mt_fft_study(scale)
            write("mt_fft", format_table(
                ["Threads", "SID loss", "MINPSID loss"],
                [[str(r.threads), format_percent(r.sid_loss),
                  format_percent(r.minpsid_loss)] for r in rows],
                title="Sec. VIII-B: multithreaded FFT"))

        step("mt", _mt)

    # Summary.
    def _summary():
        lines = [f"scale={scale.name}, wall={time.time() - t_start:.0f}s", ""]
        for level in base.levels():
            lines.append(
                f"level {level:.0%}: loss-input fraction "
                f"SID {base.average_loss_fraction(level):.1%} vs "
                f"MINPSID {hardened.average_loss_fraction(level):.1%}"
            )
        base_min = (sum(r.min_coverage() for r in base.results)
                    / len(base.results))
        hard_min = (sum(r.min_coverage() for r in hardened.results)
                    / len(hardened.results))
        lines.append(f"mean minimum coverage: SID {base_min:.1%} "
                     f"vs MINPSID {hard_min:.1%}")
        write("summary", "\n".join(lines))
        print("\n".join(lines))

    if base is not None and hardened is not None:
        step("summary", _summary)

    if failures:
        print(f"\n{len(failures)} experiment(s) failed:", file=sys.stderr)
        for name, exc in failures:
            print(f"  {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
