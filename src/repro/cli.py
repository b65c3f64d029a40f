"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``apps``
    List the registered benchmarks (Table I).
``run <app>``
    Golden-run a benchmark on its reference input and print the output.
``inject <app>`` (alias: ``fi``)
    Whole-program FI campaign on the unprotected benchmark.
``protect <app>``
    Protect with SID or MINPSID, report selection/expected coverage, and
    optionally evaluate measured coverage across random inputs.
``analyze <app>``
    Static error-propagation analysis: predicted per-instruction SDC
    probabilities with no injections; ``--validate`` additionally scores
    the predictions against an FI ground-truth sweep.
``ir <app>``
    Print a benchmark's textual IR.
``fleet run``
    Simulate a fleet of VM hosts (a seeded minority carrying sticky
    per-opcode fault signatures) under one resilience policy and report
    SDC escapes, quarantines, and throughput cost.
``fleet sweep``
    Run the same fleet under the lax→paranoid policy ladder and print the
    escape-rate vs. throughput-cost tradeoff table.
``obs report <trace.jsonl>``
    Render the phase/campaign/counters report of a recorded telemetry trace.
``obs fleet <trace.jsonl>``
    Fleet escape-rate/quarantine report from a trace recorded during
    ``fleet run``/``fleet sweep``.
``obs export <trace.jsonl>``
    Convert a trace's span graph to Chrome trace-event JSON (loadable in
    Perfetto / ``chrome://tracing``).
``obs flame <trace.jsonl>``
    Print semicolon-folded guest stacks with cycle weights (flamegraph.pl /
    speedscope input).
``obs hotspot <trace.jsonl>``
    Guest hotspot tables: exclusive cycles per IR function, hottest
    instructions, dynamic opcode mix, batch-engine divergence sites.
``obs trend [history-dir]``
    Sparkline perf trends from an append-only bench history; exits nonzero
    when any tracked key regressed vs its reference band or rolling baseline.
``cache stats|clear|verify``
    Inspect or maintain a campaign-result cache directory.
``serve``
    Run the campaign fabric service: accept SUBMIT requests over TCP,
    dedup through the campaign cache, stream progress back (docs/FABRIC.md).
``submit <app>``
    Submit a campaign request to a running ``repro serve`` and stream its
    progress/result.

Every command accepts the observability flags: ``--trace PATH`` records a
JSONL telemetry trace, ``--progress`` prints heartbeat lines (with ETA) to
stderr, ``--dashboard`` repaints a live status panel in place of the
heartbeats, and ``-v``/``--log-level`` control diagnostic logging.
Diagnostics always go to stderr; machine-readable command output stays on
stdout.

``inject`` and ``protect`` accept ``--profile-source={fi,model,hybrid}`` to
swap injected SDC probabilities for statically predicted (or FI-verified
hybrid) ones. Campaign commands (``inject``/``fi``, ``protect``, ``analyze``)
additionally accept
``--cache-dir PATH`` (reuse bit-identical campaign results persisted there;
defaults to ``REPRO_CACHE_DIR`` when set) and ``--no-cache`` (force
recomputation even when the environment names a cache). Every execution
flag of a command goes into one run scope (:mod:`repro.runconfig`) around
it, which every campaign the command triggers resolves.

The CLI wraps the same public API the examples use; it exists so a user can
poke at the system without writing a script.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import all_app_names, get_app
from repro.errors import HarnessError
from repro.exp.report import render_table1
from repro.exp.runner import generate_eval_inputs
from repro.fi.campaign import run_campaign
from repro.ir.printer import print_module
from repro.minpsid.ga import GAConfig
from repro.minpsid.pipeline import MINPSIDConfig, minpsid
from repro.minpsid.search import InputSearchConfig
from repro.obs.core import session
from repro.obs.log import LEVELS, configure_logging, get_logger
from repro.runconfig import ENGINES, KNOBS, TRANSPORTS, resolve_field, run_scope
from repro.sid.coverage import measured_coverage
from repro.sid.pipeline import SIDConfig, classic_sid
from repro.sid.profiles import PROFILE_SOURCES
from repro.vm.interpreter import Program

__all__ = ["main", "build_parser"]

log = get_logger("cli")


def _default(name: str) -> str:
    """A run flag's default, as the run-configuration table states it."""
    knob = KNOBS[name]
    return f"default: {knob.env} env, else {knob.default}"


def _interval(raw: str):
    """Parse ``--checkpoint-interval``: ``auto``, a step count, or 0 (cold)."""
    knob = KNOBS["checkpoint_interval"]
    try:
        return knob.parse(raw.lower())
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            f"expected {knob.expects}, got {raw!r}"
        ) from e


def obs_flags() -> argparse.ArgumentParser:
    """Common observability flags, shared by every subcommand as a parent."""
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("observability")
    g.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="diagnostic logging to stderr (-v info, -vv debug)",
    )
    g.add_argument(
        "--log-level", choices=LEVELS, default=None,
        help="explicit log level (overrides -v)",
    )
    g.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a JSONL telemetry trace to PATH",
    )
    g.add_argument(
        "--progress", action="store_true",
        help="print campaign heartbeat lines (with ETA) to stderr",
    )
    g.add_argument(
        "--dashboard", action="store_true",
        help="repaint a live status panel (throughput, workers, cache, "
        "batch engine) on stderr instead of heartbeat lines; implies "
        "--progress and degrades to appended blocks on non-TTY streams",
    )
    return common


def cache_flags() -> argparse.ArgumentParser:
    """Campaign-cache flags, shared by the campaign-running subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("campaign cache")
    g.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="reuse bit-identical campaign results persisted under PATH "
        f"({_default('cache')})",
    )
    g.add_argument(
        "--no-cache", action="store_true",
        help="recompute every campaign, ignoring any configured cache",
    )
    return common


def engine_flags() -> argparse.ArgumentParser:
    """Trial-executor flags, shared by the campaign-running subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("trial executor")
    g.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="'batch' vectorizes trials in lockstep over numpy columns — "
        "bit-identical outcomes; faster than scalar on some workloads, "
        f"slower on others, see DESIGN.md §7.6 ({_default('engine')})",
    )
    g.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="trials per lockstep batch with --engine=batch "
        f"({_default('batch_size')})",
    )
    return common


def fabric_flags() -> argparse.ArgumentParser:
    """Dispatch-fabric flags, shared by the campaign-running subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("dispatch fabric")
    g.add_argument(
        "--transport", choices=TRANSPORTS, default=None,
        help="how campaign chunks reach workers: 'local' keeps the "
        "in-host process pool; 'inproc'/'socketpair'/'tcp' dispatch over "
        "the wire protocol of docs/FABRIC.md — bit-identical outcomes "
        f"either way ({_default('transport')})",
    )
    g.add_argument(
        "--adapters", metavar="HOST:PORT,...", default=None,
        help="TCP adapter endpoints for --transport=tcp "
        f"({_default('addrs')})",
    )
    return common


def supervisor_flags() -> argparse.ArgumentParser:
    """Harness-supervision flags, shared by campaign-running subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("harness supervision")
    g.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="re-submit a failed worker chunk up to N times before a typed "
        f"harness error surfaces ({_default('max_retries')})",
    )
    g.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-chunk wall-clock deadline; a hung worker past it is "
        f"killed and retried ({_default('task_timeout')})",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = obs_flags()
    caching = cache_flags()
    supervising = supervisor_flags()
    engines = engine_flags()
    fabrics = fabric_flags()

    sub.add_parser(
        "apps", help="list the registered benchmarks", parents=[common]
    )

    p_run = sub.add_parser("run", help="golden-run a benchmark", parents=[common])
    p_run.add_argument("app", choices=all_app_names())

    p_ir = sub.add_parser(
        "ir", help="print a benchmark's textual IR", parents=[common]
    )
    p_ir.add_argument("app", choices=all_app_names())

    p_inj = sub.add_parser(
        "inject", aliases=["fi"],
        parents=[common, caching, supervising, engines, fabrics],
        help="FI campaign on the unprotected app",
    )
    p_inj.add_argument("app", choices=all_app_names())
    p_inj.add_argument("--faults", type=int, default=500)
    p_inj.add_argument("--seed", type=int, default=2022)
    p_inj.add_argument(
        "--workers", type=int, default=None,
        help=f"process fan-out ({_default('workers')})",
    )
    p_inj.add_argument(
        "--checkpoint-interval", type=_interval, default="auto",
        metavar="N|auto",
        help="resume trials from golden snapshots every N instructions "
        "(default 'auto': about 16 snapshots per golden run; 0 replays "
        "every trial cold)",
    )
    p_inj.add_argument(
        "--profile-source", choices=PROFILE_SOURCES, default="fi",
        help="'fi' runs the whole-program campaign; 'model'/'hybrid' build "
        "a per-instruction SDC profile from the static model instead "
        "(hybrid spends --trials faults on the instructions near the "
        "knapsack cut) and print the most SDC-prone instructions",
    )
    p_inj.add_argument(
        "--trials", type=int, default=12,
        help="faults per verified instruction for --profile-source=hybrid",
    )

    p_prot = sub.add_parser(
        "protect", help="protect and evaluate a benchmark",
        parents=[common, caching, supervising, engines, fabrics],
    )
    p_prot.add_argument("app", choices=all_app_names())
    p_prot.add_argument("--method", choices=("sid", "minpsid"), default="minpsid")
    p_prot.add_argument("--level", type=float, default=0.5)
    p_prot.add_argument("--trials", type=int, default=10,
                        help="faults per static instruction")
    p_prot.add_argument("--search-inputs", type=int, default=5)
    p_prot.add_argument("--eval-inputs", type=int, default=0,
                        help="also measure coverage across N random inputs")
    p_prot.add_argument("--faults", type=int, default=200,
                        help="whole-program faults per evaluation campaign")
    p_prot.add_argument("--seed", type=int, default=2022)
    p_prot.add_argument(
        "--workers", type=int, default=None,
        help=f"process fan-out ({_default('workers')})",
    )
    p_prot.add_argument(
        "--profile-source", choices=PROFILE_SOURCES, default="fi",
        help="how the protection profile's SDC probabilities are obtained: "
        "injected ('fi'), statically predicted ('model'), or predicted "
        "with FI verification near the knapsack cut ('hybrid')",
    )
    p_prot.add_argument(
        "--detectors", default=None, metavar="KINDS",
        help="comma-separated detector zoo kinds (dup,range,store,checksum) "
        "— switches to the multi-detector optimizer (repro.detectors) "
        "instead of --method; validated with --faults FI campaigns",
    )
    p_prot.add_argument(
        "--frontier", action="store_true",
        help="with --detectors: sweep the budget ladder and print the "
        "coverage-vs-overhead Pareto frontier instead of one --level point",
    )

    p_an = sub.add_parser(
        "analyze", parents=[common, caching, supervising, engines, fabrics],
        help="static error-propagation analysis of a benchmark",
    )
    p_an.add_argument("app", choices=all_app_names())
    p_an.add_argument("--top", type=int, default=10,
                      help="print the N most SDC-prone instructions")
    p_an.add_argument(
        "--validate", action="store_true",
        help="also run an FI ground-truth sweep and report rank agreement "
        "plus hybrid trial savings",
    )
    p_an.add_argument("--trials", type=int, default=12,
                      help="ground-truth faults per instruction (--validate)")
    p_an.add_argument("--level", type=float, default=0.5,
                      help="protection level for the selection comparison")
    p_an.add_argument("--verify-margin", type=float, default=0.3,
                      help="hybrid verify-band half-width as a fraction of "
                      "the predicted selection")
    p_an.add_argument("--seed", type=int, default=2022)
    p_an.add_argument(
        "--workers", type=int, default=None,
        help=f"process fan-out ({_default('workers')})",
    )

    p_fleet = sub.add_parser(
        "fleet", help="fleet-scale SDC resilience simulation (defective "
        "hosts, in-field testing, quarantine policies)",
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_common = argparse.ArgumentParser(add_help=False)
    g = fleet_common.add_argument_group("fleet")
    g.add_argument("--hosts", type=int, default=200,
                   help="fleet size (default: %(default)s)")
    g.add_argument("--defect-rate", type=float, default=0.01,
                   help="defective-host fraction; the count is "
                   "round(hosts * rate) (default: %(default)s)")
    g.add_argument("--defective", type=int, default=None, metavar="N",
                   help="override the defective-host count directly")
    g.add_argument("--rounds", type=int, default=32,
                   help="job rounds to simulate (default: %(default)s)")
    g.add_argument("--seed", type=int, default=2022,
                   help="master seed; summaries are byte-identical given "
                   "equal seeds, regardless of --workers")
    g.add_argument("--apps", metavar="NAME,...", default=None,
                   help="comma-separated job mix (default: all 11 apps)")
    g.add_argument("--workers", type=int, default=None,
                   help="process fan-out for defective-host jobs "
                   f"({_default('workers')})")
    p_fr = fleet_sub.add_parser(
        "run", parents=[common, fleet_common],
        help="simulate one fleet under one resilience policy",
    )
    p_fr.add_argument(
        "--policy", metavar="SPEC", default=None,
        help="policy as [preset][,key=value,...] over test_every, "
        "test_depth, test_coverage, quarantine_at, readmit_after, "
        "protection, min_capacity; presets: default, lax, paranoid, "
        "forgiving (default: the default preset)",
    )
    p_fsw = fleet_sub.add_parser(
        "sweep", parents=[common, fleet_common],
        help="simulate the same fleet under the lax→paranoid policy "
        "ladder and print the escape-rate/throughput-cost tradeoff",
    )
    p_fsw.add_argument(
        "--check-monotone", action="store_true",
        help="exit nonzero unless the escape rate is non-increasing up "
        "the ladder (the fleet-smoke CI gate)",
    )

    p_obs = sub.add_parser("obs", help="inspect recorded telemetry traces")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_rep = obs_sub.add_parser(
        "report", parents=[common],
        help="render the phase/campaign/counters report of a trace",
    )
    p_rep.add_argument("trace_file", help="JSONL trace written by --trace")
    p_rep.add_argument(
        "--bench-dir", default="benchmarks/out", metavar="DIR",
        help="directory of BENCH_*.json perf records to check against their "
        "declared reference bands (default: %(default)s; a missing or "
        "empty directory just omits the section)",
    )
    p_exp = obs_sub.add_parser(
        "export", parents=[common],
        help="convert a trace's span graph to Chrome trace-event JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    p_exp.add_argument("trace_file", help="JSONL trace written by --trace")
    p_exp.add_argument(
        "--format", choices=("chrome-trace",), default="chrome-trace",
        help="output format (default: %(default)s)",
    )
    p_exp.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="output file (default: <trace_file>.chrome.json)",
    )
    p_flame = obs_sub.add_parser(
        "flame", parents=[common],
        help="print semicolon-folded guest stacks with cycle weights "
        "(flamegraph.pl / speedscope input)",
    )
    p_flame.add_argument("trace_file", help="JSONL trace written by --trace")
    p_hot = obs_sub.add_parser(
        "hotspot", parents=[common],
        help="guest hotspot tables: cycles per IR function, hottest "
        "instructions, opcode mix, batch divergence sites",
    )
    p_hot.add_argument("trace_file", help="JSONL trace written by --trace")
    p_ofleet = obs_sub.add_parser(
        "fleet", parents=[common],
        help="fleet escape-rate/quarantine report from a trace recorded "
        "during 'repro fleet run' or 'repro fleet sweep'",
    )
    p_ofleet.add_argument("trace_file", help="JSONL trace written by --trace")

    from repro.util.benchmeta import BENCH_HISTORY_ENV

    p_trend = obs_sub.add_parser(
        "trend", parents=[common],
        help="sparkline perf trends from an append-only bench history; "
        "exits nonzero when any tracked key regressed",
    )
    p_trend.add_argument(
        "history_dir", nargs="?", default=None,
        help="bench-history directory of *.jsonl series (default: the "
        f"{BENCH_HISTORY_ENV} environment)",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain a campaign-result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name, desc in (
        ("stats", "entry count and byte footprint of the store"),
        ("clear", "remove every cached campaign result"),
        ("verify", "integrity-check every entry; delete the damaged ones"),
    ):
        p = cache_sub.add_parser(name, parents=[common], help=desc)
        p.add_argument(
            "--cache-dir", metavar="PATH", default=None,
            help=f"cache directory (default: the {KNOBS['cache'].env} "
            "environment)",
        )

    p_srv = sub.add_parser(
        "serve", parents=[common, fabrics],
        help="run the campaign fabric service (docs/FABRIC.md)",
    )
    p_srv.add_argument(
        "--listen", metavar="HOST:PORT", default="127.0.0.1:9440",
        help="bind address; port 0 picks a free port and the bound address "
        "is announced on a 'REPRO-SERVE LISTENING host:port' stdout line "
        "(default: %(default)s)",
    )
    p_srv.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="campaign cache for request dedup — repeated identical SUBMITs "
        f"answer from it with zero trials dispatched (default: the "
        f"{KNOBS['cache'].env} environment, else no dedup)",
    )

    p_sub = sub.add_parser(
        "submit", parents=[common],
        help="submit a campaign to a running 'repro serve' and stream it",
    )
    p_sub.add_argument("app", choices=all_app_names())
    p_sub.add_argument(
        "--connect", metavar="HOST:PORT", default="127.0.0.1:9440",
        help="address of the repro serve endpoint (default: %(default)s)",
    )
    p_sub.add_argument("--faults", type=int, default=500)
    p_sub.add_argument("--seed", type=int, default=2022)
    p_sub.add_argument(
        "--input", metavar="JSON", default=None,
        help="input-record JSON for the app's decoder "
        "(default: the app's reference input)",
    )
    p_sub.add_argument(
        "--workers", type=int, default=None,
        help="server-side process fan-out for this campaign "
        "(default: the server's environment)",
    )
    p_sub.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-frame receive deadline while streaming (default: none)",
    )
    return ap


def _cmd_apps(out) -> int:
    print(render_table1(), file=out)
    return 0


def _cmd_run(args, out) -> int:
    app = get_app(args.app)
    r = app.run_reference()
    print(f"{app.name}: {r.steps} dynamic instructions", file=out)
    print(f"output ({len(r.output)} values): {r.output}", file=out)
    return 0


def _cmd_ir(args, out) -> int:
    print(print_module(get_app(args.app).module), file=out)
    return 0


def _cmd_inject(args, out) -> int:
    app = get_app(args.app)
    a, b = app.encode(app.reference_input)
    if args.profile_source != "fi":
        return _inject_profile(args, app, a, b, out)
    log.info(
        "campaign: app=%s faults=%d seed=%d workers=%s checkpoint=%s",
        app.name, args.faults, args.seed, args.workers,
        args.checkpoint_interval,
    )
    camp = run_campaign(
        app.program, args.faults, args.seed, args=a, bindings=b,
        rel_tol=app.rel_tol, abs_tol=app.abs_tol,
    )
    lo, hi = camp.sdc_confidence()
    print(f"{app.name}: {camp.counts!r}", file=out)
    print(
        f"SDC probability {camp.sdc_probability:.2%} "
        f"(95% CI [{lo:.2%}, {hi:.2%}])",
        file=out,
    )
    return 0


def _inject_profile(args, app, a, b, out) -> int:
    """``inject --profile-source=model|hybrid``: model-built SDC profile."""
    from repro.sid.profiles import build_profile_from_source

    log.info(
        "model profile: app=%s source=%s trials=%d seed=%d",
        app.name, args.profile_source, args.trials, args.seed,
    )
    profile = build_profile_from_source(
        app.program, a, b,
        source=args.profile_source,
        trials_per_instruction=args.trials,
        seed=args.seed,
        rel_tol=app.rel_tol,
        abs_tol=app.abs_tol,
    )
    verified = sum(1 for v in profile.provenance.values() if v == "fi")
    print(
        f"{app.name}: per-instruction SDC profile from "
        f"'{profile.source}' source", file=out,
    )
    if args.profile_source == "hybrid":
        print(
            f"FI-verified instructions: {verified} "
            f"({verified * args.trials} trials)", file=out,
        )
    _print_top_instructions(app.module, profile, 10, out)
    return 0


def _print_top_instructions(module, profile, top: int, out) -> None:
    """Most SDC-prone executed instructions of a cost/benefit profile."""
    ranked = sorted(
        (
            (iid, p) for iid, p in profile.sdc_prob.items()
            if profile.counts.get(iid, 0) > 0
        ),
        key=lambda kv: (-kv[1], kv[0]),
    )[:top]
    print(f"top {len(ranked)} SDC-prone instructions:", file=out)
    for iid, p in ranked:
        instr = module.instruction(iid)
        src = profile.provenance.get(iid, profile.source)
        print(
            f"  iid {iid:4d}  p={p:.3f}  [{src:5s}] "
            f"{instr.opcode} in @{instr.parent.parent.name}",
            file=out,
        )


def _cmd_analyze(args, out) -> int:
    from repro.analysis.model import (
        predict_sdc_probabilities, predicted_whole_program_sdc,
    )
    from repro.sid.profiles import build_cost_benefit_profile
    from repro.vm.profiler import profile_run

    app = get_app(args.app)
    a, b = app.encode(app.reference_input)
    log.info("analyze: app=%s validate=%s", app.name, args.validate)
    dyn = profile_run(app.program, args=a, bindings=b)
    predicted = predict_sdc_probabilities(app.module, dyn, rel_tol=app.rel_tol)
    print(
        f"{app.name}: analyzed {len(predicted.sdc_prob)} injectable "
        f"instructions across {len(app.module.functions)} functions",
        file=out,
    )
    print(
        f"predicted whole-program SDC probability: "
        f"{predicted_whole_program_sdc(predicted):.2%}",
        file=out,
    )
    profile = build_cost_benefit_profile(
        app.module, dyn, predicted, source="model"
    )
    _print_top_instructions(app.module, profile, args.top, out)
    if not args.validate:
        return 0

    from repro.exp.config import TINY
    from repro.exp.modelval import render_model_validation, run_model_validation

    # workers=None defers to --workers, through the command's run scope.
    scale = TINY.with_(
        per_instr_trials=args.trials,
        seed=args.seed,
        workers=None,
        protection_levels=(args.level,),
    )
    rows = run_model_validation(
        scale, apps=(app.name,), verify_margin=args.verify_margin
    )
    print("", file=out)
    print(render_model_validation(rows), file=out)
    return 0


def _cmd_obs(args, out) -> int:
    from repro.obs.report import load_trace, render_report

    if args.obs_command == "report":
        print(
            render_report(args.trace_file, bench_dir=args.bench_dir), file=out
        )
        return 0
    if args.obs_command == "trend":
        from repro.obs.trend import render_trend
        from repro.util.benchmeta import BENCH_HISTORY_ENV, history_dir

        directory = args.history_dir or history_dir()
        if directory is None:
            print(
                "no bench history: pass a directory or set "
                f"{BENCH_HISTORY_ENV}",
                file=sys.stderr,
            )
            return 2
        text, regressions = render_trend(directory)
        print(text, file=out)
        return 1 if regressions else 0
    # The trace-consuming subcommands tolerate a half-written final line
    # (a live or killed producer), surfacing the drop on stderr.
    warnings: list[str] = []
    records = load_trace(
        args.trace_file, tolerate_torn_tail=True, warnings=warnings
    )
    for w in warnings:
        print(f"WARNING: {w}", file=sys.stderr)
    if args.obs_command == "export":
        from repro.obs.export import write_chrome_trace

        output = args.output or f"{args.trace_file}.chrome.json"
        n = write_chrome_trace(records, output)
        print(f"wrote {n} {args.format} events to {output}", file=out)
        return 0
    if args.obs_command == "flame":
        from repro.obs.hotspot import folded_stacks

        for line in folded_stacks(records):
            print(line, file=out)
        return 0
    if args.obs_command == "fleet":
        from repro.obs.fleetview import render_fleet

        print(render_fleet(records), file=out)
        return 0
    from repro.obs.hotspot import render_hotspots

    print(render_hotspots(records), file=out)
    return 0


def _cmd_fleet(args, out) -> int:
    from repro.fleet import parse_policy, render_fleet_summary, run_fleet
    from repro.fleet.sweep import render_sweep, run_sweep, sweep_is_monotone

    apps = args.apps.split(",") if args.apps else None
    if args.fleet_command == "run":
        result = run_fleet(
            args.hosts, args.defect_rate, parse_policy(args.policy),
            args.seed, rounds=args.rounds, apps=apps,
            n_defective=args.defective,
        )
        print(render_fleet_summary(result), file=out)
        return 0
    results = run_sweep(
        args.hosts, args.defect_rate, args.seed, rounds=args.rounds,
        apps=apps, n_defective=args.defective,
    )
    print(render_sweep(results), file=out)
    if args.check_monotone and not sweep_is_monotone(results):
        return 1
    return 0


def _cmd_cache(args, out) -> int:
    store = resolve_field("cache", args.cache_dir)
    if store is None:
        print(
            "no cache directory: pass --cache-dir or set "
            f"{KNOBS['cache'].env}",
            file=sys.stderr,
        )
        return 2
    if args.cache_command == "stats":
        print(store.stats().render(), file=out)
    elif args.cache_command == "clear":
        removed = store.clear()
        print(f"cleared {removed} entries from {store.root}", file=out)
    else:  # verify
        bad = store.verify(delete=True)
        total = store.stats().entries
        if bad:
            print(
                f"{store.root}: removed {len(bad)} damaged entries, "
                f"{total} intact",
                file=out,
            )
        else:
            print(f"{store.root}: all {total} entries intact", file=out)
    return 0


def _cmd_protect_detectors(args, out) -> int:
    from repro.detectors import (
        DEFAULT_BUDGETS,
        FrontierConfig,
        build_frontier,
        frontier_detector_kinds,
        frontier_is_monotone,
    )

    app = get_app(args.app)
    a, b = app.encode(app.reference_input)
    kinds = tuple(k.strip() for k in args.detectors.split(",") if k.strip())
    budgets = DEFAULT_BUDGETS if args.frontier else (args.level,)
    log.info(
        "protect: app=%s detectors=%s budgets=%s seed=%d",
        app.name, ",".join(kinds), budgets, args.seed,
    )
    res = build_frontier(
        app.module, a, b,
        FrontierConfig(
            detectors=kinds,
            budgets=budgets,
            profile_source=args.profile_source,
            per_instruction_trials=args.trials,
            seed=args.seed,
            rel_tol=app.rel_tol,
            abs_tol=app.abs_tol,
            validate_faults=args.faults,
        ),
    )
    print(f"technique: detector zoo [{','.join(kinds)}]", file=out)
    print(
        f"candidates: {len(res.candidates)} across "
        f"{len(set(c.detector for c in res.candidates))} detector kinds",
        file=out,
    )
    for p, v in zip(res.points, res.validations):
        c = p.config
        mix = " ".join(f"{k}:{n}" for k, n in sorted(c.by_kind.items()))
        mc = (
            f"{v.measured_coverage:.2%}"
            if v.measured_coverage is not None else "n/a"
        )
        print(
            f"  budget {p.budget:>5.0%}: overhead {c.overhead:.1%} "
            f"(measured {v.measured_overhead:.1%}), coverage "
            f"predicted {c.coverage:.2%} / measured {mc}, "
            f"detected {v.detected_rate:.2%} [{mix or 'none'}]",
            file=out,
        )
    if args.frontier:
        print(
            "frontier: "
            + ("monotone" if frontier_is_monotone(res.points)
               else "NOT monotone")
            + f", kinds {','.join(frontier_detector_kinds(res.points))}",
            file=out,
        )
    return 0


def _cmd_protect(args, out) -> int:
    if getattr(args, "detectors", None):
        return _cmd_protect_detectors(args, out)
    app = get_app(args.app)
    a, b = app.encode(app.reference_input)
    log.info(
        "protect: app=%s method=%s level=%.2f seed=%d",
        app.name, args.method, args.level, args.seed,
    )
    if args.method == "sid":
        res = classic_sid(
            app.program, a, b,
            SIDConfig(
                protection_level=args.level,
                per_instruction_trials=args.trials,
                seed=args.seed,
                rel_tol=app.rel_tol,
                abs_tol=app.abs_tol,
                profile_source=args.profile_source,
            ),
        )
        protected, selection = res.protected, res.selection
        print(f"technique: classic SID @{args.level:.0%}", file=out)
    else:
        res = minpsid(
            app,
            MINPSIDConfig(
                protection_level=args.level,
                per_instruction_trials=args.trials,
                seed=args.seed,
                profile_source=args.profile_source,
                search=InputSearchConfig(
                    max_inputs=args.search_inputs,
                    per_instruction_trials=max(2, args.trials // 2),
                    ga=GAConfig(),
                ),
            ),
        )
        protected, selection = res.protected, res.selection
        print(f"technique: MINPSID @{args.level:.0%}", file=out)
        print(
            f"searched inputs: {len(res.search.inputs) - 1}, "
            f"incubative found: {len(res.incubative)}",
            file=out,
        )
    print(
        f"selected {len(selection.selected)} instructions "
        f"({selection.used_budget:.1%} of cycles), "
        f"{protected.checks} checks inserted",
        file=out,
    )
    print(f"expected SDC coverage: {selection.expected_coverage:.2%}", file=out)

    if args.eval_inputs > 0:
        prog_prot = Program(protected.module)
        inputs = generate_eval_inputs(app, args.eval_inputs, args.seed + 1)
        covered = []
        for k, inp in enumerate(inputs):
            ia, ib = app.encode(inp)
            pu = run_campaign(
                app.program, args.faults, args.seed + 10 + k, args=ia,
                bindings=ib, rel_tol=app.rel_tol, abs_tol=app.abs_tol,
            ).sdc_probability
            pp = run_campaign(
                prog_prot, args.faults, args.seed + 1000 + k, args=ia,
                bindings=ib, rel_tol=app.rel_tol, abs_tol=app.abs_tol,
            ).sdc_probability
            cov = measured_coverage(pu, pp)
            if cov is not None:
                covered.append(cov)
                print(f"  input {k}: measured coverage {cov:.2%}", file=out)
        if covered:
            print(
                f"measured coverage: min {min(covered):.2%}, "
                f"mean {sum(covered) / len(covered):.2%}",
                file=out,
            )
    return 0


def _cmd_serve(args, out) -> int:
    from repro.fabric.serve import run_serve
    from repro.fabric.transport import parse_addr

    host, port = parse_addr(args.listen)
    log.info(
        "serve: listen=%s:%d transport=%s cache=%s",
        host, port, args.transport or "(env)", args.cache_dir or "(env)",
    )
    run_serve(
        host, port, cache=args.cache_dir,
        transport=args.transport, adapters=args.adapters,
    )
    return 0


def _cmd_submit(args, out) -> int:
    import json

    from repro.fabric.serve import submit
    from repro.fabric.transport import parse_addr

    host, port = parse_addr(args.connect)
    request = {"app": args.app, "n_faults": args.faults, "seed": args.seed}
    if args.input is not None:
        request["input"] = json.loads(args.input)
    if args.workers is not None:
        request["workers"] = args.workers
    app = get_app(args.app)
    request.setdefault("rel_tol", app.rel_tol)
    request.setdefault("abs_tol", app.abs_tol)
    seen = {"events": 0}

    def on_progress(record) -> None:
        seen["events"] += 1
        if isinstance(record, dict) and record.get("event") == "heartbeat":
            print(
                f"  progress: {record.get('done', '?')}/"
                f"{record.get('total', '?')} trials",
                file=sys.stderr,
            )

    outcome = submit(
        host, port, request, on_progress=on_progress, timeout=args.timeout
    )
    if not outcome.get("ok"):
        print(f"campaign failed: {outcome.get('error')}", file=sys.stderr)
        return 3
    counts = outcome.get("counts", {})
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"{args.app}: {summary or 'no outcomes'}", file=out)
    print(
        f"SDC probability {outcome.get('sdc_probability', 0.0):.2%} "
        f"over {outcome.get('trials', 0)} trials",
        file=out,
    )
    cached = outcome.get("cached")
    print(
        f"trials dispatched: {outcome.get('dispatched', '?')} "
        f"(cache: {'hit' if cached else 'miss'}), "
        f"{outcome.get('seconds', 0.0):.2f}s server-side, "
        f"{seen['events']} progress events",
        file=out,
    )
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    configure_logging(
        verbose=getattr(args, "verbose", 0),
        log_level=getattr(args, "log_level", None),
    )
    handlers = {
        "apps": lambda: _cmd_apps(out),
        "run": lambda: _cmd_run(args, out),
        "ir": lambda: _cmd_ir(args, out),
        "inject": lambda: _cmd_inject(args, out),
        "fi": lambda: _cmd_inject(args, out),
        "protect": lambda: _cmd_protect(args, out),
        "analyze": lambda: _cmd_analyze(args, out),
        "fleet": lambda: _cmd_fleet(args, out),
        "obs": lambda: _cmd_obs(args, out),
        "cache": lambda: _cmd_cache(args, out),
        "serve": lambda: _cmd_serve(args, out),
        "submit": lambda: _cmd_submit(args, out),
    }
    handler = handlers[args.command]
    # serve installs its own run scope around each request and submit runs
    # no campaigns locally, so neither goes through _in_run_scope.
    if args.command not in ("cache", "serve", "submit"):
        inner = handler
        handler = lambda: _in_run_scope(args, inner)  # noqa: E731
    trace = getattr(args, "trace", None)
    progress = getattr(args, "progress", False)
    want_dashboard = getattr(args, "dashboard", False)
    try:
        if trace or progress or want_dashboard:
            dashboard = None
            if want_dashboard:
                from repro.obs.dashboard import Dashboard

                dashboard = Dashboard()
            with session(trace=trace, progress=progress, dashboard=dashboard):
                rc = handler()
            if trace:
                log.info("telemetry trace written to %s", trace)
            return rc
        return handler()
    except HarnessError as e:
        # Infrastructure faults that survived every retry: summarize,
        # never dump a raw traceback over the machine-readable output.
        print(
            f"harness failure ({type(e).__name__}): {e}", file=sys.stderr
        )
        return 3


def _in_run_scope(args, handler) -> int:
    """Run a command handler under the one run scope its flags describe.

    Every campaign the command triggers — including nested ones inside
    hybrid verification or protection evaluation — resolves these settings
    (:mod:`repro.runconfig`) without any layer forwarding them. A flag the
    command lacks, or leaves at ``None``, defers to the environment.
    """
    def flag(name: str):
        return getattr(args, name, None)

    with run_scope(
        workers=flag("workers"),
        engine=flag("engine"),
        batch_size=flag("batch_size"),
        checkpoint_interval=flag("checkpoint_interval"),
        transport=flag("transport"),
        addrs=flag("adapters"),
        max_retries=flag("max_retries"),
        task_timeout=flag("task_timeout"),
        cache=False if flag("no_cache") else flag("cache_dir"),
    ):
        store = resolve_field("cache")
        if store is not None:
            log.info("campaign cache: %s", store.root)
        return handler()
