#!/usr/bin/env python3
"""Where trial steps go: outcome x convergence of whole-program campaigns.

Runs an N-fault whole-program campaign on each chosen app's reference input
(serial, scalar engine, default checkpointing, no cache) and counts every
trial from outside: it wraps the campaign's ``inject_one_resumed`` for the
outcome, ``Program.resume`` for whether the trial converged, and
``Program._start`` for the run state, whose step counter still holds the
steps a trapped trial ran. A trial's steps are those it executed after the
snapshot it resumed from.

    PYTHONPATH=src python scripts/trial_mix.py --apps kmeans fft --faults 1000
    PYTHONPATH=src python scripts/trial_mix.py --faults 1000 --seed 1

It prints, per app and in total, the trials and the share of trial steps in
each outcome class, benign and SDC trials split by whether they converged
on a golden snapshot, then the same classes' shares of trials in total.
Counting runs no extra guest code, so the campaigns' outcomes are the ones
``repro fi`` reports.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.apps import all_app_names, get_app
from repro.fi import campaign as _campaign
from repro.fi.campaign import run_campaign
from repro.util.tables import format_table
from repro.vm.interpreter import Program

#: Outcome classes, in print order: (outcome, converged) for trials that
#: finished, the outcome alone for trapped ones.
CLASSES = (
    ("sdc", False), ("sdc", True), ("benign", False), ("benign", True),
    ("crash", None), ("detected", None), ("hang", None),
)


def _label(cls) -> str:
    outcome, converged = cls
    if converged is None:
        return outcome
    return f"{outcome} {'conv' if converged else 'not conv'}"


class Counting:
    """Wraps the injector and the VM entry points while installed."""

    def __init__(self) -> None:
        self.trials: Counter = Counter()
        self.steps: Counter = Counter()
        self._trial: dict | None = None

    def __enter__(self) -> "Counting":
        self._real = (_campaign.inject_one_resumed, Program.resume,
                      Program._start)
        real_inject, real_resume, real_start = self._real
        counting = self

        def inject(*args, **kwargs):
            counting._trial = trial = {}
            outcome = real_inject(*args, **kwargs)
            counting._trial = None
            converged = trial.get("converged") if outcome.value in (
                "sdc", "benign") else None
            cls = (outcome.value, converged)
            counting.trials[cls] += 1
            counting.steps[cls] += trial["state"].steps - trial["base"]
            return outcome

        def resume(self, snapshot, *args, **kwargs):
            result = real_resume(self, snapshot, *args, **kwargs)
            if counting._trial is not None:
                counting._trial["converged"] = result.converged
            return result

        def start(self, snapshot, *args, **kwargs):
            state, frames = real_start(self, snapshot, *args, **kwargs)
            if counting._trial is not None:
                counting._trial.update(state=state, base=snapshot.steps)
            return state, frames

        _campaign.inject_one_resumed = inject
        Program.resume = resume
        Program._start = start
        return self

    def __exit__(self, *exc) -> None:
        (_campaign.inject_one_resumed, Program.resume,
         Program._start) = self._real


def _share(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "-"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--apps", nargs="*", default=all_app_names(),
                    choices=all_app_names(), metavar="APP",
                    help="benchmarks to run (default: all 11)")
    ap.add_argument("--faults", type=int, default=1000,
                    help="whole-program faults per campaign")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rows = []
    total = Counting()
    for name in args.apps:
        app = get_app(name)
        a, b = app.encode(app.reference_input)
        with Counting() as counts:
            run_campaign(
                app.program, args.faults, args.seed, args=a, bindings=b,
                rel_tol=app.rel_tol, abs_tol=app.abs_tol, workers=1,
                checkpoint_interval="auto", cache=False, engine="scalar",
            )
        total.trials.update(counts.trials)
        total.steps.update(counts.steps)
        steps = sum(counts.steps.values())
        rows.append([name, sum(counts.trials.values()), steps]
                    + [_share(counts.steps[c], steps) for c in CLASSES])
    steps = sum(total.steps.values())
    trials = sum(total.trials.values())
    rows.append(["total", trials, steps]
                + [_share(total.steps[c], steps) for c in CLASSES])
    print(format_table(
        ["app", "trials", "trial steps", *map(_label, CLASSES)], rows,
        title=f"Share of trial steps by outcome ({args.faults} faults per "
              f"app, seed {args.seed})",
    ))
    print()
    print(format_table(
        ["class", "trials", "share of trials", "share of trial steps"],
        [[_label(c), total.trials[c], _share(total.trials[c], trials),
          _share(total.steps[c], steps)] for c in CLASSES],
        title="All apps",
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
