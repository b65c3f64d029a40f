"""Output checks: campaign digests, a reference executor, study digests.

During the timed repetitions a thin :class:`Recorder` around the two
campaign entry points counts the calls and the work each study resolves
(trials times golden-run steps), which turns wall time into a throughput
that does not depend on how large the seed's random inputs happen to be.
For a few calls it keeps the arguments and a digest of the outcomes —
never the result, so the recorder does not inflate the process's memory.

After timing, :meth:`Recorder.run_oracle` re-executes, per app, one
whole-program campaign and the reference-input per-instruction campaign
(restricted to 16 iids through ``only_iids``; per-iid fault sites come from
``rng.child(iid)``, so they match the full sweep) on the reference
executor: scalar engine, no workers, no checkpoints, no cache. The outcomes
must be bit-identical to what the timed run recorded.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import time
from pathlib import Path

from bench.trace import patch_function, restore

__all__ = ["Checks", "Recorder", "expected_path", "study_digest"]

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Iids re-executed per reference sweep by the oracle.
ORACLE_IIDS = 16

_REFERENCE_EXECUTOR = dict(
    workers=0, engine="scalar", batch_size=None, checkpoint_interval=None,
    checkpoints=None, cache=False, profile=None, transport=None,
)


class Checks:
    """Pass/fail tally behind ``attempted``/``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)


def _sha(payload) -> str:
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode()).hexdigest()


def tallies(result) -> dict[int, list]:
    """Per-iid outcome counts of a per-instruction campaign."""
    return {
        iid: sorted([o.value, n] for o, n in c.counts.items() if n)
        for iid, c in result.per_iid.items()
    }


def outcome_digest(result) -> str:
    """SHA-256 of a whole-program campaign's outcomes, in fault order."""
    return _sha([[iid, o.value] for iid, o in result.per_fault])


class Recorder:
    """Counts the study's campaign calls, sums their work, keeps a few.

    ``work`` sums what the calls of the current repetition resolved:
    trials times the golden-run steps of the program and input each call
    injects into. A repetition started with ``account=False`` skips that
    (traced ones do: the golden runs it takes would show in the trace).
    One started with ``keep=True`` also keeps, per app, the last
    whole-program call and the first full per-instruction call, with the
    SHA-256 or per-iid tallies of their outcomes, for :meth:`run_oracle`.
    ``tick`` (if set) runs after every call. The recorder's own time,
    ``tick`` included, is added to ``excluded`` so the bench can take it
    out of its timings.
    """

    KINDS = ("run_campaign", "run_per_instruction_campaign")

    def __init__(self) -> None:
        self.calls = 0
        self.selected: list = []
        self.work = 0
        self.keep = False
        self.account = True
        self.tick = None
        self.excluded = 0.0
        self.oracle_calls: dict[tuple, tuple] = {}
        self._orig: dict = {}
        self._patches: list = []

    def install(self) -> None:
        self._patches = [
            patch_function("repro.fi.campaign", kind,
                           lambda fn, k=kind: self._wrap_campaign(k, fn))
            for kind in self.KINDS
        ]
        self._patches.append(patch_function(
            "repro.exp.runner", "evaluate_protection", self._wrap_evaluate
        ))

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches = []

    def start_rep(self, keep: bool, account: bool = True) -> None:
        self.calls = 0
        self.selected = []
        self.work = 0
        self.keep = keep
        self.account = account

    def _wrap_campaign(self, kind: str, fn):
        self._orig[kind] = fn
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            t0 = time.perf_counter()
            self.calls += 1
            if self.account:
                self._account(kind, sig.bind(*args, **kwargs).arguments,
                              result)
            if self.tick is not None:
                self.tick()
            self.excluded += time.perf_counter() - t0
            return result

        return wrapper

    def _account(self, kind: str, call: dict, result) -> None:
        program = call["program"]
        app = program.module.name
        if kind == "run_campaign":
            golden = program.run(
                args=call.get("args"), bindings=call.get("bindings")
            )
            self.work += result.trials * golden.steps
            # The last whole-program campaign of an app runs on the
            # MINPSID-protected binary: checks and duplicates included.
            if self.keep:
                self.oracle_calls[(app, kind)] = (call, outcome_digest(result))
        else:
            trials = sum(c.total for c in result.per_iid.values())
            self.work += trials * result.profile.steps
            if self.keep and call.get("only_iids") is None:
                self.oracle_calls.setdefault(
                    (app, kind), (call, tallies(result))
                )

    def _wrap_evaluate(self, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            call = sig.bind(*args, **kwargs).arguments
            self.selected.append([
                call["technique"], call["app"].name,
                call["protection_level"],
                sorted(call["protected"].protected_iids),
            ])
            return fn(*args, **kwargs)

        return wrapper

    def run_oracle(self, seed: int, checks: Checks) -> None:
        """Re-execute the kept calls on the reference executor."""
        for (app, kind), (call, expected) in sorted(self.oracle_calls.items()):
            redo = {**call, **_REFERENCE_EXECUTOR}
            if kind == "run_campaign":
                got = outcome_digest(self._orig[kind](**redo))
                checks.check(f"oracle {app} whole-program campaign",
                             got == expected)
                continue
            iids = sorted(expected)
            iids = sorted(random.Random(seed).sample(
                iids, min(ORACLE_IIDS, len(iids))))
            got = tallies(self._orig[kind](**{**redo, "only_iids": iids}))
            want = {iid: expected[iid] for iid in iids}
            checks.check(f"oracle {app} per-instruction campaign",
                         got == want)


def study_digest(sid, minpsid, selected: list) -> tuple[str, dict]:
    """Digest of one study plus the human-readable part it covers."""
    def rows(study):
        return [
            {
                "app": r.app,
                "level": r.protection_level,
                "expected_coverage": r.expected_coverage,
                "loss_input_fraction": r.loss_input_fraction(),
            }
            for r in study.results
        ]

    summary = {"sid": rows(sid), "minpsid": rows(minpsid),
               "selected_iids": selected}
    digest = _sha({"sid": sid.to_dict(), "minpsid": minpsid.to_dict(),
                   "selected_iids": selected})
    return digest, summary


def expected_path(config: str) -> Path:
    return EXPECTED_DIR / f"{config}.json"
