"""Cache-key derivation: what a campaign outcome is a pure function of.

A fault-injection campaign is deterministic in

* the **program** — hashed as its canonical IR text (the printer's output is
  round-trippable, so two modules with identical text behave identically);
* the **input payload** — interpreter arguments and global-array bindings;
* the **fault model** — outcome-comparison tolerances (``rel_tol``,
  ``abs_tol``); the bit-flip model itself is part of the code salt;
* the **trial plan** — campaign kind, trial counts, seed, and (for
  per-instruction sweeps) the targeted iid set;
* the **code version** — :data:`CODE_SALT`, bumped whenever sampling,
  injection, or outcome-classification semantics change.

Deliberately *excluded*: ``workers`` and ``checkpoint_interval``/
``checkpoints``. Outcomes are guaranteed bit-identical across worker counts
and checkpoint schedules (the repo's core invariant, enforced by
``tests/test_fi_checkpoint.py`` and the obs determinism tests), so a result
computed serially may be served to a pooled, checkpointed re-run and vice
versa. Telemetry settings never enter the key either — tracing is inert.

Golden-run results — the detectors' value profiles and the dynamic
profiles :mod:`repro.vm.profiler` stores — depend on the program, its input
and the code salt alone, so their keys fold in nothing else.
"""

from __future__ import annotations

from repro.util.digest import stable_digest

__all__ = [
    "CODE_SALT",
    "ANALYSIS_SALT",
    "whole_program_key",
    "per_instruction_key",
    "section_summary_key",
    "value_profile_key",
    "golden_profile_key",
]

#: Version salt folded into every key. Bump on any change to fault-site
#: sampling, injection semantics, outcome classification, or RNG derivation:
#: old entries then read as misses and are recomputed, never misused.
CODE_SALT = "repro-fi-1"

#: Salt of the static-analysis layer. Bump on any change to the propagation
#: algorithm or summary schema in :mod:`repro.analysis` (the masking
#: constants are keyed explicitly, so tuning them needs no bump).
ANALYSIS_SALT = "repro-analysis-1"


def _golden(kind: str, module_text: str, args, bindings) -> dict:
    """The payload of everything a golden run depends on."""
    return {
        "salt": CODE_SALT,
        "kind": kind,
        "module": module_text,
        "args": list(args) if args is not None else None,
        "bindings": (
            {k: list(v) for k, v in bindings.items()}
            if bindings is not None else None
        ),
    }


def _base(kind: str, module_text: str, args, bindings,
          rel_tol: float, abs_tol: float, seed: int) -> dict:
    payload = _golden(kind, module_text, args, bindings)
    payload["rel_tol"] = float(rel_tol)
    payload["abs_tol"] = float(abs_tol)
    payload["seed"] = int(seed)
    return payload


def whole_program_key(
    module_text: str,
    args,
    bindings,
    rel_tol: float,
    abs_tol: float,
    n_faults: int,
    seed: int,
) -> str:
    """Key of a whole-program campaign (:func:`repro.fi.run_campaign`)."""
    payload = _base(
        "whole-program", module_text, args, bindings, rel_tol, abs_tol, seed
    )
    payload["n_faults"] = int(n_faults)
    return stable_digest(payload)


def per_instruction_key(
    module_text: str,
    args,
    bindings,
    rel_tol: float,
    abs_tol: float,
    trials_per_instruction: int,
    seed: int,
    target_iids,
) -> str:
    """Key of a per-instruction sweep.

    ``target_iids`` is the *resolved* target set, sorted: each iid samples
    from its own seeded child stream, so sweep order cannot affect per-iid
    outcomes and an explicit all-iids request keys identically to the
    default ``only_iids=None``.
    """
    payload = _base(
        "per-instruction", module_text, args, bindings, rel_tol, abs_tol, seed
    )
    payload["trials_per_instruction"] = int(trials_per_instruction)
    payload["targets"] = sorted(int(i) for i in target_iids)
    return stable_digest(payload)


def value_profile_key(module_text: str, args, bindings) -> str:
    """Key of a golden-run value profile (:mod:`repro.detectors`).

    A value profile is a pure function of the program and its input: the
    golden run is fault-free and deterministic, so tolerances, seeds and
    trial plans play no part. ``CODE_SALT`` still applies — interpreter
    semantics shape the observed values.
    """
    return stable_digest(_golden("value-profile", module_text, args, bindings))


def golden_profile_key(module_text: str, args, bindings) -> str:
    """Key of a golden run's dynamic profile (:mod:`repro.vm.profiler`).

    Like a value profile, a pure function of the program and its input:
    counts, steps, output and call paths come from one fault-free run.
    """
    return stable_digest(
        _golden("golden-profile", module_text, args, bindings)
    )


def section_summary_key(function_text: str, masking_fingerprint: dict) -> str:
    """Key of one function's error-propagation summary (FastFlip-style).

    Content-addressed by the function's canonical text and the full masking
    constant set: editing any *other* function leaves this key (and its
    cached summary) untouched — the incremental re-analysis property.
    """
    return stable_digest(
        {
            "salt": ANALYSIS_SALT,
            "kind": "section-summary",
            "function": function_text,
            "masking": dict(masking_fingerprint),
        }
    )
