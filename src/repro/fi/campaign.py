"""FI campaigns: whole-program and per-instruction Monte-Carlo estimation.

Both campaign styles are deterministic in (program, input, seed) and can fan
out across processes. For parallel runs, workers receive the module as text
(cheap to pickle) and rebuild/cache the decoded :class:`Program` per process,
mirroring how the paper farms LLFI runs across nodes.

Because outcomes are pure functions of (program text, input, fault model,
trial plan), both entry points also consult the content-addressed campaign
cache (:mod:`repro.cache`) when one is active: a hit skips profiling,
checkpoint recording, and every trial, returning a bit-identical result; a
miss runs as usual and writes back. Pass ``cache=False`` to opt a single
call out, or an explicit :class:`~repro.cache.CampaignCache` to override
the installed one.

Pooled dispatch goes through :func:`repro.util.parallel.parallel_map`,
whose supervisor retries crashed, hung, or raising workers with backoff on a
respawned pool, so a host-side infrastructure fault no longer aborts a
campaign, and whose chunks bring worker telemetry home. A campaign
either returns the complete, bit-identical outcome set or raises a typed
:class:`~repro.errors.HarnessError`; partial results are never returned and
never published to the cache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.cache.keys import per_instruction_key, whole_program_key
from repro.fi.faultmodel import (
    FaultSite,
    injectable_iids,
    sample_fault_sites,
    sample_per_instruction_sites,
)
from repro.fi.injector import inject_one_resumed
from repro.fi.outcome import Outcome, OutcomeCounts, classify_run
from repro.fi.stats import wilson_interval
from repro.ir.parser import parse_module
from repro.obs.core import current as _obs_current
from repro.obs.progress import progress_scope
from repro.obs.spans import span as _span
from repro.runconfig import UNSET, RunConfig, resolve
from repro.util.parallel import parallel_map
from repro.util.rng import RngStream
from repro.vm.batch import run_trials_lockstep
from repro.vm.checkpoint import CheckpointStore, record_checkpoints
from repro.vm.interpreter import Program
from repro.vm.profiler import (
    DynamicProfile,
    memoized_profile,
    profile_run,
    store_profile,
    stored_profile,
)

__all__ = [
    "CampaignResult",
    "PerInstructionResult",
    "HybridResult",
    "run_campaign",
    "run_per_instruction_campaign",
    "run_model_guided_campaign",
    "per_detector_detection",
]


@dataclass
class CampaignResult:
    """Whole-program campaign outcome (the paper's 1000-fault campaigns)."""

    counts: OutcomeCounts
    #: (iid, outcome) per injected fault — feeds §IV's which-instruction-
    #: caused-this-SDC root-cause analysis.
    per_fault: list[tuple[int, Outcome]] = field(default_factory=list)
    trials: int = 0

    @property
    def sdc_probability(self) -> float:
        return self.counts.sdc_probability

    def sdc_confidence(self, confidence: float = 0.95) -> tuple[float, float]:
        return wilson_interval(
            self.counts.counts[Outcome.SDC], self.trials, confidence
        )

    def sdc_iids(self) -> set[int]:
        """Static instructions that produced at least one SDC."""
        return {iid for iid, o in self.per_fault if o is Outcome.SDC}


def per_detector_detection(
    result: "CampaignResult", protected
) -> dict[str, tuple[int, int]]:
    """Measured detection per detector kind on a protected-module campaign.

    ``protected`` is the :class:`repro.detectors.ProtectedModule` the
    campaign ran on. Each recorded fault site (a protected-module iid) is
    mapped back to its original instruction via ``origin_of``; faults
    landing on instructions a detector guards are credited to that
    detector's kind. Returns ``kind -> (detected, faults)`` — the measured
    per-detector detection rates the zoo's coverage estimators predict a
    priori. Faults on unguarded instructions aggregate under ``"none"``.
    """
    per_kind: dict[str, tuple[int, int]] = {}
    detectors = getattr(protected, "detectors", {}) or {
        iid: "dup" for iid in protected.protected_iids
    }
    for new_iid, outcome in result.per_fault:
        orig = protected.origin_of(new_iid)
        kind = detectors.get(orig, "none") if orig is not None else "none"
        det, tot = per_kind.get(kind, (0, 0))
        per_kind[kind] = (
            det + (1 if outcome is Outcome.DETECTED else 0),
            tot + 1,
        )
    return per_kind


@dataclass
class PerInstructionResult:
    """Per-instruction campaign outcome (100 faults/instruction style)."""

    per_iid: dict[int, OutcomeCounts]
    profile: DynamicProfile
    trials_per_instruction: int

    def sdc_probability(self, iid: int) -> float:
        """SDC probability of one static instruction under this input.

        Instructions that never executed have probability 0 (no dynamic
        instance to corrupt) — the same convention the paper applies.
        """
        counts = self.per_iid.get(iid)
        return counts.sdc_probability if counts else 0.0

    def sdc_probabilities(self) -> dict[int, float]:
        return {iid: c.sdc_probability for iid, c in self.per_iid.items()}


# ---------------------------------------------------------------------------
# Parallel worker machinery. A worker serves every pooled campaign of its run
# scope, one at a time. The per-map initializer seeds it once per campaign
# with the trial context (golden store, output, tolerances) and the
# Program, rebuilt from module text and kept while later campaigns inject
# into the same text. A worker holds one context and one Program: both are
# dropped before the next campaign's are decoded.
# ---------------------------------------------------------------------------

_worker_cache: dict[str, Program] = {}
_worker_ctx: dict = {}


def _get_program(module_text: str) -> Program:
    prog = _worker_cache.get(module_text)
    if prog is None:
        _worker_cache.clear()  # one program at a time, gone before decoding
        prog = Program(parse_module(module_text))
        _worker_cache[module_text] = prog
    return prog


def _run_chunk_scalar(
    program: Program,
    chunk: list,
    store: CheckpointStore,
    golden_output: list,
    golden_steps: int,
    rel_tol: float,
    abs_tol: float,
    rep=None,
) -> list[tuple[int, int, str]]:
    """One interpreter run per row: ``chunk`` rows → ``(pos, iid, outcome)``.

    Each trial resumes from its row's snapshot with the later snapshots as
    convergence oracles.
    """
    out = []
    with _span("chunk", {"trials": len(chunk)}, infra=True):
        for pos, iid, instance, bit, snap_index in chunk:
            o = inject_one_resumed(
                program,
                FaultSite(iid, instance, bit),
                store,
                golden_output,
                golden_steps,
                rel_tol=rel_tol,
                abs_tol=abs_tol,
                snapshot_index=snap_index,
            )
            out.append((pos, iid, o.value))
            if rep is not None:
                rep.update(1)
    return out


def _run_chunk_lockstep(
    program: Program,
    chunk: list,
    store: CheckpointStore,
    golden_output: list,
    golden_steps: int,
    rel_tol: float,
    abs_tol: float,
    rep=None,
) -> list[tuple[int, int, str]]:
    """One lockstep batch: ``chunk`` rows → ``(pos, iid, outcome)`` rows.

    The chunk is pre-sorted by snapshot index, so every fault in it lies
    after the chunk-minimum snapshot — the whole batch resumes from that
    one snapshot with the later snapshots as convergence oracles for rows
    that leave it.
    """
    snap_index = chunk[0][4]
    with _span("chunk", {"trials": len(chunk)}, infra=True):
        results, _stats = run_trials_lockstep(
            program,
            [FaultSite(iid, inst, bit) for _pos, iid, inst, bit, _si in chunk],
            store.snapshots[snap_index],
            golden_output=golden_output,
            convergence=store.convergence_from(snap_index),
            step_limit=golden_steps * 8 + 10_000,
        )
    out = []
    for (pos, iid, _inst, _bit, _si), (r_out, trap) in zip(chunk, results):
        o = classify_run(golden_output, r_out, trap, rel_tol, abs_tol)
        out.append((pos, iid, o.value))
    if rep is not None:
        rep.update(len(out))
    return out


def _init_worker(module_text: str, lockstep: bool, trial: tuple) -> None:
    """Per-map worker initializer: pin the campaign's program and trial
    context (``trial`` holds the chunk runner's arguments after the chunk)."""
    _worker_ctx.clear()
    _worker_ctx.update(
        program=_get_program(module_text),
        run=_run_chunk_lockstep if lockstep else _run_chunk_scalar,
        trial=trial,
    )


def _inject_chunk(chunk):
    """Worker entry: one chunk → its ``(pos, iid, outcome)`` rows and the
    pid that ran them."""
    ctx = _worker_ctx
    return ctx["run"](ctx["program"], chunk, *ctx["trial"]), os.getpid()


def _note_batch(t, cid: str | None, trials: int, pid: int, mode: str) -> None:
    """Emit one ``campaign.batch`` record when a session is active."""
    if t is not None:
        t.emit(
            "campaign.batch",
            {"trials": trials, "pid": pid, "mode": mode},
            campaign=cid,
        )


def _note_campaign(
    t, cid: str | None, label: str, counts: OutcomeCounts, trials: int
) -> None:
    """Fold a finished campaign into counters and emit ``campaign.end``."""
    outcomes = {
        o.value: n for o, n in counts.counts.items() if n
    }
    t.count("fi.campaigns")
    t.count("fi.trials", trials)
    for name, n in outcomes.items():
        t.count(f"fi.outcome.{name}", n)
    t.emit(
        "campaign.end",
        {
            "label": label,
            "trials": trials,
            "outcomes": outcomes,
        },
        campaign=cid,
    )


def _golden_pass(
    program: Program,
    args,
    bindings,
    profile: DynamicProfile | None,
    run: RunConfig,
    checkpoints: CheckpointStore | None,
    profile_cache=None,
) -> tuple[DynamicProfile, CheckpointStore]:
    """The golden profile and checkpoint store a campaign's trials need.

    Precedence: an explicit pre-recorded ``checkpoints`` store wins;
    otherwise ``run.checkpoint_interval`` selects recording (``"auto"``
    thins its way to :func:`~repro.vm.checkpoint.auto_interval`, a positive
    int is taken literally), and ``0`` gives a store that holds only the
    entry snapshot, so every trial starts at step 0 with no oracles.
    Without a ``profile`` the campaign takes the program's memoized one,
    then the one ``profile_cache`` holds (:mod:`repro.vm.profiler`); on a
    miss a recording campaign takes both from one profiled recording run,
    which fills the memo and ``profile_cache``, so it executes the golden
    program once before its trials. Whether or not a profile exists, the
    recording and so its snapshots are the same.
    """
    key = None
    if profile is None:
        profile = memoized_profile(program, args, bindings)
    if profile is None:
        profile, key = stored_profile(program, args, bindings, profile_cache)
    if checkpoints is None and run.checkpoint_interval:
        interval = (
            None if run.checkpoint_interval == "auto"
            else run.checkpoint_interval
        )
        checkpoints = record_checkpoints(
            program, args=args, bindings=bindings, interval=interval,
            profile=profile is None,
        )
        if profile is None:
            profile = checkpoints.profile
            store_profile(profile_cache, key, profile)
    if profile is None:
        profile = profile_run(program, args=args, bindings=bindings, cache=False)
        store_profile(profile_cache, key, profile)
    if checkpoints is None:
        checkpoints = CheckpointStore(
            interval=0, snapshots=[program.entry_snapshot(args, bindings)],
            golden_steps=profile.steps,
        )
    return profile, checkpoints


def _dispatch_sites(
    program: Program,
    sites: list[FaultSite],
    store: CheckpointStore,
    profile: DynamicProfile,
    rel_tol: float,
    abs_tol: float,
    run: RunConfig,
    obs_label: str = "fi",
    obs_cid: str | None = None,
) -> list[tuple[int, Outcome]]:
    """Run every fault site, serially or across supervised workers.

    Sites are sorted by (snapshot index, instance) — trials sharing a
    snapshot run back to back (restore locality), by instance within it,
    so execution sweeps the golden timeline once — and cut into chunks.
    The scalar engine runs one interpreter per trial, resumed from the
    nearest preceding snapshot, in one chunk serially or about four per
    worker. The batch engine vectorizes
    ``batch_size`` rows per chunk in lockstep from the chunk-minimum
    snapshot. Serial runs execute the chunks in-process; pooled runs farm
    them to workers. Results are reassembled in sampling order, so
    ``per_fault`` (and every downstream number) is byte-identical across
    engines, stores and worker counts.

    ``run`` is the campaign's resolved run configuration
    (:mod:`repro.runconfig`). A transport other than ``local`` swaps the
    process pool for transport-backed adapters (:mod:`repro.fabric`,
    loaded only then) behind the same supervisor. Like the engine and the
    worker count, the transport is an execution strategy, never part of a
    cache key: every combination produces bit-identical outcome lists.
    """
    workers = max(1, run.workers)
    pool_factory = None
    if run.transport != "local":
        from repro.fabric import harness

        pool_factory = harness.pool_factory(run)
    lockstep = run.engine == "batch"
    snap = [store.snapshot_index_for(s.iid, s.instance) for s in sites]
    order = sorted(range(len(sites)), key=lambda k: (snap[k], sites[k].instance))
    rows = [
        (k, sites[k].iid, sites[k].instance, sites[k].bit, snap[k])
        for k in order
    ]
    if lockstep:
        size = run.batch_size
        small = len(rows) <= size  # one batch: nothing to spread
    else:
        size = max(8, len(rows) // (workers * 4))
        small = len(rows) < 32
    serial = pool_factory is None and (workers == 1 or small)
    if serial and not lockstep:
        size = max(1, len(rows))  # one chunk
    chunks = [rows[i : i + size] for i in range(0, len(rows), size)]
    trial = (store, profile.output, profile.steps, rel_tol, abs_tol)
    run_chunk = _run_chunk_lockstep if lockstep else _run_chunk_scalar
    t = _obs_current()
    rep = t.progress_for(obs_label, len(sites)) if t is not None else None
    if serial:
        with progress_scope(rep):
            done = [
                row for chunk in chunks
                for row in run_chunk(program, chunk, *trial, rep=rep)
            ]
        _note_batch(t, obs_cid, len(sites), os.getpid(), "serial")
    else:

        def on_result(res) -> None:
            chunk_rows, pid = res
            _note_batch(t, obs_cid, len(chunk_rows), pid, "worker")
            if rep is not None:
                rep.update(len(chunk_rows))

        with progress_scope(rep):
            out = parallel_map(
                _inject_chunk,
                chunks,
                initializer=_init_worker,
                initargs=(program.text, lockstep, trial),
                on_result=on_result,
                run=run,
                pool_factory=pool_factory,
            )
        done = [row for chunk_rows, _pid in out for row in chunk_rows]
    results: list = [None] * len(sites)
    for pos, iid, o in done:
        results[pos] = (iid, Outcome(o))
    return results


# ---------------------------------------------------------------------------
# Campaign cache adapters: payload encode/decode around the entry points.
# Lookup and write-back happen in the parent, around the whole campaign, so
# workers never touch the store and caching composes freely with pooling and
# checkpoint-resume. Decoders are defensive: any malformed payload reads as a
# miss (the campaign recomputes), never an exception or a wrong result.
# ---------------------------------------------------------------------------


def _run_config(
    workers, engine, batch_size, transport, cache, checkpoint_interval
) -> RunConfig:
    """An entry point's run configuration; its keywords are the explicit
    layer (``None`` = not set), except that an explicit
    ``checkpoint_interval=None`` keeps meaning an entry-only store."""
    if checkpoint_interval is None:
        checkpoint_interval = 0
    elif checkpoint_interval is UNSET:
        checkpoint_interval = None
    return resolve(
        workers=workers, engine=engine, batch_size=batch_size,
        transport=transport, cache=cache,
        checkpoint_interval=checkpoint_interval,
    )


def _note_cache_hit(label: str, key: str, trials: int) -> None:
    t = _obs_current()
    if t is not None:
        t.emit("cache.hit", {"label": label, "key": key, "trials": trials})


def _encode_campaign(result: CampaignResult) -> dict:
    return {
        "kind": "whole-program",
        "trials": result.trials,
        "per_fault": [[iid, o.value] for iid, o in result.per_fault],
    }


def _decode_campaign(payload: dict | None) -> CampaignResult | None:
    if not isinstance(payload, dict) or payload.get("kind") != "whole-program":
        return None
    try:
        per_fault = [
            (int(iid), Outcome(o)) for iid, o in payload["per_fault"]
        ]
        trials = int(payload["trials"])
    except (KeyError, TypeError, ValueError):
        return None
    if trials != len(per_fault):
        return None
    counts = OutcomeCounts()
    for _, o in per_fault:
        counts.record(o)
    return CampaignResult(counts=counts, per_fault=per_fault, trials=trials)


def _encode_per_instruction(result: PerInstructionResult) -> dict:
    return {
        "kind": "per-instruction",
        "trials_per_instruction": result.trials_per_instruction,
        "per_iid": [
            [iid, {o.value: n for o, n in c.counts.items() if n}]
            for iid, c in result.per_iid.items()
        ],
    }


def _decode_per_instruction(
    payload: dict | None, profile: DynamicProfile
) -> PerInstructionResult | None:
    if not isinstance(payload, dict) or payload.get("kind") != "per-instruction":
        return None
    try:
        per_iid: dict[int, OutcomeCounts] = {}
        for iid, tally in payload["per_iid"]:
            counts = OutcomeCounts()
            for name, n in tally.items():
                counts.counts[Outcome(name)] = int(n)
            per_iid[int(iid)] = counts
        trials = int(payload["trials_per_instruction"])
    except (KeyError, TypeError, ValueError):
        return None
    return PerInstructionResult(
        per_iid=per_iid, profile=profile, trials_per_instruction=trials
    )


# ---------------------------------------------------------------------------
# Public campaign entry points
# ---------------------------------------------------------------------------


def run_campaign(
    program: Program,
    n_faults: int,
    seed: int,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    workers: int | None = None,
    profile: DynamicProfile | None = None,
    checkpoint_interval=UNSET,
    checkpoints: CheckpointStore | None = None,
    cache=None,
    engine: str | None = None,
    batch_size: int | None = None,
    transport: str | None = None,
) -> CampaignResult:
    """Whole-program campaign: ``n_faults`` uniform dynamic-instance flips.

    The golden ``profile`` defaults to the program's memoized one
    (:mod:`repro.vm.profiler`), so campaigns on the same program and input
    profile it once. A pre-recorded ``checkpoints`` store skips even the
    recording run. The campaign neither reads nor writes a golden-profile
    cache entry: a replay's cache hit skips its golden pass, so a profile
    it stored would never be read back.

    How the campaign executes comes from the run configuration
    (:mod:`repro.runconfig`, DESIGN.md §7.12): ``workers``, ``engine``,
    ``batch_size``, ``transport``, ``cache`` and ``checkpoint_interval``
    are its explicit layer over the ambient scope and the environment, and
    ``None`` leaves a field to them — except ``checkpoint_interval=None``
    (or ``0``), which starts every trial at step 0, from a store that
    holds only the input's entry snapshot. Trials otherwise resume from
    golden checkpoints (``"auto"``: about 16 snapshots per golden run; an
    int: every that many instructions), and without a ``profile`` the
    recording run profiles too. ``cache=False`` turns result caching
    off for this call; a hit returns a bit-identical result without
    profiling or injecting. None of these settings changes the outcomes
    or enters a cache key; a supervised pooled campaign is bit-identical
    to a serial one or raises a :class:`~repro.errors.HarnessError`,
    never returns partial data.
    """
    run = _run_config(
        workers, engine, batch_size, transport, cache, checkpoint_interval
    )
    store_cache = run.cache
    key = None
    if store_cache is not None:
        key = whole_program_key(
            program.text, args, bindings, rel_tol, abs_tol, n_faults, seed,
        )
        cached = _decode_campaign(store_cache.get(key))
        if cached is not None:
            _note_cache_hit("fi.whole-program", key, cached.trials)
            return cached
    profile, store = _golden_pass(
        program, args, bindings, profile, run, checkpoints
    )
    rng = RngStream(seed, "campaign")
    sites = sample_fault_sites(program.module, profile, n_faults, rng)
    t = _obs_current()
    cid = t.new_campaign() if t is not None else None
    if t is not None:
        t.emit(
            "campaign.begin",
            {
                "label": "fi.whole-program",
                "trials": len(sites),
                "seed": seed,
                "checkpointed": len(store) > 1,
                "engine": run.engine,
            },
            campaign=cid,
        )
    with _span(
        "campaign",
        {
            "label": "fi.whole-program",
            "trials": len(sites),
            "engine": run.engine,
        },
        campaign=cid,
    ):
        per_fault = _dispatch_sites(
            program, sites, store, profile, rel_tol, abs_tol, run,
            "fi campaign", cid,
        )
    counts = OutcomeCounts()
    for _, o in per_fault:
        counts.record(o)
    if t is not None:
        _note_campaign(t, cid, "fi.whole-program", counts, len(sites))
    result = CampaignResult(
        counts=counts, per_fault=per_fault, trials=len(sites)
    )
    # Publish only fully classified outcome sets: a failed campaign raises
    # before this point, and the length check is the belt-and-braces guard
    # against any future executor returning partial results.
    if store_cache is not None and len(per_fault) == len(sites):
        store_cache.put(key, _encode_campaign(result))
    return result


def run_per_instruction_campaign(
    program: Program,
    trials_per_instruction: int,
    seed: int,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    workers: int | None = None,
    profile: DynamicProfile | None = None,
    only_iids: list[int] | None = None,
    checkpoint_interval=UNSET,
    checkpoints: CheckpointStore | None = None,
    cache=None,
    engine: str | None = None,
    batch_size: int | None = None,
    transport: str | None = None,
) -> PerInstructionResult:
    """Per-instruction campaign over every executed injectable instruction.

    ``only_iids`` restricts the sweep (used by incremental passes that only
    need a subset re-measured). ``checkpoints`` and the run-configuration
    keywords behave as in :func:`run_campaign` — per-instruction sweeps
    replay the golden prefix hardest (trials × instructions), so they gain
    the most from checkpoint resume. A cache hit needs only the golden
    profile: the caller's, the program's memoized one, or the campaign
    cache's. Unlike :func:`run_campaign`, a sweep reads and writes that
    golden-profile entry (:mod:`repro.vm.profiler`) under its own resolved
    ``cache``, so ``cache=False`` touches neither.
    """
    module = program.module
    targets = only_iids if only_iids is not None else injectable_iids(module)
    run = _run_config(
        workers, engine, batch_size, transport, cache, checkpoint_interval
    )
    store_cache = run.cache
    key = None
    if store_cache is not None:
        key = per_instruction_key(
            program.text, args, bindings, rel_tol, abs_tol,
            trials_per_instruction, seed, targets,
        )
        payload = store_cache.get(key)
        if payload is not None:
            if profile is None:
                profile = profile_run(
                    program, args=args, bindings=bindings, cache=store_cache
                )
            cached = _decode_per_instruction(payload, profile)
            if cached is not None:
                trials = sum(c.total for c in cached.per_iid.values())
                _note_cache_hit("fi.per-instruction", key, trials)
                return cached
    profile, store = _golden_pass(
        program, args, bindings, profile, run, checkpoints, store_cache
    )
    rng = RngStream(seed, "per-instr")
    all_sites: list[FaultSite] = []
    for iid in targets:
        all_sites.extend(
            sample_per_instruction_sites(
                module, profile, iid, trials_per_instruction, rng.child(iid)
            )
        )
    t = _obs_current()
    cid = t.new_campaign() if t is not None else None
    if t is not None:
        t.emit(
            "campaign.begin",
            {
                "label": "fi.per-instruction",
                "trials": len(all_sites),
                "seed": seed,
                "n_iids": len(targets),
                "trials_per_instruction": trials_per_instruction,
                "checkpointed": len(store) > 1,
                "engine": run.engine,
            },
            campaign=cid,
        )
    with _span(
        "campaign",
        {
            "label": "fi.per-instruction",
            "trials": len(all_sites),
            "engine": run.engine,
        },
        campaign=cid,
    ):
        per_fault = _dispatch_sites(
            program, all_sites, store, profile, rel_tol, abs_tol, run,
            "per-instruction fi", cid,
        )
    per_iid: dict[int, OutcomeCounts] = {}
    agg = OutcomeCounts()
    for iid, o in per_fault:
        per_iid.setdefault(iid, OutcomeCounts()).record(o)
        agg.record(o)
    if t is not None:
        _note_campaign(t, cid, "fi.per-instruction", agg, len(all_sites))
    result = PerInstructionResult(
        per_iid=per_iid,
        profile=profile,
        trials_per_instruction=trials_per_instruction,
    )
    # As in run_campaign: only a fully classified sweep may be published —
    # harness failures raise above, so a partial per_iid never reaches here.
    if store_cache is not None and len(per_fault) == len(all_sites):
        store_cache.put(key, _encode_per_instruction(result))
    return result


# ---------------------------------------------------------------------------
# Model-guided (hybrid) campaigns: predict with the static error-propagation
# model, spend FI trials only where the prediction could change the
# protected set (near the knapsack cut), and keep model probabilities for
# the long tail. Imported lazily-by-layer: repro.analysis depends on
# repro.fi.faultmodel only, so this direction introduces no cycle.
# ---------------------------------------------------------------------------


@dataclass
class HybridResult:
    """Predict-then-verify outcome: FI where it matters, model elsewhere.

    Duck-typed like :class:`PerInstructionResult` (``sdc_probability`` /
    ``sdc_probabilities`` / ``profile``), plus per-iid ``provenance`` so
    profiles and results can label which probabilities were verified.
    """

    sdc_prob: dict[int, float]
    #: ``"fi"`` for verified iids, ``"model"`` for predicted-only ones.
    provenance: dict[int, str]
    profile: DynamicProfile
    trials_per_instruction: int
    #: FI trials actually spent vs. what a full sweep would have cost.
    fi_trials: int = 0
    full_sweep_trials: int = 0

    def sdc_probability(self, iid: int) -> float:
        return self.sdc_prob.get(iid, 0.0)

    def sdc_probabilities(self) -> dict[int, float]:
        return dict(self.sdc_prob)

    @property
    def trials_saved_factor(self) -> float:
        """How many times cheaper than a full per-instruction sweep."""
        if self.fi_trials <= 0:
            return float("inf") if self.full_sweep_trials else 1.0
        return self.full_sweep_trials / self.fi_trials


def run_model_guided_campaign(
    program: Program,
    trials_per_instruction: int,
    seed: int,
    args: list | None = None,
    bindings: dict[str, list] | None = None,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    workers: int | None = None,
    profile: DynamicProfile | None = None,
    protection_levels: tuple[float, ...] = (0.3, 0.5, 0.7),
    verify_margin: float = 0.3,
    checkpoint_interval=UNSET,
    checkpoints: CheckpointStore | None = None,
    cache=None,
    masking=None,
    engine: str | None = None,
    batch_size: int | None = None,
    transport: str | None = None,
) -> HybridResult:
    """Hybrid campaign: model predictions, FI-verified near the cut.

    The static model ranks every executed injectable instruction; the
    knapsack's would-be selections at each ``protection_levels`` budget,
    widened by ``verify_margin``, form the verify set — the only
    instructions whose trials can change what gets protected. Those run
    through the ordinary (cached, checkpointed, pooled)
    :func:`run_per_instruction_campaign`; everything else keeps its model
    probability. Deterministic in (program, input, seed, model constants):
    the verify set derives from the golden profile and the model alone, so
    the FI subset — and its cache key — is stable across runs and workers.
    """
    from repro.analysis.masking import DEFAULT_MASKING
    from repro.analysis.model import (
        density_ranked,
        model_verify_set,
        predict_sdc_probabilities,
    )

    if masking is None:
        masking = DEFAULT_MASKING
    module = program.module
    if profile is None:
        profile = profile_run(program, args=args, bindings=bindings, cache=cache)
    predicted = predict_sdc_probabilities(
        module, profile, rel_tol=rel_tol, masking=masking, cache=cache
    )
    cycles = {
        iid: profile.instr_cycles[iid] for iid in injectable_iids(module)
    }
    total_cycles = profile.total_cycles
    verify: set[int] = set()
    for level in protection_levels:
        verify.update(
            model_verify_set(
                predicted, cycles, total_cycles, level, verify_margin
            )
        )
    verify_iids = sorted(verify)
    executed = [
        iid for iid in injectable_iids(module) if profile.instr_counts[iid] > 0
    ]
    t = _obs_current()
    if t is not None:
        t.count("model.hybrid_verified", len(verify_iids))
        t.count("model.hybrid_model_only", len(executed) - len(verify_iids))
    fi = run_per_instruction_campaign(
        program,
        trials_per_instruction,
        seed,
        args=args,
        bindings=bindings,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        workers=workers,
        profile=profile,
        only_iids=verify_iids,
        checkpoint_interval=checkpoint_interval,
        checkpoints=checkpoints,
        cache=cache,
        engine=engine,
        batch_size=batch_size,
        transport=transport,
    )
    # Merge, keeping the ranking consistent across the verified band.
    # The model's flanks stay unverified on purpose (far above the cut is
    # protected either way, far below stays out), but their raw
    # predictions live on a different scale than the band's measurements,
    # so pin them to the band's extremes: the upper flank may not rank
    # below any measurement (clamp to the measured ceiling) and the lower
    # flank may not rank above one (monotone squash under the measured
    # floor). Gap iids between bands of different levels keep raw
    # predictions.
    ranked = density_ranked(predicted, cycles, total_cycles)
    pos = {iid: k for k, iid in enumerate(ranked)}
    vpos = [pos[i] for i in verify_iids if i in pos]
    lo_pos = min(vpos) if vpos else 0
    hi_pos = max(vpos) if vpos else -1
    ceiling = max(
        (fi.sdc_probability(i) for i in verify_iids), default=1.0
    )
    floor = min(
        (fi.sdc_probability(i) for i in verify_iids), default=0.0
    )
    tail_max = max(
        (
            predicted.sdc_prob[iid]
            for iid, k in pos.items()
            if k > hi_pos and iid not in verify
        ),
        default=0.0,
    )
    squash = floor / tail_max if tail_max > floor else 1.0
    merged: dict[int, float] = {}
    provenance: dict[int, str] = {}
    for iid, p in predicted.sdc_prob.items():
        if iid in verify:
            merged[iid] = fi.sdc_probability(iid)
            provenance[iid] = "fi"
            continue
        provenance[iid] = "model"
        k = pos.get(iid)
        if k is None:
            merged[iid] = p  # never executed; predicted 0 already
        elif k < lo_pos:
            merged[iid] = max(p, ceiling)
        elif k > hi_pos:
            merged[iid] = p * squash
        else:
            merged[iid] = min(max(p, floor), ceiling)
    result = HybridResult(
        sdc_prob=merged,
        provenance=provenance,
        profile=profile,
        trials_per_instruction=trials_per_instruction,
        fi_trials=len(verify_iids) * trials_per_instruction,
        full_sweep_trials=len(executed) * trials_per_instruction,
    )
    if t is not None:
        t.emit(
            "model.hybrid",
            {
                "n_verified": len(verify_iids),
                "n_model_only": len(executed) - len(verify_iids),
                "fi_trials": result.fi_trials,
                "full_sweep_trials": result.full_sweep_trials,
                "trials_saved_factor": result.trials_saved_factor,
                "protection_levels": list(protection_levels),
                "verify_margin": verify_margin,
            },
        )
    return result
