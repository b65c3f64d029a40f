"""Outside-in layer tracer for the benchmark.

The tracer wraps the public entry points of each ``repro`` layer from the
benchmark's own code: nothing under ``src/`` knows it is being traced, and
the program's ``repro.obs`` session stays off. A wrapped call records one
span (name, start, end, parent) in memory; spans become metrics and a
Chrome trace only after the measured work is over.

Functions imported by name (``from repro.ir.printer import print_module``)
live on in every module that imported them, so :meth:`Tracer.install`
rebinds each wrapped function in every loaded ``repro.*`` module that holds
it, and :meth:`Tracer.uninstall` puts the originals back. Methods and
properties are patched on their class.

A layer's self time is its span's duration minus the time its child spans
cover. Every ``<layer>_s`` metric is a self time, so the layers plus
``bench.unattributed_frac`` add up to the study's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "Tracer",
    "patch_function",
    "rep_metrics",
    "restore",
    "self_times",
    "write_chrome_trace",
]

#: Bench-level spans around one study repetition and its two parts. Their
#: self time is study time that no layer span covers.
ROOT_SPANS = ("bench.rep", "study.sid", "study.minpsid")


def _run_steps(span, args, kwargs, result) -> None:
    span.count("vm.steps", result.steps)


def _resume_steps(span, args, kwargs, result) -> None:
    snapshot = args[1] if len(args) > 1 else kwargs["snapshot"]
    span.count("vm.steps", result.steps - snapshot.steps)


def _batch_stats(span, args, kwargs, result) -> None:
    stats = result[1]
    span.count("vm.batch.trials", stats.trials)
    span.count("vm.batch.detached", stats.detached)
    span.count("vm.batch.lockstep_steps", stats.lockstep_steps)
    span.count("vm.batch.scalar_steps", stats.scalar_steps)


def _campaign_trials(span, args, kwargs, result) -> None:
    span.fields["trials"] = result.trials


def _per_instruction_trials(span, args, kwargs, result) -> None:
    span.fields["trials"] = sum(c.total for c in result.per_iid.values())


def _cache_get(span, args, kwargs, result) -> None:
    hit = result is not None
    span.fields["hit"] = hit
    span.count("cache.hits" if hit else "cache.misses")


def _cache_put(span, args, kwargs, result) -> None:
    store = args[0]
    key = args[1] if len(args) > 1 else kwargs["key"]
    try:
        span.count("cache.bytes_written", store.path_for(key).stat().st_size)
    except OSError:
        pass  # the store degrades a failed write to "no cache"; so do we


def _chunks(span, args, kwargs, result) -> None:
    span.count("util.chunks", len(result))
    # Worker processes inherit the wrappers, but their spans stay in the
    # worker: the parent sees this span as one wait.
    span.fields["workers"] = "unobserved"


#: What the tracer wraps: (owner, attribute, span name, on-return hook).
#: The owner is a module, or ``module:Class`` for a method or property.
TARGETS = (
    ("repro.apps.base:App", "module", "apps.build", None),
    ("repro.apps.base:App", "program", "apps.build", None),
    ("repro.ir.printer", "print_module", "ir.print", None),
    ("repro.vm.interpreter:Program", "run", "vm.run", _run_steps),
    ("repro.vm.interpreter:Program", "resume", "vm.run", _resume_steps),
    ("repro.vm.profiler", "profile_run", "vm.profile", None),
    ("repro.vm.batch", "run_trials_lockstep", "vm.batch", _batch_stats),
    ("repro.vm.checkpoint", "record_checkpoints", "vm.checkpoint.record",
     None),
    ("repro.fi.campaign", "run_campaign", "fi.campaign", _campaign_trials),
    ("repro.fi.campaign", "run_per_instruction_campaign", "fi.campaign",
     _per_instruction_trials),
    ("repro.util.parallel", "parallel_map", "util.parallel_map", _chunks),
    ("repro.cache.store:CampaignCache", "get", "cache.get", _cache_get),
    ("repro.cache.store:CampaignCache", "put", "cache.put", _cache_put),
    ("repro.cache.keys", "whole_program_key", "cache.key", None),
    ("repro.cache.keys", "per_instruction_key", "cache.key", None),
    ("repro.sid.profiles", "build_profile_from_source", "sid.profile", None),
    ("repro.sid.selection", "select_instructions", "sid.select", None),
    ("repro.detectors.transform", "duplicate_instructions", "sid.transform",
     None),
    ("repro.minpsid.search", "run_input_search", "minpsid.search", None),
    ("repro.minpsid.ga:GeneticInputSearch", "search", "minpsid.ga", None),
    ("repro.minpsid.wcfg", "fitness_score", "minpsid.fitness", None),
    ("repro.minpsid.wcfg", "indexed_cfg_list", "minpsid.fitness", None),
    ("repro.minpsid.incubative", "find_incubative", "minpsid.incubative",
     None),
    ("repro.minpsid.reprioritize", "reprioritize", "minpsid.reprioritize",
     None),
    ("repro.exp.runner", "generate_eval_inputs", "exp.eval_inputs", None),
    ("repro.exp.runner", "evaluate_protection", "exp.evaluate", None),
    ("repro.exp.runner", "duplication_fraction", "exp.dup_fraction", None),
)

#: Layer spans whose self time is reported as ``<span>_s``.
TIMED_SPANS = (
    "apps.build", "ir.print", "vm.run", "vm.profile", "vm.batch",
    "vm.checkpoint.record", "fi.campaign", "util.parallel_map", "cache.get",
    "cache.key", "cache.put", "sid.profile", "sid.select", "sid.transform",
    "minpsid.search", "minpsid.ga", "minpsid.fitness", "minpsid.incubative",
    "minpsid.reprioritize", "exp.eval_inputs", "exp.evaluate",
    "exp.dup_fraction",
)

#: ``<metric>: <span>`` — a call count is the number of spans of that name.
CALL_COUNTS = {
    "ir.print.calls": "ir.print",
    "vm.run.calls": "vm.run",
    "vm.profile.calls": "vm.profile",
    "vm.batch.calls": "vm.batch",
    "vm.checkpoint.calls": "vm.checkpoint.record",
    "util.parallel_map.calls": "util.parallel_map",
    "minpsid.fitness.calls": "minpsid.fitness",
}

#: Counts summed from what wrapped calls returned.
RETURN_COUNTS = (
    "vm.steps", "vm.batch.trials", "util.chunks", "cache.hits",
    "cache.misses", "cache.bytes_written",
)


class Span:
    """One timed call; ``counts`` hold what its return value reported."""

    __slots__ = ("name", "start", "end", "parent", "fields", "counts")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.fields: dict = {}
        self.counts: dict = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def _repro_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rebind(old, new) -> None:
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if value is old:
                setattr(module, name, new)


def patch_function(module_name: str, attr: str, make_wrapper) -> tuple:
    """Rebind ``module_name.attr`` to ``make_wrapper(current)`` everywhere.

    Every loaded ``repro.*`` module attribute that is the current function
    object, under any name, is replaced. Returns ``(wrapper, original)``
    for :func:`restore`.
    """
    current = getattr(importlib.import_module(module_name), attr)
    wrapper = make_wrapper(current)
    _rebind(current, wrapper)
    return wrapper, current


def restore(patches: list) -> None:
    """Undo :func:`patch_function` patches, newest first.

    Modules imported while a patch was in place captured the wrapper, so
    the scan covers every loaded module again rather than an undo list.
    """
    for wrapper, original in reversed(patches):
        _rebind(wrapper, original)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list = []
        self._class_patches: list = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, name: str, fn, on_return):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.fields["raised"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        return wrapper

    def _wrap_property(self, name: str, prop: property, cached: str):
        tracer = self
        fget = prop.fget

        def getter(obj):
            if getattr(obj, cached) is not None:
                return fget(obj)
            with tracer.span(name):
                return fget(obj)

        return property(getter, prop.fset, prop.fdel, prop.__doc__)

    def install(self) -> None:
        """Wrap every target (once; :meth:`uninstall` undoes it)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, on_return in TARGETS:
            module_name, _, cls_name = owner.partition(":")
            if not cls_name:
                self._patches.append(patch_function(
                    module_name, attr,
                    lambda fn, n=name, h=on_return: self._wrap(n, fn, h),
                ))
                continue
            cls = getattr(importlib.import_module(module_name), cls_name)
            current = cls.__dict__[attr]
            if isinstance(current, property):
                # App caches its module/program in ``_<attr>``: only the
                # first, building access is a span.
                new = self._wrap_property(name, current, f"_{attr}")
            else:
                new = self._wrap(name, current, on_return)
            setattr(cls, attr, new)
            self._class_patches.append((cls, attr, current))

    def uninstall(self) -> None:
        restore(self._patches)
        for cls, attr, original in reversed(self._class_patches):
            setattr(cls, attr, original)
        self._patches = []
        self._class_patches = []


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Self time of each span: its duration minus its children's.

    ``spans`` may be a slice of a longer list starting at index
    ``offset``; parents outside the slice are ignored.
    """
    selves = [s.end - s.start for s in spans]
    for s in spans:
        p = s.parent - offset
        if 0 <= p < len(spans):
            selves[p] -= s.end - s.start
    return selves


def rep_metrics(spans: list[Span], offset: int = 0) -> dict:
    """Per-layer metrics of one traced study repetition.

    ``spans`` is the subtree of one ``bench.rep`` span, root first, cut
    from the tracer's list at index ``offset``.
    """
    selves = self_times(spans, offset)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    hit_campaigns = set()
    for k, span in enumerate(spans):
        by_name[span.name] = by_name.get(span.name, 0.0) + selves[k]
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, n in span.counts.items():
            counts[key] = counts.get(key, 0) + n
        if span.name == "cache.get" and span.fields.get("hit"):
            hit_campaigns.add(span.parent - offset)
    campaigns = [k for k, s in enumerate(spans) if s.name == "fi.campaign"]
    dispatched = [k for k in campaigns if k not in hit_campaigns]
    trials = sum(spans[k].fields.get("trials", 0) for k in dispatched)
    dispatched_s = sum(spans[k].end - spans[k].start for k in dispatched)

    out = {f"{name}_s": by_name.get(name, 0.0) for name in TIMED_SPANS}
    out.update({m: calls.get(name, 0) for m, name in CALL_COUNTS.items()})
    out.update({name: counts.get(name, 0) for name in RETURN_COUNTS})
    run_s = out["vm.run_s"]
    out["vm.steps_per_s"] = out["vm.steps"] / run_s if run_s > 0 else 0.0
    batch_trials = counts.get("vm.batch.trials", 0)
    out["vm.batch.detach_rate"] = (
        counts.get("vm.batch.detached", 0) / batch_trials
        if batch_trials else 0.0
    )
    lockstep = counts.get("vm.batch.lockstep_steps", 0)
    scalar = counts.get("vm.batch.scalar_steps", 0)
    out["vm.batch.scalar_step_share"] = (
        scalar / (lockstep + scalar) if lockstep + scalar else 0.0
    )
    out["fi.campaigns"] = len(campaigns)
    out["fi.campaigns_dispatched"] = len(dispatched)
    out["fi.trials"] = trials
    out["fi.trial_s"] = dispatched_s / trials if trials else 0.0
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_rate"] = out["cache.hits"] / lookups if lookups else 0.0
    wall = spans[0].end - spans[0].start
    unattributed = sum(by_name.get(name, 0.0) for name in ROOT_SPANS)
    out["bench.unattributed_frac"] = unattributed / wall if wall > 0 else 0.0
    return out


def write_chrome_trace(spans: list[Span], workload: str, path: Path) -> Path:
    """Write spans as Chrome trace-event ``X`` slices (Perfetto opens it)."""
    t0 = spans[0].start if spans else 0.0
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"workload": workload, **s.fields, **s.counts},
        }
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return path
