"""The benchmark's workloads: which study runs, at what size, on what path.

Every workload runs the paper's headline pipeline the way
``scripts/run_experiments.py`` does: ``run_fig2_study`` (classic SID on the
reference input, then FI evaluation across random inputs) and then
``run_fig6_study`` (MINPSID's GA input search, re-prioritization and the
same evaluation), both with ``measure_duplication=True``. What differs is
the executor path each workload drives, so that every layer has a workload
that exercises it and one that bypasses it; ``BENCHMARK.json`` says why
each one exists.

Sizes are a tiny cut of the ``benchmarks/conftest.py`` BENCH preset, so
that one repetition of the study takes about one to four seconds and a run
repeats it several times and reports medians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["WORKLOADS", "Workload", "by_name"]

#: Shared study size: one protection level, one searched input, tiny
#: campaigns. Fault counts per campaign stay a workload choice.
_BASE = dict(
    campaign_faults=10,
    per_instr_trials=1,
    search_per_instr_trials=1,
    eval_inputs=2,
    search_max_inputs=1,
    search_stall=1,
    ga_population=4,
    ga_generations=2,
    protection_levels=(0.5,),
)

#: ``--smoke`` size: one small app, the least work the study accepts.
_SMOKE = dict(
    campaign_faults=4,
    per_instr_trials=1,
    search_per_instr_trials=1,
    eval_inputs=1,
    search_max_inputs=1,
    search_stall=1,
    ga_population=2,
    ga_generations=1,
    protection_levels=(0.5,),
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: ScaleConfig name; workloads sharing it must produce the same study.
    config: str
    apps: tuple[str, ...]
    #: "fresh" (a new empty cache per repetition), "warm" (a cache filled
    #: by a separate process first) or "off" (caching disabled).
    cache: str
    #: ScaleConfig fields on top of the shared size.
    scale: dict = field(default_factory=dict)
    #: The one app ``--smoke`` runs.
    smoke_app: str = "bfs"
    #: CPUs the workload needs; the bench refuses it on smaller hosts.
    cpus: int = 1

    def scale_config(self, seed: int, smoke: bool = False):
        """The ``repro`` ScaleConfig of one run."""
        from repro.exp.config import TINY

        size = _SMOKE if smoke else _BASE
        apps = (self.smoke_app,) if smoke else self.apps
        name = f"bench-{self.config}" + ("-smoke" if smoke else "")
        return TINY.with_(name=name, apps=apps, seed=seed,
                          **{**size, **self.scale})


WORKLOADS = (
    Workload(
        name="headline-cold",
        config="headline",
        apps=("pathfinder", "needle", "fft", "bfs", "xsbench"),
        cache="fresh",
    ),
    Workload(
        name="batch-paper",
        config="batch",
        apps=("kmeans",),
        cache="fresh",
        scale=dict(engine="batch", campaign_faults=50),
        smoke_app="fft",
    ),
    Workload(
        name="warm-rerun",
        config="headline",
        apps=("pathfinder", "needle", "fft", "bfs", "xsbench"),
        cache="warm",
    ),
    Workload(
        name="pooled-ckpt",
        config="pooled",
        apps=("bfs", "xsbench"),
        cache="off",
        # Campaigns under 32 trials never reach the pool.
        scale=dict(workers=2, checkpoint_interval="auto", campaign_faults=40),
        smoke_app="xsbench",
        cpus=2,
    ),
)


def by_name(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)
