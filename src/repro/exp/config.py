"""Scale presets: how much Monte Carlo each experiment buys.

The paper's campaign sizes (1000 faults/program-input, 100 faults/static
instruction, 50 generated + 30 evaluation inputs) are scaled down through
these presets; every count is a knob so a user with more compute can push
back toward paper scale (the ``FULL`` preset).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.runconfig import run_scope

__all__ = ["ScaleConfig", "TINY", "SMALL", "FULL"]


@dataclass(frozen=True)
class ScaleConfig:
    """All experiment-size knobs in one place."""

    name: str
    #: Whole-program faults per (program, input) campaign.
    campaign_faults: int
    #: Faults per static instruction (reference-input benefit measurement).
    per_instr_trials: int
    #: Faults per static instruction when measuring searched inputs.
    search_per_instr_trials: int
    #: Number of random evaluation inputs per app.
    eval_inputs: int
    #: Input-search budget (number of searched inputs).
    search_max_inputs: int
    #: Search stall limit (stop after this many fruitless inputs).
    search_stall: int
    #: GA population / generation caps.
    ga_population: int
    ga_generations: int
    #: Protection levels studied (the paper's 30/50/70%).
    protection_levels: tuple[float, ...] = (0.3, 0.5, 0.7)
    #: Master seed.
    seed: int = 2022
    # The execution fields below (workers ... transport) form the run
    # configuration (repro.runconfig) a driver installs with run_scope();
    # None leaves a field to the enclosing scope or the environment.
    #: Process fan-out for FI campaigns (0 = serial).
    workers: int | None = 0
    #: Checkpoint-resume for FI campaigns: "auto" = interval heuristic
    #: (about 16 snapshots per golden run), an int = snapshot every that
    #: many instructions, None/0 = cold replay. Outcomes are identical.
    checkpoint_interval: int | str | None = "auto"
    #: Campaign-cache directory: campaigns reuse results persisted there
    #: across runs (False = caching disabled for this study even if one is
    #: installed).
    cache_dir: str | None = None
    #: Supervisor: retries per failed worker chunk before a typed
    #: HarnessError surfaces.
    max_retries: int | None = None
    #: Supervisor: per-chunk wall-clock deadline in seconds for hung-worker
    #: detection.
    task_timeout: float | None = None
    #: Apps to include (None = all 11).
    apps: tuple[str, ...] | None = None
    #: Trial executor for FI campaigns: "scalar" runs one interpreter per
    #: trial; "batch" vectorizes trials in lockstep over numpy columns
    #: (bit-identical outcomes; faster on some apps and campaign sizes,
    #: slower on others — DESIGN.md §7.6 has the per-app table).
    engine: str | None = None
    #: Trials per lockstep batch when engine="batch".
    batch_size: int | None = None
    #: Source of per-instruction SDC probabilities for protection profiles:
    #: "fi" (inject — the paper's method), "model" (static error-propagation
    #: prediction, zero trials), or "hybrid" (model + FI verification near
    #: the knapsack cut). Evaluation campaigns always inject.
    profile_source: str = "fi"
    #: Dispatch fabric for FI campaigns: "local" keeps the in-host process
    #: pool; "inproc"/"socketpair"/"tcp" route chunks through
    #: repro.fabric adapters (bit-identical outcomes either way).
    transport: str | None = None
    #: Detector zoo kinds for frontier studies (repro.detectors order).
    detectors: tuple[str, ...] = ("dup", "range", "store", "checksum")
    #: Budget ladder (cycle fractions) swept by detector-frontier studies.
    frontier_budgets: tuple[float, ...] = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75)

    def with_(self, **kw) -> "ScaleConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **kw)

    def run_scope(self):
        """Install this scale's execution fields as the ambient run
        configuration, so every campaign a driver runs resolves them."""
        interval = self.checkpoint_interval
        return run_scope(
            workers=self.workers,
            engine=self.engine,
            batch_size=self.batch_size,
            checkpoint_interval=0 if interval is None else interval,
            transport=self.transport,
            max_retries=self.max_retries,
            task_timeout=self.task_timeout,
            cache=self.cache_dir,
        )


#: Seconds-scale preset for unit/integration tests.
TINY = ScaleConfig(
    name="tiny",
    campaign_faults=60,
    per_instr_trials=4,
    search_per_instr_trials=3,
    eval_inputs=5,
    search_max_inputs=3,
    search_stall=2,
    ga_population=4,
    ga_generations=2,
    protection_levels=(0.5,),
)

#: Minutes-scale preset used by the benchmark harness and EXPERIMENTS.md.
SMALL = ScaleConfig(
    name="small",
    campaign_faults=200,
    per_instr_trials=8,
    search_per_instr_trials=6,
    eval_inputs=10,
    search_max_inputs=5,
    search_stall=2,
    ga_population=6,
    ga_generations=4,
)

#: Paper-shaped preset (hours of compute; use workers > 1).
FULL = ScaleConfig(
    name="full",
    campaign_faults=1000,
    per_instr_trials=100,
    search_per_instr_trials=30,
    eval_inputs=30,
    search_max_inputs=20,
    search_stall=3,
    ga_population=8,
    ga_generations=8,
)
