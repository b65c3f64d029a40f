"""§VIII-B driver: SID/MINPSID on a multithreaded FFT.

Builds fork-join variants of the FFT whose butterfly stages are partitioned
across 1/2/4 threads (see :mod:`repro.vm.threads` for why a deterministic
tid-order linearization is exact for these race-free phases), protects each
variant with both techniques, and measures the average SDC-coverage loss
across evaluation inputs — the quantity the paper reports per thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.apps.base import App, ArgSpec, InputSpec
from repro.apps.fft import FftApp, _build_bitrev, _build_stage_worker, _emit_spectrum
from repro.exp.config import ScaleConfig
from repro.exp.fig6 import minpsid_config_for
from repro.exp.runner import evaluate_protection, generate_eval_inputs
from repro.ir.builder import Builder
from repro.ir.module import Module
from repro.ir.types import F64, VOID
from repro.minpsid.pipeline import minpsid
from repro.sid.pipeline import SIDConfig, classic_sid
from repro.util.rng import derive_seed
from repro.vm.threads import partition_range

__all__ = ["ThreadedFftApp", "MtFftRow", "run_mt_fft_study"]


class ThreadedFftApp(App):
    """FFT with butterfly stages fork-joined over ``num_threads`` threads.

    The transform size is fixed at build time (thread partitions are static,
    as in the pthreads SPLASH-2 code); inputs vary signal content only.
    """

    suite = "SPLASH-2"
    description = "Multithreaded 1D FFT (fork-join butterfly stages)"
    rel_tol = 1e-7
    abs_tol = 1e-9

    def __init__(self, num_threads: int = 2, m: int = 4) -> None:
        super().__init__()
        self.num_threads = num_threads
        self.m = m
        self.n = 1 << m
        self.name = f"fft-mt{num_threads}"

    @property
    def input_spec(self) -> InputSpec:
        return InputSpec(
            (
                ArgSpec("scale", "float", 0.1, 50.0),
                ArgSpec("waveform", "choice", choices=("noise", "tone", "chirp", "step")),
                ArgSpec("seed", "int", 0, 1_000_000),
            )
        )

    @property
    def reference_input(self):
        return {"scale": 1.0, "waveform": "noise", "seed": 23}

    def encode(self, inp):
        serial = FftApp()
        full = dict(inp)
        full["m"] = self.m
        _, bindings = serial.encode(full)
        return [], bindings

    def build_module(self) -> Module:
        m = Module(self.name)
        re = m.add_global("re", F64, self.n)
        im = m.add_global("im", F64, self.n)
        _build_bitrev(m, re, im)
        _build_stage_worker(m, re, im)

        b = Builder.new_function(m, "main", [], VOID)
        n_c = b.i64(self.n)
        b.call("bitrev", [n_c, b.i64(self.m)], VOID)
        ln = 2
        while ln <= self.n:
            blocks = self.n // ln
            for tid, (lo, hi) in enumerate(
                partition_range(blocks, min(self.num_threads, blocks))
            ):
                if lo == hi:
                    continue
                b.call(
                    "stage_worker",
                    [b.i64(tid), b.i64(lo), b.i64(hi), b.i64(ln)],
                    VOID,
                )
            ln *= 2
        _emit_spectrum(b, re, im, n_c)
        b.ret()
        return m


@dataclass
class MtFftRow:
    """Average coverage loss for one thread count."""

    threads: int
    sid_loss: float
    minpsid_loss: float


def _avg_loss(result) -> float:
    """Mean (expected − measured)+ over evaluation inputs."""
    losses = [
        max(0.0, result.expected_coverage - m)
        for m in result.measured
        if m is not None
    ]
    return sum(losses) / len(losses) if losses else 0.0


def run_mt_fft_study(
    scale: ScaleConfig, thread_counts: tuple[int, ...] = (1, 2, 4), level: float = 0.5
) -> list[MtFftRow]:
    """Protect and evaluate the threaded FFT at each thread count."""
    rows: list[MtFftRow] = []
    with scale.run_scope():
        for t in thread_counts:
            app = ThreadedFftApp(num_threads=t)
            args, bindings = app.encode(app.reference_input)
            inputs = generate_eval_inputs(
                app, scale.eval_inputs, derive_seed(scale.seed, "mt-eval", t)
            )
            sid = classic_sid(
                app.program, args, bindings,
                SIDConfig(
                    protection_level=level,
                    per_instruction_trials=scale.per_instr_trials,
                    seed=derive_seed(scale.seed, "mt-sid", t),
                    rel_tol=app.rel_tol, abs_tol=app.abs_tol,
                ),
            )
            sid_eval = evaluate_protection(
                app, sid.protected, sid.expected_coverage,
                technique="sid", protection_level=level, inputs=inputs, scale=scale,
            )
            mres = minpsid(app, minpsid_config_for(scale, level, app.name))
            min_eval = evaluate_protection(
                app, mres.protected, mres.expected_coverage,
                technique="minpsid", protection_level=level, inputs=inputs, scale=scale,
            )
            rows.append(
                MtFftRow(
                    threads=t,
                    sid_loss=_avg_loss(sid_eval),
                    minpsid_loss=_avg_loss(min_eval),
                )
            )
    return rows
