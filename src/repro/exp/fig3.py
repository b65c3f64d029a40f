"""Fig. 3 driver: exhibit a concrete incubative instruction.

The paper's Fig. 3 shows an ``icmp`` in FFT whose SDC probability is ~0%
under the reference input but large under another input. This driver scans
per-instruction FI results of a benchmark under its reference input and a
contrasting input and reports the instruction with the largest SDC-probability
swing, printing its textual IR and both probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import get_app
from repro.apps.base import Input
from repro.exp.config import ScaleConfig
from repro.exp.runner import generate_eval_inputs
from repro.fi.campaign import run_per_instruction_campaign
from repro.ir.printer import format_instruction
from repro.util.rng import derive_seed

__all__ = ["IncubativeExample", "find_incubative_example"]


@dataclass
class IncubativeExample:
    """One exhibited incubative instruction."""

    app: str
    iid: int
    opcode: str
    text: str
    ref_sdc_prob: float
    alt_sdc_prob: float
    alt_input: Input

    @property
    def swing(self) -> float:
        return self.alt_sdc_prob - self.ref_sdc_prob

    def render(self) -> str:
        return (
            f"Incubative example in {self.app} (iid {self.iid}):\n"
            f"  {self.text}\n"
            f"  SDC probability with reference input: {self.ref_sdc_prob:.2%}\n"
            f"  SDC probability with input {self.alt_input}: "
            f"{self.alt_sdc_prob:.2%}"
        )


def find_incubative_example(
    scale: ScaleConfig, app_name: str = "fft", prefer_opcode: str = "icmp"
) -> IncubativeExample:
    """Find the largest-swing instruction between reference and random inputs.

    Prefers instructions of ``prefer_opcode`` (the paper's example is an
    icmp) when one exhibits a meaningful swing, falling back to the global
    maximum otherwise.
    """
    app = get_app(app_name)
    program = app.program

    def sdc_map(inp: Input, k: int) -> dict[int, float]:
        args, bindings = app.encode(inp)
        fi = run_per_instruction_campaign(
            program,
            scale.per_instr_trials,
            derive_seed(scale.seed, "fig3", app_name, k),
            args=args,
            bindings=bindings,
            rel_tol=app.rel_tol,
            abs_tol=app.abs_tol,
        )
        return fi.sdc_probabilities()

    def rank(ex: IncubativeExample) -> tuple:
        """Incubative-ness: near-zero on the reference input first (the
        paper's defining property), then the largest swing, then the
        preferred opcode as a tie-break."""
        return (
            ex.ref_sdc_prob <= 0.2,  # truly negligible under the reference
            ex.opcode == prefer_opcode,
            ex.swing,
        )

    candidates = generate_eval_inputs(
        app, max(3, scale.eval_inputs // 2), derive_seed(scale.seed, "fig3", app_name)
    )
    best: IncubativeExample | None = None
    with scale.run_scope():
        ref = sdc_map(app.reference_input, 0)
        for k, inp in enumerate(candidates, start=1):
            alt = sdc_map(inp, k)
            for iid, p_alt in alt.items():
                p_ref = ref.get(iid, 0.0)
                if p_alt <= p_ref:
                    continue
                instr = app.module.instruction(iid)
                ex = IncubativeExample(
                    app=app_name,
                    iid=iid,
                    opcode=instr.opcode,
                    text=format_instruction(instr),
                    ref_sdc_prob=p_ref,
                    alt_sdc_prob=p_alt,
                    alt_input=inp,
                )
                if best is None or rank(ex) > rank(best):
                    best = ex
    assert best is not None, "no instruction showed an SDC-probability swing"
    return best
