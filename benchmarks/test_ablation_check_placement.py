"""Ablation 4 (DESIGN.md §6): duplication-check placement.

The paper places checks right before the next synchronization point; the
ablation compares against checking immediately after each duplicate, on
detection effectiveness and static code-size overhead.
"""

from benchmarks.conftest import BENCH, bench_once, emit
from repro.fi.campaign import run_campaign
from repro.sid.pipeline import SIDConfig, classic_sid
from repro.util.tables import format_table
from repro.vm.interpreter import Program
from tests.conftest import cached_app

APP = "needle"
LEVEL = 0.5


def test_ablation_check_placement(benchmark):
    app = cached_app(APP)
    args, bindings = app.encode(app.reference_input)

    def run():
        out = {}
        for placement in ("sync", "immediate"):
            sid = classic_sid(
                Program(app.module), args, bindings,
                SIDConfig(
                    protection_level=LEVEL,
                    per_instruction_trials=BENCH.per_instr_trials,
                    check_placement=placement,
                ),
            )
            prog = Program(sid.protected.module)
            camp = run_campaign(
                prog, BENCH.campaign_faults, seed=5, args=args, bindings=bindings,
                rel_tol=app.rel_tol, abs_tol=app.abs_tol,
            )
            out[placement] = (sid, camp)
        return out

    out = bench_once(benchmark, run)
    rows = []
    for placement, (sid, camp) in out.items():
        size = sid.protected.module.instruction_count()
        rows.append(
            [placement, str(size), f"{camp.sdc_probability:.3f}", repr(camp.counts)]
        )
    emit(
        "ablation_check_placement",
        format_table(
            ["Placement", "Static instrs", "Residual SDC prob", "Outcomes"],
            rows,
            title=f"Ablation: check placement on {APP} @{LEVEL:.0%}",
        ),
    )
    sync_sid, sync_camp = out["sync"]
    imm_sid, imm_camp = out["immediate"]
    # Both placements must protect the same instruction set...
    assert sync_sid.protected.protected_iids == imm_sid.protected.protected_iids
    # ...and immediate checking is never larger in check count but may be
    # denser in static code (one check per duplicate, no batching).
    assert imm_sid.protected.checks >= sync_sid.protected.checks
    # Residual SDC probabilities should be in the same ballpark.
    assert abs(sync_camp.sdc_probability - imm_camp.sdc_probability) < 0.25
