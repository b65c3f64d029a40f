#!/usr/bin/env python3
"""Run the full MINPSID pipeline on a benchmark and compare with classic SID.

Demonstrates the paper's complete workflow (Fig. 4): reference-input
profiling, GA input search with the weighted-CFG fitness, incubative
identification, re-prioritization, selection, duplication — then a
side-by-side coverage evaluation against the SID baseline across fresh
random inputs, plus the Fig. 8-style time breakdown.

Run: ``python examples/minpsid_pipeline.py [app-name]``
"""

import sys

from repro import (
    MINPSIDConfig,
    SIDConfig,
    classic_sid,
    get_app,
    minpsid,
    run_campaign,
)
from repro.exp.runner import generate_eval_inputs
from repro.ir.printer import format_instruction
from repro.minpsid.ga import GAConfig
from repro.minpsid.search import InputSearchConfig
from repro.obs.spans import collect_phases, phase_seconds
from repro.sid.coverage import measured_coverage
from repro.vm import Program


def main(app_name: str = "fft") -> None:
    app = get_app(app_name)
    print(f"Benchmark: {app.name} — {app.description}")
    level = 0.5

    # --- MINPSID --------------------------------------------------------
    cfg = MINPSIDConfig(
        protection_level=level,
        per_instruction_trials=10,
        search=InputSearchConfig(
            max_inputs=5,
            stall_limit=2,
            per_instruction_trials=6,
            ga=GAConfig(population_size=6, max_generations=4),
        ),
    )
    with collect_phases() as spans:
        res = minpsid(app, cfg)
    print(f"\nMINPSID searched {len(res.search.inputs) - 1} inputs "
          f"(fitness trace: {[round(f, 1) for f in res.search.fitness_trace]})")
    print(f"incubative instructions found: {len(res.incubative)} "
          f"(trace per input: {res.search.trace})")
    for iid in sorted(res.incubative)[:5]:
        print(f"  e.g. {format_instruction(app.module.instruction(iid))}")
    print(f"expected coverage (conservative): {res.expected_coverage:.1%}")
    print("time breakdown (Fig. 8 shape):")
    phases = phase_seconds(spans)
    one_time = sum(phases.values())
    for phase, seconds in phases.items():
        print(f"  {phase:26s} {seconds:7.2f}s ({seconds / one_time:.0%})")

    # --- Baseline SID ----------------------------------------------------
    args, bindings = app.encode(app.reference_input)
    sid = classic_sid(
        Program(app.module), args, bindings,
        SIDConfig(protection_level=level, per_instruction_trials=10,
                  rel_tol=app.rel_tol, abs_tol=app.abs_tol),
    )
    print(f"\nbaseline SID expected coverage: {sid.expected_coverage:.1%}")

    # --- Head-to-head across fresh inputs --------------------------------
    p_sid = Program(sid.protected.module)
    p_min = Program(res.protected.module)
    inputs = generate_eval_inputs(app, 6, seed=777)
    print("\nper-input coverage (SID vs MINPSID):")
    worst_sid, worst_min = 1.0, 1.0
    for k, inp in enumerate(inputs):
        a, b = app.encode(inp)
        pu = run_campaign(app.program, 150, seed=3 * k, args=a, bindings=b,
                          rel_tol=app.rel_tol, abs_tol=app.abs_tol).sdc_probability
        ps = run_campaign(p_sid, 150, seed=3 * k + 1, args=a, bindings=b,
                          rel_tol=app.rel_tol, abs_tol=app.abs_tol).sdc_probability
        pm = run_campaign(p_min, 150, seed=3 * k + 2, args=a, bindings=b,
                          rel_tol=app.rel_tol, abs_tol=app.abs_tol).sdc_probability
        cs, cm = measured_coverage(pu, ps), measured_coverage(pu, pm)
        if cs is None or cm is None:
            continue
        worst_sid, worst_min = min(worst_sid, cs), min(worst_min, cm)
        print(f"  input {k}: SID {cs:6.1%}   MINPSID {cm:6.1%}")
    print(f"\nminimum coverage: SID {worst_sid:.1%} vs MINPSID {worst_min:.1%}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "fft")
