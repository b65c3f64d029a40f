#!/usr/bin/env python3
"""Reproduce the paper's core observation on one benchmark.

Protects Kmeans (the paper's most extreme case) with classic SID using its
reference input, then measures SDC coverage across random inputs — showing
the loss-of-coverage phenomenon of Fig. 2 — and prints which instructions
turned out to be incubative (§IV).

Run: ``python examples/coverage_loss_study.py [app-name]``
"""

import sys

from repro import SIDConfig, classic_sid, get_app, run_campaign
from repro.exp.runner import generate_eval_inputs
from repro.ir.printer import format_instruction
from repro.sid.coverage import measured_coverage
from repro.util.tables import render_candlestick_row
from repro.vm import Program


def main(app_name: str = "kmeans") -> None:
    app = get_app(app_name)
    print(f"Benchmark: {app.name} ({app.suite}) — {app.description}")
    args, bindings = app.encode(app.reference_input)

    level = 0.5
    sid = classic_sid(
        Program(app.module), args, bindings,
        SIDConfig(
            protection_level=level,
            per_instruction_trials=10,
            rel_tol=app.rel_tol,
            abs_tol=app.abs_tol,
        ),
    )
    print(
        f"SID @{level:.0%}: {len(sid.selection.selected)} instructions "
        f"protected, expected coverage {sid.expected_coverage:.1%}"
    )

    protected = Program(sid.protected.module)
    inputs = generate_eval_inputs(app, 8, seed=1234)
    coverages = []
    print("\nper-input measured coverage:")
    for k, inp in enumerate(inputs):
        a, b = app.encode(inp)
        pu = run_campaign(
            app.program, 150, seed=2 * k, args=a, bindings=b,
            rel_tol=app.rel_tol, abs_tol=app.abs_tol,
        ).sdc_probability
        pp = run_campaign(
            protected, 150, seed=2 * k + 1, args=a, bindings=b,
            rel_tol=app.rel_tol, abs_tol=app.abs_tol,
        ).sdc_probability
        cov = measured_coverage(pu, pp)
        if cov is None:
            print(f"  input {k}: no SDC evidence (unprotected SDC prob 0)")
            continue
        coverages.append(cov)
        flag = "  <-- LOSS" if cov < sid.expected_coverage else ""
        print(f"  input {k}: coverage {cov:.1%}{flag}")

    if coverages:
        cov_sorted = sorted(coverages)
        mid = cov_sorted[len(cov_sorted) // 2]
        print("\n" + render_candlestick_row(
            f"{app.name}@{level:.0%}",
            min(coverages), cov_sorted[len(cov_sorted) // 4], mid,
            cov_sorted[3 * len(cov_sorted) // 4], max(coverages),
            expected=sid.expected_coverage,
        ))
        losses = sum(1 for c in coverages if c < sid.expected_coverage)
        print(f"coverage-loss inputs: {losses}/{len(coverages)}")

    # Which unprotected instructions caused SDCs on the worst input?
    worst = min(
        range(len(coverages)), key=lambda i: coverages[i]
    ) if coverages else 0
    a, b = app.encode(inputs[worst])
    camp = run_campaign(
        protected, 200, seed=999, args=a, bindings=b,
        rel_tol=app.rel_tol, abs_tol=app.abs_tol,
    )
    origins = {}
    for iid, outcome in camp.per_fault:
        if outcome.value == "sdc":
            origin = sid.protected.origin_of(iid)
            if origin is not None:
                origins[origin] = origins.get(origin, 0) + 1
    print(f"\ninstructions still causing SDCs on the worst input (top 5):")
    for origin, count in sorted(origins.items(), key=lambda kv: -kv[1])[:5]:
        instr = app.module.instruction(origin)
        protected_mark = "protected" if origin in sid.selection.selected else "UNPROTECTED"
        print(f"  [{count:3d} SDCs] ({protected_mark}) {format_instruction(instr)}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "kmeans")
