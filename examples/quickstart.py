#!/usr/bin/env python3
"""Quickstart: protect a program with SID and watch a fault get caught.

Walks the whole vocabulary of the library on a small kernel:

1. build an IR program with the Builder API,
2. run it and profile its dynamic behaviour,
3. measure per-instruction SDC probabilities by fault injection,
4. select + duplicate instructions at a 50% protection level,
5. inject faults into the protected binary and compare outcomes.

Run: ``python examples/quickstart.py``
"""

from repro.fi import Outcome, run_campaign
from repro.ir import F64, I64, VOID, Builder, Module, print_module
from repro.sid import SIDConfig, classic_sid
from repro.vm import Program, profile_run


def build_dot_product() -> Module:
    """dot(a, b) over two global arrays, emitting the scalar result."""
    m = Module("dot")
    a = m.add_global("a", F64, 64)
    b_arr = m.add_global("b", F64, 64)
    b = Builder.new_function(m, "main", [("n", I64)], VOID)
    acc = b.local(F64, b.f64(0.0), hint="acc")
    with b.for_loop(b.i64(0), b.function.arg("n")) as i:
        x = b.load(b.gep(a, i), F64)
        y = b.load(b.gep(b_arr, i), F64)
        b.set(acc, b.fadd(b.get(acc, F64), b.fmul(x, y)))
    b.emit_output(b.get(acc, F64))
    b.ret()
    return m.finalize()


def main() -> None:
    module = build_dot_product()
    print("=== The program (textual IR) ===")
    print(print_module(module))

    n = 32
    bindings = {
        "a": [0.5 + 0.01 * i for i in range(n)],
        "b": [1.0 - 0.02 * i for i in range(n)],
    }
    program = Program(module)

    golden = program.run(args=[n], bindings=bindings)
    print(f"golden output: {golden.output[0]:.6f} "
          f"({golden.steps} dynamic instructions)")

    profile = profile_run(program, args=[n], bindings=bindings)
    print(f"total dynamic cycles: {profile.total_cycles}")

    # Unprotected: how often does a random bit flip silently corrupt us?
    base = run_campaign(program, 300, seed=1, args=[n], bindings=bindings)
    print(f"\nunprotected outcomes: {base.counts!r}")
    print(f"unprotected SDC probability: {base.sdc_probability:.1%}")

    # Classic SID at a 50% dynamic-cycle budget.
    result = classic_sid(
        program, [n], bindings,
        SIDConfig(protection_level=0.5, per_instruction_trials=20),
    )
    sel = result.selection
    print(f"\nSID selected {len(sel.selected)} instructions "
          f"({sel.used_budget:.1%} of cycles), expected coverage "
          f"{result.expected_coverage:.1%}")

    protected = Program(result.protected.module)
    prot = run_campaign(protected, 300, seed=2, args=[n], bindings=bindings)
    print(f"protected outcomes:  {prot.counts!r}")
    print(f"protected SDC probability: {prot.sdc_probability:.1%}")
    detected = prot.counts.counts[Outcome.DETECTED]
    print(f"duplication checks caught {detected} faults at runtime")
    measured = 1 - prot.sdc_probability / base.sdc_probability
    print(f"measured SDC coverage on this input: {measured:.1%}")


if __name__ == "__main__":
    main()
