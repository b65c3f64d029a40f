#!/usr/bin/env python3
"""Bring your own kernel: write a program, wrap it as an App, harden it.

Shows the extension path a downstream user takes to protect code the
library does not ship: implement a stencil kernel against the Builder API,
give it an input specification, and run the whole MINPSID pipeline on it —
no changes to the library required.

Run: ``python examples/custom_kernel.py``
"""

from repro import MINPSIDConfig, minpsid
from repro.apps.base import App, ArgSpec, InputSpec
from repro.ir import F64, I64, VOID, Builder, Module
from repro.minpsid.ga import GAConfig
from repro.minpsid.search import InputSearchConfig
from repro.obs.spans import collect_phases, phase_seconds


class HeatStencilApp(App):
    """1-D explicit heat diffusion: u[i] += alpha*(u[i-1] - 2u[i] + u[i+1]).

    The boundary comparisons and the magnitude of ``alpha`` make error
    propagation input-dependent — exactly the behaviour SID cares about.
    """

    name = "heat-stencil"
    suite = "custom"
    description = "Explicit 1-D heat diffusion with Dirichlet boundaries"
    rel_tol = 1e-9
    abs_tol = 1e-12

    SIZE = 64

    @property
    def input_spec(self) -> InputSpec:
        return InputSpec(
            (
                ArgSpec("n", "int", 8, 48),
                ArgSpec("steps", "int", 2, 12),
                ArgSpec("alpha", "float", 0.05, 0.45),
                ArgSpec("amplitude", "float", 0.1, 30.0),
                ArgSpec("seed", "int", 0, 1_000_000),
            )
        )

    @property
    def reference_input(self):
        return {"n": 24, "steps": 6, "alpha": 0.2, "amplitude": 1.0, "seed": 8}

    def encode(self, inp):
        n = int(inp["n"])
        rng = self.data_rng(inp, n)
        amp = float(inp["amplitude"])
        u0 = [rng.uniform(0.0, amp) for _ in range(n)]
        return [n, int(inp["steps"]), float(inp["alpha"])], {"u": u0}

    def build_module(self) -> Module:
        m = Module(self.name)
        u = m.add_global("u", F64, self.SIZE)
        nxt = m.add_global("next", F64, self.SIZE)
        b = Builder.new_function(
            m, "main", [("n", I64), ("steps", I64), ("alpha", F64)], VOID
        )
        n = b.function.arg("n")
        steps = b.function.arg("steps")
        alpha = b.function.arg("alpha")
        one = b.i64(1)
        last = b.sub(n, one)
        two = b.f64(2.0)
        with b.for_loop(b.i64(0), steps, hint="t") as _:
            with b.for_loop(one, last, hint="i") as i:
                left = b.load(b.gep(u, b.sub(i, one)), F64)
                mid = b.load(b.gep(u, i), F64)
                right = b.load(b.gep(u, b.add(i, one)), F64)
                lap = b.fsub(b.fadd(left, right), b.fmul(two, mid))
                b.store(b.fadd(mid, b.fmul(alpha, lap)), b.gep(nxt, i))
            with b.for_loop(one, last, hint="c") as i:
                b.store(b.load(b.gep(nxt, i), F64), b.gep(u, i))
        total = b.local(F64, b.f64(0.0), hint="sum")
        with b.for_loop(b.i64(0), n, hint="o") as i:
            v = b.load(b.gep(u, i), F64)
            b.emit_output(v)
            b.set(total, b.fadd(b.get(total, F64), v))
        b.emit_output(b.get(total, F64))
        b.ret()
        return m


def main() -> None:
    app = HeatStencilApp()
    golden = app.run_reference()
    print(f"{app.name}: {app.module.instruction_count()} static instructions, "
          f"{golden.steps} dynamic on the reference input")
    print(f"total heat after diffusion: {golden.output[-1]:.4f}")

    cfg = MINPSIDConfig(
        protection_level=0.5,
        per_instruction_trials=8,
        search=InputSearchConfig(
            max_inputs=4,
            stall_limit=2,
            per_instruction_trials=5,
            ga=GAConfig(population_size=5, max_generations=3),
        ),
    )
    with collect_phases() as spans:
        res = minpsid(app, cfg)
    print(f"\nMINPSID hardened the kernel:")
    print(f"  searched inputs:        {len(res.search.inputs) - 1}")
    print(f"  incubative found:       {len(res.incubative)}")
    print(f"  instructions protected: {len(res.selection.selected)}")
    print(f"  expected coverage:      {res.expected_coverage:.1%}")
    one_time = sum(phase_seconds(spans).values())
    print(f"  one-time cost:          {one_time:.1f}s")


if __name__ == "__main__":
    main()
