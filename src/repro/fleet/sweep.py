"""Policy sweep: escape rate vs. throughput cost across the policy axis.

The DETOx framing — detection is a cost/coverage knob, not a fixed
mechanism — made concrete: sweep one fleet along a ladder of policies
from lax to paranoid, holding the fleet seed (hence the host population,
defect signatures, and job schedule) fixed, and chart how the SDC escape
rate falls as the resilience spend rises. Because the corruption
evidence stream is identical across rungs, the tradeoff is structurally
monotone: a stricter policy can only catch each defective host sooner.

The rate column (and the monotonicity gate) is *escapes per scheduled
host-round*, whose denominator is fixed across the ladder; the per-job
rate of a single run's summary would let early quarantine shrink the
denominator and mask an improvement (see
:attr:`~repro.fleet.sim.FleetResult.schedule_escape_rate`).
"""

from __future__ import annotations

from dataclasses import replace

from repro.fleet.policy import FleetPolicy, PRESETS
from repro.fleet.sim import FleetResult, run_fleet
from repro.util.tables import format_table

__all__ = ["SWEEP_LADDER", "run_sweep", "render_sweep", "sweep_is_monotone"]

#: The default ladder, lax → strict: test more often/deeper and
#: quarantine on less evidence as you climb.
SWEEP_LADDER: tuple[tuple[str, FleetPolicy], ...] = (
    ("lax", PRESETS["lax"]),
    ("default", PRESETS["default"]),
    ("strict", replace(
        PRESETS["default"], test_every=2, test_depth=128, quarantine_at=2
    )),
    ("paranoid", PRESETS["paranoid"]),
)


def run_sweep(
    n_hosts: int,
    defect_rate: float,
    seed: int,
    rounds: int = 32,
    apps=None,
    n_defective: int | None = None,
    ladder=SWEEP_LADDER,
) -> list[tuple[str, FleetResult]]:
    """Simulate the same fleet under each ladder policy."""
    out = []
    for name, policy in ladder:
        result = run_fleet(
            n_hosts, defect_rate, policy, seed, rounds=rounds, apps=apps,
            n_defective=n_defective,
        )
        out.append((name, result))
    return out


def sweep_is_monotone(results) -> bool:
    """Escape rate non-increasing up the ladder — the acceptance gate.

    Judged on :attr:`~repro.fleet.sim.FleetResult.schedule_escape_rate`
    (escapes per scheduled host-round, fixed denominator), not the
    per-job rate: a stricter policy quarantines sooner and runs fewer
    jobs, which can raise escapes-per-job while delivering strictly
    fewer corrupted results overall.
    """
    rates = [r.schedule_escape_rate for _, r in results]
    return all(a >= b for a, b in zip(rates, rates[1:]))


def render_sweep(results) -> str:
    """The tradeoff table (timestamp-free, CI-diffable)."""
    rows = []
    for name, r in results:
        rows.append([
            name,
            str(r.policy.test_every),
            str(r.policy.test_depth),
            str(r.policy.quarantine_at),
            str(r.sdc_escapes),
            f"{r.schedule_escape_rate:.6f}",
            f"{r.throughput_cost:.6f}",
            str(r.quarantines),
            "yes" if r.caught_all else "no",
        ])
    table = format_table(
        ["Policy", "TestEvery", "Depth", "Quarantine@", "Escapes",
         "EscapeRate", "ThroughputCost", "Quarantined", "CaughtAll"],
        rows,
        title="Fleet policy sweep (escape rate vs. throughput cost)",
    )
    verdict = (
        "monotone: escape rate non-increasing lax->paranoid"
        if sweep_is_monotone(results)
        else "NOT MONOTONE: escape rate increased along the ladder"
    )
    return table + "\n" + verdict
