"""The fleet simulator: job rounds, in-field tests, quarantine.

Execution model
---------------
Time advances in rounds. Each round every *active* (non-quarantined)
host runs one job from the mix (app rotation staggered by host id);
on the staggered test schedule, hosts additionally run an in-field test
sweeping a rotating window of the opcode space. Clean hosts produce the
golden output by construction, so only defective-host jobs execute the
VM — with the host's sticky signature driving the interpreter's
``sticky`` hook — and only their outcomes can differ from golden.

Evidence and ground truth are kept strictly apart, as in production:
DETECTED and CRASH/HANG outcomes charge health evidence
(:mod:`repro.util.health`); an SDC is *silent* — it is tallied against
the fleet's escape rate but contributes no evidence, and only a directed
in-field test can catch the host that produced it. That separation is
what makes test scheduling a real policy knob rather than bookkeeping.

Determinism
-----------
The schedule, the RNG tree, and every health update derive from the
master seed and run sequentially in the parent; defective-host jobs are
dispatched through :func:`repro.util.parallel.parallel_map`, whose
results arrive in submission order. Summaries are therefore
byte-identical across worker counts, which ``fleet-smoke`` diffs in CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, Trap
from repro.fi.hostfault import BoundHostFault, HostFaultModel
from repro.fi.outcome import classify_run
from repro.fleet.hosts import Host, seed_fleet
from repro.fleet.jobs import AppJobSpec, build_job_specs, job_mix_opcodes
from repro.fleet.policy import FleetPolicy
from repro.obs.core import current as _obs_current
from repro.util.health import HealthPolicy, HealthTracker, QUARANTINED
from repro.util.parallel import parallel_map
from repro.util.rng import RngStream, derive_seed
from repro.util.tables import format_table

__all__ = ["FleetResult", "FleetSim", "render_fleet_summary", "run_fleet"]

#: Job-equivalents per in-field probe execution: a probe is one directed
#: operation against a reference, a job is thousands of instructions.
PROBE_COST = 1.0 / 4096.0

#: Hang budget for defective-host jobs, as in :mod:`repro.fi.injector`.
_HANG_FACTOR = 8


# ---------------------------------------------------------------------------
# Worker side: run one defective-host job under its sticky signature.
# ---------------------------------------------------------------------------

_APP_CACHE: dict = {}
_BIND_CACHE: dict = {}


def _app_state(app_name: str):
    state = _APP_CACHE.get(app_name)
    if state is None:
        from repro.apps.registry import get_app

        app = get_app(app_name)
        args, bindings = app.encode(app.reference_input)
        golden = app.program.run(args=args, bindings=bindings)
        state = _APP_CACHE[app_name] = (
            app.program, args, bindings, golden.output,
            golden.steps * _HANG_FACTOR + 10_000,
            app.rel_tol, app.abs_tol,
        )
    return state


def _run_fleet_job(item):
    """One defective-host job: sticky run + outcome classification.

    ``item`` is a flat picklable tuple; the per-process caches make the
    golden run and the signature binding one-time costs per worker.
    Returns ``(outcome_name, visits, corrupted, detected)``.
    """
    (app_name, protected, opcode, bit, mode, fseed,
     fire_rate, pattern_bits, salt) = item
    program, args, bindings, golden_output, limit, rel_tol, abs_tol = (
        _app_state(app_name)
    )
    bind_key = (app_name, protected, opcode, bit, mode, fseed,
                fire_rate, pattern_bits)
    bound = _BIND_CACHE.get(bind_key)
    if bound is None:
        model = HostFaultModel(
            opcode=opcode, bit=bit, mode=mode, seed=fseed,
            fire_rate=fire_rate, pattern_bits=pattern_bits,
        )
        bound = _BIND_CACHE[bind_key] = BoundHostFault(
            model, program, protected
        )
    sticky = bound.start_run(salt)
    trap = None
    output = None
    try:
        result = program.run(
            args=args, bindings=bindings, sticky=sticky, step_limit=limit
        )
        output = result.output
    except Trap as t:
        trap = t
    outcome = classify_run(golden_output, output, trap, rel_tol, abs_tol)
    return (outcome.name, sticky.visits, sticky.corrupted, sticky.detected)


# ---------------------------------------------------------------------------
# Parent side: the round loop.
# ---------------------------------------------------------------------------

@dataclass
class FleetResult:
    """Aggregate outcome of one fleet simulation."""

    n_hosts: int
    rounds: int
    policy: FleetPolicy
    seed: int
    apps: tuple
    jobs_run: int
    sdc_escapes: int
    detected: int
    crashes: int
    masked: int
    tests_run: int
    test_catches: int
    quarantines: int
    readmissions: int
    degraded_rounds: int
    test_cost: float
    dup_cost: float
    idle_cost: float
    #: (host_id, opcode, bit, mode, status, evidence, escapes, caught_round)
    defective: list

    @property
    def capacity(self) -> int:
        return self.n_hosts * self.rounds

    @property
    def escape_rate(self) -> float:
        """SDC escapes per job actually run (the per-work risk)."""
        return self.sdc_escapes / self.jobs_run if self.jobs_run else 0.0

    @property
    def schedule_escape_rate(self) -> float:
        """SDC escapes per *scheduled* host-round.

        The denominator is fixed by (hosts, rounds) rather than by how
        many jobs the policy let run — a stricter policy quarantines
        sooner, shrinking ``jobs_run``, which can nudge the per-job
        :attr:`escape_rate` *up* even as absolute escapes fall. Policy
        comparisons (the sweep's monotonicity gate) use this rate so the
        ladder is judged on what reached users, not on the denominator.
        """
        return self.sdc_escapes / self.capacity if self.capacity else 0.0

    @property
    def throughput_cost(self) -> float:
        if not self.capacity:
            return 0.0
        return (self.test_cost + self.dup_cost + self.idle_cost) / self.capacity

    @property
    def caught_all(self) -> bool:
        return all(row[7] >= 0 for row in self.defective)


class FleetSim:
    """One simulation instance; :meth:`run` executes the round loop."""

    def __init__(
        self,
        hosts: list,
        specs: list,
        policy: FleetPolicy,
        seed: int,
        rounds: int,
    ) -> None:
        if rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {rounds}")
        if not specs:
            raise ConfigError("fleet simulation needs a non-empty job mix")
        self.hosts = hosts
        self.specs = specs
        self.policy = policy
        self.seed = seed
        self.rounds = rounds
        self.health = HealthTracker(
            HealthPolicy(policy.quarantine_at, policy.readmit_after)
        )
        self.opcode_space = sorted(job_mix_opcodes(specs))
        self.rng = RngStream(seed, "fleet", "sim")

    # -- schedule helpers ----------------------------------------------
    def _job_for(self, host: Host, rnd: int) -> AppJobSpec:
        return self.specs[(host.host_id + rnd) % len(self.specs)]

    def _due_for_test(self, host: Host, rnd: int) -> bool:
        te = self.policy.test_every
        return te > 0 and (host.host_id + rnd) % te == 0

    def _test_window(self, rnd: int) -> list:
        space = self.opcode_space
        k = max(1, min(len(space), round(len(space) * self.policy.test_coverage)))
        if k >= len(space):
            return list(space)
        start = (rnd * k) % len(space)
        return [space[(start + i) % len(space)] for i in range(k)]

    # -- main loop ------------------------------------------------------
    def run(self) -> FleetResult:
        t = _obs_current()
        pol = self.policy
        n = len(self.hosts)
        floor = int(pol.min_capacity * n)
        jobs_run = escapes = detected = crashes = masked = 0
        tests_run = catches = quarantines = readmissions = degraded = 0
        test_cost = dup_cost = idle_cost = 0.0
        escapes_by_host: dict[int, int] = {}
        caught_round: dict[int, int] = {}

        for rnd in range(self.rounds):
            active = [
                h for h in self.hosts
                if self.health.status(h.host_id) != QUARANTINED
            ]
            # Graceful degradation: quarantine may not starve the fleet.
            if len(active) < floor:
                victims = sorted(
                    self.health.quarantined(),
                    key=lambda e: (self.health.record(e).score, e),
                )
                while len(active) < floor and victims:
                    hid = victims.pop(0)
                    self.health.force_readmit(hid)
                    readmissions += 1
                    active.append(self.hosts[hid])
                active.sort(key=lambda h: h.host_id)
                degraded += 1
                if t is not None:
                    t.count("fleet.degraded")
                    t.emit("fleet.degraded", {"round": rnd, "active": len(active)})

            # Job phase: clean hosts produce golden output for free.
            items, item_hosts = [], []
            for host in active:
                spec = self._job_for(host, rnd)
                jobs_run += 1
                dup_cost += spec.dup_overhead
                if host.defect is None or host.defect.opcode not in spec.opcodes:
                    continue
                d = host.defect
                items.append((
                    spec.app_name, spec.protected, d.opcode, d.bit, d.mode,
                    d.seed, d.fire_rate, d.pattern_bits,
                    derive_seed(self.seed, "job", rnd, host.host_id),
                ))
                item_hosts.append(host)
            if t is not None:
                t.count("fleet.jobs", len(active))
            results = (
                parallel_map(_run_fleet_job, items)
                if items else []
            )
            for host, (outcome, visits, corrupted, ndet) in zip(
                item_hosts, results
            ):
                hid = host.host_id
                if outcome == "SDC":
                    escapes += 1
                    escapes_by_host[hid] = escapes_by_host.get(hid, 0) + 1
                    if t is not None:
                        t.count("fleet.sdc_escapes")
                elif outcome == "DETECTED":
                    detected += 1
                    self.health.charge(hid, "detected")
                    if t is not None:
                        t.count("fleet.detected")
                elif outcome in ("CRASH", "HANG"):
                    crashes += 1
                    self.health.charge(hid, "crash")
                    if t is not None:
                        t.count("fleet.crashes")
                elif corrupted:
                    masked += 1
                    if t is not None:
                        t.count("fleet.masked")

            # In-field test phase. Quarantined hosts are only re-tested
            # when the policy readmits at all.
            window = self._test_window(rnd) if pol.test_every else []
            for host in self.hosts:
                if not self._due_for_test(host, rnd):
                    continue
                in_quarantine = (
                    self.health.status(host.host_id) == QUARANTINED
                )
                if in_quarantine and pol.readmit_after <= 0:
                    continue
                tests_run += 1
                test_cost += pol.test_depth * len(window) * PROBE_COST
                if t is not None:
                    t.count("fleet.tests")
                caught = False
                if host.defect is not None and host.defect.opcode in window:
                    caught = host.defect.in_field_probe(
                        self.rng.child("test", rnd, host.host_id),
                        pol.test_depth,
                    )
                if caught:
                    catches += 1
                    self.health.charge(host.host_id, "test_fail")
                    if t is not None:
                        t.count("fleet.test_catches")
                        t.emit("fleet.test_fail", {
                            "round": rnd, "host": host.host_id,
                            "opcode": host.defect.opcode,
                        })
                elif in_quarantine:
                    if self.health.clear_pass(host.host_id):
                        readmissions += 1
                        if t is not None:
                            t.count("fleet.readmissions")
                            t.emit("fleet.readmit", {
                                "round": rnd, "host": host.host_id,
                            })

            # Quarantine transitions this round.
            for hid in self.health.quarantined():
                if hid not in caught_round:
                    caught_round[hid] = rnd
                    quarantines += 1
                    if t is not None:
                        t.count("fleet.quarantines")
                        t.emit("fleet.quarantine", {
                            "round": rnd, "host": hid,
                            "score": self.health.record(hid).score,
                        })

            idle_cost += float(n - len(active))
            if t is not None:
                t.emit("fleet.round", {
                    "round": rnd,
                    "active": len(active),
                    "escapes": escapes,
                    "quarantined": len(self.health.quarantined()),
                }, kind="event")

        defective_rows = []
        for host in self.hosts:
            if host.defect is None:
                continue
            d = host.defect
            defective_rows.append((
                host.host_id, d.opcode, d.bit, d.mode,
                self.health.status(host.host_id),
                self.health.record(host.host_id).score,
                escapes_by_host.get(host.host_id, 0),
                caught_round.get(host.host_id, -1),
            ))
        result = FleetResult(
            n_hosts=n, rounds=self.rounds, policy=pol, seed=self.seed,
            apps=tuple(s.app_name for s in self.specs),
            jobs_run=jobs_run, sdc_escapes=escapes, detected=detected,
            crashes=crashes, masked=masked, tests_run=tests_run,
            test_catches=catches, quarantines=quarantines,
            readmissions=readmissions, degraded_rounds=degraded,
            test_cost=test_cost, dup_cost=dup_cost, idle_cost=idle_cost,
            defective=defective_rows,
        )
        if t is not None:
            t.emit("fleet.summary", {
                "hosts": n, "rounds": self.rounds,
                "policy": pol.describe(),
                "jobs": jobs_run, "escapes": escapes,
                "escape_rate": result.escape_rate,
                "throughput_cost": result.throughput_cost,
                "quarantines": quarantines,
                "caught_all": result.caught_all,
            })
        return result


def run_fleet(
    n_hosts: int,
    defect_rate: float,
    policy: FleetPolicy,
    seed: int,
    rounds: int = 32,
    apps=None,
    n_defective: int | None = None,
) -> FleetResult:
    """Seed a fleet, prepare the job mix, simulate — the CLI's one call."""
    specs = build_job_specs(apps, protection=policy.protection, seed=seed)
    hosts = seed_fleet(
        n_hosts, defect_rate, seed, job_mix_opcodes(specs),
        n_defective=n_defective,
    )
    sim = FleetSim(hosts, specs, policy, seed, rounds)
    return sim.run()


def render_fleet_summary(result: FleetResult) -> str:
    """Human summary; timestamp-free so CI can byte-diff it."""
    pol = result.policy
    overview = format_table(
        ["Metric", "Value"],
        [
            ["hosts", str(result.n_hosts)],
            ["rounds", str(result.rounds)],
            ["job mix", " ".join(result.apps)],
            ["policy", pol.describe()],
            ["jobs run", str(result.jobs_run)],
            ["SDC escapes", str(result.sdc_escapes)],
            ["escape rate", f"{result.escape_rate:.6f}"],
            ["detected (duplication)", str(result.detected)],
            ["crashes/hangs", str(result.crashes)],
            ["masked corruptions", str(result.masked)],
            ["in-field tests", str(result.tests_run)],
            ["test catches", str(result.test_catches)],
            ["quarantines", str(result.quarantines)],
            ["readmissions", str(result.readmissions)],
            ["degraded rounds", str(result.degraded_rounds)],
            ["throughput cost", f"{result.throughput_cost:.6f}"],
            ["  · testing", f"{result.test_cost / result.capacity:.6f}"],
            ["  · duplication", f"{result.dup_cost / result.capacity:.6f}"],
            ["  · quarantine idle", f"{result.idle_cost / result.capacity:.6f}"],
        ],
        title="Fleet summary",
    )
    rows = [
        [
            f"host{hid}", opcode, str(bit), mode, status, str(score),
            str(esc), str(caught) if caught >= 0 else "never",
        ]
        for hid, opcode, bit, mode, status, score, esc, caught
        in result.defective
    ]
    if not rows:
        rows = [["(none)", "-", "-", "-", "-", "-", "-", "-"]]
    defects = format_table(
        ["Host", "Opcode", "Bit", "Mode", "Status", "Evidence",
         "Escapes", "Caught@round"],
        rows,
        title="Defective hosts",
    )
    return overview + "\n\n" + defects
