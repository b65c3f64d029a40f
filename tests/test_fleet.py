"""The fleet resilience simulator (:mod:`repro.fleet`).

The acceptance bar mirrors ``fleet-smoke`` in CI: given ``--seed``, the
whole simulation — host population, defect signatures, job schedule,
health evolution — is byte-identical across worker counts; in-field
testing catches seeded defects; and the policy sweep's escape-rate /
throughput-cost tradeoff renders. Tests run a deliberately tiny fleet
(24 hosts, 2 defective, 8 rounds, 2 apps) so the suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    FleetPolicy,
    FleetSim,
    parse_policy,
    render_fleet_summary,
    render_sweep,
    run_fleet,
    run_sweep,
    seed_fleet,
)
from repro.fleet.jobs import build_job_specs, job_mix_opcodes
from repro.fleet.policy import PRESETS
from repro.fleet.sweep import sweep_is_monotone
from repro.obs.core import session
from repro.obs.fleetview import render_fleet
from repro.obs.sink import MemorySink
from repro.runconfig import run_scope

#: The shared tiny-fleet configuration (seed 3 exercises every outcome
#: class: escapes, detections, crashes, and in-field catches).
SMALL = dict(rounds=8, apps=["kmeans", "fft"], n_defective=2)
SEED = 3


def _small_run(policy="default", seed=SEED, workers=0):
    with run_scope(workers=workers):
        return run_fleet(24, 0.0, parse_policy(policy), seed, **SMALL)


class TestPolicy:
    def test_parse_default(self):
        assert parse_policy(None) == FleetPolicy()
        assert parse_policy("") == FleetPolicy()

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_parse_by_name(self, name):
        assert parse_policy(name) == PRESETS[name]

    def test_overrides_on_preset(self):
        p = parse_policy("lax,test_every=4,test_coverage=0.25")
        assert p.test_every == 4
        assert p.test_coverage == 0.25
        assert p.quarantine_at == PRESETS["lax"].quarantine_at

    @pytest.mark.parametrize("bad", [
        "nosuchpreset", "test_every=4,lax", "bogus_key=1",
        "test_every=soon", "quarantine_at=0", "test_coverage=0",
    ])
    def test_bad_specs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_policy(bad)

    def test_describe_reparses_to_same_policy(self):
        p = PRESETS["paranoid"]
        assert parse_policy(p.describe()) == p


class TestSeedFleet:
    def test_deterministic_and_sized(self):
        opcodes = {"fmul", "add"}
        a = seed_fleet(50, 0.1, 7, opcodes)
        b = seed_fleet(50, 0.1, 7, opcodes)
        assert [h.defect for h in a] == [h.defect for h in b]
        assert len(a) == 50
        assert sum(h.defective for h in a) == 5
        for h in a:
            if h.defect is not None:
                assert h.defect.opcode in opcodes

    def test_n_defective_overrides_rate(self):
        hosts = seed_fleet(50, 0.1, 7, {"fmul"}, n_defective=2)
        assert sum(h.defective for h in hosts) == 2


class TestFleetSim:
    def test_small_fleet_accounting(self):
        r = _small_run()
        assert r.n_hosts == 24
        assert len(r.defective) == 2
        assert r.jobs_run > 0
        assert r.sdc_escapes > 0          # permanent defect escapes SID
        assert r.detected > 0             # intermittent defect is caught
        assert r.test_catches > 0         # in-field testing works
        assert r.caught_all               # both defects end quarantined
        assert r.quarantines == 2
        assert 0.0 < r.escape_rate < 1.0
        assert r.throughput_cost > 0.0

    def test_summary_identical_across_worker_counts(self):
        serial = render_fleet_summary(_small_run(workers=0))
        pooled = render_fleet_summary(_small_run(workers=2))
        assert serial == pooled

    def test_different_seeds_differ(self):
        assert render_fleet_summary(_small_run(seed=3)) != \
            render_fleet_summary(_small_run(seed=5))

    def test_no_testing_means_no_catches(self):
        r = _small_run(policy="test_every=0,quarantine_at=50")
        assert r.tests_run == 0
        assert r.test_catches == 0
        assert r.test_cost == 0.0

    def test_sim_reuses_prebuilt_population(self):
        specs = build_job_specs(SMALL["apps"], protection=0.5)
        opcodes = job_mix_opcodes(specs)
        hosts = seed_fleet(24, 0.0, SEED, opcodes, n_defective=2)
        with run_scope(workers=0):
            r = FleetSim(hosts, specs, parse_policy("default"), SEED,
                         rounds=8).run()
        assert render_fleet_summary(r) == render_fleet_summary(_small_run())


class TestSweep:
    def test_sweep_runs_ladder_and_renders(self):
        with run_scope(workers=0):
            results = run_sweep(24, 0.0, SEED, **SMALL)
        names = [name for name, _ in results]
        assert names == ["lax", "default", "strict", "paranoid"]
        text = render_sweep(results)
        for name in names:
            assert name in text
        assert "monotone" in text.lower()

    def test_monotone_check_is_order_sensitive(self):
        with run_scope(workers=0):
            results = run_sweep(24, 0.0, SEED, **SMALL)
        assert sweep_is_monotone(results) == (
            "NOT MONOTONE" not in render_sweep(results)
        )


class TestFleetObsView:
    def test_report_renders_from_trace_records(self):
        sink = MemorySink()
        with session(sink=sink):
            _small_run()
        text = render_fleet(sink.records)
        assert "hosts" in text and "24" in text
        assert "escape rate" in text
        assert "fleet.jobs" in text          # counters table
        assert "test_fail" in text or "quarantine" in text  # timeline

    def test_empty_trace_says_so(self):
        assert "no fleet.* records" in render_fleet([])
