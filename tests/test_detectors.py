"""Tests for the detector zoo: checkrange, transforms, optimizer, FI hooks."""

import math

import pytest

from repro.detectors import (
    ChecksumDetector,
    DetectorContext,
    FrontierConfig,
    PlanAction,
    apply_plan,
    build_frontier,
    duplicate_instructions,
    frontier_detector_kinds,
    frontier_is_monotone,
    frontier_is_nondominated,
    gather_candidates,
    make_detectors,
    mine_value_profile,
    pareto_frontier,
    select_configuration,
)
from repro.errors import ConfigError, DetectedError
from repro.fi.campaign import (
    per_detector_detection,
    run_campaign,
    run_per_instruction_campaign,
)
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.obs import MemorySink
from repro.obs.core import session
from repro.runconfig import run_scope
from repro.sid.profiles import build_cost_benefit_profile
from repro.vm.interpreter import Program
from repro.vm.profiler import profile_run
from tests.conftest import build_sum_squares_module, cached_app

DATA = {"data": [float(i % 5) + 0.5 for i in range(32)]}


@pytest.fixture(scope="module")
def sumsq():
    m = build_sum_squares_module()
    return m, Program(m)


@pytest.fixture(scope="module")
def sumsq_ctx(sumsq):
    m, p = sumsq
    dyn = profile_run(p, args=[16], bindings=DATA)
    fi = run_per_instruction_campaign(
        p, 4, seed=7, args=[16], bindings=DATA, profile=dyn
    )
    prof = build_cost_benefit_profile(m, dyn, fi)
    return DetectorContext(program=p, profile=prof, args=[16], bindings=DATA)


def _fmul_iid(m):
    return next(i.iid for i in m.instructions() if i.opcode == "fmul")


class TestCheckrange:
    def test_golden_run_passes_inclusive_envelope(self, sumsq):
        m, p = sumsq
        prof = mine_value_profile(p, args=[16], bindings=DATA, cache=False)
        iid = _fmul_iid(m)
        rec = prof.record(iid)
        prot = apply_plan(
            m, {iid: PlanAction("range", lo=rec.vmin, hi=rec.vmax)}
        )
        golden = p.run(args=[16], bindings=DATA)
        run = Program(prot.module).run(args=[16], bindings=DATA)
        assert run.output == golden.output
        assert prot.range_checks == 1

    def test_out_of_range_value_traps(self, sumsq):
        m, _ = sumsq
        iid = _fmul_iid(m)
        prot = apply_plan(m, {iid: PlanAction("range", lo=-2.0, hi=-1.0)})
        with pytest.raises(DetectedError):
            Program(prot.module).run(args=[16], bindings=DATA)

    def test_nan_always_traps(self, sumsq):
        m, _ = sumsq
        iid = next(
            i.iid for i in m.instructions()
            if i.opcode == "load" and i.type.is_float
        )
        prot = apply_plan(
            m, {iid: PlanAction("range", lo=-1e308, hi=1e308)}
        )
        poisoned = {"data": [math.nan] + [1.0] * 31}
        with pytest.raises(DetectedError):
            Program(prot.module).run(args=[16], bindings=poisoned)

    def test_checkrange_survives_text_round_trip(self, sumsq):
        m, _ = sumsq
        iid = _fmul_iid(m)
        prot = apply_plan(m, {iid: PlanAction("range", lo=0.0, hi=100.0)})
        text = print_module(prot.module)
        assert "checkrange" in text
        reparsed = parse_module(text)
        run = Program(reparsed).run(args=[16], bindings=DATA)
        golden = Program(m).run(args=[16], bindings=DATA)
        assert run.output == golden.output

    def test_batch_engine_matches_scalar(self, sumsq):
        m, _ = sumsq
        prof = mine_value_profile(
            Program(m), args=[16], bindings=DATA, cache=False
        )
        plan = {
            iid: PlanAction("range", lo=r.vmin, hi=r.vmax)
            for iid, r in sorted(prof.records.items())
            if not r.nan_seen
            and (m.instruction(iid).type.is_int
                 or m.instruction(iid).type.is_float)
        }
        prot = Program(apply_plan(m, plan).module)
        scalar = run_campaign(
            prot, 40, seed=11, args=[16], bindings=DATA, engine="scalar"
        )
        batch = run_campaign(
            prot, 40, seed=11, args=[16], bindings=DATA, engine="batch"
        )
        assert scalar.counts.counts == batch.counts.counts


class TestDuplicationParity:
    """The Detector-interface transform is bit-identical to legacy SID."""

    def _selection(self, m):
        # Pointer producers (alloca/gep) are excluded: a duplicate
        # allocation is a *different* address, so its check would trap on
        # the golden run — in the legacy path and the plan path alike.
        iids = [
            i.iid for i in m.instructions()
            if i.produces_value and (i.type.is_int or i.type.is_float)
            and i.opcode != "gep"
        ]
        return iids[::3][:20]

    @pytest.mark.parametrize("name", [
        "backprop", "bfs", "fft", "hpccg", "kmeans", "knn", "lu",
        "needle", "particlefilter", "pathfinder", "xsbench",
    ])
    def test_plan_path_matches_legacy_text(self, name):
        app = cached_app(name)
        m = app.module
        sel = self._selection(m)
        legacy = duplicate_instructions(m, sel, check_placement="sync")
        plan = {iid: PlanAction("dup", placement="sync") for iid in sel}
        via_plan = apply_plan(m, plan)
        assert print_module(via_plan.module) == print_module(legacy.module)
        assert via_plan.iid_map == legacy.iid_map
        assert via_plan.dup_map == legacy.dup_map
        assert via_plan.checks == legacy.checks

    def test_campaign_outcomes_identical(self, sumsq):
        m, _ = sumsq
        sel = self._selection(m)
        legacy = Program(duplicate_instructions(m, sel).module)
        plan = {iid: PlanAction("dup") for iid in sel}
        via_plan = Program(apply_plan(m, plan).module)
        a = run_campaign(legacy, 40, seed=3, args=[16], bindings=DATA)
        b = run_campaign(via_plan, 40, seed=3, args=[16], bindings=DATA)
        assert a.counts.counts == b.counts.counts


class TestValueProfile:
    def test_envelope_matches_data(self, sumsq):
        m, p = sumsq
        prof = mine_value_profile(p, args=[16], bindings=DATA, cache=False)
        iid = next(
            i.iid for i in m.instructions()
            if i.opcode == "load" and i.type.is_float
        )
        rec = prof.record(iid)
        assert rec.count == 16
        assert rec.vmin == min(DATA["data"][:16])
        assert rec.vmax == max(DATA["data"][:16])
        assert not rec.nan_seen
        assert not rec.all_integral  # values end in .5

    def test_warm_rebuild_from_cache(self, sumsq, tmp_path):
        _, p = sumsq
        sink = MemorySink()
        with run_scope(cache=tmp_path / "store"), session(sink=sink):
            cold = mine_value_profile(p, args=[16], bindings=DATA)
            warm = mine_value_profile(p, args=[16], bindings=DATA)
        counters = sink.records[-1]["fields"]["counters"]
        assert counters["detectors.value_profile.mined"] == 1
        assert counters["detectors.value_profile.cache_hits"] == 1
        assert warm.records == cold.records
        assert warm.observed == cold.observed

    def test_payload_round_trip(self, sumsq):
        _, p = sumsq
        prof = mine_value_profile(p, args=[16], bindings=DATA, cache=False)
        from repro.detectors import ValueProfile

        again = ValueProfile.from_payload(prof.to_payload())
        assert again.records == prof.records

    @pytest.mark.parametrize("payload", [
        {"records": [1, 2]},
        {"records": {"3": [0.0, 1.0]}},
        {"records": {"x": [0.0, 1.0, 2, False, True]}},
        {"records": {"3": [0.0, 1.0, None, False, True]}},
    ], ids=["records-list", "short-row", "iid-key", "none-count"])
    def test_malformed_cache_entry_reads_as_a_miss(self, sumsq, tmp_path,
                                                   payload):
        from repro.cache.keys import value_profile_key
        from repro.cache.store import store_for

        _, p = sumsq
        store = store_for(tmp_path / "store")
        key = value_profile_key(p.text, [16], DATA)
        store.put(key, payload)
        fresh = mine_value_profile(p, args=[16], bindings=DATA, cache=False)
        got = mine_value_profile(p, args=[16], bindings=DATA, cache=store)
        assert got.records == fresh.records
        # The mined profile replaced the malformed entry.
        assert store.get(key) == fresh.to_payload()


class TestZoo:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_detectors(["dup", "voodoo"])

    def test_each_detector_produces_priced_candidates(self, sumsq_ctx):
        for det in make_detectors(("dup", "range", "store")):
            cands = det.candidates(sumsq_ctx)
            assert cands, det.kind
            for c in cands:
                assert c.detector == det.kind
                assert c.cost >= 0.0
                assert all(0.0 <= v <= 1.0 for v in c.coverage.values())

    def test_store_only_is_cheaper_than_dup(self, sumsq_ctx):
        dup, store = make_detectors(("dup", "store"))
        dup_costs = {c.iids[0]: c.cost for c in dup.candidates(sumsq_ctx)}
        for c in store.candidates(sumsq_ctx):
            assert c.cost < dup_costs[c.iids[0]]

    def test_checksum_candidate_on_fft(self):
        app = cached_app("fft")
        p = app.program
        a, b = app.encode(app.reference_input)
        dyn = profile_run(p, args=a, bindings=b)
        fi = run_per_instruction_campaign(
            p, 2, seed=5, args=a, bindings=b, profile=dyn
        )
        prof = build_cost_benefit_profile(app.module, dyn, fi)
        ctx = DetectorContext(program=p, profile=prof, args=a, bindings=b)
        cands = ChecksumDetector().candidates(ctx)
        assert len(cands) == 1
        cand = cands[0]
        assert cand.checksum is not None
        assert cand.iids  # nonempty covered slice
        prot = apply_plan(app.module, {}, checksum=cand.checksum)
        assert prot.has_checksum
        golden = p.run(args=a, bindings=b)
        run = Program(prot.module).run(args=a, bindings=b)
        assert run.output == golden.output  # golden sum passes its own check


class TestOptimizer:
    def test_selection_is_deterministic(self, sumsq_ctx):
        cands = gather_candidates(
            make_detectors(("dup", "range", "store")), sumsq_ctx
        )
        a = select_configuration(cands, 0.3, sumsq_ctx.profile)
        b = select_configuration(
            list(reversed(cands)), 0.3, sumsq_ctx.profile
        )
        assert a.assigned == b.assigned
        assert a.cost == b.cost

    def test_at_most_one_detector_per_instruction(self, sumsq_ctx):
        cands = gather_candidates(
            make_detectors(("dup", "range", "store")), sumsq_ctx
        )
        cfg = select_configuration(cands, 0.5, sumsq_ctx.profile)
        assert set(cfg.plan) == set(cfg.assigned)
        assert sum(cfg.by_kind.values()) == len(cfg.assigned)

    def test_frontier_gates(self, sumsq_ctx):
        cands = gather_candidates(
            make_detectors(("dup", "range", "store")), sumsq_ctx
        )
        points = pareto_frontier(
            cands, sumsq_ctx.profile, budgets=(0.05, 0.15, 0.35, 0.6)
        )
        assert len(points) == 4
        assert frontier_is_monotone(points)
        assert frontier_is_nondominated(points)
        for p in points:
            assert p.config.cost <= p.budget * sumsq_ctx.profile.total_cycles

    def test_frontier_mixes_detector_kinds(self):
        app = cached_app("pathfinder")
        a, b = app.encode(app.reference_input)
        res = build_frontier(
            app.module, a, b,
            FrontierConfig(
                detectors=("dup", "range", "store"),
                budgets=(0.1, 0.35, 0.6),
                profile_source="model",
            ),
        )
        kinds = frontier_detector_kinds(res.points)
        assert len(kinds) >= 3


class TestValidation:
    def test_per_detector_detection_tallies(self, sumsq):
        m, _ = sumsq
        prof = mine_value_profile(
            Program(m), args=[16], bindings=DATA, cache=False
        )
        iids = sorted(
            iid for iid, r in prof.records.items() if not r.nan_seen
        )
        plan = {}
        for k, iid in enumerate(iids):
            rec = prof.record(iid)
            plan[iid] = (
                PlanAction("dup") if k % 2 == 0
                else PlanAction("range", lo=rec.vmin, hi=rec.vmax)
            )
        prot = apply_plan(m, plan)
        campaign = run_campaign(
            Program(prot.module), 40, seed=9, args=[16], bindings=DATA
        )
        per = per_detector_detection(campaign, prot)
        assert set(per) <= {"dup", "range", "none"}
        assert sum(v[1] for v in per.values()) == campaign.trials
        for detected, faults in per.values():
            assert 0 <= detected <= faults

    def test_frontier_validation_end_to_end(self, sumsq):
        m, _ = sumsq
        res = build_frontier(
            m, [16], DATA,
            FrontierConfig(
                detectors=("dup", "range", "store"),
                budgets=(0.15, 0.5),
                profile_source="model",
                validate_faults=25,
                seed=13,
            ),
        )
        assert len(res.validations) == 2
        for v in res.validations:
            assert 0.0 <= v.detected_rate <= 1.0
            assert v.measured_overhead >= 0.0
            assert v.campaign.trials == 25
