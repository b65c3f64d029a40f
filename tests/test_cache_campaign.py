"""End-to-end cache behaviour at the campaign entry points.

The bar: a warm re-run returns *bit-identical* results while dispatching
zero campaigns; any cache failure (corruption, races, opt-out) degrades to
the exact cold-path numbers. Re-uses the determinism invariant from
``test_fi_checkpoint.py`` — a serially-filled entry must serve pooled and
checkpoint-resumed callers, because the key deliberately excludes ``workers``
and checkpoint settings.
"""

from __future__ import annotations

from repro.cache.store import CampaignCache
from repro.fi.campaign import run_campaign, run_per_instruction_campaign
from repro.obs.core import session
from repro.obs.sink import MemorySink
from repro.runconfig import resolve_field, run_scope


def _kwargs(app):
    args, bindings = app.encode(app.reference_input)
    return dict(
        args=args, bindings=bindings, rel_tol=app.rel_tol, abs_tol=app.abs_tol
    )


def assert_same_campaign(a, b):
    assert a.per_fault == b.per_fault
    assert a.counts == b.counts
    assert a.trials == b.trials


def assert_same_per_instruction(a, b):
    assert a.per_iid == b.per_iid
    assert a.trials_per_instruction == b.trials_per_instruction


class TestWholeProgramCaching:
    def test_warm_run_is_bit_identical_and_injects_nothing(
        self, pathfinder_app, tmp_path
    ):
        kw = _kwargs(pathfinder_app)
        store = CampaignCache(tmp_path)
        cold = run_campaign(
            pathfinder_app.program, 30, seed=11, cache=store, **kw
        )
        with session(sink=MemorySink()) as t:
            warm = run_campaign(
                pathfinder_app.program, 30, seed=11, cache=store, **kw
            )
        assert_same_campaign(cold, warm)
        counters = t.metrics.counters
        assert counters.get("cache.hit") == 1
        assert counters.get("fi.campaigns", 0) == 0
        assert counters.get("fi.trials", 0) == 0

    def test_hit_emits_a_cache_event_with_the_key(
        self, pathfinder_app, tmp_path
    ):
        kw = _kwargs(pathfinder_app)
        store = CampaignCache(tmp_path)
        run_campaign(pathfinder_app.program, 20, seed=3, cache=store, **kw)
        sink = MemorySink()
        with session(sink=sink):
            run_campaign(pathfinder_app.program, 20, seed=3, cache=store, **kw)
        hits = [r for r in sink.records if r.get("name") == "cache.hit"]
        assert len(hits) == 1
        assert hits[0]["fields"]["label"] == "fi.whole-program"
        assert hits[0]["fields"]["trials"] == 20
        assert store.path_for(hits[0]["fields"]["key"]).exists()

    def test_serial_entry_serves_pooled_and_checkpointed_callers(
        self, pathfinder_app, tmp_path
    ):
        kw = _kwargs(pathfinder_app)
        store = CampaignCache(tmp_path)
        cold = run_campaign(
            pathfinder_app.program, 30, seed=11, workers=0, cache=store, **kw
        )
        assert store.stats().entries == 1
        with session(sink=MemorySink()) as t:
            pooled = run_campaign(
                pathfinder_app.program, 30, seed=11, workers=2,
                cache=store, **kw,
            )
            ckpt = run_campaign(
                pathfinder_app.program, 30, seed=11,
                checkpoint_interval="auto", cache=store, **kw,
            )
        assert t.metrics.counters.get("cache.hit") == 2
        assert store.stats().entries == 1  # same key: nothing re-written
        assert_same_campaign(cold, pooled)
        assert_same_campaign(cold, ckpt)

    def test_different_program_or_plan_misses(
        self, pathfinder_app, fft_app, tmp_path
    ):
        store = CampaignCache(tmp_path)
        run_campaign(
            pathfinder_app.program, 20, seed=3, cache=store,
            **_kwargs(pathfinder_app),
        )
        with session(sink=MemorySink()) as t:
            run_campaign(
                fft_app.program, 20, seed=3, cache=store, **_kwargs(fft_app)
            )
            run_campaign(
                pathfinder_app.program, 20, seed=4, cache=store,
                **_kwargs(pathfinder_app),
            )
        assert t.metrics.counters.get("cache.hit", 0) == 0
        assert t.metrics.counters.get("cache.miss") == 2
        assert store.stats().entries == 3

    def test_corrupted_entry_degrades_to_an_identical_recompute(
        self, pathfinder_app, tmp_path
    ):
        kw = _kwargs(pathfinder_app)
        store = CampaignCache(tmp_path)
        cold = run_campaign(
            pathfinder_app.program, 24, seed=9, cache=store, **kw
        )
        [entry] = store._entries()
        entry.write_text(entry.read_text()[:40])  # truncate in place
        with session(sink=MemorySink()) as t:
            recomputed = run_campaign(
                pathfinder_app.program, 24, seed=9, cache=store, **kw
            )
        assert_same_campaign(cold, recomputed)
        counters = t.metrics.counters
        assert counters.get("cache.corrupt") == 1
        assert counters.get("fi.campaigns") == 1  # really re-ran
        assert counters.get("cache.write") == 1  # and healed the entry
        with session(sink=MemorySink()) as t2:
            run_campaign(pathfinder_app.program, 24, seed=9, cache=store, **kw)
        assert t2.metrics.counters.get("cache.hit") == 1


class TestPerInstructionCaching:
    def test_warm_run_is_bit_identical(self, pathfinder_app, tmp_path):
        kw = _kwargs(pathfinder_app)
        store = CampaignCache(tmp_path)
        cold = run_per_instruction_campaign(
            pathfinder_app.program, trials_per_instruction=3, seed=7,
            cache=store, **kw,
        )
        with session(sink=MemorySink()) as t:
            warm = run_per_instruction_campaign(
                pathfinder_app.program, trials_per_instruction=3, seed=7,
                cache=store, **kw,
            )
        assert_same_per_instruction(cold, warm)
        assert t.metrics.counters.get("cache.hit") == 1
        assert t.metrics.counters.get("fi.campaigns", 0) == 0

    def test_hit_recomputes_profile_only_when_caller_has_none(
        self, pathfinder_app, tmp_path
    ):
        kw = _kwargs(pathfinder_app)
        store = CampaignCache(tmp_path)
        cold = run_per_instruction_campaign(
            pathfinder_app.program, trials_per_instruction=2, seed=5,
            cache=store, **kw,
        )
        # Entries store outcomes only, not the profile — a profile-less hit
        # must rebuild an equivalent one from the (deterministic) golden run.
        warm = run_per_instruction_campaign(
            pathfinder_app.program, trials_per_instruction=2, seed=5,
            cache=store, **kw,
        )
        assert warm.profile.steps == cold.profile.steps
        assert warm.profile.output == cold.profile.output
        supplied = run_per_instruction_campaign(
            pathfinder_app.program, trials_per_instruction=2, seed=5,
            cache=store, profile=cold.profile, **kw,
        )
        assert supplied.profile is cold.profile
        assert_same_per_instruction(cold, supplied)

    def test_hit_takes_no_snapshot(self, pathfinder_app, tmp_path,
                                   monkeypatch):
        """Misses record golden checkpoints (the default); hits, which run
        no trials, record nothing — on either entry point."""
        from repro.vm.interpreter import Program

        kw = _kwargs(pathfinder_app)
        store = CampaignCache(tmp_path)
        recordings = []
        real = Program.run_checkpointed

        def run_checkpointed(self, *args, **kwargs):
            recordings.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Program, "run_checkpointed", run_checkpointed)

        def both():
            run_campaign(pathfinder_app.program, 20, seed=4, cache=store,
                         **kw)
            run_per_instruction_campaign(
                pathfinder_app.program, trials_per_instruction=1, seed=4,
                cache=store, **kw,
            )

        both()
        assert len(recordings) == 2
        recordings.clear()
        both()
        assert recordings == []

    def test_subset_sweep_has_its_own_key(self, pathfinder_app, tmp_path):
        from repro.fi.faultmodel import injectable_iids

        kw = _kwargs(pathfinder_app)
        store = CampaignCache(tmp_path)
        iids = injectable_iids(pathfinder_app.program.module)
        run_per_instruction_campaign(
            pathfinder_app.program, trials_per_instruction=2, seed=5,
            only_iids=iids[:4], cache=store, **kw,
        )
        with session(sink=MemorySink()) as t:
            full = run_per_instruction_campaign(
                pathfinder_app.program, trials_per_instruction=2, seed=5,
                cache=store, **kw,
            )
        assert t.metrics.counters.get("cache.hit", 0) == 0
        assert set(full.per_iid) == set(iids)


class TestAmbientScope:
    def test_scope_installs_cache_for_plain_calls(
        self, pathfinder_app, tmp_path
    ):
        kw = _kwargs(pathfinder_app)
        with run_scope(cache=str(tmp_path)):
            store = resolve_field("cache")
            cold = run_campaign(pathfinder_app.program, 20, seed=3, **kw)
            with session(sink=MemorySink()) as t:
                warm = run_campaign(pathfinder_app.program, 20, seed=3, **kw)
        assert store.stats().entries == 1
        assert t.metrics.counters.get("cache.hit") == 1
        assert_same_campaign(cold, warm)

    def test_env_var_activates_and_no_cache_scope_overrides(
        self, pathfinder_app, tmp_path, monkeypatch
    ):
        kw = _kwargs(pathfinder_app)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_campaign(pathfinder_app.program, 20, seed=3, **kw)
        store = CampaignCache(tmp_path)
        assert store.stats().entries == 1
        with run_scope(cache=False), session(sink=MemorySink()) as t:
            run_campaign(pathfinder_app.program, 20, seed=3, **kw)
        counters = t.metrics.counters
        assert counters.get("cache.hit", 0) == 0
        assert counters.get("cache.miss", 0) == 0
        assert counters.get("fi.campaigns") == 1

    def test_cache_false_opts_a_single_call_out(
        self, pathfinder_app, tmp_path
    ):
        kw = _kwargs(pathfinder_app)
        with run_scope(cache=str(tmp_path)):
            store = resolve_field("cache")
            run_campaign(
                pathfinder_app.program, 20, seed=3, cache=False, **kw
            )
            assert store.stats().entries == 0


class TestFailedCampaignsNeverPublish:
    """A campaign that died mid-flight must leave the store untouched.

    The supervisor raises before the write-back, so a harness failure can
    never persist a partial outcome set that later replays as truth.
    """

    def test_harness_failure_writes_nothing_then_clean_rerun_fills(
        self, pathfinder_app, tmp_path, monkeypatch
    ):
        import pytest

        from repro.errors import HarnessError

        kw = _kwargs(pathfinder_app)
        store = CampaignCache(tmp_path)
        monkeypatch.setenv("REPRO_CHAOS", "exc@0#*")
        with pytest.raises(HarnessError), run_scope(max_retries=1):
            run_campaign(
                pathfinder_app.program, 48, seed=31, workers=2,
                cache=store, **kw,
            )
        assert store.stats().entries == 0

        monkeypatch.delenv("REPRO_CHAOS")
        serial = run_campaign(
            pathfinder_app.program, 48, seed=31, cache=store, **kw
        )
        assert store.stats().entries == 1
        with session(sink=MemorySink()) as t:
            warm = run_campaign(
                pathfinder_app.program, 48, seed=31, workers=2,
                cache=store, **kw,
            )
        assert t.metrics.counters.get("cache.hit") == 1
        assert_same_campaign(serial, warm)
