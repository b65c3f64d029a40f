"""On-disk store behaviour: roundtrips, corruption tolerance, eviction,
concurrent writers, and the maintenance surface behind ``repro cache``.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

from repro.cache.store import CampaignCache
from repro.obs.core import session
from repro.util.digest import stable_digest

PAYLOAD = {"kind": "whole-program", "trials": 3, "per_fault": [[1, "sdc"]]}


def key_for(i: int) -> str:
    return stable_digest({"entry": i})


def fill_entry(root: str, i: int) -> None:
    """Top-level worker so ProcessPoolExecutor can pickle it."""
    CampaignCache(root).put(key_for(i), PAYLOAD)


class TestRoundtrip:
    def test_put_then_get_returns_the_payload(self, tmp_path):
        store = CampaignCache(tmp_path)
        store.put(key_for(0), PAYLOAD)
        assert store.get(key_for(0)) == PAYLOAD

    def test_missing_key_is_a_miss(self, tmp_path):
        with session() as t:
            assert CampaignCache(tmp_path).get(key_for(0)) is None
        assert t.metrics.counters.get("cache.miss") == 1

    def test_hit_and_write_are_counted(self, tmp_path):
        store = CampaignCache(tmp_path)
        with session() as t:
            store.put(key_for(0), PAYLOAD)
            store.get(key_for(0))
        assert t.metrics.counters.get("cache.write") == 1
        assert t.metrics.counters.get("cache.hit") == 1


class TestWriteOnce:
    """``put`` encodes the payload once and makes each shard once."""

    PAYLOADS = [
        PAYLOAD,
        {"z": [1.5, -0.0, float("inf"), 2**70], "a": {"b": None, "é": "ü"}},
        {"nested": [{"k": i, "v": [i / 3, -i]} for i in range(5)]},
    ]

    def test_entries_verify_and_read_back_equal(self, tmp_path):
        store = CampaignCache(tmp_path)
        for i, payload in enumerate(self.PAYLOADS * 3):
            store.put(key_for(i), payload)
        assert store.verify() == []
        reader = CampaignCache(tmp_path)
        for i, payload in enumerate(self.PAYLOADS * 3):
            assert reader.get(key_for(i)) == payload
        entry = json.loads(store.path_for(key_for(0)).read_text())
        assert entry["schema"] == 1 and entry["key"] == key_for(0)

    def test_each_shard_is_made_once(self, tmp_path, monkeypatch):
        made = []
        real = type(tmp_path).mkdir

        def mkdir(path, *args, **kwargs):
            made.append(path.name)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(type(tmp_path), "mkdir", mkdir)
        store = CampaignCache(tmp_path)
        keys = [key_for(i) for i in range(40)]
        for key in keys * 2:
            store.put(key, PAYLOAD)
        assert sorted(made) == sorted({k[:2] for k in keys})


class TestCorruptionTolerance:
    def corrupt(self, tmp_path, mutate) -> CampaignCache:
        store = CampaignCache(tmp_path)
        store.put(key_for(0), PAYLOAD)
        path = store.path_for(key_for(0))
        mutate(path)
        return store

    def assert_degrades_to_miss(self, store):
        path = store.path_for(key_for(0))
        with session() as t:
            assert store.get(key_for(0)) is None
        assert t.metrics.counters.get("cache.corrupt") == 1
        assert t.metrics.counters.get("cache.miss") == 1
        assert not path.exists()  # quarantined, not left to fail again

    def test_truncated_entry(self, tmp_path):
        store = self.corrupt(
            tmp_path, lambda p: p.write_text(p.read_text()[: len(p.read_text()) // 2])
        )
        self.assert_degrades_to_miss(store)

    def test_garbage_bytes(self, tmp_path):
        store = self.corrupt(tmp_path, lambda p: p.write_bytes(b"\x00\xff not json"))
        self.assert_degrades_to_miss(store)

    def test_checksum_mismatch(self, tmp_path):
        def tamper(p):
            entry = json.loads(p.read_text())
            entry["payload"]["trials"] = 999  # bit-rot in the payload
            p.write_text(json.dumps(entry))

        self.assert_degrades_to_miss(self.corrupt(tmp_path, tamper))

    def test_entry_filed_under_the_wrong_key(self, tmp_path):
        store = CampaignCache(tmp_path)
        store.put(key_for(0), PAYLOAD)
        wrong = store.path_for(key_for(1))
        wrong.parent.mkdir(parents=True, exist_ok=True)
        os.replace(store.path_for(key_for(0)), wrong)
        with session() as t:
            assert store.get(key_for(1)) is None
        assert t.metrics.counters.get("cache.corrupt") == 1

    def test_wrong_schema_version(self, tmp_path):
        def downgrade(p):
            entry = json.loads(p.read_text())
            entry["schema"] = 0
            p.write_text(json.dumps(entry))

        self.assert_degrades_to_miss(self.corrupt(tmp_path, downgrade))

    def test_recompute_after_corruption_can_refill(self, tmp_path):
        store = self.corrupt(tmp_path, lambda p: p.write_text("{"))
        assert store.get(key_for(0)) is None
        store.put(key_for(0), PAYLOAD)
        assert store.get(key_for(0)) == PAYLOAD


class TestEviction:
    def test_prune_drops_least_recently_used_first(self, tmp_path):
        store = CampaignCache(tmp_path, max_bytes=None)
        store.max_bytes = None  # fill without triggering eviction
        for i in range(4):
            store.put(key_for(i), PAYLOAD)
        # Pin deterministic LRU clocks: entry 2 most recent, entry 0 oldest.
        for age, i in enumerate([0, 3, 1, 2]):
            os.utime(store.path_for(key_for(i)), (1000.0 + age, 1000.0 + age))
        size = store.path_for(key_for(0)).stat().st_size
        with session() as t:
            removed = store.prune(max_bytes=2 * size)
        assert removed == 2
        assert t.metrics.counters.get("cache.evicted") == 2
        assert not store.path_for(key_for(0)).exists()
        assert not store.path_for(key_for(3)).exists()
        assert store.get(key_for(1)) == PAYLOAD
        assert store.get(key_for(2)) == PAYLOAD

    def test_hits_refresh_the_lru_clock(self, tmp_path):
        store = CampaignCache(tmp_path)
        store.put(key_for(0), PAYLOAD)
        os.utime(store.path_for(key_for(0)), (1000.0, 1000.0))
        store.get(key_for(0))
        assert store.path_for(key_for(0)).stat().st_mtime > 1000.0

    def test_writes_auto_prune_under_the_cap(self, tmp_path):
        store = CampaignCache(tmp_path, max_bytes=1)  # cap below any entry
        for i in range(40):  # crosses the amortized-prune stride
            store.put(key_for(i), PAYLOAD)
        # Amortized pruning bounds growth to one stride of stale entries...
        assert store.stats().entries < 40
        # ...and an explicit prune enforces the cap exactly.
        store.prune()
        assert store.stats().entries == 0

    def test_no_cap_means_no_eviction(self, tmp_path):
        store = CampaignCache(tmp_path, max_bytes=0)
        for i in range(3):
            store.put(key_for(i), PAYLOAD)
        assert store.prune() == 0
        assert store.stats().entries == 3


class TestMaintenance:
    def test_stats_counts_entries_and_bytes(self, tmp_path):
        store = CampaignCache(tmp_path)
        assert store.stats().entries == 0
        store.put(key_for(0), PAYLOAD)
        store.put(key_for(1), PAYLOAD)
        st = store.stats()
        assert st.entries == 2
        assert st.bytes > 0
        assert str(tmp_path) in st.render()

    def test_verify_finds_and_deletes_damaged_entries(self, tmp_path):
        store = CampaignCache(tmp_path)
        store.put(key_for(0), PAYLOAD)
        store.put(key_for(1), PAYLOAD)
        store.path_for(key_for(1)).write_text("not json")
        assert store.verify() == [store.path_for(key_for(1))]
        assert store.verify(delete=True) == [store.path_for(key_for(1))]
        assert store.verify() == []
        assert store.get(key_for(0)) == PAYLOAD

    def test_clear_empties_the_store(self, tmp_path):
        store = CampaignCache(tmp_path)
        for i in range(3):
            store.put(key_for(i), PAYLOAD)
        assert store.clear() == 3
        assert store.stats().entries == 0


class TestConcurrentWriters:
    def test_racing_processes_leave_one_valid_entry(self, tmp_path):
        root = str(tmp_path)
        with ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(fill_entry, [root] * 8, [0] * 8))
        store = CampaignCache(root)
        assert store.get(key_for(0)) == PAYLOAD
        assert store.verify() == []
        # No stray temp files left behind by the atomic-publish protocol.
        leftovers = [p for p in store.root.rglob("*.tmp")]
        assert leftovers == []

    def test_unwritable_store_degrades_silently(self, tmp_path, monkeypatch):
        # chmod tricks don't bind when the suite runs as root, so simulate
        # the full/read-only disk at the publish syscall instead.
        def refuse(*a, **kw):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.cache.store.os.replace", refuse)
        store = CampaignCache(tmp_path)
        with session() as t:
            store.put(key_for(0), PAYLOAD)  # must not raise
        assert t.metrics.counters.get("cache.write", 0) == 0
        assert store.get(key_for(0)) is None
