"""The on-disk, content-addressed campaign store.

Layout: ``<root>/<key[:2]>/<key>.json`` — one JSON file per entry, sharded
by key prefix so directories stay small. Every entry wraps its payload with
a schema version, its own key, and a checksum of the canonical payload
encoding, so a reader can always tell a good entry from a damaged one.

Robustness contract (the cache must never change results or crash a run):

* **Corruption-tolerant reads.** A truncated, garbled, mis-keyed, or
  wrong-schema entry is treated as a *miss*: the campaign recomputes, the
  bad file is quarantined (unlinked, best effort), and the incident is
  counted (``cache.corrupt``) — never an exception.
* **Concurrent writers.** Entries are written to a unique temp file in the
  same directory and published with :func:`os.replace`, which is atomic on
  POSIX and Windows. Two processes filling the same key race benignly: both
  payloads are identical by construction (results are pure functions of the
  key), and a reader sees either a complete old file or a complete new one.
* **Eviction.** A byte-size cap with least-recently-used replacement: hits
  refresh the entry's mtime, and :meth:`CampaignCache.prune` drops the
  stalest entries until the store fits. Eviction is a performance event,
  not a correctness one — an evicted entry simply recomputes next time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.obs.core import current as _obs_current

__all__ = ["CampaignCache", "CacheStats", "ENTRY_SCHEMA", "store_for"]

#: Entry-envelope version: bump when the on-disk wrapper format changes.
ENTRY_SCHEMA = 1

#: Default size cap (bytes); override per store or via REPRO_CACHE_MAX_BYTES.
DEFAULT_MAX_BYTES = 2 * 1024**3

#: Environment override for the store-wide size cap.
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Prune on the first write and then every this-many writes per store
#: instance, so long campaigns amortize the directory walk.
_PRUNE_EVERY = 32


def _canonical(payload: dict) -> str:
    """The canonical JSON encoding of a payload, which its checksum covers."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(raw: str) -> str:
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def _payload_checksum(payload: dict) -> str:
    """Checksum of the canonical JSON encoding of a payload."""
    return _checksum(_canonical(payload))


def _count(name: str, n: int = 1) -> None:
    t = _obs_current()
    if t is not None:
        t.count(name, n)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time store statistics (the ``repro cache stats`` output)."""

    root: str
    entries: int
    bytes: int
    max_bytes: int | None

    def render(self) -> str:
        cap = f"{self.max_bytes}" if self.max_bytes else "unlimited"
        return (
            f"cache {self.root}: {self.entries} entries, "
            f"{self.bytes} bytes (cap {cap})"
        )


class CampaignCache:
    """Content-addressed result store keyed by campaign digests."""

    def __init__(
        self, root: str | Path, max_bytes: int | None = None
    ) -> None:
        self.root = Path(root)
        if max_bytes is None:
            raw = os.environ.get(MAX_BYTES_ENV, "").strip()
            try:
                max_bytes = int(raw) if raw else DEFAULT_MAX_BYTES
            except ValueError:
                max_bytes = DEFAULT_MAX_BYTES
        #: Size cap in bytes; ``None``/``0`` disables eviction.
        self.max_bytes = max_bytes or None
        self._writes = 0
        # Shard directories this object has created (or found) already.
        self._shards: set[Path] = set()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """On-disk location of one entry."""
        return self.root / key[:2] / f"{key}.json"

    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return [
            p
            for shard in sorted(self.root.iterdir())
            if shard.is_dir()
            for p in sorted(shard.glob("*.json"))
        ]

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def _read(self, path: Path, key: str | None) -> dict | None:
        """Decode + integrity-check one entry file; ``None`` if damaged."""
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != ENTRY_SCHEMA:
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return None
        if key is not None and entry.get("key") != key:
            return None
        if entry.get("sha") != _payload_checksum(payload):
            return None
        return payload

    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or ``None`` (a miss).

        Damaged entries are quarantined and read as misses; hits refresh
        the entry's LRU clock.
        """
        path = self.path_for(key)
        if not path.exists():
            _count("cache.miss")
            return None
        payload = self._read(path, key)
        if payload is None:
            _count("cache.corrupt")
            _count("cache.miss")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        _count("cache.hit")
        return payload

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def put(self, key: str, payload: dict) -> None:
        """Publish ``payload`` under ``key`` (atomic, last-writer-wins).

        The payload is encoded once, canonically: the checksum covers those
        bytes and the entry is built around them. Each shard directory is
        created once per store object.
        """
        path = self.path_for(key)
        raw = _canonical(payload)
        head = json.dumps(
            {"schema": ENTRY_SCHEMA, "key": key, "sha": _checksum(raw)},
            separators=(",", ":"),
        )
        shard = path.parent
        try:
            if shard not in self._shards:
                shard.mkdir(parents=True, exist_ok=True)
                self._shards.add(shard)
            tmp = shard / f".{key}.{os.getpid()}.tmp"
            tmp.write_text(f'{head[:-1]},"payload":{raw}}}')
            os.replace(tmp, path)
        except OSError:
            # A full/read-only disk degrades to "no cache", not a crash; a
            # shard removed behind this object's back is made again.
            self._shards.discard(shard)
            return
        _count("cache.write")
        if self._writes % _PRUNE_EVERY == 0:
            self.prune()
        self._writes += 1

    def prune(self, max_bytes: int | None = None) -> int:
        """Evict least-recently-used entries until the store fits the cap.

        Returns the number of entries removed. No-op when no cap is set.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if not cap:
            return 0
        aged = []
        total = 0
        for p in self._entries():
            try:
                st = p.stat()
            except OSError:
                continue
            aged.append((st.st_mtime, st.st_size, p))
            total += st.st_size
        aged.sort()
        removed = 0
        for _, size, p in aged:
            if total <= cap:
                break
            try:
                p.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        if removed:
            _count("cache.evicted", removed)
        return removed

    # ------------------------------------------------------------------
    # Maintenance (the ``repro cache`` subcommand)
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Entry count and byte footprint of the store."""
        entries = self._entries()
        total = 0
        for p in entries:
            try:
                total += p.stat().st_size
            except OSError:
                pass
        return CacheStats(
            root=str(self.root),
            entries=len(entries),
            bytes=total,
            max_bytes=self.max_bytes,
        )

    def verify(self, delete: bool = False) -> list[Path]:
        """Integrity-check every entry; return (and optionally delete) the
        damaged ones."""
        bad = []
        for p in self._entries():
            if self._read(p, p.stem) is None:
                bad.append(p)
                if delete:
                    try:
                        p.unlink()
                    except OSError:
                        pass
        return bad

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for p in self._entries():
            try:
                p.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CampaignCache(root={str(self.root)!r})"


#: One store object per resolved directory, so repeated scopes (one per
#: figure driver, say) share prune bookkeeping instead of re-walking.
_stores: dict[str, CampaignCache] = {}


def store_for(root: str | Path, max_bytes: int | None = None) -> CampaignCache:
    """The memoized :class:`CampaignCache` for a directory."""
    resolved = str(Path(root).expanduser().resolve())
    store = _stores.get(resolved)
    if store is None:
        store = CampaignCache(resolved, max_bytes=max_bytes)
        _stores[resolved] = store
    return store
