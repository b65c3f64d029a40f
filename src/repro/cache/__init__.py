"""Content-addressed caching of fault-injection campaign results.

A campaign's outcome is a pure function of (program text, input payload,
fault-model config, trial plan, code version) — see FastFlip's incremental
SDC analysis for the same observation. This package persists campaign
results on disk under a stable digest of exactly those ingredients, so
regenerating an unchanged figure dispatches zero campaigns and a GA input
search that revisits an input never re-pays for it.

Pieces:

* :mod:`repro.cache.keys` — what goes into a key (and what deliberately
  does not: worker counts and checkpoint schedules, which are guaranteed
  not to change outcomes);
* :mod:`repro.cache.store` — the sharded JSON store: atomic writes,
  checksum-verified corruption-tolerant reads, LRU eviction under a size
  cap;
* :func:`repro.runconfig.run_scope` installs the cache campaigns consult
  (CLI ``--cache-dir``, ``ScaleConfig.cache_dir``, or ``REPRO_CACHE_DIR``);
  it is the ``cache`` field of the run configuration.

Cached and fresh results are bit-identical; tracing counters
(``cache.hit/miss/write/corrupt/evicted``) surface in ``repro obs report``.
"""

from repro.cache.keys import CODE_SALT, per_instruction_key, whole_program_key
from repro.cache.store import CacheStats, CampaignCache, ENTRY_SCHEMA, store_for

__all__ = [
    "CODE_SALT",
    "ENTRY_SCHEMA",
    "CacheStats",
    "CampaignCache",
    "per_instruction_key",
    "store_for",
    "whole_program_key",
]
