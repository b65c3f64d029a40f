"""One run configuration for every FI campaign (DESIGN.md §7.12).

How a campaign executes — fan-out, trial engine, lockstep width,
checkpoints, transport, supervision, chaos, cache — never changes what it
computes, which is also why none of it enters a cache key. It is one
frozen :class:`RunConfig`; :data:`KNOBS` maps each field to its
environment variable and parser; :func:`run_scope` is the one ambient
scope stack (the CLI, ``repro serve`` and every ``ScaleConfig`` driver
install theirs, so nested campaigns need no forwarded knobs); and
:func:`resolve` applies explicit > innermost scope > environment >
default, written once. The outermost scope of a process also owns the
worker pool its pooled campaigns share (:class:`PoolSlot`).

``None`` means "not set" at every layer. The one exception: an explicit
``checkpoint_interval=None`` given to a campaign keeps meaning cold replay
(the keyword defaults to :data:`UNSET`); elsewhere cold is ``0``. Only the
standard library and :mod:`repro.cache.store` load with this module, so
the fabric stays lazily imported.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.cache.store import CampaignCache, store_for

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ENGINES",
    "KNOBS",
    "TRANSPORTS",
    "UNSET",
    "Knob",
    "PoolSlot",
    "RunConfig",
    "default_workers",
    "resolve",
    "resolve_field",
    "run_scope",
    "scope_pool",
]

#: Recognised campaign trial engines.
ENGINES = ("scalar", "batch")
#: Recognised dispatch transports. ``local`` means no fabric: the plain
#: supervised process pool (or serial execution).
TRANSPORTS = ("local", "inproc", "socketpair", "tcp")
#: Default rows per lockstep batch. Wide enough to amortize the golden
#: mirror replay (~one scalar run per batch) far below the per-trial scalar
#: cost, small enough that column working sets stay cache-resident.
DEFAULT_BATCH_SIZE = 1024


@dataclass(frozen=True)
class RunConfig:
    """How one campaign executes. No field changes its outcomes."""

    #: Process fan-out (0 = serial).
    workers: int = 0
    #: Trial executor: one interpreter per trial, or lockstep numpy rows.
    engine: str = "scalar"
    #: Rows per lockstep batch under the batch engine.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Golden snapshots to resume trials from: "auto" (about 16 per golden
    #: run), every N instructions, or 0 (cold replay).
    checkpoint_interval: int | str = "auto"
    #: Dispatch fabric for pooled chunks.
    transport: str = "local"
    #: TCP adapter endpoints; resolved only under the tcp transport.
    addrs: tuple[tuple[str, int], ...] | None = None
    #: Supervisor: re-submissions of a failed chunk before a HarnessError.
    max_retries: int = 2
    #: Supervisor: per-chunk deadline in seconds (None = no hang detection).
    task_timeout: float | None = None
    #: Supervisor: parsed harness-chaos faults shipped to workers.
    chaos: tuple = ()
    #: Campaign-result cache (None = caching off).
    cache: CampaignCache | None = None


class _Unset:
    def __repr__(self) -> str:
        return "UNSET"


#: Default of a campaign's ``checkpoint_interval`` keyword: "not set".
UNSET = _Unset()

_DEFAULTS = RunConfig()


def default_workers() -> int:
    """The ``auto`` worker count: leave two cores for the orchestrator."""
    return max(1, (os.cpu_count() or 2) - 2)


def _config_error(message: str) -> Exception:
    from repro.errors import ConfigError

    return ConfigError(message)


# -- parsers: a set value (or an environment string) -> the field's value.
# ValueError/TypeError mean "malformed"; what that costs depends on the
# knob (see Knob.strict).


def _workers(v) -> int:
    if isinstance(v, str) and v.strip().lower() == "auto":
        return default_workers()
    return max(0, int(v))


def _one_of(what: str, options: tuple) -> Callable:
    def parse(v):
        if v not in options:
            raise _config_error(
                f"unknown {what} {v!r}; expected one of {', '.join(options)}"
            )
        return v

    return parse


def _batch_size(v) -> int:
    n = int(v)
    if n < 1:
        raise _config_error(f"batch size must be >= 1, got {n}")
    return n


def _interval(v) -> int | str:
    if v == "auto":
        return v
    n = int(v)
    if n < 0:
        raise ValueError(n)
    return n


def _addrs(v) -> tuple[tuple[str, int], ...]:
    from repro.fabric.transport import parse_addr

    if isinstance(v, str):
        v = [a for a in v.split(",") if a.strip()]
    out = []
    for a in v:
        if isinstance(a, str):
            try:
                out.append(parse_addr(a))
            except ValueError as e:
                raise _config_error(str(e)) from None
        else:
            host, port = a
            out.append((host, int(port)))
    if not out:
        raise _config_error("empty fabric endpoint list")
    return tuple(out)


def _chaos(v) -> tuple:
    if isinstance(v, str):
        from repro.util.supervisor import parse_chaos

        return parse_chaos(v)
    return tuple(v)


def _cache(v) -> CampaignCache | None:
    if v is False:
        return None
    if isinstance(v, CampaignCache):
        return v
    if isinstance(v, (str, os.PathLike)):
        return store_for(v)
    raise TypeError(v)


class Knob(NamedTuple):
    """One :class:`RunConfig` field's outside-world surface."""

    #: Environment variable consulted below the scopes (None: none).
    env: str | None
    #: Validates and normalizes a set value; environment values arrive as
    #: stripped, non-empty strings.
    parse: Callable
    #: What a well-formed value looks like (error messages, docs).
    expects: str
    #: The default, as the docs and warnings spell it.
    default: str
    #: A malformed environment value raises ConfigError (True) or is
    #: ignored with a logged warning, leaving the default (False).
    strict: bool = True


#: The one table of run knobs, in RunConfig field order.
KNOBS: dict[str, Knob] = {
    "workers": Knob("REPRO_WORKERS", _workers,
                    "an integer, or auto (cores - 2)", "serial", False),
    "engine": Knob("REPRO_ENGINE", _one_of("engine", ENGINES),
                   f"one of {', '.join(ENGINES)}", "scalar"),
    "batch_size": Knob("REPRO_BATCH_SIZE", _batch_size, "an integer >= 1",
                       str(DEFAULT_BATCH_SIZE)),
    "checkpoint_interval": Knob(None, _interval,
                                "'auto' or a step count (0 = cold)", "auto"),
    "transport": Knob("REPRO_FABRIC_TRANSPORT",
                      _one_of("fabric transport", TRANSPORTS),
                      f"one of {', '.join(TRANSPORTS)}", "local"),
    "addrs": Knob("REPRO_FABRIC_ADDR", _addrs,
                  "a comma-separated HOST:PORT list", "none"),
    "max_retries": Knob("REPRO_MAX_RETRIES", lambda v: max(0, int(v)),
                        "an integer", "2", False),
    "task_timeout": Knob("REPRO_TASK_TIMEOUT",
                         lambda v: float(v) if float(v) > 0 else None,
                         "a number of seconds", "off", False),
    "chaos": Knob("REPRO_CHAOS", _chaos,
                  "kind@chunk[#attempt|#*][@target],...", "none"),
    "cache": Knob("REPRO_CACHE_DIR", _cache, "a directory", "off"),
}

#: Ambient settings, innermost last; each frame maps a field to its
#: parsed value and holds only the fields its scope set.
_STACK: list[dict] = []


def _parse(name: str, value):
    knob = KNOBS[name]
    try:
        return knob.parse(value)
    except (ValueError, TypeError):
        raise _config_error(
            f"{name} must be {knob.expects}, got {value!r}"
        ) from None


def _from_env(knob: Knob):
    """The knob's environment value, or ``None`` when it sets nothing."""
    raw = os.environ.get(knob.env, "").strip()
    if not raw:
        return None
    try:
        return knob.parse(raw)
    except (ValueError, TypeError):
        if knob.strict:
            raise _config_error(
                f"{knob.env} must be {knob.expects}, got {raw!r}"
            ) from None
    from repro.obs.log import get_logger

    get_logger("runconfig").warning(
        "unparsable %s=%r: expected %s; using the default (%s)",
        knob.env, raw, knob.expects, knob.default,
    )
    return None


def resolve_field(name: str, value=None):
    """One field: explicit ``value`` > innermost scope > environment > default."""
    if value is not None:
        return _parse(name, value)
    for frame in reversed(_STACK):
        if name in frame:
            return frame[name]
    knob = KNOBS[name]
    if knob.env is not None:
        found = _from_env(knob)
        if found is not None:
            return found
    return getattr(_DEFAULTS, name)


def _known(fields: dict) -> None:
    unknown = fields.keys() - KNOBS.keys()
    if unknown:
        raise TypeError(f"unknown run fields: {', '.join(sorted(unknown))}")


def resolve(**explicit) -> RunConfig:
    """The run configuration for one campaign; keywords are the explicit layer.

    Endpoints are resolved only under the tcp transport, where they are
    required.
    """
    _known(explicit)
    fields = {
        name: resolve_field(name, explicit.get(name))
        for name in KNOBS if name != "addrs"
    }
    if fields["transport"] == "tcp":
        fields["addrs"] = resolve_field("addrs", explicit.get("addrs"))
        if fields["addrs"] is None:
            raise _config_error(
                "the tcp fabric transport needs adapter endpoints: pass "
                f"--adapters/addrs or set {KNOBS['addrs'].env} to a "
                "comma-separated HOST:PORT list"
            )
    return RunConfig(**fields)


class PoolSlot:
    """The worker pool the outermost run scope of a process owns.

    Empty when the scope opens. The supervisor
    (:mod:`repro.util.supervisor`) fills it on the scope's first pooled
    map, reuses the pool for every later map with the same ``key``
    (worker count and transport), and empties it when it kills the pool.
    The scope's exit shuts the pool down with its workers joined. The
    owning pid guards it: a forked child inherits the slot but never
    sees it (:func:`scope_pool`).
    """

    __slots__ = ("pid", "key", "pool")

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.key = None
        self.pool = None

    def get(self, key, make: Callable):
        """The slot's pool for ``key``; a pool of another key is shut
        down first and replaced by ``make()``."""
        if self.pool is None or self.key != key:
            self.close()
            self.pool, self.key = make(), key
        return self.pool

    def drop(self, pool) -> None:
        """Forget ``pool`` (its killer tears it down), if the slot holds it."""
        if self.pool is pool:
            self.pool = self.key = None

    def close(self) -> None:
        """Shut the pool down and wait for its workers to exit."""
        pool, self.pool, self.key = self.pool, None, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


#: The outermost scope's slot (pid-guarded; see :func:`scope_pool`).
_SLOT: PoolSlot | None = None


def scope_pool() -> PoolSlot | None:
    """This process's pool slot, or ``None`` outside every run scope."""
    slot = _SLOT
    if slot is None or slot.pid != os.getpid():
        return None
    return slot


@contextmanager
def run_scope(**fields):
    """Install run settings for a block; a ``None`` field stays unset here.

    Values are validated on entry, so an unknown engine or a batch size
    below 1 raises :class:`~repro.errors.ConfigError` before the block
    runs. Scopes nest: the innermost scope that sets a field wins, and
    leaving a scope restores what was ambient before it. The outermost
    scope of a process owns a :class:`PoolSlot`: its pooled maps share
    one worker pool, shut down and joined when the scope exits, however
    it exits.
    """
    global _SLOT
    _known(fields)
    frame = {
        name: _parse(name, value)
        for name, value in fields.items() if value is not None
    }
    outer = _SLOT
    owner = scope_pool() is None
    if owner:
        _SLOT = PoolSlot()
    _STACK.append(frame)
    try:
        yield
    finally:
        _STACK.pop()
        if owner:
            slot, _SLOT = _SLOT, outer
            slot.close()
