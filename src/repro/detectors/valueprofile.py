"""Golden-run value profiles: the raw material of invariant detectors.

One fault-free run of the program observes every injectable instruction's
produced values through the interpreter's ``sticky`` hook (zero interpreter
changes — the same vehicle the fleet simulator uses to model defective
hosts) and records, per iid: inclusive min/max, whether a NaN was seen,
whether every float value was integral, and the dynamic count. ITHICA-style
range/invariant detectors (:mod:`repro.detectors.zoo`) compile these bounds
into ``checkrange`` instructions that are *golden-safe by construction* —
the bounds were mined inclusively from the very run a campaign replays as
its golden reference.

Profiles are persisted in the campaign cache under
:func:`repro.cache.keys.value_profile_key`, so invariant detectors rebuild
warm without re-running golden executions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.keys import value_profile_key
from repro.obs.core import current as _obs_current
from repro.runconfig import resolve_field
from repro.vm.interpreter import INJECTABLE_OPCODES, Program

__all__ = ["ValueRecord", "ValueProfile", "mine_value_profile"]


@dataclass(frozen=True)
class ValueRecord:
    """Observed value envelope of one instruction over the golden run."""

    iid: int
    vmin: int | float
    vmax: int | float
    count: int
    nan_seen: bool = False
    all_integral: bool = True


class _Observer:
    """Sticky hook recording per-iid min/max/NaN/integrality envelopes."""

    def __init__(self, iids) -> None:
        self.iids = set(iids)
        self.stats: dict[int, list] = {}  # iid -> [min, max, count, nan, int]

    def visit(self, iid: int, val):
        if val != val:  # NaN never enters the min/max envelope
            s = self.stats.get(iid)
            if s is None:
                self.stats[iid] = [None, None, 1, True, True]
            else:
                s[2] += 1
                s[3] = True
            return val
        s = self.stats.get(iid)
        if s is None:
            self.stats[iid] = [val, val, 1, False, float(val).is_integer()]
        else:
            if s[0] is None or val < s[0]:
                s[0] = val
            if s[1] is None or val > s[1]:
                s[1] = val
            s[2] += 1
            if s[4] and not float(val).is_integer():
                s[4] = False
        return val


@dataclass(frozen=True)
class ValueProfile:
    """Per-iid value envelopes from one golden run of one input."""

    records: dict[int, ValueRecord]
    #: Dynamic instructions observed (sum of per-iid counts).
    observed: int

    def record(self, iid: int) -> ValueRecord | None:
        return self.records.get(iid)

    def to_payload(self) -> dict:
        """JSON-serializable form for the campaign cache."""
        return {
            "records": {
                str(i): [r.vmin, r.vmax, r.count, r.nan_seen, r.all_integral]
                for i, r in self.records.items()
            },
            "observed": self.observed,
        }

    @classmethod
    def from_payload(cls, payload) -> "ValueProfile | None":
        """The profile :meth:`to_payload` wrote, or ``None`` for a
        malformed payload, which a cache read takes as a miss."""
        if not isinstance(payload, dict):
            return None
        rows = payload.get("records", {})
        observed = payload.get("observed", 0)
        if not isinstance(rows, dict) or type(observed) is not int:
            return None
        records = {}
        try:
            for key, row in rows.items():
                vmin, vmax, count, nan_seen, all_integral = row
                if not {type(vmin), type(vmax)} <= {int, float}:
                    return None
                iid = int(key)
                records[iid] = ValueRecord(
                    iid=iid, vmin=vmin, vmax=vmax, count=int(count),
                    nan_seen=bool(nan_seen), all_integral=bool(all_integral),
                )
        except (TypeError, ValueError):
            return None
        return cls(records=records, observed=observed)


def mine_value_profile(
    program: Program,
    args=None,
    bindings=None,
    cache=None,
) -> ValueProfile:
    """Mine (or load from cache) the value profile of one golden run.

    ``cache`` overrides the ambient campaign cache; pass ``False`` to force
    a fresh mining run. A malformed cache entry reads as a miss, and the
    mined profile replaces it.
    """
    store = resolve_field("cache", cache)
    key = None
    t = _obs_current()
    if store is not None:
        key = value_profile_key(program.text, args, bindings)
        hit = ValueProfile.from_payload(store.get(key))
        if hit is not None:
            if t:
                t.count("detectors.value_profile.cache_hits")
            return hit

    iids = [
        i.iid
        for i in program.module.instructions()
        if i.opcode in INJECTABLE_OPCODES
    ]
    obs = _Observer(iids)
    program.run(args=args, bindings=bindings, sticky=obs)
    records = {}
    for iid, s in sorted(obs.stats.items()):
        vmin, vmax, count, nan_seen, all_integral = s
        if vmin is None:  # only NaNs ever observed: no usable envelope
            continue
        records[iid] = ValueRecord(
            iid=iid, vmin=vmin, vmax=vmax, count=count,
            nan_seen=nan_seen, all_integral=all_integral,
        )
    profile = ValueProfile(
        records=records, observed=sum(s[2] for s in obs.stats.values())
    )
    if t:
        t.count("detectors.value_profile.mined")
    if store is not None and key is not None:
        store.put(key, profile.to_payload())
    return profile
