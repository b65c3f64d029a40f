"""The run configuration: one knob table, one scope stack, one resolver.

Every field resolves explicit > innermost scope > environment > default,
``None`` never shadows an outer value, nested scopes restore on exit, and
each knob answers a malformed environment value the way it always has:
a ``ConfigError`` or a logged warning and the default.
"""

from __future__ import annotations

import logging

import pytest

from repro.cache.store import store_for
from repro.errors import ConfigError
from repro.runconfig import KNOBS, RunConfig, resolve, resolve_field, run_scope
from repro.util.supervisor import parse_chaos

#: Knobs whose malformed environment value is ignored with a warning.
LENIENT = {"workers", "max_retries", "task_timeout"}


def _cases(tmp_path) -> dict:
    """Per field: (env text, its value), (scope value, resolved),
    (inner scope value, resolved), (explicit value, resolved), and a
    malformed environment text (None: every non-empty text is valid)."""
    d = {k: tmp_path / k for k in ("env", "scope", "inner")}
    return {
        "workers": (("3", 3), (5, 5), (6, 6), (-1, 0), "lots"),
        "engine": (("batch", "batch"), ("scalar", "scalar"),
                   ("batch", "batch"), ("scalar", "scalar"), "vector"),
        "batch_size": (("64", 64), (16, 16), (8, 8), (4, 4), "lots"),
        "checkpoint_interval": (None, (512, 512), (0, 0),
                                ("auto", "auto"), None),
        "transport": (("socketpair", "socketpair"), ("inproc", "inproc"),
                      ("tcp", "tcp"), ("local", "local"), "pigeon"),
        "addrs": (("127.0.0.1:9001", (("127.0.0.1", 9001),)),
                  ("h:1,h:2", (("h", 1), ("h", 2))),
                  ([("i", 3)], (("i", 3),)),
                  ("x:9", (("x", 9),)), "nonsense"),
        "max_retries": (("5", 5), (1, 1), (0, 0), (-2, 0), "many"),
        "task_timeout": (("1.5", 1.5), (9.0, 9.0), (2, 2.0), (0, None),
                         "soon"),
        "chaos": (("exc@2", parse_chaos("exc@2")),
                  ("crash@1", parse_chaos("crash@1")),
                  ("hang@3#*", parse_chaos("hang@3#*")),
                  ((), ()), "boom@x"),
        "cache": ((str(d["env"]), store_for(d["env"])),
                  (d["scope"], store_for(d["scope"])),
                  (str(d["inner"]), store_for(d["inner"])),
                  (False, None), None),
    }


@pytest.fixture
def clean_env(monkeypatch):
    for knob in KNOBS.values():
        if knob.env:
            monkeypatch.delenv(knob.env, raising=False)
    return monkeypatch


def test_table_covers_every_field():
    assert list(KNOBS) == list(RunConfig.__dataclass_fields__)
    assert KNOBS["checkpoint_interval"].env is None  # keyword and scope only


@pytest.mark.parametrize("name", list(KNOBS))
def test_precedence(name, clean_env, tmp_path):
    env, (scope, scoped), (inner, inner_v), (explicit, explicit_v), _ = (
        _cases(tmp_path)[name]
    )
    default = getattr(RunConfig(), name)
    assert resolve_field(name) == default
    below = default
    if env is not None:
        clean_env.setenv(KNOBS[name].env, env[0])
        below = env[1]
        assert resolve_field(name) == below  # env beats default
    with run_scope(**{name: scope}):
        assert resolve_field(name) == scoped  # scope beats env
        with run_scope(**{name: None}):  # None does not shadow
            assert resolve_field(name) == scoped
        with run_scope(**{name: inner}):  # the innermost scope wins
            assert resolve_field(name) == inner_v
        assert resolve_field(name) == scoped  # the inner one restored
        assert resolve_field(name, explicit) == explicit_v  # explicit wins
        assert resolve_field(name, None) == scoped  # None is "not set"
    assert resolve_field(name) == below


@pytest.mark.parametrize(
    "name", [n for n in KNOBS if KNOBS[n].env and n != "cache"]
)
def test_malformed_env_value(name, clean_env, tmp_path, caplog):
    knob = KNOBS[name]
    clean_env.setenv(knob.env, _cases(tmp_path)[name][4])
    if name in LENIENT:
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert resolve_field(name) == getattr(RunConfig(), name)
        assert knob.env in caplog.text and knob.default in caplog.text
    else:
        with pytest.raises(ConfigError):
            resolve_field(name)


def test_scope_rejects_bad_values_on_entry():
    for fields in ({"engine": "simd"}, {"batch_size": 0},
                   {"transport": "carrier-pigeon"},
                   {"checkpoint_interval": -5}, {"chaos": "boom"}):
        with pytest.raises(ConfigError):
            with run_scope(**fields):
                pytest.fail(f"entered a scope with {fields}")
    with pytest.raises(TypeError):
        with run_scope(engines="batch"):
            pass


def test_endpoints_resolve_only_under_tcp(clean_env):
    clean_env.setenv(KNOBS["addrs"].env, "not an endpoint")
    assert resolve().addrs is None  # parsed only under tcp
    with pytest.raises(ConfigError):
        resolve(transport="tcp")
    clean_env.delenv(KNOBS["addrs"].env)
    with pytest.raises(ConfigError, match="endpoint"):
        resolve(transport="tcp")
    assert resolve(transport="tcp", addrs="h:1").addrs == (("h", 1),)


def test_resolve_is_every_field(clean_env):
    assert resolve() == RunConfig()
    with run_scope(workers=2, engine="batch"):
        run = resolve(batch_size=8)
    assert (run.workers, run.engine, run.batch_size) == (2, "batch", 8)
    with pytest.raises(TypeError):
        resolve(worker=2)
