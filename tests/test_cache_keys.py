"""Cache-key correctness: canonical hashing and key sensitivity.

The cache is only safe if the key changes whenever anything the outcome
depends on changes — program text, input payload, fault-model tolerances,
trial plan, seeds — and *only* then (dict order, list-vs-tuple spelling,
worker counts, and checkpoint schedules must not perturb it).
"""

from __future__ import annotations

import enum
import struct

import pytest

from repro.cache.keys import (
    golden_profile_key,
    per_instruction_key,
    value_profile_key,
    whole_program_key,
)
from repro.ir.printer import print_module
from repro.util.digest import canonical_bytes, stable_digest

from tests.conftest import build_branchy_module, build_sum_squares_module


class TestCanonicalBytes:
    def test_dict_order_is_canonicalized(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_list_and_tuple_encode_identically(self):
        assert canonical_bytes([1, 2.5, "x"]) == canonical_bytes((1, 2.5, "x"))

    def test_type_tags_prevent_cross_type_collisions(self):
        digests = {stable_digest(v) for v in (1, 1.0, True, "1", [1], None)}
        assert len(digests) == 6

    def test_floats_hash_bit_exactly(self):
        assert stable_digest(0.0) != stable_digest(-0.0)
        assert stable_digest(float("nan")) == stable_digest(float("nan"))
        assert stable_digest(float("inf")) != stable_digest(float("-inf"))

    def test_nested_payloads_and_bool_int_split(self):
        a = {"args": [1, 2.0], "bindings": {"g": [0.5, True]}}
        b = {"bindings": {"g": [0.5, True]}, "args": [1, 2.0]}
        assert stable_digest(a) == stable_digest(b)
        assert stable_digest({"g": [0.5, True]}) != stable_digest({"g": [0.5, 1]})

    def test_unsupported_types_raise(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_encoding_is_stable_across_calls(self):
        payload = {"module": "text", "seed": 7, "tol": [0.0, 1e-9]}
        assert canonical_bytes(payload) == canonical_bytes(payload)


def _per_element(value, out: bytearray) -> None:
    """The encoder as it was before lists of exact floats or ints were
    encoded in one pass: a frozen copy, one element at a time."""
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, enum.Enum):
        out += b"E"
        _per_element(type(value).__name__, out)
        _per_element(value.value, out)
    elif isinstance(value, int):
        raw = str(value).encode("ascii")
        out += b"i" + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, float):
        out += b"f" + struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s" + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, (bytes, bytearray)):
        out += b"b" + struct.pack(">I", len(value)) + bytes(value)
    elif isinstance(value, (list, tuple)):
        out += b"l" + struct.pack(">I", len(value))
        for item in value:
            _per_element(item, out)
    elif isinstance(value, dict):
        items = []
        for k, v in value.items():
            kb = bytearray()
            _per_element(k, kb)
            items.append((bytes(kb), v))
        items.sort(key=lambda kv: kv[0])
        out += b"d" + struct.pack(">I", len(items))
        for kb, v in items:
            out += kb
            _per_element(v, out)
    else:
        raise TypeError(type(value).__name__)


def _from_bits(pattern: int) -> float:
    return struct.unpack(">d", pattern.to_bytes(8, "big"))[0]


class _Level(enum.IntEnum):
    LOW = 1


class _Ratio(float):
    pass


#: Lists every fast path sees, and the ones it must leave to the
#: per-element rule.
CORPUS = {
    "empty": [],
    "empty-tuple": (),
    "bools": [True, False, True],
    "bools-and-ints": [1, True, 0, False],
    "ints": [0, 1, -1, 2**80, -(2**80), 10**255 - 1],
    "long-int": [1, 10**300, -(10**256)],
    "floats": [0.0, -0.0, 1.5, -2.25, 1e308, 5e-324],
    "infinities": [float("inf"), float("-inf")],
    "nan-payloads": [
        _from_bits(0x7FF8_0000_0000_0001),
        _from_bits(0xFFF0_0000_0000_0ABC),
        float("nan"),
    ],
    "int-and-equal-float": [1, 1.0, 0, 0.0],
    "mixed": [1, 2.5, "x", None, b"y", True],
    "int-enum": [_Level.LOW, 1],
    "float-subclass": [_Ratio(0.5), 0.5],
    "nested": [[1.0, 2.0], [3, 4], [], [[-0.0]], ([5], (6.5,))],
    "tuple": (1, 2, 3),
    "dict-of-lists": {"a": [1.0, -0.0], "b": [1, 2], "c": [], "d": [1, 1.0]},
    "iid-set": list(range(0, 3000, 7)),
}


class TestListRuns:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_runs_encode_as_the_per_element_rule(self, name):
        value = CORPUS[name]
        frozen = bytearray()
        _per_element(value, frozen)
        assert canonical_bytes(value) == bytes(frozen)

    def test_campaign_key_bytes_are_pinned(self):
        """Existing cache entries stay readable: any byte change to the
        key encoding changes these digests."""
        text = print_module(build_sum_squares_module())
        bindings = {"data": [float(i) for i in range(32)]}
        assert per_instruction_key(
            text, [8], bindings, 0.0, 0.0, 4, 7, (3, 5)
        ) == "2de6c5a86ce1785e94eb2eeae87f657a51588b3a429f5fd37bf8176d7a08665a"
        assert value_profile_key(text, [8], bindings) == (
            "359db53911f1ef4c4f13ec951af765b0149aeb9851d89f52396b7798f7e07f82"
        )


BASE = dict(
    args=[8], bindings={"data": [float(i) for i in range(32)]},
    rel_tol=0.0, abs_tol=0.0,
)


class TestWholeProgramKey:
    def setup_method(self):
        self.text = print_module(build_sum_squares_module())

    def key(self, text=None, n_faults=40, seed=7, **overrides):
        params = {**BASE, **overrides}
        return whole_program_key(
            text if text is not None else self.text,
            params["args"], params["bindings"],
            params["rel_tol"], params["abs_tol"], n_faults, seed,
        )

    def test_identical_inputs_produce_identical_keys(self):
        assert self.key() == self.key()

    def test_one_changed_instruction_changes_the_key(self):
        # A structurally different kernel: same inputs, different IR text.
        other = print_module(build_branchy_module())
        assert other != self.text
        assert self.key() != self.key(text=other)

    def test_each_fault_model_field_changes_the_key(self):
        base = self.key()
        assert base != self.key(rel_tol=1e-9)
        assert base != self.key(abs_tol=1e-12)

    def test_trial_plan_changes_the_key(self):
        base = self.key()
        assert base != self.key(n_faults=41)
        assert base != self.key(seed=8)

    def test_input_payload_changes_the_key(self):
        base = self.key()
        assert base != self.key(args=[9])
        bindings = {"data": [float(i) for i in range(32)]}
        bindings["data"][0] = -0.0  # bit-level input change
        assert base != self.key(bindings=bindings)

    def test_args_spelling_does_not_change_the_key(self):
        assert self.key(args=[8]) == self.key(args=(8,))


class TestPerInstructionKey:
    def setup_method(self):
        self.text = print_module(build_sum_squares_module())

    def key(self, trials=4, seed=7, targets=(3, 5), **overrides):
        params = {**BASE, **overrides}
        return per_instruction_key(
            self.text, params["args"], params["bindings"],
            params["rel_tol"], params["abs_tol"], trials, seed, targets,
        )

    def test_trials_seed_and_targets_are_in_the_key(self):
        base = self.key()
        assert base != self.key(trials=5)
        assert base != self.key(seed=8)
        assert base != self.key(targets=(3,))

    def test_target_order_is_canonicalized(self):
        # Each iid samples from its own seeded child stream, so sweep order
        # cannot affect outcomes — reordered targets must share a key.
        assert self.key(targets=(5, 3)) == self.key(targets=(3, 5))

    def test_per_instruction_never_collides_with_whole_program(self):
        wp = whole_program_key(
            self.text, BASE["args"], BASE["bindings"], 0.0, 0.0, 4, 7
        )
        assert wp != self.key(trials=4, seed=7)


class TestGoldenProfileKey:
    def setup_method(self):
        self.text = print_module(build_sum_squares_module())

    def test_input_and_program_are_in_the_key(self):
        base = golden_profile_key(self.text, [8], BASE["bindings"])
        assert base == golden_profile_key(self.text, (8,), BASE["bindings"])
        assert base != golden_profile_key(self.text, [8.0], BASE["bindings"])
        assert base != golden_profile_key(
            print_module(build_branchy_module()), [8], BASE["bindings"]
        )

    def test_never_collides_with_a_value_profile(self):
        assert golden_profile_key(self.text, [8], None) != value_profile_key(
            self.text, [8], None
        )
