"""Identifiers, membership math, and ordering-tuple primitives."""

import json
from dataclasses import dataclass
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezbft_lab.core import (
    Command,
    Config,
    InstanceId,
    OrderingTuple,
    canonical_json,
    digest,
    interferes,
    json_fields,
    json_object,
    json_value,
    tuple_sort_key,
    tuples_equal,
)


def test_instance_id_string_round_trip():
    inst = InstanceId("R", 3)
    assert str(inst) == "R.3"
    assert InstanceId.parse("R.3") == inst


def test_instance_id_sorts_by_owner_then_numeric_slot():
    ids = [InstanceId("T", 0), InstanceId("R", 10), InstanceId("R", 2)]
    assert sorted(ids) == [InstanceId("R", 2), InstanceId("R", 10), InstanceId("T", 0)]


def test_instance_id_is_a_named_tuple_hashed_as_its_fields(cmd_a):
    """State and memo keys hash instance ids; the named tuple's hash is
    the one the frozen dataclass had, so every key stays bit-identical."""
    inst = InstanceId("R", 3)
    assert isinstance(inst, tuple) and InstanceId._fields == ("owner", "slot")
    assert hash(inst) == hash(("R", 3))
    assert repr(inst) == "InstanceId(owner='R', slot=3)"
    # json_value tests instance ids before the generic tuple branch, and
    # writes dep sets as sorted lists of their text.
    assert json_value(inst) == "R.3"
    assert json_value((inst, [InstanceId("L", 0)])) == ["R.3", ["L.0"]]
    deps = frozenset({InstanceId("R", 10), InstanceId("L", 4), InstanceId("R", 2)})
    assert json_value(deps) == ["L.4", "R.2", "R.10"]
    assert OrderingTuple(cmd_a, deps, 2).to_json()["deps"] == ["L.4", "R.2", "R.10"]


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("R", ValueError, "malformed instance id: 'R'"),
        (".3", ValueError, "malformed instance id: '.3'"),
        ("R.x", ValueError, "invalid literal"),
        (3, TypeError, "an instance id must be str, got int"),
    ],
)
def test_instance_id_parse_refuses_malformed_text(text, error, message):
    with pytest.raises(error, match=message):
        InstanceId.parse(text)


def test_command_json_round_trip(cmd_a):
    assert Command.from_json(cmd_a.to_json()) == cmd_a


def test_ordering_tuple_json_round_trip(ext):
    back = OrderingTuple.from_json(ext.to_json())
    assert tuples_equal(back, ext)


@dataclass(frozen=True)
class _Tagged:
    kind = "tagged"
    ids: frozenset
    at: InstanceId | None
    parts: tuple

    to_json = json_fields


class _Pair(NamedTuple):
    left: _Tagged
    right: bool


def test_json_fields_writes_kind_first_then_each_field_in_order(cmd_a):
    tagged = _Tagged(
        frozenset({InstanceId("R", 10), InstanceId("R", 2)}), None, (cmd_a, InstanceId("T", 0))
    )
    data = json_fields(_Pair(tagged, True))
    assert data == {
        "left": {
            "kind": "tagged",
            "ids": ["R.2", "R.10"],
            "at": None,
            "parts": [cmd_a.to_json(), "T.0"],
        },
        "right": True,
    }
    assert list(data["left"]) == ["kind", "ids", "at", "parts"]
    with pytest.raises(TypeError, match="no JSON form for float"):
        json_fields(_Pair(tagged, 0.5))


def test_config_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Config(4, 2, ("R", "L", "Q", "T"))  # n != 3f+1
    with pytest.raises(ValueError):
        Config(4, 1, ("R", "R", "Q", "T"))  # duplicate ids
    with pytest.raises(ValueError):
        Config(4, 1, ("R", "L", "Q", "T"), byzantine_ids=frozenset({"X"}))
    with pytest.raises(ValueError):
        Config(4, 1, ("R", "L", "Q", "T"), byzantine_ids=frozenset({"R", "L"}))
    with pytest.raises(ValueError):
        Config(4, 1, ("R.x", "L", "Q", "T"))  # reserved separator in id


def test_config_quorums(cfg):
    assert cfg.quorum_slow == 3
    assert cfg.quorum_owner_change == 3


def test_leader_rotation_wraps(cfg):
    assert [cfg.leader_at(k) for k in range(6)] == ["R", "L", "Q", "T", "R", "L"]


def test_default_owner_number_is_owner_position(cfg):
    assert cfg.default_owner_number(InstanceId("R", 0)) == 0
    assert cfg.default_owner_number(InstanceId("L", 7)) == 1
    assert cfg.default_owner_number(InstanceId("Q", 2)) == 2
    assert cfg.default_owner_number(InstanceId("T", 0)) == 3


def test_correct_replicas_excludes_byzantine(byz_cfg):
    assert byz_cfg.correct_replicas() == ("R", "L", "Q")


def test_config_lookups_are_built_once_and_are_not_fields(byz_cfg):
    assert byz_cfg.correct_replicas() is byz_cfg.correct_replicas()
    assert [byz_cfg.position(r) for r in byz_cfg.replica_ids] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        byz_cfg.position("X")
    copy = Config.from_json(byz_cfg.to_json())
    assert copy == byz_cfg and hash(copy) == hash(byz_cfg) and repr(copy) == repr(byz_cfg)
    assert list(byz_cfg.to_json()) == ["n", "f", "replica_ids", "byzantine_ids", "faulty_client_ids"]


def test_interferes_same_key_different_command(cmd_a, cmd_b):
    assert interferes(cmd_a, cmd_b)
    assert interferes(cmd_b, cmd_a)


def test_interferes_never_with_itself(cmd_a):
    assert not interferes(cmd_a, cmd_a)


def test_interferes_requires_shared_key(cmd_a):
    other = Command("c", "c1", "other-key", "v")
    assert not interferes(cmd_a, other)


def test_tuples_equal_ignores_dep_listing_order(cmd_a):
    d1 = frozenset({InstanceId("T", 0), InstanceId("L", 1)})
    p = OrderingTuple(cmd_a, d1, 3)
    q = OrderingTuple(cmd_a, frozenset(sorted(d1)), 3)
    assert tuples_equal(p, q)


def test_tuples_equal_discriminates(bare, ext, cmd_b):
    assert not tuples_equal(bare, ext)
    assert not tuples_equal(bare, OrderingTuple(cmd_b, frozenset(), 1))


def test_tuple_sort_key_orders_by_seq_first(bare, ext):
    assert tuple_sort_key(bare) < tuple_sort_key(ext)


def test_canonical_json_is_key_order_insensitive():
    assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})


def test_digest_is_short_stable_hex():
    d = digest({"x": 1})
    assert d == digest({"x": 1})
    assert len(d) == 16
    int(d, 16)  # hex or this raises


# Text with quotes, backslashes, control and non-ASCII characters.
TEXT = st.text(st.sampled_from('"\\/\n\t\x00aé☃\U0001f600') | st.characters(), max_size=6)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(JSON, st.dictionaries(TEXT, JSON, max_size=4))
def test_canonical_json_is_sorted_compact_ascii_json(value, members):
    """``canonical_json`` writes what ``json.dumps`` writes with sorted keys
    and compact separators, and ``json_object`` over already-encoded
    members, given in any order, writes the dict as ``canonical_json``."""
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))
    encoded = [(key, canonical_json(item)) for key, item in members.items()]
    assert json_object(reversed(encoded)) == canonical_json(members)
