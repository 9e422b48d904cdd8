"""Identifiers, membership math, and ordering-tuple primitives."""

import pytest

from ezbft_lab.core import (
    Command,
    Config,
    InstanceId,
    OrderingTuple,
    canonical_json,
    digest,
    interferes,
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


def test_command_json_round_trip(cmd_a):
    assert Command.from_json(cmd_a.to_json()) == cmd_a


def test_ordering_tuple_json_round_trip(ext):
    back = OrderingTuple.from_json(ext.to_json())
    assert tuples_equal(back, ext)


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
