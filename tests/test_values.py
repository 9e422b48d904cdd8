"""Cheap immutable values must behave like the values they stand for.

Envelopes build their dedup token from their payload's cached JSON, and
composite frozen values cache their hash. Seeded walks (the synchronous
tail included) check, at every step, that each pending envelope's token
equals the canonical JSON of its sender, recipient and payload, and that
every cached-hash value reachable from the nodes and the pending messages
hashes like a freshly built equal copy and like the tuple of its fields.
A walk on replica and client ids holding quotes, backslashes and
non-ASCII characters pins the escaping.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from ezbft_lab import explorer
from ezbft_lab.core import Command, Config, OrderingTuple, canonical_json
from ezbft_lab.explorer import ExploreBounds, enabled_moves, explore, extend_with_tail
from ezbft_lab.messages import (
    ClientRequest,
    Commit,
    CommitCertificate,
    CommitFast,
    CommitReply,
    Envelope,
    NewOwner,
    OwnerChangeVote,
    SpecOrder,
    SpecReply,
    payload_to_json,
)
from ezbft_lab.owner_change import CandidateTuple, Selection
from ezbft_lab.replica import InstanceRecord
from ezbft_lab.scenarios import SCENARIO_NAMES, golden_text
from ezbft_lab.simnet import (
    ADVERSARY,
    DELIVER,
    Event,
    TIMEOUT,
    Schedule,
    ScheduleError,
    Sim,
    TransitionMemo,
    WorkItem,
)

CORRECT = Config(4, 1, ("R", "L", "Q", "T"))
BYZ = Config(
    4, 1, ("R", "L", "Q", "T"),
    byzantine_ids=frozenset({"T"}),
    faulty_client_ids=frozenset({"c1"}),
)
ESCAPED = Config(4, 1, ('R"', "Lé", "Q\\", "T☃"))
CACHED_HASH = (
    OrderingTuple,
    InstanceRecord,
    CommitCertificate,
    ClientRequest,
    SpecOrder,
    SpecReply,
    CommitFast,
    Commit,
    CommitReply,
    OwnerChangeVote,
    NewOwner,
    Selection,
    CandidateTuple,
)
WALKS = 10
DEPTH = 12


def _two_commands(cfg, second_target, c1="c1", c2="c2", values=("va", "vb")):
    return (
        WorkItem(c1, Command("a", c1, "k", values[0]), cfg.replica_ids[0]),
        WorkItem(c2, Command("b", c2, "k", values[1]), second_target),
    )


# (config, workload, cached-hash classes the walks never reach). With T
# byzantine no fast certificate forms, so no walk sends a CommitFast.
WALK_CASES = [
    (CORRECT, _two_commands(CORRECT, "Q"), set()),
    (BYZ, _two_commands(BYZ, "T"), {CommitFast}),
    (
        ESCAPED,
        _two_commands(ESCAPED, "Q\\", c1='c"1', c2="cé2", values=('v"a', "vé")),
        set(),
    ),
]


def _fresh(value):
    """An equal copy rebuilt from scratch, so no part of it carries a
    cached hash or cached JSON."""
    if dataclasses.is_dataclass(value):
        return type(value)(
            **{f.name: _fresh(getattr(value, f.name)) for f in dataclasses.fields(value)}
        )
    if isinstance(value, tuple):
        return tuple(_fresh(item) for item in value)
    if isinstance(value, frozenset):
        return frozenset(_fresh(item) for item in value)
    return value


def _reachable(value, out):
    """Every cached-hash value inside ``value``, by identity."""
    if isinstance(value, CACHED_HASH):
        out[id(value)] = value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _reachable(getattr(value, f.name), out)
    elif isinstance(value, (tuple, frozenset)):
        for item in value:
            _reachable(item, out)


def _check_values(sim, seen_types):
    for env in sim.pending():
        expected = canonical_json(
            {"from": env.sender, "to": env.recipient, "payload": payload_to_json(env.payload)}
        )
        assert env.token == expected
    values = {}
    _reachable(tuple(env.payload for env in sim.pending()), values)
    for state in (*sim.replicas.values(), *sim.clients.values()):
        _reachable(state.value(), values)
    for value in values.values():
        first = hash(value)
        copy = _fresh(value)
        fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
        assert copy == value
        # A frozen dataclass hashes as the tuple of its fields.
        assert hash(value) == first == hash(copy) == hash(fields), value
        seen_types.add(type(value))


@pytest.mark.parametrize(
    "config, workload, unreached", WALK_CASES, ids=["honest", "byzantine", "escaped-ids"]
)
def test_tokens_and_cached_hashes_match_fresh_values(config, workload, unreached):
    bounds = ExploreBounds(workload=workload, max_events=DEPTH)
    seen_types = set()
    for seed in range(WALKS):
        rng = random.Random(seed)
        sim = Sim(config, workload, memo=TransitionMemo())
        acted = frozenset()
        _check_values(sim, seen_types)
        for _step in range(DEPTH):
            moves = enabled_moves(sim, bounds, acted)
            rng.shuffle(moves)
            # Timeouts and adversary actions first, so that walks reach
            # slow-path and faulty-client commits.
            moves.sort(key=lambda move: move.kind not in (TIMEOUT, ADVERSARY))
            for move in moves:
                child = sim.clone()
                try:
                    child.apply(move)
                except ScheduleError:
                    continue
                break
            else:
                break
            sim = child
            if move.kind == ADVERSARY and move.node in config.faulty_client_ids:
                acted = acted | {move.node}
            _check_values(sim, seen_types)
        # The tail's first drain, one delivery at a time, then the rest.
        while sim.pending():
            sim.apply(Event(DELIVER, message=sim.pending()[0].id))
            _check_values(sim, seen_types)
        extend_with_tail(sim, bounds)
        _check_values(sim, seen_types)
    assert seen_types == set(CACHED_HASH) - unreached


def test_escaped_ids_give_the_same_tokens_as_json_dumps():
    payload = ClientRequest('c"1', Command("a", 'c"1', "k\\", "vé☃\n"))
    env = Envelope('c"1#0', 'c"1', "Ré", payload, 0)
    expected = json.dumps(
        {"from": 'c"1', "to": "Ré", "payload": payload_to_json(payload)},
        sort_keys=True,
        separators=(",", ":"),
    )
    assert env.token == expected
    assert env.token.isascii()


def test_events_and_envelopes_reject_attribute_assignment():
    event = Event(DELIVER, message="c1#0")
    env = Envelope("c1#0", "c1", "R", ClientRequest("c1", Command("a", "c1", "k", "va")), 0)
    for value, name in ((event, "message"), (env, "hop")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1


def _events_to_round_trip():
    """Every event of the goldens, and every move enabled along seeded
    walks on the honest and byzantine configurations, with their tails."""
    events = []
    for name in SCENARIO_NAMES:
        events += Schedule.from_json(json.loads(golden_text(name, "schedule"))).events
    for config, workload, _unreached in WALK_CASES[:2]:
        bounds = ExploreBounds(workload=workload, max_events=DEPTH)
        for seed in range(WALKS):
            rng = random.Random(seed)
            sim = Sim(config, workload)
            for _step in range(DEPTH):
                moves = enabled_moves(sim, bounds, frozenset())
                events += moves
                applied = []
                for move in moves:
                    child = sim.clone()
                    try:
                        child.apply(move)
                    except ScheduleError:
                        continue
                    applied.append(child)
                if not applied:
                    break
                sim = rng.choice(applied)
            events += extend_with_tail(sim, bounds)
    return events


def test_events_round_trip_through_json():
    events = _events_to_round_trip()
    assert {e.kind for e in events} == {
        "deliver", "timeout", "trigger_owner_change", "adversary"
    }
    for event in events:
        assert Event.from_json(event.to_json()) == event


# The first 50 state keys of the honest-exhaust search (b to Q, max_events
# 5). Cheaper events, envelopes, tokens or hashes must leave the dedup
# projection, and so these keys, unchanged.
FIRST_KEYS = 50
FIRST_KEY = "5140cc9e12084d47|"
LAST_KEY = "9f71455556c8f43f|"
KEYS_SHA256 = "5e6a9048df90d9461d1e9042ab6d06a0f849ac774c400f8c3771bad2f68bbbab"


class _Enough(Exception):
    pass


def test_first_state_keys_of_a_fixed_search_are_pinned(monkeypatch):
    keys = []
    state_key = explorer._state_key

    def recording(sim, acted):
        keys.append(state_key(sim, acted))
        if len(keys) == FIRST_KEYS:
            raise _Enough
        return keys[-1]

    monkeypatch.setattr(explorer, "_state_key", recording)
    bounds = ExploreBounds(workload=_two_commands(CORRECT, "Q"), max_events=5)
    with pytest.raises(_Enough):
        explore(CORRECT, bounds, ("agreement", "validity", "liveness"))
    assert (keys[0], keys[-1]) == (FIRST_KEY, LAST_KEY)
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == KEYS_SHA256
