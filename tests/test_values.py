"""Cheap immutable values must behave like the values they stand for.

Composite frozen values cache their hash, and the search key hashes node
values and pending ``(sender, recipient, payload)`` tokens built from
them. Seeded walks (the synchronous tail included) check, at every step,
that each pending envelope's token equals and hashes like a freshly built
copy, and that every cached-hash value reachable from the nodes and the
pending messages hashes like a freshly built equal copy and like the
tuple of its fields. A walk on replica and client ids holding quotes,
backslashes and non-ASCII characters covers odd ids.

The reference fingerprint, the exact value the search key compacts, must
also identify states exactly as the canonical-JSON projection it replaced
did: over every state of small searches and seeded walks in four fault
configs, two fingerprints are equal exactly when the reference
projections are.

A node state's JSON text is assembled from texts kept on its frozen
values and on its parent state; over every state of the goldens and of
seeded walks it must equal the canonical JSON of the dict the state's
JSON form was built from before, kept here as the reference, and its node
digest the digest of that dict.
"""

import dataclasses
import json
import random

import pytest

from ezbft_lab import explorer
from ezbft_lab.client import ClientState
from ezbft_lab.core import Command, Config, OrderingTuple, canonical_json, digest, json_fields
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

from shared import BYZ, CORRECT, FAULT_CONFIGS, fresh_copy, reference_fingerprint

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
        token = env[1:4]
        fresh = (env.sender, env.recipient, fresh_copy(env.payload))
        assert token == fresh and hash(token) == hash(fresh)
    values = {}
    _reachable(tuple(env.payload for env in sim.pending()), values)
    for state in (*sim.replicas.values(), *sim.clients.values()):
        _reachable(state.value(), values)
    for value in values.values():
        first = hash(value)
        copy = fresh_copy(value)
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


KEY_SEARCH_DEPTH = 4
KEY_WALKS = 6
KEY_WALK_DEPTH = 10


def _reference_json(state):
    """The dict a node state's JSON form was built from before its text
    was assembled from kept texts."""
    if isinstance(state, ClientState):
        return {
            "id": state.id,
            "requests": {
                cid: {
                    "target": req.target,
                    "phase": req.phase,
                    "timer_armed": req.timer_armed,
                    "replies": {s: json_fields(r) for s, r in req.replies.items()},
                    "commit_replies": {
                        s: json_fields(r) for s, r in req.commit_replies.items()
                    },
                }
                for cid, req in state.requests.items()
            },
            "received": [json_fields(r) for r in state.received],
        }
    return {
        "id": state.id,
        "next_slot": state.next_slot,
        "log": {
            str(i): {
                "tuple": rec.tuple.to_json(),
                "owner_number": rec.owner_number,
                "status": rec.status,
                "certificate": json_fields(rec.certificate) if rec.certificate else None,
            }
            for i, rec in state.log.items()
        },
        "sent_replies": {str(i): json_fields(r) for i, r in state.sent_replies.items()},
        "owner_numbers": {str(i): n for i, n in state.owner_numbers.items()},
        "votes": {
            f"{i}@{n}": {s: json_fields(v) for s, v in votes.items()}
            for (i, n), votes in state.votes.items()
        },
        "decisions": {f"{i}@{n}": d.to_json() for (i, n), d in state.decisions.items()},
        "voted": sorted(f"{i}@{n}" for i, n in state.voted),
        "executed": [list(e) for e in state.executed],
        "kv": {k: list(v) for k, v in state.kv.items()},
    }


def _reference_projection(sim):
    """The dedup projection the fingerprint replaced: each node's canonical
    JSON, with a client's received replies sorted and a byzantine
    replica's inbox sorted with its consumed flags, then the sorted
    canonical JSON of every pending message without id or hop."""
    parts = []
    for node, state in (*sim.replicas.items(), *sim.clients.items()):
        data = _reference_json(state)
        if node in sim.clients:
            data["received"] = sorted(canonical_json(r) for r in data["received"])
        elif node in sim.cfg.byzantine_ids:
            data = {
                "state": data,
                "inbox": sorted(
                    canonical_json(
                        {"from": s, "payload": json_fields(p), "consumed": i in state.consumed}
                    )
                    for i, (s, p) in enumerate(state.inbox)
                ),
            }
        parts.append(canonical_json(data))
    parts += sorted(
        canonical_json({"from": e.sender, "to": e.recipient, "payload": json_fields(e.payload)})
        for e in sim.pending()
    )
    return "\n".join(parts)


def _key_and_reference(sim):
    return reference_fingerprint(sim), _reference_projection(sim)


def _search_states(monkeypatch, config, workload):
    """Every state a small search keys, and every terminal after its tail."""
    states = []
    state_key, tail = explorer._state_key, explorer.extend_with_tail

    def recording_key(sim, acted):
        states.append(_key_and_reference(sim))
        return state_key(sim, acted)

    def recording_tail(sim, bounds, **options):
        events = tail(sim, bounds, **options)
        states.append(_key_and_reference(sim))
        return events

    with monkeypatch.context() as patch:
        patch.setattr(explorer, "_state_key", recording_key)
        patch.setattr(explorer, "extend_with_tail", recording_tail)
        explore(config, ExploreBounds(workload=workload, max_events=KEY_SEARCH_DEPTH))
    return states


def _walk_states(config, workload):
    """Every state of seeded walks that share one memo, and each walk's
    end state after its tail."""
    bounds = ExploreBounds(workload=workload, max_events=KEY_WALK_DEPTH)
    memo = TransitionMemo()
    states = []
    for seed in range(KEY_WALKS):
        rng = random.Random(seed)
        sim = Sim(config, workload, memo=memo)
        acted = frozenset()
        states.append(_key_and_reference(sim))
        for _step in range(KEY_WALK_DEPTH):
            children = []
            for move in enabled_moves(sim, bounds, acted):
                child = sim.clone()
                try:
                    child.apply(move)
                except ScheduleError:
                    continue
                children.append((move, child))
            if not children:
                break
            move, sim = rng.choice(children)
            if move.kind == ADVERSARY and move.node in config.faulty_client_ids:
                acted = acted | {move.node}
            states.append(_key_and_reference(sim))
        extend_with_tail(sim, bounds)
        states.append(_key_and_reference(sim))
    return states


@pytest.mark.parametrize("name", sorted(FAULT_CONFIGS))
def test_fingerprints_are_equal_exactly_when_reference_projections_are(monkeypatch, name):
    config = FAULT_CONFIGS[name]
    workload = _two_commands(config, "T")
    states = _search_states(monkeypatch, config, workload) + _walk_states(config, workload)
    by_key, by_reference = {}, {}
    for key, reference in states:
        assert by_key.setdefault(key, reference) == reference
        assert by_reference.setdefault(reference, key) == key
    # Not vacuous: some states are met twice, and many are distinct.
    assert 100 < len(by_key) < len(states)


def _check_state_texts(sim):
    """Every node's JSON text and node digest against its reference dict."""
    digests = sim.node_digests()
    for node, state in (*sim.replicas.items(), *sim.clients.items()):
        reference = _reference_json(state)
        assert state.to_json() == canonical_json(reference), node
        assert digests[node] == digest(reference), node
    return len(digests)


TEXT_CASES = {
    **{name: (config, _two_commands(config, "T")) for name, config in FAULT_CONFIGS.items()},
    "escaped-ids": WALK_CASES[2][:2],
}


def test_state_texts_of_the_goldens_equal_their_reference_dicts():
    checked = 0
    for name in SCENARIO_NAMES:
        schedule = Schedule.from_json(json.loads(golden_text(name, "schedule")))
        sim = Sim(schedule.config, schedule.workload, True)
        checked += _check_state_texts(sim)
        for event in schedule.events:
            sim.apply(event)
            checked += _check_state_texts(sim)
    assert checked > 300


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_state_texts_of_seeded_walks_equal_their_reference_dicts(name):
    """Walks on one memo, each step checked, then the tail one delivery at
    a time, then the rest of the tail."""
    config, workload = TEXT_CASES[name]
    bounds = ExploreBounds(workload=workload, max_events=KEY_WALK_DEPTH)
    memo = TransitionMemo()
    for seed in range(KEY_WALKS):
        rng = random.Random(seed)
        sim = Sim(config, workload, memo=memo)
        acted = frozenset()
        _check_state_texts(sim)
        for _step in range(KEY_WALK_DEPTH):
            children = []
            for move in enabled_moves(sim, bounds, acted):
                child = sim.clone()
                try:
                    child.apply(move)
                except ScheduleError:
                    continue
                children.append((move, child))
            if not children:
                break
            move, sim = rng.choice(children)
            if move.kind == ADVERSARY and move.node in config.faulty_client_ids:
                acted = acted | {move.node}
            _check_state_texts(sim)
        while sim.pending():
            sim.apply(Event(DELIVER, message=sim.pending()[0].id))
            _check_state_texts(sim)
        extend_with_tail(sim, bounds)
        _check_state_texts(sim)
