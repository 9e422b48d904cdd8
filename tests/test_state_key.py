"""The 64-bit state key must identify states exactly as the reference
fingerprint does.

The key hashes each node's cached node key, the pending pool's running
multiset hash and the faulty clients that acted. Over every key the fixed
searches compute and every state of seeded walks in the four fault
configs, tails included, two keys are equal exactly when the reference
fingerprints and acted sets are: no collision and no split. A Sim keeps
its pool hash from the first time it is asked for; the kept value must
equal the from-scratch value after every ``Sim.apply``, failed ones
included, and after a drain that raises.

The pool's element hash is mixed before it is summed: a plain sum of
Python tuple hashes cannot tell apart two pools that swap payloads between
two recipients, which is exactly what a faulty client's swapped split
certificates produce.
"""

import itertools
import random

import pytest

from ezbft_lab import explorer, simnet
from ezbft_lab.adversary import FAULTY_SPLIT, FaultyClientChoice
from ezbft_lab.core import Command, InstanceId, OrderingTuple
from ezbft_lab.explorer import (
    ExploreBounds,
    _state_key,
    enabled_moves,
    explore,
    extend_with_tail,
)
from ezbft_lab.messages import Commit, CommitCertificate, SpecReply
from ezbft_lab.simnet import (
    ADVERSARY,
    DELIVER,
    Envelope,
    Event,
    ScheduleError,
    Sim,
    TransitionMemo,
    node_key,
    pool_hash,
)

from shared import FAULT_CONFIGS, FIXED_SEARCHES, reference_fingerprint, two_commands

WALKS = 10
DEPTH = 12
MASK = (1 << 64) - 1


def _assert_pool_hash(sim):
    """The running pool hash, when the Sim keeps one, is the from-scratch
    value, and ``pending_hash`` returns that value either way."""
    scratch = pool_hash(sim.pending())
    assert sim._pending_hash in (None, scratch)
    assert sim.pending_hash() == scratch


@pytest.fixture
def checked_applies(monkeypatch):
    """Check the pool hash after every ``Sim.apply``, also one that raises;
    the one-item list counts the applies after which a Sim kept it."""
    count = [0]
    apply = Sim.apply

    def checking(sim, event):
        try:
            return apply(sim, event)
        finally:
            if sim._pending_hash is not None:
                count[0] += 1
                assert sim._pending_hash == pool_hash(sim.pending()), event

    monkeypatch.setattr(Sim, "apply", checking)
    return count


class _Keys:
    """Every state key met, with the reference fingerprint and acted set
    it stands for; the two must determine each other."""

    def __init__(self):
        self.by_key, self.by_reference, self.count = {}, {}, 0

    def add(self, sim, acted, key=None):
        key = _state_key(sim, acted) if key is None else key
        reference = (reference_fingerprint(sim), acted)
        assert self.by_key.setdefault(key, reference) == reference, "two states share a key"
        assert self.by_reference.setdefault(reference, key) == key, "one state has two keys"
        self.count += 1


@pytest.mark.parametrize("name", sorted(FIXED_SEARCHES))
def test_every_key_of_the_fixed_searches_matches_the_reference(
    monkeypatch, checked_applies, name
):
    config, target, max_events, properties, _expected = FIXED_SEARCHES[name]
    keys = _Keys()
    state_key = explorer._state_key

    def recording(sim, acted):
        key = state_key(sim, acted)
        keys.add(sim, acted, key)
        return key

    monkeypatch.setattr(explorer, "_state_key", recording)
    result = explore(
        config, ExploreBounds(workload=two_commands(target), max_events=max_events), properties
    )
    assert keys.count > result.states_visited and checked_applies[0] > 0
    if result.states_deduped:
        assert len(keys.by_key) < keys.count


@pytest.mark.parametrize("name", sorted(FAULT_CONFIGS))
def test_every_state_of_seeded_walks_matches_the_reference(checked_applies, name):
    """Walks on one memo key every child of every step, as the search
    does, and each walk's end state after its tail."""
    config = FAULT_CONFIGS[name]
    workload = two_commands("T")
    bounds = ExploreBounds(workload=workload, max_events=DEPTH)
    memo = TransitionMemo()
    keys = _Keys()
    for seed in range(WALKS):
        rng = random.Random(seed)
        sim, acted = Sim(config, workload, memo=memo), frozenset()
        keys.add(sim, acted)
        for _step in range(DEPTH):
            children = []
            for move in enabled_moves(sim, bounds, acted):
                child = sim.clone()
                try:
                    child.apply(move)
                except ScheduleError:
                    continue
                child_acted = acted
                if move.kind == ADVERSARY and move.node in config.faulty_client_ids:
                    child_acted = acted | {move.node}
                keys.add(child, child_acted)
                children.append((child, child_acted))
            if not children:
                break
            sim, acted = rng.choice(children)
        extend_with_tail(sim, bounds)
        _assert_pool_hash(sim)
        keys.add(sim, acted)
    # Not vacuous: some states are met twice, and many are distinct.
    assert 100 < len(keys.by_key) < keys.count and checked_applies[0] > 100


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "plain"])
def test_the_pool_hash_survives_a_drain_that_raises(monkeypatch, memo):
    monkeypatch.setattr(simnet, "DRAIN_CAP", 3)
    sim = Sim(FAULT_CONFIGS["honest"], two_commands("Q"), memo=TransitionMemo() if memo else None)
    _assert_pool_hash(sim)
    sim.apply(Event(DELIVER, message=sim.pending()[0].id))
    assert sim._pending_hash == pool_hash(sim.pending())
    with pytest.raises(ScheduleError, match="did not quiesce"):
        sim.drain()
    assert sim.pending()
    _assert_pool_hash(sim)
    # The drain delivered through ``apply``, which kept the hash up to
    # date, as each further delivery does.
    while sim.pending():
        sim.apply(Event(DELIVER, message=sim.pending()[-1].id))
        assert sim._pending_hash == pool_hash(sim.pending())


def _commit(deps, seq):
    """A Commit of c1's command ``a`` with a slow certificate for it."""
    instance = InstanceId("R", 0)
    ordered = OrderingTuple(Command("a", "c1", "k", "va"), frozenset(deps), seq)
    replies = tuple(SpecReply(s, "c1", instance, ordered, 0) for s in ("L", "Q", "R"))
    certificate = CommitCertificate("slow", replies)
    return Commit(instance, certificate.vouched_tuple(), certificate)


def test_the_pool_hash_tells_swapped_payloads_apart():
    """Pools {X to Q, Y to R} and {Y to Q, X to R}: the mixed sum tells
    every such pair apart, while a sum of raw Python hashes merges some of
    them (about a third, whatever the hash seed)."""
    payloads = [
        _commit({InstanceId(owner, slot)}, seq)
        for owner in "RLQT"
        for slot in range(3)
        for seq in (1, 2)
    ]
    merged_by_raw_sum = 0
    for x, y in itertools.combinations(payloads, 2):
        one = [("c1", "Q", x), ("c1", "R", y)]
        other = [("c1", "Q", y), ("c1", "R", x)]
        envelopes = [
            [Envelope(f"c1#{i}", *item, 1) for i, item in enumerate(pool)] for pool in (one, other)
        ]
        assert pool_hash(envelopes[0]) != pool_hash(envelopes[1])
        raw = [sum(hash(item) for item in pool) & MASK for pool in (one, other)]
        merged_by_raw_sum += raw[0] == raw[1]
    assert merged_by_raw_sum > 0


def test_swapped_split_certificates_give_different_keys(monkeypatch):
    """In the faulty-client search, c1 may split certificates X to Q and Y
    to R, or Y to Q and X to R. The two children differ only in their
    pending pools, and their keys must differ."""
    config, target, max_events, properties, _expected = FIXED_SEARCHES["crit6-byz"]
    splitting = []
    moves_of = explorer.enabled_moves

    def recording(sim, bounds, acted):
        moves = moves_of(sim, bounds, acted)
        splits = [m for m in moves if getattr(m.choice, "kind", None) == FAULTY_SPLIT]
        if splits:
            splitting.append((sim.clone(), splits))
        return moves

    monkeypatch.setattr(explorer, "enabled_moves", recording)
    bounds = ExploreBounds(workload=two_commands(target), max_events=max_events)
    explore(config, bounds, properties)
    assert splitting, "the faulty client never got to split"
    checked = 0
    for sim, splits in splitting:
        for move in splits:
            (first, to_first), (second, to_second) = move.choice.certificates
            choice = FaultyClientChoice(
                FAULTY_SPLIT,
                command_id=move.choice.command_id,
                certificates=((second, to_first), (first, to_second)),
            )
            one, other = sim.clone(), sim.clone()
            one.apply(move)
            other.apply(move._replace(choice=choice))
            nodes = [
                list(map(node_key, (*c.replicas.values(), *c.clients.values())))
                for c in (one, other)
            ]
            assert nodes[0] == nodes[1]
            assert reference_fingerprint(one) != reference_fingerprint(other)
            acted = frozenset({move.node})
            assert _state_key(one, acted) != _state_key(other, acted)
            checked += 1
    assert checked > 0
