"""A transition memo must be invisible.

Seeded random walks drive a Sim that carries a TransitionMemo and a plain
Sim through the same events, the synchronous tail included. After every
event the two must agree on node digests, pending envelopes (ids, hops and
payloads), reference fingerprint, state key, commit and selection logs and
the event's effects. At every step each enabled move is also applied to a
clone of the memo Sim, as the search does: that must leave the parent
unchanged, and no step the memo ever stored may change afterwards, not
even after the memo started over. The memo holds at most two generations
of ``MEMO_CAP`` steps and reuses steps of its old generation. A search
looks each step up in the memo exactly once.
"""

import random

import pytest

from ezbft_lab import simnet
from ezbft_lab.core import canonical_json, json_value
from ezbft_lab.explorer import (
    ExploreBounds,
    _state_key,
    enabled_moves,
    explore,
    extend_with_tail,
)
from ezbft_lab.simnet import ADVERSARY, MEMO_CAP, ScheduleError, Sim, TransitionMemo

from shared import BYZ, CORRECT, reference_fingerprint, two_commands

WALKS = 20
DEPTH = 12


def _view(sim):
    return (
        sim.node_digests(),
        sim.pending(),
        reference_fingerprint(sim),
        _state_key(sim, frozenset()),
        list(sim.commit_log),
        list(sim.selection_log),
    )


def _step_both(fast, plain, event):
    assert fast.apply(event) == plain.apply(event), event
    assert _view(fast) == _view(plain), event


def _fixed(step):
    """What must never change about a stored step."""
    return step.before.value(), step.after.value(), canonical_json(json_value(step.effects))


def _collect(memo, stored):
    for steps in (memo._old_steps, memo._steps):
        for step in steps.values():
            if id(step) not in stored:
                stored[id(step)] = (step, _fixed(step))


@pytest.mark.parametrize("cap", [MEMO_CAP, 8], ids=["default-cap", "tiny-cap"])
@pytest.mark.parametrize(
    "config, second_target", [(CORRECT, "Q"), (BYZ, "T")], ids=["honest", "byzantine"]
)
def test_memo_sim_matches_a_plain_sim_in_lockstep(monkeypatch, config, second_target, cap):
    monkeypatch.setattr(simnet, "MEMO_CAP", cap)
    old_hits = [0]
    lookup = TransitionMemo.lookup

    def counting(memo, state, key):
        entry = (id(state), key)
        from_old = entry not in memo._steps and entry in memo._old_steps
        step = lookup(memo, state, key)
        old_hits[0] += from_old and step is not None
        return step

    monkeypatch.setattr(TransitionMemo, "lookup", counting)
    workload = two_commands(second_target)
    bounds = ExploreBounds(workload=workload, max_events=DEPTH)
    memo = TransitionMemo()
    stored: dict[int, tuple] = {}
    for seed in range(WALKS):
        rng = random.Random(seed)
        fast, plain = Sim(config, workload, memo=memo), Sim(config, workload)
        assert _view(fast) == _view(plain)
        acted: frozenset[str] = frozenset()
        for _step in range(DEPTH):
            moves = enabled_moves(plain, bounds, acted)
            assert enabled_moves(fast, bounds, acted) == moves
            before = _view(fast)
            applicable = []
            for move in moves:
                child = fast.clone()
                try:
                    child.apply(move)
                except ScheduleError:
                    continue
                _collect(memo, stored)
                assert _view(fast) == before, move
                applicable.append(move)
            if not applicable:
                break
            move = rng.choice(applicable)
            _step_both(fast, plain, move)
            _collect(memo, stored)
            if move.kind == ADVERSARY and move.node in config.faulty_client_ids:
                acted = acted | {move.node}

        tail = extend_with_tail(plain.clone(), bounds)
        assert extend_with_tail(fast.clone(), bounds) == tail
        for event in tail:
            _step_both(fast, plain, event)
            _collect(memo, stored)
        for step, fixed in stored.values():
            assert _fixed(step) == fixed
    assert memo.reused > 0 and memo.computed > 0
    assert len(memo._steps) <= cap
    assert len(memo._steps) + len(memo._old_steps) <= 2 * cap
    if cap < MEMO_CAP:
        assert len(stored) > cap, "the memo never started over"
        assert old_hits[0] > 0, "no step of the old generation was reused"


def test_search_reports_reused_transitions():
    bounds = ExploreBounds(workload=two_commands("Q"), max_events=4)
    result = explore(CORRECT, bounds, properties=("agreement", "validity", "liveness"))
    assert result.exhausted and not result.violations
    assert result.transitions_computed > 0
    assert result.transitions_reused > 0
    data = result.to_json()
    assert data["transitions_computed"] == result.transitions_computed
    assert data["transitions_reused"] == result.transitions_reused


@pytest.mark.parametrize(
    "config, second_target, max_events, properties",
    [
        (CORRECT, "Q", 5, ("agreement", "validity", "liveness")),
        (BYZ, "T", 14, ("agreement", "liveness")),
        (BYZ, "R", 5, None),
    ],
    ids=["honest-Q-5", "crit6-byz", "byzantine-R-5"],
)
def test_every_memo_step_is_looked_up_once(monkeypatch, config, second_target, max_events, properties):
    """A search's memo lookups are exactly its computed plus reused steps:
    a step that misses is computed without a second lookup."""
    calls = [0]
    lookup = TransitionMemo.lookup

    def counting(memo, state, key):
        calls[0] += 1
        return lookup(memo, state, key)

    monkeypatch.setattr(TransitionMemo, "lookup", counting)
    bounds = ExploreBounds(workload=two_commands(second_target), max_events=max_events)
    result = explore(config, bounds, properties)
    assert result.transitions_reused > 0
    assert calls[0] == result.transitions_computed + result.transitions_reused
