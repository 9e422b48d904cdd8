"""A transition memo must be invisible.

Seeded random walks drive a Sim that carries a TransitionMemo and a plain
Sim through the same events, the synchronous tail included. After every
event the two must agree on node digests, pending envelopes (ids, hops and
payloads), fingerprint, commit and selection logs and the event's
effects. At every step each enabled move is also applied to a clone of the
memo Sim, as the search does: that must leave the parent unchanged, and no
step the memo ever stored may change afterwards, not even after the memo
started over.
"""

import random

import pytest

from ezbft_lab import simnet
from ezbft_lab.core import Command, Config, canonical_json
from ezbft_lab.explorer import ExploreBounds, enabled_moves, explore, extend_with_tail
from ezbft_lab.simnet import ADVERSARY, MEMO_CAP, ScheduleError, Sim, TransitionMemo, WorkItem

CORRECT = Config(4, 1, ("R", "L", "Q", "T"))
BYZ = Config(
    4, 1, ("R", "L", "Q", "T"),
    byzantine_ids=frozenset({"T"}),
    faulty_client_ids=frozenset({"c1"}),
)
WALKS = 20
DEPTH = 12


def _two_commands(second_target):
    return (
        WorkItem("c1", Command("a", "c1", "k", "va"), "R"),
        WorkItem("c2", Command("b", "c2", "k", "vb"), second_target),
    )


def _view(sim):
    return (
        sim.node_digests(),
        sim.pending(),
        sim.fingerprint(),
        list(sim.commit_log),
        list(sim.selection_log),
    )


def _step_both(fast, plain, event):
    assert fast.apply(event) == plain.apply(event), event
    assert _view(fast) == _view(plain), event


def _fixed(step):
    """What must never change about a stored step."""
    return step.before.value(), step.after.value(), canonical_json(list(step.effects))


def _collect(memo, stored):
    for step in memo._steps.values():
        if id(step) not in stored:
            stored[id(step)] = (step, _fixed(step))


@pytest.mark.parametrize("cap", [MEMO_CAP, 8], ids=["default-cap", "tiny-cap"])
@pytest.mark.parametrize(
    "config, second_target", [(CORRECT, "Q"), (BYZ, "T")], ids=["honest", "byzantine"]
)
def test_memo_sim_matches_a_plain_sim_in_lockstep(monkeypatch, config, second_target, cap):
    monkeypatch.setattr(simnet, "MEMO_CAP", cap)
    workload = _two_commands(second_target)
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
    if cap < MEMO_CAP:
        assert len(stored) > cap, "the memo never started over"


def test_search_reports_reused_transitions():
    bounds = ExploreBounds(workload=_two_commands("Q"), max_events=4)
    result = explore(CORRECT, bounds, properties=("agreement", "validity", "liveness"))
    assert result.exhausted and not result.violations
    assert result.transitions_computed > 0
    assert result.transitions_reused > 0
    data = result.to_json()
    assert data["transitions_computed"] == result.transitions_computed
    assert data["transitions_reused"] == result.transitions_reused
