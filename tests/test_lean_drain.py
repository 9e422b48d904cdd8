"""The synchronous tail must match delivering one event at a time through
``Sim.apply``.

``Sim.drain`` moves the pending envelopes into a FIFO once and delivers
from there, traced or not. The reference is independent of that loop: it
delivers the oldest pending envelope through ``Sim.apply``, one event at a
time, and records every event. The tail runs three times from one state:
through an untraced ``drain``, through a traced ``drain`` and through the
reference drain; ``extend_with_tail`` applies the owner-change triggers
through ``Sim.apply`` in all three. All three must choose the same events
and end in the same node states (byzantine inboxes and consumed sets
included), counters, seq number, logs, an empty pending pool and the
same checker reports, and the traced ``drain`` must build exactly the
reference's trace records. The comparison runs on every terminal of small
searches and after every step of seeded walks, with and without a
transition memo, over four fault configs.

With a shared memo all three must also end on the very same canonical
node objects, unless the memo started over between their tails: its
identities stand for values, so after a start-over equal values may be
held by two objects.
"""

import random

import pytest

from ezbft_lab import explorer, simnet
from ezbft_lab.checkers import Observations, run_checkers
from ezbft_lab.explorer import ExploreBounds, enabled_moves, explore, extend_with_tail
from ezbft_lab.simnet import (
    ADVERSARY,
    DELIVER,
    Event,
    ScheduleError,
    Sim,
    TransitionMemo,
)

from shared import FAULT_CONFIGS, two_commands


SEARCH_DEPTH = 4
WALKS = 6
WALK_DEPTH = 10


@pytest.fixture
def resets(monkeypatch):
    """A one-item list counting ``TransitionMemo`` start-overs."""
    count = [0]
    new_generation = TransitionMemo._new_generation

    def counting(memo):
        count[0] += 1
        new_generation(memo)

    monkeypatch.setattr(TransitionMemo, "_new_generation", counting)
    return count


def _without_memo(sim):
    """A twin of a memo Sim that delivers without the memo."""
    twin = sim.clone()
    twin._memo = None
    return twin


def _canonical_nodes(sim):
    """The nodes whose states a memo Sim keeps canonical: the correct ones."""
    if sim._memo is None:
        return []
    faulty = sim.cfg.byzantine_ids | sim.cfg.faulty_client_ids
    return [node for node in (*sim.replicas, *sim.clients) if node not in faulty]


def _outcome(sim, events):
    reports, notes = run_checkers(Observations.from_sim(sim))
    return {
        "events": events,
        "replicas": {node: state.value() for node, state in sim.replicas.items()},
        "clients": {node: state.value() for node, state in sim.clients.items()},
        "counters": sim.counters,
        "seq_no": sim.seq_no,
        "tail_start": sim.tail_start,
        "commit_log": sim.commit_log,
        "selection_log": sim.selection_log,
        "pending": sim._pending,
        "reports": [report.to_json() for report in reports],
        "notes": notes,
    }


def _reference_drain(sim, note=""):
    """Deliver the oldest pending envelope through ``Sim.apply`` until none
    remain, one event at a time; the same contract as ``Sim.drain``."""
    applied = []
    for _ in range(simnet.DRAIN_CAP):
        if not sim._pending:
            return applied
        event = Event(DELIVER, message=next(iter(sim._pending)), note=note)
        sim.apply(event)
        applied.append(event)
    raise ScheduleError(f"drain did not quiesce within {simnet.DRAIN_CAP} deliveries")


def _reference(sim):
    """A traced twin of ``sim`` whose drains go through ``_reference_drain``."""
    twin = sim.clone()
    twin.record_trace = True
    twin.drain = lambda note="": _reference_drain(twin, note)
    return twin


def _assert_tail_matches_apply(sim, bounds, lean_first, resets):
    """Run the tail on an untraced twin, a traced twin and the reference
    twin of ``sim``. ``lean_first`` picks the order, so that with a shared
    memo each side also meets steps the memo does not hold yet. ``resets``
    is the start-over counter of the ``resets`` fixture."""
    lean, traced, reference = sim.clone(), sim.clone(), _reference(sim)
    traced.record_trace = True
    twins = (lean, traced, reference)
    tails = {}
    before = resets[0]
    for twin in twins if lean_first else twins[::-1]:
        tails[id(twin)] = extend_with_tail(twin, bounds)
    lean_events = tails[id(lean)]
    expected = _outcome(reference, tails[id(reference)])
    assert _outcome(lean, lean_events) == expected
    assert _outcome(traced, tails[id(traced)]) == expected
    assert lean._pending == {} and lean.records == []
    assert traced.records == reference.records
    assert len(reference.records) == len(lean_events)
    shared = resets[0] == before
    for node in _canonical_nodes(lean):
        mine = lean.clients if node in lean.clients else lean.replicas
        for other in (traced, reference):
            theirs = other.clients if node in other.clients else other.replicas
            if shared:
                assert mine[node] is theirs[node], node
            else:
                assert mine[node].value() == theirs[node].value(), node
    return lean_events


@pytest.mark.parametrize("name", sorted(FAULT_CONFIGS))
def test_every_search_terminal_tail_matches_apply(monkeypatch, resets, name):
    config = FAULT_CONFIGS[name]
    bounds = ExploreBounds(workload=two_commands("T"), max_events=SEARCH_DEPTH)
    checked = [0]

    def checking_tail(sim, tail_bounds):
        for twin in (sim, _without_memo(sim)):
            _assert_tail_matches_apply(
                twin, tail_bounds, lean_first=checked[0] % 2 == 0, resets=resets
            )
        checked[0] += 1
        return extend_with_tail(sim, tail_bounds)

    monkeypatch.setattr(explorer, "extend_with_tail", checking_tail)
    result = explore(config, bounds)
    assert result.terminals_checked == checked[0] > 0


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "plain"])
@pytest.mark.parametrize("name", sorted(FAULT_CONFIGS))
def test_seeded_walk_tails_match_apply(resets, name, memo):
    config = FAULT_CONFIGS[name]
    workload = two_commands("T")
    bounds = ExploreBounds(workload=workload, max_events=WALK_DEPTH)
    shared = TransitionMemo() if memo else None
    kinds = set()
    for seed in range(WALKS):
        rng = random.Random(seed)
        sim = Sim(config, workload, memo=shared)
        acted: frozenset[str] = frozenset()
        for step in range(WALK_DEPTH):
            tail = _assert_tail_matches_apply(
                sim, bounds, lean_first=(seed + step) % 2 == 0, resets=resets
            )
            kinds.update(event.kind for event in tail)
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
    assert kinds == {"deliver", "trigger_owner_change"}


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "plain"])
def test_a_drain_cut_short_leaves_the_rest_pending(monkeypatch, memo):
    monkeypatch.setattr(simnet, "DRAIN_CAP", 3)
    sim = Sim(FAULT_CONFIGS["honest"], two_commands("Q"), memo=TransitionMemo() if memo else None)
    traced, reference = sim.clone(), _reference(sim)
    traced.record_trace = True
    for twin in (sim, traced, reference):
        with pytest.raises(ScheduleError, match="did not quiesce"):
            twin.drain()
    assert sim.pending() == traced.pending() == reference.pending()
    assert traced.records == reference.records
    assert len(sim.pending()) > 0 and sim.seq_no == traced.seq_no == reference.seq_no == 3
