"""The untraced synchronous tail must match delivering through ``apply``.

An untraced ``Sim.drain`` delivers from a FIFO and installs memoized steps
without building envelopes or records, and ``Sim.trigger`` does the same
for the tail's owner-change triggers. The reference is a traced twin of
the same state, whose ``extend_with_tail`` applies every event one at a
time through ``Sim.apply``. Both must choose the same events and end in
the same node states, inboxes, consumed sets, counters, seq number, logs,
an empty pending pool and the same checker reports. The comparison runs
on every terminal of small searches and after every step of seeded
walks, with and without a transition memo, over four fault configs.

With a shared memo both twins must also end on the very same canonical
node objects, unless the memo started over between their tails: its
identities stand for values, so after a start-over equal values may be
held by two objects.
"""

import random

import pytest

from ezbft_lab import explorer, simnet
from ezbft_lab.checkers import Observations, run_checkers
from ezbft_lab.core import Command, Config
from ezbft_lab.explorer import ExploreBounds, enabled_moves, explore, extend_with_tail
from ezbft_lab.simnet import ADVERSARY, ScheduleError, Sim, TransitionMemo, WorkItem

REPLICAS = ("R", "L", "Q", "T")
CONFIGS = {
    "honest": Config(4, 1, REPLICAS),
    "byzantine": Config(4, 1, REPLICAS, byzantine_ids=frozenset({"T"})),
    "faulty-client": Config(4, 1, REPLICAS, faulty_client_ids=frozenset({"c1"})),
    "both": Config(
        4, 1, REPLICAS, byzantine_ids=frozenset({"T"}), faulty_client_ids=frozenset({"c1"})
    ),
}
SEARCH_DEPTH = 4
WALKS = 6
WALK_DEPTH = 10


def _two_commands(second_target):
    return (
        WorkItem("c1", Command("a", "c1", "k", "va"), "R"),
        WorkItem("c2", Command("b", "c2", "k", "vb"), second_target),
    )


@pytest.fixture
def resets(monkeypatch):
    """A one-item list counting ``TransitionMemo`` start-overs."""
    count = [0]
    clear = TransitionMemo._clear

    def counting(memo):
        count[0] += 1
        clear(memo)

    monkeypatch.setattr(TransitionMemo, "_clear", counting)
    return count


def _without_memo(sim):
    """A twin of a memo Sim that delivers without the memo."""
    twin = sim.clone()
    twin._memo = None
    twin._canonical = frozenset()
    return twin


def _outcome(sim, events):
    reports, notes = run_checkers(Observations.from_sim(sim))
    return {
        "events": events,
        "replicas": {node: state.value() for node, state in sim.replicas.items()},
        "clients": {node: state.value() for node, state in sim.clients.items()},
        "inboxes": sim.inboxes,
        "consumed": sim.consumed,
        "counters": sim.counters,
        "seq_no": sim.seq_no,
        "tail_start": sim.tail_start,
        "commit_log": sim.commit_log,
        "selection_log": sim.selection_log,
        "pending": sim._pending,
        "reports": [report.to_json() for report in reports],
        "notes": notes,
    }


def _assert_tail_matches_apply(sim, bounds, lean_first, resets):
    """Run the tail on an untraced twin and on a traced twin of ``sim``.
    ``lean_first`` picks which runs first, so that with a shared memo each
    side also meets steps the memo does not hold yet. ``resets`` is the
    start-over counter of the ``resets`` fixture."""
    lean, traced = sim.clone(), sim.clone()
    traced.record_trace = True
    tails = {}
    before = resets[0]
    for twin in (lean, traced) if lean_first else (traced, lean):
        tails[id(twin)] = extend_with_tail(twin, bounds)
    lean_events = tails[id(lean)]
    assert _outcome(lean, lean_events) == _outcome(traced, tails[id(traced)])
    assert lean._pending == {} and lean.records == []
    assert len(traced.records) == len(lean_events)
    shared = resets[0] == before
    for node in lean._canonical:
        nodes = lean.clients if node in lean.clients else lean.replicas
        other = traced.clients if node in traced.clients else traced.replicas
        if shared:
            assert nodes[node] is other[node], node
        else:
            assert nodes[node].value() == other[node].value(), node
    return lean_events


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_search_terminal_tail_matches_apply(monkeypatch, resets, name):
    config = CONFIGS[name]
    bounds = ExploreBounds(workload=_two_commands("T"), max_events=SEARCH_DEPTH)
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
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_seeded_walk_tails_match_apply(resets, name, memo):
    config = CONFIGS[name]
    workload = _two_commands("T")
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
    sim = Sim(CONFIGS["honest"], _two_commands("Q"), memo=TransitionMemo() if memo else None)
    traced = sim.clone()
    traced.record_trace = True
    for twin in (sim, traced):
        with pytest.raises(ScheduleError, match="did not quiesce"):
            twin.drain()
    assert sim.pending() == traced.pending()
    assert len(sim.pending()) > 0 and sim.seq_no == traced.seq_no == 3
