"""The effects-only tail must match the event-building tail.

``Sim.drain`` delivers the oldest pending message through ``Sim.apply``,
one event at a time, traced or not, so the event-building tail
(``extend_with_tail``) is the reference. ``Sim.settle`` is the search's
fast path: it delivers from a FIFO of output batches and keeps only
effects. The tail runs three times from one state: through an untraced
and a traced event-building tail, and as the effects-only tail
(``extend_with_tail(..., events=False)``, which runs ``Sim.settle``) that
``explore`` runs at every terminal. All three must end in the same node
states (byzantine inboxes and consumed sets included), seq number, tail
start, logs, an empty pending pool and the same checker reports, and must
make the same memo lookups. The two event-building tails must also choose
the same events and counters, the traced one must record exactly those
events, and the effects-only tail must return one seq number per event.
The comparison runs on every terminal of small searches and after every
step of seeded walks, with and without a transition memo, over four fault
configs.

With a shared memo all three must also end on the very same canonical
node objects and look up the very same states, unless the memo started
over between their tails: its identities stand for values, so after a
start-over equal values may be held by two objects.
"""

import random

import pytest

from ezbft_lab import explorer, simnet
from ezbft_lab.checkers import Observations, run_checkers
from ezbft_lab.explorer import ExploreBounds, enabled_moves, explore, extend_with_tail
from ezbft_lab.simnet import ADVERSARY, ScheduleError, Sim, TransitionMemo

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


@pytest.fixture
def lookups(monkeypatch):
    """Every ``TransitionMemo.lookup`` call, as a ``(state, key)`` pair.
    Holding the states keeps their identities from being reused."""
    calls = []
    lookup = TransitionMemo.lookup

    def recording(memo, state, key):
        calls.append((state, key))
        return lookup(memo, state, key)

    monkeypatch.setattr(TransitionMemo, "lookup", recording)
    return calls


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


def _effects(sim):
    """What every tail, the effects-only one included, leaves behind."""
    reports, notes = run_checkers(Observations.from_sim(sim))
    return {
        "replicas": {node: state.value() for node, state in sim.replicas.items()},
        "clients": {node: state.value() for node, state in sim.clients.items()},
        "seq_no": sim.seq_no,
        "tail_start": sim.tail_start,
        "commit_log": sim.commit_log,
        "selection_log": sim.selection_log,
        "pending": sim._pending,
        "reports": [report.to_json() for report in reports],
        "notes": notes,
    }


def _outcome(sim, events):
    """What an event-building tail leaves behind."""
    return {"events": events, "counters": sim.counters, **_effects(sim)}


def _lookup_ids(calls, shared):
    """Memo lookups as comparable values: by identity while the memo kept
    its objects, else by the looked-up state's value and the key's head
    (the sender, or the event kind), since payload identities may differ."""
    if shared:
        return [(id(state), key) for state, key in calls]
    return [(state.value(), key[0]) for state, key in calls]


def _assert_tail_matches_apply(sim, bounds, lean_first, resets, lookups):
    """Run the tail on an untraced twin, a traced twin and an effects-only
    twin of ``sim``. ``lean_first`` picks the order, so that with a
    shared memo each side also meets steps the memo does not hold yet.
    ``resets`` and ``lookups`` are the fixtures of those names."""
    lean, traced, settled = sim.clone(), sim.clone(), sim.clone()
    traced.record_trace = True
    twins = (lean, traced, settled)
    tails, looked_up = {}, {}
    before = resets[0]
    lookups.clear()
    for twin in twins if lean_first else twins[::-1]:
        start = len(lookups)
        tails[id(twin)] = extend_with_tail(twin, bounds, events=twin is not settled)
        looked_up[id(twin)] = lookups[start:]
    lean_events = tails[id(lean)]
    expected = _outcome(lean, lean_events)
    assert _outcome(traced, tails[id(traced)]) == expected
    assert _effects(settled) == _effects(lean)
    assert lean._pending == {} and lean.records == [] and settled.records == []
    assert [record["event"] for record in traced.records] == [e.to_json() for e in lean_events]
    assert tails[id(settled)] == range(sim.seq_no, settled.seq_no)
    assert len(lean_events) == len(tails[id(settled)])
    shared = resets[0] == before
    for node in _canonical_nodes(lean):
        mine = lean.clients if node in lean.clients else lean.replicas
        for other in (traced, settled):
            theirs = other.clients if node in other.clients else other.replicas
            if shared:
                assert mine[node] is theirs[node], node
            else:
                assert mine[node].value() == theirs[node].value(), node
    expected_lookups = _lookup_ids(looked_up[id(lean)], shared)
    # One lookup per step of a correct node.
    assert len(expected_lookups) <= (0 if sim._memo is None else len(lean_events))
    for twin in twins:
        assert _lookup_ids(looked_up[id(twin)], shared) == expected_lookups
    lookups.clear()
    return lean_events


@pytest.mark.parametrize("name", sorted(FAULT_CONFIGS))
def test_every_search_terminal_tail_matches_apply(monkeypatch, resets, lookups, name):
    config = FAULT_CONFIGS[name]
    bounds = ExploreBounds(workload=two_commands("T"), max_events=SEARCH_DEPTH)
    checked, rebuilt = [0], [0]

    def checking_tail(sim, tail_bounds, *, events=True):
        if events:
            # A new finding's tail, rebuilt on a memo-free replay of its path.
            assert sim._memo is None and sim.tail_start is None
            rebuilt[0] += 1
            return extend_with_tail(sim, tail_bounds)
        for twin in (sim, _without_memo(sim)):
            _assert_tail_matches_apply(
                twin, tail_bounds, lean_first=checked[0] % 2 == 0, resets=resets, lookups=lookups
            )
        checked[0] += 1
        return extend_with_tail(sim, tail_bounds, events=False)

    monkeypatch.setattr(explorer, "extend_with_tail", checking_tail)
    result = explore(config, bounds)
    assert result.terminals_checked == checked[0] > 0
    assert rebuilt[0] <= len(result.violations)


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "plain"])
@pytest.mark.parametrize("name", sorted(FAULT_CONFIGS))
def test_seeded_walk_tails_match_apply(resets, lookups, name, memo):
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
                sim, bounds, lean_first=(seed + step) % 2 == 0, resets=resets, lookups=lookups
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
    traced, settled = sim.clone(), sim.clone()
    traced.record_trace = True
    for twin in (sim, traced):
        with pytest.raises(ScheduleError, match="did not quiesce"):
            twin.drain()
    assert sim.pending() == traced.pending() and len(sim.pending()) > 0
    assert sim.seq_no == traced.seq_no == len(traced.records) == 3
    # The effects-only drain stops at the same cap and seq number.
    with pytest.raises(ScheduleError, match="did not quiesce"):
        settled.settle()
    assert settled.seq_no == 3 and settled.commit_log == sim.commit_log


def test_an_effects_only_tail_refuses_a_traced_sim():
    workload = two_commands("Q")
    sim = Sim(FAULT_CONFIGS["honest"], workload, record_trace=True)
    bounds = ExploreBounds(workload=workload, max_events=SEARCH_DEPTH)
    with pytest.raises(ValueError, match="traced Sim"):
        extend_with_tail(sim, bounds, events=False)
    assert len(sim.pending()) == 2 and sim.seq_no == 0 and sim.records == []
