"""Installed node states never change, so the forms cached on them are
invisible.

Seeded random walks over enabled moves check, after every event, that the
state key and node digests equal the values recomputed from fresh copies
of every node and envelope, and that applying any enabled move to a clone
leaves the parent's key, digests and pending messages unchanged, as must
running the event-building and the effects-only tail on a clone. The
walks, their tails and replays of the goldens also record every node
object a Sim holds around each event and each ``settle``, and require that
none of them ever changes.
"""

import dataclasses
import json
import random

import pytest

from ezbft_lab.explorer import ExploreBounds, _state_key, enabled_moves, extend_with_tail
from ezbft_lab.scenarios import SCENARIO_NAMES, golden_text
from ezbft_lab.simnet import ADVERSARY, Schedule, ScheduleError, Sim, run

from shared import BYZ, CORRECT, two_commands

WALKS = 12
DEPTH = 14


def _view(sim, acted):
    return _state_key(sim, acted), sim.node_digests(), [e.id for e in sim.pending()]


def _uncached_view(sim, acted):
    """The same view from a clone holding fresh copies of every node and
    pending payload, which carry no cached forms, JSON or hashes yet."""
    twin = sim.clone()
    twin.replicas = {node: state.clone() for node, state in twin.replicas.items()}
    twin.clients = {node: state.clone() for node, state in twin.clients.items()}
    twin._pending = {
        i: env._replace(payload=dataclasses.replace(env.payload))
        for i, env in twin._pending.items()
    }
    twin._pending_hash = None
    return _view(twin, acted)


class _Installed:
    """Every node state a Sim held before or after an event, with its value
    (a byzantine replica's inbox and consumed set included) when first
    seen. Holding each object keeps its id from being reused."""

    def __init__(self):
        self.seen = {}

    def record(self, sim):
        for obj in (*sim.replicas.values(), *sim.clients.values()):
            if id(obj) not in self.seen:
                self.seen[id(obj)] = (obj, obj.value())

    def assert_unchanged(self):
        changed = [obj for obj, snap in self.seen.values() if obj.value() != snap]
        assert not changed, f"{len(changed)} of {len(self.seen)} installed objects changed"


@pytest.fixture
def installed(monkeypatch):
    """Record the nodes of every Sim around every ``Sim.apply`` and every
    ``Sim.settle``, the one delivery loop that does not go through
    ``apply``."""
    log = _Installed()

    def recording(method):
        def wrapper(sim, *args):
            log.record(sim)
            try:
                return method(sim, *args)
            finally:
                log.record(sim)

        return wrapper

    for name in ("apply", "settle"):
        monkeypatch.setattr(Sim, name, recording(getattr(Sim, name)))
    return log


def _assert_coherent(sim, acted):
    assert _view(sim, acted) == _uncached_view(sim, acted)


@pytest.mark.parametrize(
    "config, second_target", [(CORRECT, "Q"), (BYZ, "T")], ids=["honest", "byzantine"]
)
def test_cached_keys_match_recomputation_and_clones_are_isolated(installed, config, second_target):
    workload = two_commands(second_target)
    bounds = ExploreBounds(workload=workload, max_events=DEPTH)
    kinds = set()
    for seed in range(WALKS):
        rng = random.Random(seed)
        sim = Sim(config, workload)
        acted: frozenset[str] = frozenset()
        _assert_coherent(sim, acted)
        for _step in range(DEPTH):
            moves = enabled_moves(sim, bounds, acted)
            if not moves:
                break
            before = _view(sim, acted)
            applied = []
            for move in moves:
                child = sim.clone()
                try:
                    child.apply(move)
                except ScheduleError:
                    continue
                assert _view(sim, acted) == before, move
                child_acted = acted
                if move.kind == ADVERSARY and move.node in config.faulty_client_ids:
                    child_acted = acted | {move.node}
                _assert_coherent(child, child_acted)
                applied.append((child, child_acted))
                kinds.add(move.kind)
            sim, acted = rng.choice(applied)

        before = _view(sim, acted)
        tail_sim = sim.clone()
        extend_with_tail(tail_sim, bounds)
        _assert_coherent(tail_sim, acted)
        assert _view(sim, acted) == before
        extend_with_tail(sim.clone(), bounds, events=False)
        assert _view(sim, acted) == before
    faulty_kind = "adversary" if config.byzantine_ids else "timeout"
    assert {"deliver", "trigger_owner_change", faulty_kind} <= kinds
    installed.assert_unchanged()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_replaying_a_golden_never_changes_an_installed_node(installed, name):
    schedule = Schedule.from_json(json.loads(golden_text(name, "schedule")))
    run(schedule)
    installed.assert_unchanged()
    assert len(installed.seen) > len(schedule.events)


def test_a_parent_mutated_after_cloning_leaves_the_clone_alone(cfg):
    sim = Sim(cfg, two_commands("Q"))
    twin = sim.clone()
    before = _view(twin, frozenset())
    moves = enabled_moves(sim, ExploreBounds(workload=sim.workload, max_events=4), frozenset())
    sim.apply(moves[0])
    assert _view(twin, frozenset()) == _uncached_view(twin, frozenset()) == before
    assert _view(sim, frozenset()) != before
