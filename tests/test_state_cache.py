"""Copy-on-write nodes and cached projections must be invisible.

Seeded random walks over enabled moves check, after every event, that the
cached state key and node digests equal the values recomputed with every
cache cleared, and that applying any enabled move to a clone leaves the
parent's key, digests and pending messages unchanged.
"""

import random

import pytest

from ezbft_lab.core import Command, Config
from ezbft_lab.explorer import ExploreBounds, _state_key, enabled_moves, extend_with_tail
from ezbft_lab.simnet import ADVERSARY, ScheduleError, Sim, WorkItem

CORRECT = Config(4, 1, ("R", "L", "Q", "T"))
BYZ = Config(
    4, 1, ("R", "L", "Q", "T"),
    byzantine_ids=frozenset({"T"}),
    faulty_client_ids=frozenset({"c1"}),
)
WALKS = 12
DEPTH = 14


def _two_commands(second_target):
    return (
        WorkItem("c1", Command("a", "c1", "k", "va"), "R"),
        WorkItem("c2", Command("b", "c2", "k", "vb"), second_target),
    )


def _view(sim, acted):
    return _state_key(sim, acted), sim.node_digests(), [e.id for e in sim.pending()]


def _uncached_view(sim, acted):
    """The same view from a clone whose caches are all cleared."""
    twin = sim.clone()
    twin._parts.clear()
    twin._digests.clear()
    twin._tokens.clear()
    return _view(twin, acted)


def _assert_coherent(sim, acted):
    assert _view(sim, acted) == _uncached_view(sim, acted)


@pytest.mark.parametrize(
    "config, second_target", [(CORRECT, "Q"), (BYZ, "T")], ids=["honest", "byzantine"]
)
def test_cached_keys_match_recomputation_and_clones_are_isolated(config, second_target):
    workload = _two_commands(second_target)
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
    faulty_kind = "adversary" if config.byzantine_ids else "timeout"
    assert {"deliver", "trigger_owner_change", faulty_kind} <= kinds


def test_a_parent_mutated_after_cloning_leaves_the_clone_alone(cfg):
    sim = Sim(cfg, _two_commands("Q"))
    twin = sim.clone()
    before = _view(twin, frozenset())
    moves = enabled_moves(sim, ExploreBounds(workload=sim.workload, max_events=4), frozenset())
    sim.apply(moves[0])
    assert _view(twin, frozenset()) == _uncached_view(twin, frozenset()) == before
    assert _view(sim, frozenset()) != before
