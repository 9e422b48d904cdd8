"""State deduplication must not change what a search finds.

Each case runs ``explore`` twice at small bounds: once as is, and once
with deduplication off, by giving every state a fresh key. Both runs must
report the same properties.
"""

import itertools

import pytest

from ezbft_lab import explorer
from ezbft_lab.core import Command, Config
from ezbft_lab.explorer import ExploreBounds, explore
from ezbft_lab.simnet import WorkItem

CORRECT = Config(4, 1, ("R", "L", "Q", "T"))
BYZ = Config(
    4, 1, ("R", "L", "Q", "T"),
    byzantine_ids=frozenset({"T"}),
    faulty_client_ids=frozenset({"c1"}),
)
HISTORY_PROPERTIES = ("agreement", "validity", "liveness")


def _two_commands(second_target):
    return (
        WorkItem("c1", Command("a", "c1", "k", "va"), "R"),
        WorkItem("c2", Command("b", "c2", "k", "vb"), second_target),
    )


def _found_with_and_without_dedup(monkeypatch, config, bounds, properties):
    with_dedup = explore(config, bounds, properties)
    fresh = itertools.count()
    with monkeypatch.context() as patch:
        patch.setattr(explorer, "_state_key", lambda _sim, _acted: str(next(fresh)))
        without = explore(config, bounds, properties)
    assert with_dedup.exhausted and without.exhausted
    assert without.states_deduped == 0
    return with_dedup.found_properties(), without.found_properties()


@pytest.mark.parametrize(
    "config, second_target, max_events",
    [(CORRECT, "Q", 4), (BYZ, "T", 5)],
    ids=["honest", "byzantine"],
)
def test_dedup_keeps_agreement_validity_and_liveness_findings(
    monkeypatch, config, second_target, max_events
):
    bounds = ExploreBounds(workload=_two_commands(second_target), max_events=max_events)
    with_dedup, without = _found_with_and_without_dedup(
        monkeypatch, config, bounds, HISTORY_PROPERTIES
    )
    assert with_dedup == without


@pytest.mark.xfail(
    strict=True,
    reason=(
        "dedup is unsound for the ordering properties: four prefixes reach one "
        "fingerprint with no commits, and only the one that delivers c2#0 first "
        "violates, because the synchronous tail drains pending messages in "
        "emission order and the fingerprint sorts that order away"
    ),
)
def test_dedup_keeps_ordering_findings(monkeypatch):
    bounds = ExploreBounds(workload=_two_commands("Q"), max_events=4)
    with_dedup, without = _found_with_and_without_dedup(monkeypatch, CORRECT, bounds, None)
    assert without == ("dependency_inclusion", "execution_consistency")
    assert with_dedup == without
