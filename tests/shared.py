"""Configs, the two-command workload, the fixed searches, fresh copies
of frozen values and the reference fingerprint that several test modules
share."""

import dataclasses
from collections import Counter

from ezbft_lab.client import ClientState
from ezbft_lab.core import Command, Config
from ezbft_lab.simnet import WorkItem

CORRECT = Config(4, 1, ("R", "L", "Q", "T"))
BYZ = Config(
    4, 1, ("R", "L", "Q", "T"),
    byzantine_ids=frozenset({"T"}),
    faulty_client_ids=frozenset({"c1"}),
)
# The four fault configs: none, a byzantine replica T, a faulty client c1,
# and both.
FAULT_CONFIGS = {
    "honest": CORRECT,
    "byzantine": Config(4, 1, ("R", "L", "Q", "T"), byzantine_ids=frozenset({"T"})),
    "faulty-client": Config(4, 1, ("R", "L", "Q", "T"), faulty_client_ids=frozenset({"c1"})),
    "both": BYZ,
}


def two_commands(second_target):
    """c1 sends ``a`` to R and c2 sends ``b`` to ``second_target``, both on
    key ``k``, so the two commands interfere."""
    return (
        WorkItem("c1", Command("a", "c1", "k", "va"), "R"),
        WorkItem("c2", Command("b", "c2", "k", "vb"), second_target),
    )


# Fixed searches (BENCH_5.json): config, second target, max_events,
# properties (None for all), then states visited, deduped and terminals
# checked, transitions computed and reused, found properties, exhausted.
FIXED_SEARCHES = {
    "honest-Q-5": (
        CORRECT, "Q", 5, ("agreement", "validity", "liveness"),
        (837, 1086, 606, 1357, 21575, (), True),
    ),
    "honest-T-5-all": (
        CORRECT, "T", 5, None,
        (837, 1086, 606, 1398, 21534, ("dependency_inclusion", "execution_consistency"), True),
    ),
    "crit6-byz": (
        BYZ, "T", 14, ("agreement", "liveness"),
        (15, 0, 1, 13, 36, ("agreement", "liveness"), False),
    ),
    "honest-Q-7-exec": (
        CORRECT, "Q", 7, ("execution_consistency",),
        (362, 324, 302, 426, 12680, ("execution_consistency",), False),
    ),
}


def fresh_copy(value):
    """An equal copy rebuilt from scratch, so no part of it carries a
    cached hash, cached JSON or cached verdict."""
    if dataclasses.is_dataclass(value):
        return type(value)(
            **{f.name: fresh_copy(getattr(value, f.name)) for f in dataclasses.fields(value)}
        )
    if isinstance(value, tuple):
        items = [fresh_copy(item) for item in value]
        # A named tuple, such as an instance id, stays one.
        return type(value)(*items) if hasattr(value, "_fields") else tuple(items)
    if isinstance(value, frozenset):
        return frozenset(fresh_copy(item) for item in value)
    return value


def _multiset(items):
    return frozenset(Counter(items).items())


def reference_fingerprint(sim):
    """A state's search identity as an exact value, the form the 64-bit
    state key compacts: every node's ``value()`` and the pending pool as a
    multiset of ``(sender, recipient, payload)``, without envelope ids or
    hops. A client's received replies and a byzantine replica's inbox of
    ``(sender, payload, consumed)`` are multisets too."""
    parts = []
    for state in (*sim.replicas.values(), *sim.clients.values()):
        value = state.value()
        if isinstance(state, ClientState):
            value = value[:-1] + (_multiset(state.received),)
        elif state.inbox:
            consumed = state.consumed
            inbox = _multiset((s, p, i in consumed) for i, (s, p) in enumerate(state.inbox))
            value = value[:-2] + (inbox,)
        parts.append(value)
    return tuple(parts), _multiset(env[1:4] for env in sim.pending())
