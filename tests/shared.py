"""Configs and the two-command workload that several test modules share."""

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
