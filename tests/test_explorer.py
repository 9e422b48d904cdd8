"""Bounded exhaustive exploration and schedule minimization.

The heavyweight rediscovery runs (fault-free dependency omission, byzantine
divergence) live in the acceptance suite; these tests pin the fast cases
and the minimizer's contract.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

import ezbft_lab
from ezbft_lab import checkers
from ezbft_lab.checkers import Observations, run_checkers
from ezbft_lab.core import Command, Config, canonical_json
from ezbft_lab.explorer import (
    ExploreBounds,
    ExploreError,
    ExploreResult,
    explore,
    extend_with_tail,
    minimize,
)
from ezbft_lab.scenarios import build_scenario
from ezbft_lab.simnet import DELIVER, Event, Schedule, Sim, WorkItem, run

from shared import BYZ, CORRECT, FIXED_SEARCHES, two_commands


def _workload(*items):
    return tuple(WorkItem(c, cmd, t) for c, cmd, t in items)


def _one_command():
    return _workload(("c1", Command("a", "c1", "k", "va"), "R"))


def _replay_reports(schedule, properties):
    sim, _ = run(schedule, record_trace=False)
    reports, _notes = run_checkers(Observations.from_sim(sim), properties)
    return reports


def test_bounds_reject_negatives():
    with pytest.raises(ValueError):
        ExploreBounds(workload=(), max_events=-1)
    with pytest.raises(ValueError):
        ExploreBounds(workload=(), max_events=4, max_owner_changes_per_instance=-2)
    with pytest.raises(ValueError):
        ExploreBounds(workload=(), max_events=4, byzantine_branch_tuples=-1)
    with pytest.raises(ValueError):
        ExploreBounds(workload=(), max_events=4, max_states=-5)


def test_explore_rejects_unknown_properties():
    bounds = ExploreBounds(workload=_one_command(), max_events=2)
    with pytest.raises(ValueError):
        explore(CORRECT, bounds, properties=["agreement", "latency"])


@pytest.mark.parametrize("faulty", ["c9", "R"])
def test_explore_rejects_faulty_clients_without_a_workload_item(faulty):
    config = Config(4, 1, CORRECT.replica_ids, faulty_client_ids=frozenset({faulty}))
    with pytest.raises(ValueError, match=f"without a workload item: {faulty}"):
        explore(config, ExploreBounds(workload=two_commands("Q"), max_events=2))


def test_explore_rejects_workload_targets_that_are_not_replicas():
    workload = _workload(("c1", Command("a", "c1", "k", "va"), "c2"))
    with pytest.raises(ValueError, match="not replicas: c2"):
        explore(CORRECT, ExploreBounds(workload=workload, max_events=2))


def test_explore_rejects_workload_clients_that_are_replica_ids():
    workload = _workload(
        ("c1", Command("a", "c1", "k", "va"), "R"), ("L", Command("b", "L", "k", "vb"), "Q")
    )
    with pytest.raises(ValueError, match="workload clients that are replica ids: L"):
        explore(CORRECT, ExploreBounds(workload=workload, max_events=2))


def test_explore_rejects_an_empty_workload():
    with pytest.raises(ValueError, match="the workload has no commands"):
        explore(CORRECT, ExploreBounds(workload=(), max_events=3))


def test_explore_rejects_an_empty_property_list():
    """Nothing to check would make a clean verdict vacuous."""
    with pytest.raises(ValueError, match="no properties to check"):
        explore(CORRECT, ExploreBounds(workload=_one_command(), max_events=3), properties=())


def test_explore_reads_a_one_shot_property_iterable_once():
    """A generator of properties is read once, not once per property."""
    bounds = ExploreBounds(workload=two_commands("Q"), max_events=5)
    result = explore(CORRECT, bounds, (p for p in ["execution_consistency"]))
    assert result.found_properties() == ("execution_consistency",)


def test_explore_refuses_a_finding_whose_report_does_not_verify(monkeypatch):
    """A checker that cites a commit no replica made finds the violation,
    but its traced replay does not confirm the report: the search raises
    instead of returning the finding."""
    check = checkers.CHECKERS["execution_consistency"]

    def wrong_witness(obs):
        report = check(obs)
        if report is None:
            return None
        first = {**report.witnesses[0], "replica": "Z"}
        return dataclasses.replace(report, witnesses=(first,) + report.witnesses[1:])

    monkeypatch.setitem(checkers.CHECKERS, "execution_consistency", wrong_witness)
    bounds = ExploreBounds(workload=two_commands("Q"), max_events=5)
    with pytest.raises(ExploreError, match="execution_consistency report does not verify"):
        explore(CORRECT, bounds, ["execution_consistency"])


def test_explore_honest_small_run_is_clean_and_exhausted():
    bounds = ExploreBounds(workload=_one_command(), max_events=6)
    result = explore(CORRECT, bounds, properties=["agreement", "validity", "liveness"])
    assert result.exhausted
    assert result.violations == []
    assert result.states_visited > result.terminals_checked > 0


def test_explore_rediscovers_byzantine_divergence_and_dead_end():
    bounds = ExploreBounds(workload=two_commands("T"), max_events=14)
    result = explore(BYZ, bounds, properties=["agreement", "liveness"])

    assert result.found_properties() == ("agreement", "liveness")
    assert result.states_visited == 15  # the funnel is this tight
    by_prop = {report.property: (report, schedule) for report, schedule in result.violations}

    agreement, agreement_schedule = by_prop["agreement"]
    assert agreement.details == "instance R.0 committed as a[]@1 by R; a[T.0]@2 by L"
    assert len(agreement_schedule.events) <= 14

    liveness, liveness_schedule = by_prop["liveness"]
    assert liveness_schedule.tail_start is not None
    assert "no rule resolves them" in liveness.details


def test_minimized_schedules_replay_to_their_reports():
    bounds = ExploreBounds(workload=two_commands("T"), max_events=14)
    result = explore(BYZ, bounds, properties=["agreement", "liveness"])
    for report, schedule in result.violations:
        replayed = _replay_reports(schedule, [report.property])
        assert [r.to_json() for r in replayed] == [report.to_json()]


def test_explore_is_deterministic():
    bounds = ExploreBounds(workload=two_commands("T"), max_events=14)
    first = explore(BYZ, bounds, properties=["agreement", "liveness"])
    second = explore(BYZ, bounds, properties=["agreement", "liveness"])
    assert first.states_visited == second.states_visited
    assert [(r.to_json(), s.to_json()) for r, s in first.violations] == [
        (r.to_json(), s.to_json()) for r, s in second.violations
    ]


_SEARCH_IN_A_FRESH_PROCESS = """
import json
from ezbft_lab.core import Command, Config, canonical_json
from ezbft_lab.explorer import ExploreBounds, explore
from ezbft_lab.simnet import WorkItem

workload = (
    WorkItem("c1", Command("a", "c1", "k", "va"), "R"),
    WorkItem("c2", Command("b", "c2", "k", "vb"), "Q"),
)
bounds = ExploreBounds(workload=workload, max_events=7)
result = explore(Config(4, 1, ("R", "L", "Q", "T")), bounds, ["execution_consistency"]).to_json()
del result["elapsed_seconds"]
print(json.dumps({"salt": hash("R"), "result": result}, sort_keys=True))
"""


def test_search_outcome_does_not_depend_on_the_hash_seed():
    """State keys are Python hashes, and string hashes are salted per
    process: two processes with different seeds must prune the same states
    and find the same violation with the same minimized schedule."""
    src = os.path.dirname(os.path.dirname(ezbft_lab.__file__))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", _SEARCH_IN_A_FRESH_PROCESS],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append(json.loads(done.stdout))
    first, second = outputs
    assert first["salt"] != second["salt"]
    assert first["result"] == second["result"]
    assert first["result"]["states_deduped"] > 0
    assert [v["report"]["property"] for v in first["result"]["violations"]] == [
        "execution_consistency"
    ]


# Handler steps each fixed search looks up in its memo, computed or
# reused: the memo's policy decides the split, never the total.
STEPS_LOOKED_UP = {
    "honest-Q-5": 22932,
    "honest-T-5-all": 22932,
    "crit6-byz": 49,
    "honest-Q-7-exec": 13106,
}


@pytest.mark.parametrize("name", sorted(FIXED_SEARCHES))
def test_fixed_search_counters_and_findings(name):
    """A refactor that keeps behaviour keeps every counter of these searches,
    the transition memo's included."""
    config, target, max_events, properties, expected = FIXED_SEARCHES[name]
    result = explore(
        config, ExploreBounds(workload=two_commands(target), max_events=max_events), properties
    )
    assert (
        result.states_visited,
        result.states_deduped,
        result.terminals_checked,
        result.transitions_computed,
        result.transitions_reused,
        result.found_properties(),
        result.exhausted,
    ) == expected
    assert result.transitions_computed + result.transitions_reused == STEPS_LOOKED_UP[name]


# sha256 of the canonical JSON of each finding search's violations: every
# minimized schedule and report, in the order the search returns them.
# A terminal's tail events are rebuilt by replay only for a new finding,
# so these pin that the rebuilt schedules and their reports never drift.
FINDINGS_SHA256 = {
    "honest-T-5-all": "ef8822cca6deefdb2d67c7b1fbc72fa2db3c53422161a18c6d35faafbeb7d222",
    "honest-Q-7-exec": "fb561063098fe8a8f542e0f96e62cb0c974744876dadec7433739426135791fd",
    "crit6-byz": "7e93791fa4b6d2986500b7202509b27da7837ac024ec63b9cbb0d7e3656acaa3",
}


@pytest.mark.parametrize("name", sorted(FINDINGS_SHA256))
def test_fixed_search_findings_are_pinned(name):
    config, target, max_events, properties, _expected = FIXED_SEARCHES[name]
    result = explore(
        config, ExploreBounds(workload=two_commands(target), max_events=max_events), properties
    )
    text = canonical_json(result.to_json()["violations"])
    assert hashlib.sha256(text.encode()).hexdigest() == FINDINGS_SHA256[name]


def test_explore_early_stop_reports_not_exhausted():
    bounds = ExploreBounds(workload=two_commands("T"), max_events=14)
    result = explore(BYZ, bounds, properties=["agreement"])
    assert result.found_properties() == ("agreement",)
    assert not result.exhausted  # stopped as soon as the target was found


def test_explore_state_cap_aborts_without_claiming_exhaustion():
    bounds = ExploreBounds(workload=_one_command(), max_events=6, max_states=3)
    result = explore(CORRECT, bounds, properties=["agreement"])
    assert not result.exhausted
    assert result.states_visited <= 3


def test_explore_result_json_shape():
    result = explore(CORRECT, ExploreBounds(workload=_one_command(), max_events=1))
    data = result.to_json()
    assert set(data) >= {"states_visited", "violations", "exhausted"}
    assert data["exhausted"] is True


def test_minimize_scripted_divergence_is_no_longer_than_hand_built():
    scenario = build_scenario("safety")
    agreement = [r for r in scenario.reports if r.property == "agreement"][0]
    minimized, final = minimize(scenario.schedule, agreement)

    assert len(minimized.events) <= len(scenario.schedule.events)
    replayed = _replay_reports(minimized, ["agreement"])
    # Event indices shift when padding drops out; the verdict must not.
    assert [(r.property, r.details) for r in replayed] == [(agreement.property, agreement.details)]
    # The returned report is the one the minimized schedule replays to.
    assert replayed == [final]


def test_minimize_is_a_fixed_point():
    scenario = build_scenario("safety")
    agreement = [r for r in scenario.reports if r.property == "agreement"][0]
    once, once_report = minimize(scenario.schedule, agreement)
    twice, twice_report = minimize(once, agreement)
    assert twice.to_json() == once.to_json()
    assert twice_report == once_report


def test_minimize_strips_padding():
    scenario = build_scenario("exec-consistency")
    report = [r for r in scenario.reports if r.property == "dependency_inclusion"][0]
    sched = scenario.schedule
    pending = [e.id for e in scenario.sim.pending()]
    assert pending  # the scripted run leaves deliverable messages behind
    padded = Schedule(
        sched.config,
        sched.workload,
        sched.events + (Event(DELIVER, message=pending[0]),),
        sched.tail_start,
    )
    minimized, final = minimize(padded, report)
    assert len(minimized.events) < len(padded.events)
    replayed = _replay_reports(minimized, ["dependency_inclusion"])
    assert [(r.property, r.details) for r in replayed] == [(report.property, report.details)]
    assert replayed == [final]


def test_minimize_rejects_schedules_that_do_not_reproduce_the_report():
    safety = build_scenario("safety")
    liveness_report = [r for r in build_scenario("liveness").reports if r.property == "liveness"][0]
    with pytest.raises(ExploreError):
        minimize(safety.schedule, liveness_report)


def test_extend_with_tail_drives_a_prefix_to_quiescence():
    sim = Sim(CORRECT, _one_command())
    sim.apply(Event(DELIVER, message="c1#0"))
    tail = extend_with_tail(sim, ExploreBounds(workload=_one_command(), max_events=1))

    assert sim.tail_start == 1
    assert tail and sim.pending() == []
    commits = {(c["replica"], c["via"]) for c in sim.commit_log}
    assert commits == {(r, "fast") for r in CORRECT.replica_ids}
