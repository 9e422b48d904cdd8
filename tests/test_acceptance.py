"""Acceptance gate: one test per shipped guarantee.

Each test prints a verdict line; the pytest -v listing is the per-criterion
pass/fail record. The heavyweight exploration runs and the four randomized
property suites (1000+ cases each) live here rather than in the unit
modules so their budgets are measured against the stated limits.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ezbft_lab.adversary import BYZ_HONEST, ByzantineChoice, apply_byzantine, honest_step
from ezbft_lab.checkers import Observations, check_liveness, run_checkers, verify_report
from ezbft_lab.cli import main
from ezbft_lab.core import (
    Command,
    InstanceId,
    OrderingTuple,
    canonical_json,
    interferes,
    json_fields,
)
from ezbft_lab.explorer import ExploreBounds, explore
from ezbft_lab.messages import (
    Commit,
    CommitCertificate,
    CommitFast,
    OwnerChangeVote,
    SpecOrder,
    SpecReply,
)
from ezbft_lab.owner_change import select_safe_tuple
from ezbft_lab.replica import SPECULATED, InstanceRecord, ReplicaState, on_client_request
from ezbft_lab.scenarios import (
    SCENARIO_NAMES,
    artifact_text,
    build_happy_path,
    build_scenario,
    golden_text,
)
from ezbft_lab.simnet import WorkItem, run

from shared import BYZ, CORRECT, two_commands

CHECKED = ("agreement", "validity", "liveness")

SUITE = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=list(HealthCheck),
)


def _verdict(criterion, text):
    print(f"[acceptance] {criterion}: PASS - {text}")


def _workload(*items):
    return tuple(WorkItem(c, cmd, t) for c, cmd, t in items)


def _one_command():
    return _workload(("c1", Command("a", "c1", "k", "va"), "R"))


def test_criterion_1_scripted_divergence_reproduces_in_under_a_second():
    start = time.monotonic()
    scenario = build_scenario("safety")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0

    agreement = [r for r in scenario.reports if r.property == "agreement"]
    assert len(agreement) == 1
    report = agreement[0]
    assert report.details == "instance R.0 committed as a[]@1 by R; a[T.0]@2 by L,Q"

    by_replica = {w["replica"]: w["tuple"] for w in report.witnesses}
    assert by_replica["R"]["deps"] == [] and by_replica["R"]["seq"] == 1
    for replica in ("L", "Q"):
        assert by_replica[replica]["deps"] == ["T.0"] and by_replica[replica]["seq"] == 2
    assert verify_report(report, Observations.from_sim(scenario.sim))
    assert main(["scenario", "safety"]) == 0
    _verdict("criterion 1", f"divergence scripted and checked in {elapsed:.3f}s")


def test_criterion_2_fault_free_run_violates_ordering_properties():
    scenario = build_scenario("exec-consistency")
    assert scenario.sim.cfg.byzantine_ids == frozenset()
    assert scenario.sim.cfg.faulty_client_ids == frozenset()

    by_property = {}
    for report in scenario.reports:
        by_property.setdefault(report.property, []).append(report)
    assert sorted(by_property) == ["dependency_inclusion", "execution_consistency"]
    assert all(len(reports) == 1 for reports in by_property.values())
    assert (
        by_property["dependency_inclusion"][0].details
        == "a@R.0 and b@Q.0 committed with neither depending on the other"
    )
    _verdict("criterion 2", "fault-free schedule yields both ordering violations")


def test_criterion_3_owner_change_dead_end_detected():
    scenario = build_scenario("liveness")
    conflict = scenario.sim.selection_log[-1]
    assert conflict["outcome"] == "conflict"
    assert conflict["instance"] == InstanceId("R", 0) and conflict["owner_number"] == 1
    assert conflict["tuple"].deps == frozenset() and conflict["tuple"].seq == 1
    assert conflict["second"].deps == {InstanceId("T", 0)} and conflict["second"].seq == 2

    liveness = check_liveness(Observations.from_sim(scenario.sim))
    assert liveness is not None
    assert liveness.details == (
        "commands never committed: b from c2; owner change for R.0 at number 1 "
        "found conflicting certified tuples a[]@1 vs a[T.0]@2 and no rule resolves them"
    )
    _verdict("criterion 3", "conflicting certified tuples leave the instance stuck")


def test_criterion_4_fast_path_commits_after_exactly_two_delivery_rounds():
    scenario = build_happy_path()
    hop_of = {}
    for item in scenario.schedule.workload:
        hop_of[f"{item.client}#0"] = (0, "request")
    for record in scenario.trace.records:
        for env in record["emitted"]:
            hop_of[env["id"]] = (env["hop"], env["payload"]["kind"])

    issuance = min(
        record["seq_no"]
        for record in scenario.trace.records
        if any(e["payload"]["kind"] == "commit_fast" for e in record["emitted"])
    )
    rounds = set()
    for record in scenario.trace.records:
        if record["seq_no"] > issuance or record["kind"] != "deliver":
            continue
        hop, kind = hop_of[record["event"]["message"]]
        if kind != "request":
            rounds.add(hop)
    # Proposals travel in round 1, replies in round 2, and nothing else
    # happens before the client issues the fast commit.
    assert rounds == {1, 2}

    commits = {(c["replica"], c["via"]) for c in scenario.sim.commit_log}
    assert commits == {(r, "fast") for r in CORRECT.replica_ids}
    assert all(c["seq_no"] > issuance for c in scenario.sim.commit_log)
    _verdict("criterion 4", "every replica commits right after the two-round fast path")


def test_criterion_5_honest_configurations_are_exhaustively_clean():
    start = time.monotonic()
    single = explore(
        CORRECT,
        ExploreBounds(workload=_one_command(), max_events=12),
        properties=CHECKED,
    )
    double = explore(
        CORRECT,
        ExploreBounds(workload=two_commands("Q"), max_events=8),
        properties=CHECKED,
    )
    elapsed = time.monotonic() - start

    for result in (single, double):
        assert result.exhausted
        assert result.violations == []
    assert elapsed < 600.0
    _verdict(
        "criterion 5",
        f"{single.states_visited + double.states_visited} states, "
        f"zero violations, exhausted, {elapsed:.1f}s",
    )


def test_criterion_6_exploration_rediscovers_the_scripted_violations():
    start = time.monotonic()

    dep = explore(
        CORRECT,
        ExploreBounds(workload=two_commands("Q"), max_events=10),
        properties=("dependency_inclusion",),
    )
    assert "dependency_inclusion" in dep.found_properties()

    byz = explore(
        BYZ,
        ExploreBounds(workload=two_commands("T"), max_events=14),
        properties=("agreement", "liveness"),
    )
    assert byz.found_properties() == ("agreement", "liveness")
    liveness_report = [r for r, _ in byz.violations if r.property == "liveness"][0]
    assert any("conflict" in w for w in liveness_report.witnesses), (
        "liveness rediscovery must witness an owner-change conflict"
    )

    for report, schedule in list(dep.violations) + list(byz.violations):
        sim, _ = run(schedule, record_trace=False)
        obs = Observations.from_sim(sim)
        replayed, _notes = run_checkers(obs, [report.property])
        assert [r.to_json() for r in replayed] == [report.to_json()]
        assert verify_report(report, obs)

    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    _verdict(
        "criterion 6",
        f"dependency omission, divergence, and dead end rediscovered in {elapsed:.1f}s",
    )


def test_criterion_7_runs_are_deterministic_and_goldens_stable():
    scenario = build_scenario("safety")
    _, first = run(scenario.schedule)
    _, second = run(scenario.schedule)
    assert first.serialize() == second.serialize()

    for name in SCENARIO_NAMES:
        fresh = build_scenario(name)
        for kind in ("schedule", "trace", "reports"):
            assert artifact_text(fresh, kind) == golden_text(name, kind)

    bounds = ExploreBounds(workload=two_commands("T"), max_events=14)
    once = explore(BYZ, bounds, properties=("agreement",))
    again = explore(BYZ, bounds, properties=("agreement",))
    assert [(r.to_json(), s.to_json()) for r, s in once.violations] == [
        (r.to_json(), s.to_json()) for r, s in again.violations
    ]
    _verdict("criterion 7", "byte-identical replays, stable goldens, stable search")


# --- criterion 8: randomized property suites, 1000+ cases each ---------------

_OWNERS = ("R", "L", "Q", "T")
_instance_ids = st.builds(InstanceId, st.sampled_from(_OWNERS), st.integers(0, 3))


@st.composite
def _log_with_deps(draw):
    """A replica log of distinct commands, and the entries among them that
    interfere with a new command on key ``k``."""
    instances = draw(st.lists(_instance_ids, max_size=8, unique=True))
    if instances:
        deps = draw(st.sets(st.sampled_from(instances)))
    else:
        deps = set()
    log = {}
    for n, inst in enumerate(instances):
        cmd = Command(f"x{n}", "c1", "k" if inst in deps else "other", "v")
        t = OrderingTuple(cmd, frozenset(), draw(st.integers(1, 40)))
        log[inst] = InstanceRecord(inst, t, 0, SPECULATED)
    return log, deps


@SUITE
@given(data=_log_with_deps())
def test_criterion_8a_sequence_numbers_dominate_dependencies(data):
    log, deps = data
    # Slots 0-3 may be taken by the drawn log; the proposal takes slot 4.
    state = ReplicaState("R", next_slot=4, log=dict(log))
    outputs, _effects = on_client_request(state, CORRECT, Command("a", "c2", "k", "v"))
    proposal = outputs[0][1].tuple
    assert proposal.deps == frozenset(deps)
    assert proposal.seq == max((log[d].tuple.seq for d in deps), default=0) + 1
    assert all(proposal.seq > log[d].tuple.seq for d in deps)


_commands = st.builds(
    Command,
    st.sampled_from(("a", "b", "c", "d", "e")),
    st.sampled_from(("c1", "c2")),
    st.sampled_from(("k1", "k2")),
    st.just("v"),
)


@SUITE
@given(a=_commands, b=_commands)
def test_criterion_8b_interference_is_symmetric(a, b):
    assert interferes(a, b) == interferes(b, a)
    assert interferes(a, b) == (a.id != b.id and a.key == b.key)


_INST = InstanceId("R", 0)
_CMD = Command("a", "c1", "k", "va")
_TUPLES = (
    OrderingTuple(_CMD, frozenset(), 1),
    OrderingTuple(_CMD, frozenset({InstanceId("T", 0)}), 2),
    OrderingTuple(_CMD, frozenset({InstanceId("T", 0), InstanceId("L", 0)}), 3),
)
_EVIDENCE_INSTANCES = (_INST, InstanceId("T", 0), InstanceId("L", 0))


def _suite_cert(t, number, inst):
    replies = tuple(SpecReply(s, "c1", inst, t, number, "") for s in ("R", "L", "Q"))
    return CommitCertificate("slow", replies)


@st.composite
def _vote_sets(draw):
    senders = draw(st.sampled_from((("R", "L", "Q"), ("R", "L", "Q", "T"))))
    votes = []
    for sender in senders:
        reply = None
        if draw(st.booleans()):
            reply = SpecReply(
                sender, "c1",
                draw(st.sampled_from(_EVIDENCE_INSTANCES)),
                draw(st.sampled_from(_TUPLES)),
                draw(st.sampled_from((0, 1))),
                "",
            )
        cert = None
        if draw(st.booleans()):
            cert = _suite_cert(
                draw(st.sampled_from(_TUPLES)),
                draw(st.sampled_from((0, 1))),
                draw(st.sampled_from(_EVIDENCE_INSTANCES)),
            )
        votes.append(OwnerChangeVote(sender, _INST, 1, reply and reply.tuple, reply, cert))
    return votes


@SUITE
@given(data=st.data(), votes=_vote_sets())
def test_criterion_8c_selection_is_permutation_invariant_and_deterministic(data, votes):
    baseline = select_safe_tuple(tuple(votes), CORRECT)
    assert select_safe_tuple(tuple(votes), CORRECT).to_json() == baseline.to_json()
    shuffled = data.draw(st.permutations(votes))
    assert select_safe_tuple(tuple(shuffled), CORRECT).to_json() == baseline.to_json()
    assert baseline.outcome in ("safe", "conflict", "no_candidate")


def _fast_cert(t, number, inst):
    replies = tuple(SpecReply(s, "c1", inst, t, number, "") for s in _OWNERS)
    return CommitCertificate("fast", replies)


@st.composite
def _inbox_items(draw):
    kind = draw(st.sampled_from(("spec_order", "commit_fast", "commit", "vote")))
    inst = draw(st.sampled_from(_EVIDENCE_INSTANCES))
    t = draw(st.sampled_from(_TUPLES))
    number = draw(st.sampled_from((0, 1, 3)))
    sender = draw(st.sampled_from(_OWNERS))
    if kind == "spec_order":
        payload = SpecOrder(inst, t, number, "c1")
    elif kind == "commit_fast":
        payload = CommitFast(inst, _fast_cert(t, number, inst))
    elif kind == "commit":
        cert = _suite_cert(t, number, inst)
        payload = Commit(inst, cert.vouched_tuple(), cert)
    else:
        reply = SpecReply(sender, "c1", inst, t, number, "")
        payload = OwnerChangeVote(sender, inst, number, t, reply, None)
    return sender, payload


def _snapshot(state):
    return canonical_json({
        "next_slot": state.next_slot,
        "log": {
            str(inst): {
                "tuple": rec.tuple.to_json(),
                "status": rec.status,
                "owner_number": rec.owner_number,
                "certified": rec.certificate is not None,
            }
            for inst, rec in state.log.items()
        },
        "owner_numbers": {str(i): n for i, n in state.owner_numbers.items()},
        "sent": {str(i): json_fields(r) for i, r in state.sent_replies.items()},
        "voted": sorted(f"{i}@{n}" for i, n in state.voted),
        "executed": list(state.executed),
        "kv": dict(state.kv),
    })


@SUITE
@given(items=st.lists(_inbox_items(), max_size=5))
def test_criterion_8d_honest_adversary_choices_match_a_correct_replica(items):
    correct = ReplicaState("T")
    expected = []
    for sender, payload in items:
        outputs, effects = honest_step(correct, BYZ, sender, payload)
        expected.append((outputs, effects))

    byz = ReplicaState("T", inbox=tuple(items))
    for i in range(len(items)):
        outputs, effects = apply_byzantine(byz, BYZ, ByzantineChoice(BYZ_HONEST, item=i))
        exp_outputs, exp_effects = expected[i]
        assert outputs == exp_outputs
        assert effects[1:] == exp_effects

    assert _snapshot(byz) == _snapshot(correct)


def test_criterion_8_suites_ran_at_full_width():
    assert SUITE.max_examples >= 1000
    _verdict("criterion 8", "four randomized property suites at 1000+ cases each")
