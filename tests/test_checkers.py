"""Property checkers over run observations: positives, negatives, and the
report verifier. Scenario-independent cases build observations by hand."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezbft_lab.adversary import (
    BYZ_EQUIVOCATE_SPEC_ORDER,
    FAULTY_SELECTIVE,
    ByzantineChoice,
    FaultyClientChoice,
)
from ezbft_lab.checkers import (
    _AGREEMENT_FIELDS,
    _CONFLICT_FIELDS,
    _PAIR_FIELDS,
    _VALIDITY_FIELDS,
    CHECKER_ORDER,
    Observations,
    PreconditionUnmet,
    ViolationReport,
    check_agreement,
    check_dependency_inclusion,
    check_execution_consistency,
    check_liveness,
    check_validity,
    run_checkers,
    verify_report,
)
from ezbft_lab.core import Command, Config, InstanceId, OrderingTuple, cached_call
from ezbft_lab.explorer import ExploreBounds, enabled_moves, extend_with_tail
from ezbft_lab.messages import CommitCertificate, NewOwner
from ezbft_lab.owner_change import _proof_verdict
from ezbft_lab.scenarios import SCENARIO_NAMES, build_happy_path, build_scenario, golden_text
from ezbft_lab.simnet import (
    ADVERSARY,
    DELIVER,
    Event,
    Schedule,
    ScheduleError,
    Sim,
    Trace,
    WorkItem,
    run,
)

from shared import FAULT_CONFIGS, fresh_copy, two_commands


def _tuple(cmd, deps, seq):
    return OrderingTuple(cmd, frozenset(InstanceId.parse(d) for d in deps), seq)


def _commit(replica, instance, cmd, deps, seq, seq_no=0):
    return {
        "type": "commit",
        "replica": replica,
        "instance": InstanceId.parse(instance),
        "tuple": _tuple(cmd, deps, seq),
        "owner_number": 0,
        "via": "fast",
        "seq_no": seq_no,
    }


def _obs(cfg, workload, commits, selections=(), executed=None, tail_start=None, pending=0):
    return Observations(
        config=cfg,
        workload=workload,
        commits=list(commits),
        selections=list(selections),
        final_executed=executed or {},
        tail_start=tail_start,
        pending_count=pending,
    )


# Every commit and selection field a checker or a witness reads.
_COMMIT_READ = ("seq_no",) + _AGREEMENT_FIELDS + _VALIDITY_FIELDS + _PAIR_FIELDS
_SELECTION_READ = ("outcome", "seq_no") + _CONFLICT_FIELDS


def _assert_same_observations(from_sim, from_trace):
    """The two extraction paths agree on every record field the checkers
    read, value for value, and on each replica's final execution order."""
    for records, fields in (("commits", _COMMIT_READ), ("selections", _SELECTION_READ)):
        read = [
            [{key: record[key] for key in fields} for record in getattr(obs, records)]
            for obs in (from_sim, from_trace)
        ]
        assert read[0] == read[1], records
    for replica in from_sim.config.replica_ids:
        executed = [obs.final_executed.get(replica, []) for obs in (from_sim, from_trace)]
        assert executed[0] == executed[1], replica


def test_scenario_observations_match_between_sim_and_trace():
    for name in ("safety", "exec-consistency", "liveness"):
        scenario = build_scenario(name)
        from_sim = Observations.from_sim(scenario.sim)
        from_trace = Observations.from_trace(scenario.trace)
        _assert_same_observations(from_sim, from_trace)
        assert from_sim.commits and from_sim.final_executed
        sim_reports, sim_notes = run_checkers(from_sim)
        trace_reports, trace_notes = run_checkers(from_trace)
        assert [r.to_json() for r in sim_reports] == [r.to_json() for r in trace_reports]
        assert sim_notes == trace_notes
        assert from_sim.pending_count == from_trace.pending_count


def test_agreement_fires_only_on_divergent_commits(cfg, cmd_a, cmd_b):
    workload = (WorkItem("c1", cmd_a, "R"),)
    agree = _obs(cfg, workload, [
        _commit("R", "R.0", cmd_a, [], 1),
        _commit("L", "R.0", cmd_a, [], 1),
    ])
    assert check_agreement(agree) is None

    disagree = _obs(cfg, workload, [
        _commit("R", "R.0", cmd_a, [], 1),
        _commit("L", "R.0", cmd_a, ["T.0"], 2),
    ])
    report = check_agreement(disagree)
    assert report is not None and report.property == "agreement"
    assert "R.0" in report.details


def test_agreement_ignores_byzantine_commits(byz_cfg, cmd_a):
    workload = (WorkItem("c1", cmd_a, "R"),)
    obs = _obs(byz_cfg, workload, [
        _commit("R", "R.0", cmd_a, [], 1),
        _commit("T", "R.0", cmd_a, ["T.0"], 2),  # byzantine; does not count
    ])
    assert check_agreement(obs) is None


def test_validity_flags_unproposed_commands(cfg, cmd_a):
    ghost = Command("zz", "c9", "k", "vz")
    obs = _obs(cfg, (WorkItem("c1", cmd_a, "R"),), [_commit("R", "R.0", ghost, [], 1)])
    report = check_validity(obs)
    assert report is not None
    assert report.details == "unproposed commands committed: zz"


GHOST = Command("g", "c1", "k", "vg")


def _fabricated_proposal(byz_cfg, cmd_a):
    """A byzantine owner proposes a command no client sent; a faulty client
    packages the resulting unanimous replies and commits it at one replica.
    Returns the Sim and the schedule of the events applied to it."""
    workload = (WorkItem("c1", cmd_a, "R"),)
    sim = Sim(byz_cfg, workload)
    events = []

    def apply(event):
        events.append(event)
        sim.apply(event)

    fabricated = OrderingTuple(GHOST, frozenset(), 1)
    apply(Event(ADVERSARY, node="T", choice=ByzantineChoice(
        BYZ_EQUIVOCATE_SPEC_ORDER, branches=(fabricated,))))
    while True:
        proto = [e for e in sim.pending() if e.payload.kind != "request"]
        if not proto:
            break
        apply(Event(DELIVER, message=proto[0].id))

    received = sim.clients["c1"].received
    assert len(received) == 4  # three honest acceptances plus T's own reply
    cert = CommitCertificate("fast", tuple(sorted(received, key=lambda r: r.sender)))
    apply(Event(ADVERSARY, node="c1", choice=FaultyClientChoice(
        FAULTY_SELECTIVE, "g", certificates=((cert, ("R",)),))))
    commit_env = [e for e in sim.pending() if e.payload.kind == "commit_fast"][0]
    apply(Event(DELIVER, message=commit_env.id))
    return sim, Schedule(byz_cfg, workload, tuple(events))


def test_validity_violation_from_a_fabricated_proposal(byz_cfg, cmd_a):
    sim, _schedule = _fabricated_proposal(byz_cfg, cmd_a)
    report = check_validity(Observations.from_sim(sim))
    assert report is not None
    assert report.details == "unproposed commands committed: g"
    assert report.witnesses[0]["replica"] == "R"


def test_dependency_inclusion_needs_one_direction(cfg, cmd_a, cmd_b):
    workload = (WorkItem("c1", cmd_a, "R"), WorkItem("c2", cmd_b, "Q"))
    covered = _obs(cfg, workload, [
        _commit("R", "R.0", cmd_a, [], 1),
        _commit("R", "Q.0", cmd_b, ["R.0"], 2),
    ])
    assert check_dependency_inclusion(covered) is None

    uncovered = _obs(cfg, workload, [
        _commit("R", "R.0", cmd_a, [], 1),
        _commit("R", "Q.0", cmd_b, [], 1),
    ])
    report = check_dependency_inclusion(uncovered)
    assert report is not None
    assert report.details == (
        "a@R.0 and b@Q.0 committed with neither depending on the other"
    )


def test_dependency_inclusion_ignores_unrelated_keys(cfg, cmd_a):
    other = Command("x", "c2", "elsewhere", "vx")
    workload = (WorkItem("c1", cmd_a, "R"), WorkItem("c2", other, "Q"))
    obs = _obs(cfg, workload, [
        _commit("R", "R.0", cmd_a, [], 1),
        _commit("R", "Q.0", other, [], 1),
    ])
    assert check_dependency_inclusion(obs) is None


def test_execution_consistency_reports_diverging_orders(cfg, cmd_a, cmd_b):
    workload = (WorkItem("c1", cmd_a, "R"), WorkItem("c2", cmd_b, "Q"))
    obs = _obs(
        cfg, workload,
        [
            _commit("R", "R.0", cmd_a, ["Q.0"], 2),
            _commit("R", "Q.0", cmd_b, ["R.0"], 2),
        ],
        executed={"R": ["a", "b"], "L": ["b", "a"], "Q": ["a", "b"]},
    )
    report = check_execution_consistency(obs)
    assert report is not None
    assert "diverging orders" in report.details
    assert "L ran b<a" in report.details


def test_execution_consistency_flags_unconstrained_pairs(cfg, cmd_a, cmd_b):
    workload = (WorkItem("c1", cmd_a, "R"), WorkItem("c2", cmd_b, "Q"))
    obs = _obs(
        cfg, workload,
        [
            _commit("R", "R.0", cmd_a, [], 1),
            _commit("R", "Q.0", cmd_b, [], 1),
        ],
        executed={"R": ["a", "b"], "L": ["a", "b"]},
    )
    report = check_execution_consistency(obs)
    assert report is not None
    assert "execution order is unconstrained" in report.details


def _conflict_selection(seq_no, leader="L"):
    cmd = Command("a", "c1", "k", "va")
    return {
        "type": "selection",
        "leader": leader,
        "outcome": "conflict",
        "instance": InstanceId("R", 0),
        "owner_number": 1,
        "tuple": _tuple(cmd, [], 1),
        "second": _tuple(cmd, ["T.0"], 2),
        "condition": None,
        "candidates": (),
        "seq_no": seq_no,
    }


def test_liveness_requires_a_synchronous_tail(cfg, cmd_a):
    obs = _obs(cfg, (WorkItem("c1", cmd_a, "R"),), [], tail_start=None)
    with pytest.raises(PreconditionUnmet):
        check_liveness(obs)
    obs = _obs(cfg, (WorkItem("c1", cmd_a, "R"),), [], tail_start=0, pending=2)
    with pytest.raises(PreconditionUnmet):
        check_liveness(obs)


def test_liveness_needs_both_a_stuck_command_and_a_tail_conflict(cfg, cmd_a, cmd_b):
    workload = (WorkItem("c1", cmd_a, "R"), WorkItem("c2", cmd_b, "T"))
    stuck_only = _obs(cfg, workload, [_commit("R", "R.0", cmd_a, [], 1)], tail_start=5)
    assert check_liveness(stuck_only) is None

    pre_tail_conflict = _obs(
        cfg, workload, [_commit("R", "R.0", cmd_a, [], 1)],
        selections=[_conflict_selection(seq_no=3)], tail_start=5,
    )
    assert check_liveness(pre_tail_conflict) is None

    real = _obs(
        cfg, workload, [_commit("R", "R.0", cmd_a, [], 1)],
        selections=[_conflict_selection(seq_no=7)], tail_start=5,
    )
    report = check_liveness(real)
    assert report is not None
    assert report.details.startswith("commands never committed: b from c2")


def test_liveness_ignores_conflicts_seen_by_byzantine_leaders(byz_cfg, cmd_a, cmd_b):
    workload = (WorkItem("c2", cmd_b, "T"),)
    obs = _obs(
        byz_cfg, workload, [],
        selections=[_conflict_selection(seq_no=7, leader="T")], tail_start=5,
    )
    assert check_liveness(obs) is None


def test_divergent_history_with_a_clean_tail_is_not_a_liveness_violation():
    """An agreement violation alone must not drag liveness down: replaying
    the divergence schedule and then running the synchronous tail commits
    what can commit, leaving no owner-change dead end."""
    scenario = build_scenario("safety")
    sim, _ = run(scenario.schedule, record_trace=False)
    from ezbft_lab.explorer import ExploreBounds
    extend_with_tail(sim, ExploreBounds(workload=scenario.schedule.workload, max_events=0))

    obs = Observations.from_sim(sim)
    assert obs.pending_count == 0
    assert check_liveness(obs) is None
    assert check_agreement(obs) is not None  # history still shows divergence


def test_happy_path_is_clean_under_every_checker():
    scenario = build_happy_path()
    obs = Observations.from_sim(scenario.sim)
    reports, _notes = run_checkers(obs)
    assert reports == []


def test_run_checkers_rejects_unknown_properties(cfg, cmd_a):
    obs = _obs(cfg, (WorkItem("c1", cmd_a, "R"),), [])
    with pytest.raises(ValueError):
        run_checkers(obs, ["agreement", "latency"])


def test_run_checkers_orders_reports_canonically():
    scenario = build_scenario("liveness")
    reports, _ = run_checkers(Observations.from_sim(scenario.sim))
    names = [r.property for r in reports]
    assert names == sorted(names, key=CHECKER_ORDER.index)
    assert names == ["agreement", "liveness"]


def test_liveness_precondition_becomes_a_note(cfg, cmd_a):
    obs = _obs(cfg, (WorkItem("c1", cmd_a, "R"),), [], tail_start=None)
    reports, notes = run_checkers(obs, ["liveness"])
    assert reports == []
    assert len(notes) == 1 and notes[0].startswith("liveness: precondition unmet")


def test_verify_report_confirms_scenario_reports_and_rejects_tampering():
    for name in ("safety", "exec-consistency", "liveness"):
        scenario = build_scenario(name)
        obs = Observations.from_sim(scenario.sim)
        for report in scenario.reports:
            assert verify_report(report, obs)

    scenario = build_scenario("safety")
    obs = Observations.from_sim(scenario.sim)
    genuine = scenario.reports[0]
    tampered_witness = dict(genuine.witnesses[0])
    tampered_witness["replica"] = "T"
    tampered = ViolationReport(
        genuine.property,
        (tampered_witness,) + genuine.witnesses[1:],
        genuine.trace_slice,
        genuine.details,
    )
    assert not verify_report(tampered, obs)


def _golden_reports(tmp_path):
    """(scenario, report, observations of its golden trace) for every
    golden report."""
    out = []
    for name in SCENARIO_NAMES:
        path = tmp_path / f"{name}.trace.jsonl"
        path.write_text(golden_text(name, "trace"), encoding="utf-8")
        obs = Observations.from_trace(Trace.read(str(path)))
        reports = json.loads(golden_text(name, "reports"))["reports"]
        assert reports
        out += [(name, ViolationReport.from_json(data), obs) for data in reports]
    return out


def test_verify_report_confirms_every_golden_report(tmp_path):
    for name, report, obs in _golden_reports(tmp_path):
        assert verify_report(report, obs), (name, report.property)


def _span(witnesses):
    seq_nos = sorted(w["seq_no"] for w in witnesses if "seq_no" in w)
    return (seq_nos[0], seq_nos[-1]) if seq_nos else None


def _with_witness(report, index, **changes):
    """The report with one witness changed and its trace slice still the
    span of its witnesses, so that only the witness itself can fail."""
    witnesses = list(report.witnesses)
    witnesses[index] = {**witnesses[index], **changes}
    return ViolationReport(report.property, tuple(witnesses), _span(witnesses), report.details)


@pytest.mark.parametrize(
    "field, value", [("seq_no", 999), ("seq_no", 0), ("owner_number", 7), ("via", "fast")]
)
def test_verify_report_checks_every_commit_field_a_witness_names(tmp_path, field, value):
    checked = 0
    for name, report, obs in _golden_reports(tmp_path):
        for index, w in enumerate(report.witnesses):
            if "tuple" not in w or w.get(field, value) == value:
                continue
            tampered = _with_witness(report, index, **{field: value})
            assert not verify_report(tampered, obs), (name, report.property, index)
            checked += 1
    assert checked >= 3


def test_verify_report_rejects_a_trace_slice_that_is_not_the_witness_span(tmp_path):
    for name, report, obs in _golden_reports(tmp_path):
        assert report.trace_slice == _span(report.witnesses)
        for trace_slice in ((0, 0), None, (report.trace_slice or (0, 0))[::-1]):
            if trace_slice != report.trace_slice:
                moved = dataclasses.replace(report, trace_slice=trace_slice)
                assert not verify_report(moved, obs), (name, report.property, trace_slice)


def test_verify_report_checks_pair_witnesses(cfg, cmd_a, cmd_b):
    workload = (WorkItem("c1", cmd_a, "R"), WorkItem("c2", cmd_b, "Q"))
    uncovered = _obs(cfg, workload, [
        _commit("R", "R.0", cmd_a, [], 1),
        _commit("R", "Q.0", cmd_b, [], 1),
    ])
    for check in (check_dependency_inclusion, check_execution_consistency):
        report = check(uncovered)
        assert verify_report(report, uncovered)
        # A witness that is no correct replica's commit.
        assert not verify_report(_with_witness(report, 0, replica="L"), uncovered)
        # A witness whose command is not the committed tuple's.
        assert not verify_report(_with_witness(report, 1, command="a"), uncovered)
        # An odd witness count is no list of pairs. (Here and below, (0, 0)
        # is the span of the witnesses' seq numbers.)
        assert not verify_report(
            ViolationReport(report.property, report.witnesses[:1], (0, 0), ""), uncovered
        )
        # Every witness is a real commit, but another commit of b cites R.0.
        covered = _obs(cfg, workload, uncovered.commits + [_commit("L", "Q.0", cmd_b, ["R.0"], 2)])
        assert not verify_report(report, covered)

    other = Command("x", "c2", "elsewhere", "vx")
    apart = _obs(cfg, (WorkItem("c1", cmd_a, "R"), WorkItem("c2", other, "Q")), [
        _commit("R", "R.0", cmd_a, [], 1),
        _commit("R", "Q.0", other, [], 1),
    ])
    non_interfering = tuple(
        {
            "command": c["tuple"].command.id,
            "replica": c["replica"],
            "instance": str(c["instance"]),
            "tuple": c["tuple"].to_json(),
            "seq_no": c["seq_no"],
        }
        for c in apart.commits
    )
    forged = ViolationReport("dependency_inclusion", non_interfering, (0, 0), "")
    assert not verify_report(forged, apart)


def test_verify_report_checks_divergence_witnesses(cfg, cmd_a, cmd_b):
    workload = (WorkItem("c1", cmd_a, "R"), WorkItem("c2", cmd_b, "Q"))
    commits = [
        _commit("R", "R.0", cmd_a, ["Q.0"], 2),
        _commit("R", "Q.0", cmd_b, ["R.0"], 2),
    ]
    obs = _obs(cfg, workload, commits, executed={"R": ["a", "b"], "L": ["b", "a"]})
    report = check_execution_consistency(obs)
    assert [w["order"] for w in report.witnesses] == ["b<a", "a<b"]
    assert verify_report(report, obs)
    # An order the replica did not execute.
    assert not verify_report(_with_witness(report, 0, order="a<b"), obs)
    # Witnesses that agree show no divergence.
    agreeing = _obs(cfg, workload, commits, executed={"R": ["a", "b"], "L": ["a", "b"]})
    assert not verify_report(_with_witness(report, 0, order="a<b"), agreeing)
    # A pair that never committed.
    assert not verify_report(_with_witness(report, 1, pair=["a", "z"]), obs)
    # Divergence witnesses cite no seq number, so there is no trace slice.
    assert not verify_report(dataclasses.replace(report, trace_slice=(0, 0)), obs)


def test_verify_report_checks_validity_witnesses(byz_cfg, cmd_a):
    sim, schedule = _fabricated_proposal(byz_cfg, cmd_a)
    report = check_validity(Observations.from_sim(sim))
    _sim, trace = run(schedule, record_trace=True)
    obs = Observations.from_trace(trace)
    assert verify_report(report, obs)
    # The same commit, but g is now a proposed command.
    proposing = dataclasses.replace(obs, workload=obs.workload + (WorkItem("c1", GHOST, "R"),))
    assert not verify_report(report, proposing)
    # A witness that is no correct replica's commit: L never committed g,
    # and T's commits do not count.
    assert not verify_report(_with_witness(report, 0, replica="L"), obs)
    assert not verify_report(_with_witness(report, 0, replica="T"), obs)


def _golden_liveness(tmp_path):
    """The liveness golden's liveness report and the observations of its
    golden trace."""
    path = tmp_path / "liveness.trace.jsonl"
    path.write_text(golden_text("liveness", "trace"), encoding="utf-8")
    obs = Observations.from_trace(Trace.read(str(path)))
    reports = json.loads(golden_text("liveness", "reports"))["reports"]
    data = next(d for d in reports if d["property"] == "liveness")
    return ViolationReport.from_json(data), obs


def _witnesses(report, witnesses):
    return ViolationReport(report.property, tuple(witnesses), report.trace_slice, report.details)


def _rewritten_conflict(stuck, conflict):
    moved = {**conflict["conflict"], "leader": "T", "instance": "Q.7"}
    return [stuck, {"conflict": moved, "seq_no": 0}]


@pytest.mark.parametrize(
    "tamper",
    [
        lambda stuck, conflict: [stuck],
        _rewritten_conflict,
        lambda stuck, conflict: [stuck, {**conflict, "seq_no": conflict["seq_no"] + 1}],
        lambda stuck, conflict: [{**stuck, "client": "c1"}, conflict],
        lambda stuck, conflict: [stuck, conflict, {"note": "neither kind"}],
        lambda stuck, conflict: [conflict],
        lambda stuck, conflict: [{"stuck_command": "a", "client": "c1"}, conflict],
    ],
    ids=[
        "no-conflict-witness",
        "conflict-of-no-selection",
        "conflict-at-another-seq-no",
        "stuck-command-of-a-faulty-client",
        "witness-of-neither-kind",
        "no-stuck-witness",
        "stuck-command-that-committed",
    ],
)
def test_verify_report_rejects_tampered_liveness_witnesses(tmp_path, tamper):
    report, obs = _golden_liveness(tmp_path)
    assert verify_report(report, obs)
    stuck, conflict = report.witnesses
    assert not verify_report(_witnesses(report, tamper(stuck, conflict)), obs)


def _with_a_later_conflict(obs, **changes):
    """The observations plus a copy, one seq number later and changed as
    given, of their conflict selection."""
    selection = obs.selections[0]
    later = {**selection, "seq_no": selection["seq_no"] + 1, **changes}
    return dataclasses.replace(obs, selections=obs.selections + [later])


def _liveness_observed_otherwise(obs, cmd_b):
    conflict_seq_no = obs.selections[0]["seq_no"]
    byzantine_l = dataclasses.replace(obs.config, byzantine_ids=frozenset({"L"}))
    return {
        # No tail, or a message still pending: nothing is known to be stuck.
        "no-tail": dataclasses.replace(obs, tail_start=None),
        "pending-message": dataclasses.replace(obs, pending_count=1),
        # The stuck command did commit at a correct replica.
        "stuck-command-committed": dataclasses.replace(
            obs, commits=obs.commits + [_commit("Q", "T.0", cmd_b, [], 1, conflict_seq_no)]
        ),
        # The cited conflict came before the tail; a later one did not.
        "conflict-before-the-tail": dataclasses.replace(
            _with_a_later_conflict(obs), tail_start=conflict_seq_no + 1
        ),
        # The cited conflict's leader L is byzantine; Q's later one counts.
        "conflict-of-a-byzantine-leader": dataclasses.replace(
            _with_a_later_conflict(obs, leader="Q"), config=byzantine_l
        ),
    }


@pytest.mark.parametrize(
    "case",
    [
        "no-tail",
        "pending-message",
        "stuck-command-committed",
        "conflict-before-the-tail",
        "conflict-of-a-byzantine-leader",
    ],
)
def test_verify_report_checks_liveness_witnesses_against_the_observations(tmp_path, cmd_b, case):
    report, obs = _golden_liveness(tmp_path)
    assert not verify_report(report, _liveness_observed_otherwise(obs, cmd_b)[case])


@pytest.fixture(scope="module")
def golden_reports(tmp_path_factory):
    return _golden_reports(tmp_path_factory.mktemp("goldens"))


# Values of five types; a replacement is drawn from the ones whose type
# differs from the value it replaces, so it never compares equal to it.
_OTHER_TYPED = (None, "0", 0, [], {"0": 0})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_report_is_total(golden_reports, data):
    """A golden report with one witness field deleted, retyped or added,
    or with an unknown property, is rejected; nothing raises."""
    _name, report, obs = data.draw(st.sampled_from(golden_reports))
    witnesses = [dict(w) for w in report.witnesses]
    prop = report.property
    tamper = data.draw(st.sampled_from(("delete", "retype", "add", "property")))
    if tamper == "property":
        prop = data.draw(st.text(max_size=12).filter(lambda p: p not in CHECKER_ORDER))
    else:
        w = witnesses[data.draw(st.integers(0, len(witnesses) - 1))]
        key = data.draw(st.sampled_from(sorted(w)))
        if tamper == "delete":
            del w[key]
        elif tamper == "retype":
            w[key] = data.draw(
                st.sampled_from(_OTHER_TYPED).filter(lambda v: type(v) is not type(w[key]))
            )
        else:
            w[data.draw(st.text(max_size=8).filter(lambda k: k not in w))] = data.draw(
                st.none() | st.integers() | st.text(max_size=4)
            )
    tampered = ViolationReport(prop, tuple(witnesses), report.trace_slice, report.details)
    assert verify_report(tampered, obs) is False


DIFFERENTIAL_WALKS = 40
DIFFERENTIAL_DEPTH = 30


def _walk(config, rng):
    """A random walk of enabled moves sending ``b`` to a random replica,
    completed by the synchronous tail: the walk's Sim and its schedule. A
    faulty client acts at most once, as in the explorer."""
    workload = two_commands(rng.choice(config.replica_ids))
    bounds = ExploreBounds(workload=workload, max_events=DIFFERENTIAL_DEPTH)
    sim = Sim(config, workload)
    events = []
    acted: frozenset[str] = frozenset()
    while len(events) < DIFFERENTIAL_DEPTH:
        moves = enabled_moves(sim, bounds, acted)
        rng.shuffle(moves)
        for move in moves:
            child = sim.clone()
            try:
                child.apply(move)
            except ScheduleError:
                continue
            break
        else:
            break
        sim = child
        events.append(move)
        if move.kind == ADVERSARY and move.node in config.faulty_client_ids:
            acted = acted | {move.node}
    tail = extend_with_tail(sim, bounds)
    return sim, Schedule(config, workload, tuple(events + tail), tail_start=len(events))


@pytest.mark.parametrize("name", sorted(FAULT_CONFIGS))
def test_every_walk_report_verifies_against_its_traced_replay(name):
    """The checkers read a live Sim; the verifier reads the trace of a
    replay of the same schedule. Every report must verify."""
    config = FAULT_CONFIGS[name]
    found = set()
    for seed in range(DIFFERENTIAL_WALKS):
        sim, schedule = _walk(config, random.Random(seed))
        reports, _notes = run_checkers(Observations.from_sim(sim))
        _replayed, trace = run(schedule, record_trace=True)
        obs = Observations.from_trace(trace)
        _assert_same_observations(Observations.from_sim(sim), obs)
        for report in reports:
            assert verify_report(report, obs), (name, seed, report.to_json())
            found.add(report.property)
    assert found


def test_report_json_round_trip():
    scenario = build_scenario("liveness")
    for report in scenario.reports:
        back = ViolationReport.from_json(report.to_json())
        assert back.to_json() == report.to_json()


# A configuration no walk runs: messages of a 4-replica run checked under
# it must get its verdicts, not the ones kept from their run.
SEVEN = Config(7, 2, ("R", "L", "Q", "T", "A", "B", "C"))


def test_cached_message_verdicts_match_fresh_copies(monkeypatch):
    """Certificates keep their ``validate`` verdict and NEW-OWNER messages
    their proof verdict, once per object and configuration. Over
    every certificate and NEW-OWNER delivered in the goldens and in seeded
    walks of the four fault configs, each kept result must equal the one an
    equal copy without any kept result computes, under the run's config and
    then under a 7-replica one."""
    delivered = []
    receive = Sim._receive

    def recording(sim, env_id, sender, node, payload):
        delivered.append((sim.cfg, payload))
        return receive(sim, env_id, sender, node, payload)

    monkeypatch.setattr(Sim, "_receive", recording)
    for name in SCENARIO_NAMES:
        build_scenario(name)
    for config in FAULT_CONFIGS.values():
        for seed in range(DIFFERENTIAL_WALKS):
            _walk(config, random.Random(seed))

    certificates, new_owners = {}, {}
    for cfg, payload in delivered:
        if isinstance(payload, NewOwner):
            new_owners[id(payload)] = (cfg, payload)
        votes = payload.proof if isinstance(payload, NewOwner) else (payload,)
        for cert in (getattr(vote, "certificate", None) for vote in votes):
            if cert is not None:
                certificates[id(cert)] = (cfg, cert)
    # The handlers kept verdicts on what they checked.
    assert any("_results" in cert.__dict__ for _cfg, cert in certificates.values())
    assert any("_results" in msg.__dict__ for _cfg, msg in new_owners.values())

    for cfg, cert in certificates.values():
        for n, f in ((cfg.n, cfg.f), (SEVEN.n, SEVEN.f)):
            assert cert.validate(n, f) == fresh_copy(cert).validate(n, f), (n, f, cert)
    for cfg, msg in new_owners.values():
        for config in (cfg, SEVEN):
            kept = cached_call(msg, _proof_verdict, config)
            assert kept == _proof_verdict(fresh_copy(msg), config), (config.n, msg)
    # Messages accepted in their run are refused under SEVEN, so a kept
    # result that ignored the configuration would show above.
    assert None in {cert.validate(cfg.n, cfg.f) for cfg, cert in certificates.values()}
    assert None not in {cert.validate(SEVEN.n, SEVEN.f) for _cfg, cert in certificates.values()}
    assert None in {cached_call(msg, _proof_verdict, cfg) for cfg, msg in new_owners.values()}
    assert None not in {cached_call(msg, _proof_verdict, SEVEN) for _cfg, msg in new_owners.values()}


def test_correct_commits_are_computed_once_per_observations(cmd_a):
    cfg = Config(4, 1, ("R", "L", "Q", "T"), byzantine_ids=frozenset({"T"}))
    obs = _obs(cfg, (), [_commit("R", "R.0", cmd_a, [], 1), _commit("T", "R.0", cmd_a, [], 2)])
    assert obs.correct_commits is obs.correct_commits
    assert [c["replica"] for c in obs.correct_commits] == ["R"]
    # The kept list stays true because its inputs cannot be rebound.
    with pytest.raises(dataclasses.FrozenInstanceError):
        obs.commits = []
    fewer = dataclasses.replace(obs, commits=obs.commits[1:])
    assert fewer.correct_commits == []
