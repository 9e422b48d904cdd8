"""Property checkers over run observations: positives, negatives, and the
report verifier. Scenario-independent cases build observations by hand."""

import json

import pytest

from ezbft_lab.adversary import (
    BYZ_EQUIVOCATE_SPEC_ORDER,
    FAULTY_SELECTIVE,
    ByzantineChoice,
    FaultyClientChoice,
)
from ezbft_lab.checkers import (
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
from ezbft_lab.core import Command, Config, InstanceId
from ezbft_lab.explorer import extend_with_tail
from ezbft_lab.messages import CommitCertificate
from ezbft_lab.scenarios import SCENARIO_NAMES, build_happy_path, build_scenario, golden_text
from ezbft_lab.simnet import ADVERSARY, DELIVER, Event, Sim, Trace, WorkItem, run


def _commit(replica, instance, cmd, deps, seq, seq_no=0):
    return {
        "type": "commit",
        "replica": replica,
        "instance": instance,
        "tuple": {"command": cmd.to_json(), "deps": sorted(deps), "seq": seq},
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


def test_scenario_observations_match_between_sim_and_trace():
    for name in ("safety", "exec-consistency", "liveness"):
        scenario = build_scenario(name)
        from_sim = Observations.from_sim(scenario.sim)
        from_trace = Observations.from_trace(scenario.trace)
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


def test_validity_violation_from_a_fabricated_proposal(byz_cfg, cmd_a):
    """A byzantine owner proposes a command no client sent; a faulty client
    packages the resulting unanimous replies and commits it at one replica."""
    ghost = Command("g", "c1", "k", "vg")
    from ezbft_lab.core import OrderingTuple

    sim = Sim(byz_cfg, (WorkItem("c1", cmd_a, "R"),))
    fabricated = OrderingTuple(ghost, frozenset(), 1)
    sim.apply(Event(ADVERSARY, node="T", choice=ByzantineChoice(
        BYZ_EQUIVOCATE_SPEC_ORDER, branches=(fabricated,))))
    while True:
        proto = [e for e in sim.pending() if e.payload.kind != "request"]
        if not proto:
            break
        sim.apply(Event(DELIVER, message=proto[0].id))

    received = sim.clients["c1"].received
    assert len(received) == 4  # three honest acceptances plus T's own reply
    cert = CommitCertificate("fast", tuple(sorted(received, key=lambda r: r.sender)))
    sim.apply(Event(ADVERSARY, node="c1", choice=FaultyClientChoice(
        FAULTY_SELECTIVE, "g", certificates=((cert, ("R",)),))))
    commit_env = [e for e in sim.pending() if e.payload.kind == "commit_fast"][0]
    sim.apply(Event(DELIVER, message=commit_env.id))

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
    return {
        "type": "selection",
        "leader": leader,
        "outcome": "conflict",
        "instance": "R.0",
        "owner_number": 1,
        "tuple": {"command": {"id": "a", "client": "c1", "key": "k", "payload": "va"}, "deps": [], "seq": 1},
        "second": {"command": {"id": "a", "client": "c1", "key": "k", "payload": "va"}, "deps": ["T.0"], "seq": 2},
        "condition": None,
        "candidates": [],
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


def test_verify_report_confirms_every_golden_report(tmp_path):
    for name in SCENARIO_NAMES:
        path = tmp_path / f"{name}.trace.jsonl"
        path.write_text(golden_text(name, "trace"), encoding="utf-8")
        obs = Observations.from_trace(Trace.read(str(path)))
        reports = json.loads(golden_text(name, "reports"))["reports"]
        assert reports
        for data in reports:
            assert verify_report(ViolationReport.from_json(data), obs), (name, data["property"])


def _with_witness(report, index, **changes):
    witnesses = list(report.witnesses)
    witnesses[index] = {**witnesses[index], **changes}
    return ViolationReport(report.property, tuple(witnesses), report.trace_slice, report.details)


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
        # An odd witness count is no list of pairs.
        assert not verify_report(
            ViolationReport(report.property, report.witnesses[:1], None, ""), uncovered
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
        {key: c[key] for key in ("replica", "instance", "tuple", "seq_no")}
        | {"command": c["tuple"]["command"]["id"]}
        for c in apart.commits
    )
    forged = ViolationReport("dependency_inclusion", non_interfering, None, "")
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


def test_report_json_round_trip():
    scenario = build_scenario("liveness")
    for report in scenario.reports:
        back = ViolationReport.from_json(report.to_json())
        assert back.to_json() == report.to_json()
