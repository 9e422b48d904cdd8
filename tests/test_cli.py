"""Command-line contract: exit code 0 clean, 2 violation found, 1 error."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezbft_lab.cli import main
from ezbft_lab.core import canonical_json
from ezbft_lab.scenarios import build_happy_path, build_scenario


def _output_digests(directory):
    """The sha256 of each written file's canonical JSON, keyed by file
    name; ``result.json`` without its wall time."""
    digests = {}
    for path in sorted(directory.iterdir()):
        data = json.loads(path.read_text())
        if path.name == "result.json":
            del data["elapsed_seconds"]
        digests[path.name] = hashlib.sha256(canonical_json(data).encode()).hexdigest()
    return digests


def test_scenario_exits_zero_when_reports_match(capsys):
    assert main(["scenario", "safety"]) == 0
    out = capsys.readouterr().out
    assert "violation agreement" in out


def test_scenario_writes_artifacts(tmp_path):
    assert main(["scenario", "liveness", "--out", str(tmp_path)]) == 0
    for name in ("schedule.json", "trace.jsonl", "reports.json"):
        assert (tmp_path / name).exists()


def test_scenario_unknown_name_is_a_usage_error(capsys):
    assert main(["scenario", "bogus"]) == 1
    assert capsys.readouterr().err != ""


def test_replay_exits_two_on_violation(tmp_path):
    schedule = tmp_path / "safety.schedule.json"
    build_scenario("safety").schedule.write(str(schedule))
    assert main(["replay", str(schedule)]) == 2


def test_replay_exits_zero_when_checked_properties_pass(tmp_path):
    schedule = tmp_path / "happy.schedule.json"
    build_happy_path().schedule.write(str(schedule))
    assert main(["replay", str(schedule)]) == 0
    assert main(["replay", str(schedule), "--check", "agreement,validity"]) == 0


def test_replay_missing_file_is_an_error(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_trace_exit_codes(tmp_path):
    trace = tmp_path / "liveness.trace.jsonl"
    build_scenario("liveness").trace.write(str(trace))
    assert main(["check", str(trace), "--check", "agreement"]) == 2
    assert main(["check", str(trace), "--check", "validity"]) == 0


def test_check_unknown_property_is_an_error(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    build_scenario("safety").trace.write(str(trace))
    assert main(["check", str(trace), "--check", "latency"]) == 1
    assert "error:" in capsys.readouterr().err


def test_explore_clean_run_exits_zero_and_writes_result(tmp_path):
    code = main([
        "explore", "--replicas", "4", "--faults", "1",
        "--commands", "1", "--max-events", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exhausted"] is True
    assert result["violations"] == []
    assert _output_digests(tmp_path) == {
        "result.json": "7db93cd5c521e13d5c9305e4afabfe21787b98bea463754dbbe0b00045315c94",
    }


def test_explore_finds_violations_and_writes_schedules(tmp_path):
    code = main([
        "explore", "--replicas", "4", "--faults", "1",
        "--byzantine", "T", "--faulty-clients", "c1",
        "--commands", "2", "--max-events", "14",
        "--properties", "agreement,liveness", "--out", str(tmp_path),
    ])
    assert code == 2
    result = json.loads((tmp_path / "result.json").read_text())
    found = {v["report"]["property"] for v in result["violations"]}
    assert found == {"agreement", "liveness"}
    for prop in ("agreement", "liveness"):
        assert (tmp_path / f"violation_{prop}.schedule.json").exists()
        assert (tmp_path / f"violation_{prop}.report.json").exists()
    assert _output_digests(tmp_path) == {
        "result.json": "173499a37865300dc24277589d8b62bbdf29769ffd109c9bf91a4a4736f521c8",
        "violation_agreement.report.json":
            "e87a4c44513a7ecfeea2d1a1223937430d9f416293d47aafb1d4435d389fcccd",
        "violation_agreement.schedule.json":
            "0add0f833753fa40aa9a6ed67f8c45e03855f9f3118c234afee027affd0293f3",
        "violation_liveness.report.json":
            "7882e01bcc0de0ae4a3ded6e36ce8054ab4e1c3708b27e703aaeb1206c60b035",
        "violation_liveness.schedule.json":
            "e689f9523fd3ce46a79831e4661522d400a8aa9afc5303f51d1390d5a2f30ac6",
    }


def test_explore_minimized_schedule_replays_through_the_cli(tmp_path):
    assert main([
        "explore", "--replicas", "4", "--faults", "1",
        "--byzantine", "T", "--faulty-clients", "c1",
        "--commands", "2", "--max-events", "14",
        "--properties", "agreement", "--out", str(tmp_path),
    ]) == 2
    schedule = tmp_path / "violation_agreement.schedule.json"
    assert main(["replay", str(schedule), "--check", "agreement"]) == 2


def test_explore_cut_short_by_max_states_is_an_error(tmp_path, capsys):
    code = main(["explore", "--max-events", "10", "--max-states", "5", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: search stopped after 5 states (--max-states) before exhausting its bounds\n"
    )
    assert "no violations" not in captured.out
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["states_visited"] == 5
    assert result["exhausted"] is False and result["violations"] == []


def test_explore_cut_short_with_a_finding_exits_two(tmp_path, capsys):
    code = main([
        "explore", "--replicas", "4", "--faults", "1",
        "--byzantine", "T", "--faulty-clients", "c1",
        "--commands", "2", "--max-events", "14", "--max-states", "14",
        "--properties", "agreement,validity,liveness", "--out", str(tmp_path),
    ])
    assert code == 2
    assert capsys.readouterr().err == ""
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exhausted"] is False
    assert [v["report"]["property"] for v in result["violations"]] == ["agreement"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--commands", "0"], "--commands must be at least 1"),
        (["--commands", "-3"], "--commands must be at least 1"),
        (["--faulty-clients", "c9"], "faulty clients without a workload item: c9"),
        (["--faulty-clients", "R"], "faulty clients without a workload item: R"),
        (["--max-states", "-5"], "max_states must be nonnegative"),
        (["--targets", "Z"], "workload targets that are not replicas: Z"),
        (["--targets", "R,L,Q"], "--targets names 3 replicas for 2 commands"),
    ],
)
def test_explore_input_that_would_give_a_vacuous_verdict_is_an_error(capsys, args, message):
    assert main(["explore", "--max-events", "2", *args]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_explore_with_an_empty_property_list_checks_all_properties(capsys):
    assert main(["explore", "--max-events", "2", "--properties", ""]) == 0
    assert capsys.readouterr().out.endswith("no violations\n")


def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["explore", "--max-events", "not-a-number"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "scenario" in capsys.readouterr().out


def test_explore_help_states_the_default_targets(capsys):
    assert main(["explore", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "see --help" not in text
    assert (
        "the first command to the first replica, the second to the first byzantine "
        "replica or else the third replica, later ones round-robin, two replicas apart"
    ) in text


@pytest.mark.parametrize(
    "content, field",
    [({"config": {"n": 4}}, "'f'"), ([1, 2], "list")],
    ids=["missing-field", "not-an-object"],
)
def test_replay_of_a_malformed_schedule_is_an_error(tmp_path, capsys, content, field):
    schedule = tmp_path / "bad.schedule.json"
    schedule.write_text(json.dumps(content))
    assert main(["replay", str(schedule)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed schedule") and field in err


def test_replay_of_a_schedule_for_another_slow_path_rule_is_an_error(tmp_path, capsys):
    """The slow path has one rule, ``max``: a schedule written for another
    rule could hold byzantine branches that rule reads differently, so it
    is refused rather than replayed under ``max``."""
    data = build_scenario("safety").schedule.to_json()
    assert data["seq_mode"] == "max"
    data["seq_mode"] = "recompute"
    schedule = tmp_path / "bad.schedule.json"
    schedule.write_text(json.dumps(data))
    assert main(["replay", str(schedule)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: malformed schedule: unknown seq mode 'recompute'\n"
    assert captured.out == ""


def test_replay_of_a_certificate_holding_another_payload_kind_is_an_error(tmp_path, capsys):
    """A certificate packages spec replies only; a commit reply with all its
    fields in their place is refused when the schedule is read."""
    data = build_scenario("safety").schedule.to_json()
    event = next(e for e in data["events"] if (e.get("choice") or {}).get("certificates"))
    reply = event["choice"]["certificates"][0]["certificate"]["replies"][0]
    reply["kind"] = "commit_reply"
    del reply["owner_number"]
    schedule = tmp_path / "bad.schedule.json"
    schedule.write_text(json.dumps(data))
    assert main(["replay", str(schedule)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed schedule") and "spec_reply" in err


def test_a_forged_reply_in_a_certificate_is_named_in_the_error(tmp_path, capsys):
    """A faulty client packages only replies it received. The error names
    the forged reply by its JSON, ``kind`` first."""
    data = build_scenario("safety").schedule.to_json()
    split = next(
        e["choice"] for e in data["events"]
        if (e.get("choice") or {}).get("kind") == "split_certificates"
    )
    split["certificates"][0]["certificate"]["replies"][0]["result"] = "forged"
    schedule = tmp_path / "forged.schedule.json"
    schedule.write_text(json.dumps(data))
    assert main(["replay", str(schedule)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: adversary event failed: c1 never received {'kind': 'spec_reply', "
        "'sender': 'L', 'client': 'c1', 'instance': 'R.0', 'tuple': {'command': "
        "{'id': 'a', 'client': 'c1', 'key': 'k', 'payload': 'va'}, 'deps': [], "
        "'seq': 1}, 'owner_number': 0, 'result': 'forged'}\n"
    )
    assert captured.out == ""


def _liveness_with_tail_start(tail_start):
    """The liveness golden's schedule with ``tail_start`` replaced, and
    its event count."""
    data = build_scenario("liveness").schedule.to_json()
    data["tail_start"] = tail_start(len(data["events"]))
    return data, len(data["events"])


@pytest.mark.parametrize(
    "tail_start", [lambda n: -3, lambda n: n + 5], ids=["negative", "past-the-events"]
)
def test_a_tail_start_outside_the_schedule_is_an_error(tmp_path, capsys, tail_start):
    data, count = _liveness_with_tail_start(tail_start)
    message = f"error: malformed schedule: tail_start {data['tail_start']} is outside"
    schedule = tmp_path / "bad.schedule.json"
    schedule.write_text(json.dumps(data))
    assert main(["replay", str(schedule)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and str(count) in captured.err
    assert captured.out == ""
    # The same schedule as a trace header.
    lines = build_scenario("liveness").trace.serialize().splitlines()
    trace = tmp_path / "bad.trace.jsonl"
    trace.write_text("\n".join([json.dumps({"schedule": data})] + lines[1:]) + "\n")
    assert main(["check", str(trace)]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_a_tail_start_at_the_end_of_the_events_is_an_empty_tail(tmp_path, capsys):
    data, _count = _liveness_with_tail_start(lambda n: n)
    schedule = tmp_path / "empty-tail.schedule.json"
    schedule.write_text(json.dumps(data))
    assert main(["replay", str(schedule)]) == 2
    assert capsys.readouterr().err == ""


def _trigger(data):
    return next(e for e in data["events"] if e["kind"] == "trigger_owner_change")


def _arbitrary_vote(data):
    return next(
        e["choice"] for e in data["events"]
        if (e.get("choice") or {}).get("kind") == "arbitrary_owner_change_tuple"
    )


@pytest.mark.parametrize("event", [_trigger, _arbitrary_vote], ids=["trigger", "byzantine-vote"])
def test_an_instance_owned_by_no_replica_is_named(tmp_path, capsys, event):
    data = build_scenario("safety").schedule.to_json()
    event(data)["instance"] = "Z.0"
    schedule = tmp_path / "bad.schedule.json"
    schedule.write_text(json.dumps(data))
    assert main(["replay", str(schedule)]) == 1
    assert capsys.readouterr().err == "error: instance Z.0 is owned by 'Z', not a replica\n"


def test_a_workload_client_named_like_a_replica_is_an_error(tmp_path, capsys):
    """Its requests would reach a replica's handlers as a client's state."""
    data = build_scenario("safety").schedule.to_json()
    data["workload"][1]["client"] = "R"
    schedule = tmp_path / "bad.schedule.json"
    schedule.write_text(json.dumps(data))
    assert main(["replay", str(schedule)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: malformed schedule: workload clients that are replica ids: R\n"
    assert captured.out == ""


def test_check_of_a_malformed_trace_is_an_error(tmp_path, capsys):
    good = build_scenario("liveness").trace.serialize().splitlines()
    trace = tmp_path / "bad.trace.jsonl"
    trace.write_text("\n".join(good[:2] + ['{"seq_no": "one"}']) + "\n")
    assert main(["check", str(trace)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed trace")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def _replace_at(value, path, new):
    """``value`` with the node at ``path`` (a list of choices) replaced."""
    if not path or not isinstance(value, (dict, list)) or not value:
        return new
    keys = sorted(value) if isinstance(value, dict) else range(len(value))
    keys = list(keys)
    key = keys[path[0] % len(keys)]
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[key] = _replace_at(value[key], path[1:], new)
    return copy


def _assert_no_traceback(argv):
    """``main(argv)`` exits 0, 1 or 2, and 1 exactly when it prints
    ``error: ...``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 1) == err.getvalue().startswith("error: ")


GOLDEN = build_scenario("safety").schedule.to_json()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        JSON,
        st.builds(
            _replace_at,
            st.just(GOLDEN),
            st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
            JSON,
        ),
    )
)
def test_replay_never_escapes_with_a_traceback(tmp_path_factory, content):
    """Arbitrary JSON, and the safety schedule with one node replaced by
    arbitrary JSON, either replays or fails with ``error: ...`` and 1."""
    schedule = tmp_path_factory.mktemp("fuzz") / "schedule.json"
    schedule.write_text(json.dumps(content))
    _assert_no_traceback(["replay", str(schedule)])


GOLDEN_TRACE = [json.loads(line) for line in build_scenario("safety").trace.lines()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.builds(
        _replace_at,
        st.just(GOLDEN_TRACE),
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
        JSON,
    )
)
def test_check_never_escapes_with_a_traceback(tmp_path_factory, lines):
    """The safety trace with one node of its header or of a record
    replaced by arbitrary JSON either checks or fails with ``error: ...``
    and 1."""
    trace = tmp_path_factory.mktemp("fuzz") / "trace.jsonl"
    trace.write_text("".join(json.dumps(line) + "\n" for line in lines))
    _assert_no_traceback(["check", str(trace)])
