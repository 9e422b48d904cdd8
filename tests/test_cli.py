"""Command-line contract: exit code 0 clean, 2 violation found, 1 error."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezbft_lab.cli import main
from ezbft_lab.scenarios import build_happy_path, build_scenario


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


def test_explore_minimized_schedule_replays_through_the_cli(tmp_path):
    assert main([
        "explore", "--replicas", "4", "--faults", "1",
        "--byzantine", "T", "--faulty-clients", "c1",
        "--commands", "2", "--max-events", "14",
        "--properties", "agreement", "--out", str(tmp_path),
    ]) == 2
    schedule = tmp_path / "violation_agreement.schedule.json"
    assert main(["replay", str(schedule), "--check", "agreement"]) == 2


def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["explore", "--max-events", "not-a-number"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "scenario" in capsys.readouterr().out


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
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["replay", str(schedule)])
    assert code in (0, 1, 2)
    assert (code == 1) == err.getvalue().startswith("error: ")
