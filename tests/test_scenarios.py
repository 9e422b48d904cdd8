"""Scripted divergence runs: frozen verdicts and golden artifacts."""

import os
import subprocess
import sys

import pytest

import ezbft_lab

from ezbft_lab.core import InstanceId
from ezbft_lab.scenarios import (
    SCENARIO_NAMES,
    UnknownScenario,
    artifact_text,
    build_happy_path,
    build_scenario,
    expected_summaries,
    golden_text,
    report_summaries,
    write_artifacts,
)

FROZEN_SUMMARIES = {
    "safety": (
        ("agreement", "instance R.0 committed as a[]@1 by R; a[T.0]@2 by L,Q"),
    ),
    "exec-consistency": (
        ("dependency_inclusion", "a@R.0 and b@Q.0 committed with neither depending on the other"),
        ("execution_consistency",
         "interfering pair (a,b) committed with no dependency either way: "
         "their execution order is unconstrained"),
    ),
    "liveness": (
        ("agreement", "instance R.0 committed as a[]@1 by R; a[T.0]@2 by L"),
        ("liveness",
         "commands never committed: b from c2; owner change for R.0 at number 1 "
         "found conflicting certified tuples a[]@1 vs a[T.0]@2 and no rule resolves them"),
    ),
}


def test_scenario_names_are_fixed():
    assert SCENARIO_NAMES == ("safety", "exec-consistency", "liveness")


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenario):
        build_scenario("bogus")


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_reports_match_frozen_expectations(name):
    run = build_scenario(name)
    assert report_summaries(run) == FROZEN_SUMMARIES[name]
    assert expected_summaries(name) == FROZEN_SUMMARIES[name]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("kind", ("schedule", "trace", "reports"))
def test_golden_artifacts_are_byte_stable(name, kind):
    run = build_scenario(name)
    assert artifact_text(run, kind) == golden_text(name, kind)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_golden_artifacts_do_not_depend_on_the_hash_seed(tmp_path, name):
    """Node digests hash texts assembled from dicts and sets, so set and
    dict iteration order must not reach them: ``scenario --out`` writes the
    same bytes under two string-hash seeds."""
    src = os.path.dirname(os.path.dirname(ezbft_lab.__file__))
    written = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, "-m", "ezbft_lab.cli", "scenario", name, "--out", str(out)],
            env=env, capture_output=True, check=True, timeout=120,
        )
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert written[0] == written[1]
    assert sorted(written[0]) == ["reports.json", "schedule.json", "trace.jsonl"]
    assert written[0]["trace.jsonl"].decode() == golden_text(name, "trace")


def test_safety_commit_shape():
    """One replica finalizes the bare tuple on the fast path while two others
    install the extended tuple through an owner change."""
    run = build_scenario("safety")
    commits = {
        (c["replica"], c["via"]): c
        for c in run.sim.commit_log
        if c["instance"] == InstanceId("R", 0)
    }
    assert commits[("R", "fast")]["tuple"].deps == frozenset()
    assert commits[("R", "fast")]["tuple"].seq == 1
    for replica in ("L", "Q"):
        entry = commits[(replica, "new_owner")]
        assert entry["tuple"].deps == {InstanceId("T", 0)}
        assert entry["tuple"].seq == 2
        assert entry["owner_number"] == 1
    assert run.sim.cfg.byzantine_ids == {"T"}
    assert run.sim.cfg.faulty_client_ids == {"c1"}


def test_exec_consistency_runs_without_faults():
    run = build_scenario("exec-consistency")
    assert run.sim.cfg.byzantine_ids == frozenset()
    assert run.sim.cfg.faulty_client_ids == frozenset()
    assert {r.property for r in run.reports} == {"dependency_inclusion", "execution_consistency"}


def test_liveness_final_selection_is_a_certified_conflict():
    run = build_scenario("liveness")
    last = run.sim.selection_log[-1]
    assert last["outcome"] == "conflict"
    assert last["instance"] == InstanceId("R", 0) and last["owner_number"] == 1
    assert last["tuple"].deps == frozenset() and last["tuple"].seq == 1
    assert last["second"].deps == {InstanceId("T", 0)} and last["second"].seq == 2
    assert last["seq_no"] >= run.schedule.tail_start


def test_happy_path_commits_everywhere_with_no_reports():
    run = build_happy_path()
    assert run.reports == [] and run.notes == []
    vias = {(c["replica"], c["via"]) for c in run.sim.commit_log}
    assert vias == {(r, "fast") for r in ("R", "L", "Q", "T")}
    assert run.sim.clients["c1"].requests["a"].phase == "complete"


def test_write_artifacts_round_trips(tmp_path):
    run = build_scenario("safety")
    paths = write_artifacts(run, str(tmp_path))
    assert set(paths) == {"schedule", "trace", "reports"}
    for kind, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == artifact_text(run, kind)


def test_builders_are_deterministic():
    for name in SCENARIO_NAMES:
        assert build_scenario(name).trace.serialize() == build_scenario(name).trace.serialize()
