"""Tests of the benchmark itself, at tiny bounds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest

import harness
import layers
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _spec_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(
        harness, "run_workload", functools.partial(harness.run_workload, sizes=harness.TINY)
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _spec_units("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_a_corrupted_golden_trace_raises_the_failed_ratio(monkeypatch):
    real = harness.golden_replays

    def corrupted(lib):
        first, *rest = real(lib)
        return [dataclasses.replace(first, trace_text=first.trace_text + "\n")] + rest

    monkeypatch.setattr(harness, "golden_replays", corrupted)
    result = harness.run_workload("replay-trace", 3, 0.2, False, harness.TINY)
    assert result["failed"] / result["attempted"] > 0
    assert result["correct"] is False


def test_a_traced_run_restores_every_wrapped_attribute():
    lib = harness.load_library()
    before = layers.snapshot(lib)
    workload = harness.honest_exhaust(lib, 0, harness.TINY)

    tracer = layers.LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(lib):
            assert not layers.restored(before)
            raise RuntimeError("an error inside a traced block")
    assert layers.restored(before)

    checked, metrics, sound = harness.traced_run(workload, lib, 0.2)
    assert sound and checked.failed == 0
    assert layers.restored(before)
    for target in layers.targets(lib):
        assert "<locals>" not in getattr(target.owner, target.attr).__qualname__, target
    assert isinstance(lib.simnet.Schedule.__dict__["from_json"], staticmethod)

    value = {name: metric["value"] for name, metric in metrics.items()}
    self_total = sum(value[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert self_total + value["other.self_s"] == pytest.approx(value["traced.wall_s"])
    assert value["explorer.states_visited"] == harness.EXPECTED_COUNTERS[("honest-exhaust", 2)][0]


def test_without_the_library_source_the_benchmark_refuses_to_run(tmp_path):
    with pytest.raises(harness.BenchError):
        harness.load_library(tmp_path)
