"""Workloads, output checks and measurement loops of the ezbft-lab benchmark.

Everything runs in one process on one thread as a closed loop: a single
caller starts each operation after the previous one returns, and checks
its output before the next one starts. An operation is one ``explore``
call on ``honest-exhaust`` and one replay (parse, run with tracing,
serialize, observe, check, verify) on ``replay-trace``.

The library is imported from the ``src`` directory next to this one, never
from site-packages, so the benchmark always measures the checkout it sits
in.
"""

from __future__ import annotations

import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

from layers import LAYERS, LayerTracer, restored, snapshot

SRC = Path(__file__).resolve().parent.parent / "src"
LIB_MODULES = ("core", "simnet", "explorer", "checkers", "scenarios")
# Set-ups timed in an untraced run: one before the timed loop, the rest
# spread evenly over it, so that they sample the same machine speed as the
# operations do.
SETUP_REPEATS = 7

REPLICAS = ("R", "L", "Q", "T")
HONEST_PROPERTIES = ("agreement", "validity", "liveness")

# (states_visited, states_deduped, terminals_checked) of a clean, exhausted
# search, keyed by (workload, max_events). A pure speed-up leaves them
# unchanged; a deliberate reduction of the search space changes them here.
EXPECTED_COUNTERS = {
    ("honest-exhaust", 2): (14, 1, 11),
    ("honest-exhaust", 5): (837, 1086, 606),
}

# Unit of every metric the benchmark prints.
END_TO_END_UNITS = {
    "verdict_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
EXPLORER_UNITS = {
    "explorer.states_visited": "count",
    "explorer.states_deduped": "count",
    "explorer.terminals_checked": "count",
    "explorer.states_per_s": "1/s",
    "explorer.kept_ratio": "ratio",
}
EXTRA_ITEMS = ("explorer.enumerate.moves", "explorer.tail.events")
TRACE_UNITS = {
    "traced.ops": "count",
    "traced.wall_s": "s/op",
    "other.self_s": "s/op",
    "trace_overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = dict(EXPLORER_UNITS)
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count/op"
        units[f"{layer}.self_s"] = "s/op"
    units["simnet.apply.failed"] = "count/op"
    for name in EXTRA_ITEMS:
        units[name] = "count/op"
    units.update(TRACE_UNITS)
    return units


class BenchError(Exception):
    """The benchmark cannot run here (no library source, bad arguments)."""


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does. ``FULL`` is the benchmark;
    ``TINY`` keeps the benchmark's own tests fast."""

    honest_events: int
    walks: int
    walk_depth: int
    min_replays: int


FULL = Sizes(honest_events=5, walks=200, walk_depth=12, min_replays=1000)
TINY = Sizes(honest_events=2, walks=4, walk_depth=4, min_replays=1)


def load_library(src: Path = SRC) -> SimpleNamespace:
    """Import the library afresh from ``src``: a second call re-executes
    every module, which is what set-up time measures."""
    package = src / "ezbft_lab" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"library source not found at {package}")
    for name in [m for m in sys.modules if m == "ezbft_lab" or m.startswith("ezbft_lab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"ezbft_lab.{name}") for name in LIB_MODULES}
    origin = Path(modules["core"].__file__).resolve()
    if not origin.is_relative_to(src.resolve()):
        raise BenchError(f"imported the library from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def _configs(lib: SimpleNamespace) -> tuple[Any, Any]:
    Config = lib.core.Config
    honest = Config(4, 1, REPLICAS)
    byz = Config(
        4, 1, REPLICAS, byzantine_ids=frozenset({"T"}), faulty_client_ids=frozenset({"c1"})
    )
    return honest, byz


def _two_commands(lib: SimpleNamespace, second_target: str) -> tuple[Any, ...]:
    """c1 sends ``a`` to R and c2 sends ``b`` to ``second_target``, both on
    key ``k``, so the two commands interfere."""
    Command, WorkItem = lib.core.Command, lib.simnet.WorkItem
    return (
        WorkItem("c1", Command("a", "c1", "k", "va"), "R"),
        WorkItem("c2", Command("b", "c2", "k", "vb"), second_target),
    )


Outcome = tuple[bool, tuple]


# -- explore workload -------------------------------------------------------


@dataclass
class ExploreWorkload:
    """One bounded search per operation; the verdict must be "exhausted,
    zero violations" at the recorded counters."""

    lib: SimpleNamespace
    config: Any
    bounds: Any
    properties: tuple[str, ...]
    expected: tuple[int, int, int]

    block = 1

    def op(self, index: int) -> Outcome:
        result = self.lib.explorer.explore(self.config, self.bounds, self.properties)
        counters = (result.states_visited, result.states_deduped, result.terminals_checked)
        ok = result.exhausted and not result.violations and counters == self.expected
        return ok, counters


def honest_exhaust(lib: SimpleNamespace, seed: int, sizes: Sizes) -> ExploreWorkload:
    """Criterion 5's fault-free configuration; the seed picks where c2
    sends ``b``. All three targets give the same counters."""
    honest, _byz = _configs(lib)
    target = random.Random(seed).choice(("L", "Q", "T"))
    bounds = lib.explorer.ExploreBounds(
        workload=_two_commands(lib, target), max_events=sizes.honest_events
    )
    expected = EXPECTED_COUNTERS[("honest-exhaust", sizes.honest_events)]
    return ExploreWorkload(lib, honest, bounds, HONEST_PROPERTIES, expected)


# -- replay workload --------------------------------------------------------


@dataclass(frozen=True)
class Replay:
    """One schedule to replay and what its replay must give back. A walk
    has no reference trace bytes; its reports were computed untraced."""

    name: str
    schedule_text: str
    reports_text: str
    trace_text: str | None = None


def _reports_text(lib: SimpleNamespace, name: str, reports: list, notes: list) -> str:
    """The bytes of a golden ``reports.json``."""
    body = {"scenario": name, "reports": [r.to_json() for r in reports], "notes": list(notes)}
    return lib.core.canonical_json(body) + "\n"


def golden_replays(lib: SimpleNamespace) -> list[Replay]:
    golden_text = lib.scenarios.golden_text
    return [
        Replay(
            name,
            golden_text(name, "schedule"),
            golden_text(name, "reports"),
            golden_text(name, "trace"),
        )
        for name in lib.scenarios.SCENARIO_NAMES
    ]


def random_walk(lib: SimpleNamespace, rng: random.Random, index: int, depth: int) -> Replay:
    """A schedule from random enabled moves plus the synchronous tail.

    Walks alternate between the honest and the byzantine configuration and
    send ``b`` to a random replica. A faulty client acts at most once, as
    in the explorer. The expected reports come from the untraced run.
    """
    simnet, explorer, checkers = lib.simnet, lib.explorer, lib.checkers
    config = _configs(lib)[index % 2]
    workload = _two_commands(lib, rng.choice(REPLICAS))
    bounds = explorer.ExploreBounds(workload=workload, max_events=depth)
    sim = simnet.Sim(config, workload)
    events: list[Any] = []
    acted: set[str] = set()
    while len(events) < depth:
        moves = explorer.enabled_moves(sim, bounds, frozenset(acted))
        rng.shuffle(moves)
        for move in moves:
            child = sim.clone()
            try:
                child.apply(move)
            except simnet.ScheduleError:
                continue
            break
        else:
            break
        sim = child
        events.append(move)
        if move.kind == simnet.ADVERSARY and move.node in config.faulty_client_ids:
            acted.add(move.node)
    tail = explorer.extend_with_tail(sim, bounds)
    schedule = simnet.Schedule(config, workload, tuple(events) + tuple(tail), tail_start=len(events))
    name = f"walk-{index}"
    reports, notes = checkers.run_checkers(checkers.Observations.from_sim(sim))
    return Replay(
        name,
        lib.core.canonical_json(schedule.to_json()),
        _reports_text(lib, name, reports, notes),
    )


@dataclass
class ReplayWorkload:
    """One replay per operation, cycling through the corpus: the three
    goldens first, then the seed's random walks."""

    lib: SimpleNamespace
    corpus: list[Replay]

    @property
    def block(self) -> int:
        return len(self.corpus)

    def op(self, index: int) -> Outcome:
        item = self.corpus[index % len(self.corpus)]
        simnet, checkers = self.lib.simnet, self.lib.checkers
        schedule = simnet.Schedule.from_json(json.loads(item.schedule_text))
        _sim, trace = simnet.run(schedule, record_trace=True)
        text = trace.serialize()
        obs = checkers.Observations.from_trace(trace)
        reports, notes = checkers.run_checkers(obs)
        verified = all([checkers.verify_report(report, obs) for report in reports])
        ok = (
            verified
            and _reports_text(self.lib, item.name, reports, notes) == item.reports_text
            and (item.trace_text is None or text == item.trace_text)
        )
        return ok, (len(trace.records), len(reports))


def replay_trace(lib: SimpleNamespace, seed: int, sizes: Sizes) -> ReplayWorkload:
    rng = random.Random(seed)
    walks = [random_walk(lib, rng, i, sizes.walk_depth) for i in range(sizes.walks)]
    return ReplayWorkload(lib, golden_replays(lib) + walks)


WORKLOADS: dict[str, Callable[[SimpleNamespace, int, Sizes], Any]] = {
    "honest-exhaust": honest_exhaust,
    "replay-trace": replay_trace,
}


# -- measurement -------------------------------------------------------------


class Checked:
    """Runs operations, counting (not raising) failed output checks."""

    def __init__(self, workload: Any):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def __call__(self, index: int) -> tuple[float, tuple | None]:
        """One operation: its seconds and its counters (None on error)."""
        self.attempted += 1
        start = perf_counter()
        try:
            ok, counters = self.workload.op(index)
        except Exception:
            if self.failed == 0:
                traceback.print_exc(file=sys.stderr)
            ok, counters = False, None
        seconds = perf_counter() - start
        self.failed += not ok
        return seconds, counters


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(
    workload: Any, seconds: float, min_ops: int, set_up_again: Callable[[], float]
) -> tuple[Checked, list[float], list[float]]:
    """Closed loop for ``seconds``, at least ``min_ops`` operations and
    ``SETUP_REPEATS - 1`` set-ups spread evenly over the run, after one
    warm-up operation that is checked but not timed. Returns the checked
    operations, their latencies and the set-up seconds."""
    checked = Checked(workload)
    checked(0)
    latencies: list[float] = []
    setups: list[float] = []
    repeats = SETUP_REPEATS - 1
    start = perf_counter()
    while (
        len(latencies) < min_ops or len(setups) < repeats or perf_counter() - start < seconds
    ):
        due = (len(setups) + 1) * seconds / SETUP_REPEATS
        if len(setups) < repeats and perf_counter() - start >= due:
            setups.append(set_up_again())
        latencies.append(checked(len(latencies) + 1)[0])
    return checked, latencies, setups


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end_metrics(latencies: list[float], setups: list[float]) -> dict[str, Any]:
    values = {
        "verdict_p99_ms": _percentile([s * 1000.0 for s in latencies], 99),
        "setup_s": _percentile(setups, 90),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced_run(
    workload: Any, lib: SimpleNamespace, seconds: float
) -> tuple[Checked, dict[str, Any], bool]:
    """Alternate an untraced block and the same block traced until
    ``seconds`` pass. Returns the checked operations, the per-layer
    metrics and whether the run was sound: wrappers restored, traced
    counters equal to untraced ones, layer self times within the wall
    time."""
    checked = Checked(workload)
    tracer = LayerTracer()
    before = snapshot(lib)
    sound = True
    traced_s = 0.0
    untraced_latencies: list[float] = []
    counters: list[tuple | None] = []
    pairs = 0
    start = perf_counter()
    while pairs == 0 or perf_counter() - start < seconds:
        block = range(pairs * workload.block, (pairs + 1) * workload.block)
        # Alternate which side of a pair runs first, so that neither gains
        # from running second.
        if pairs % 2 == 0:
            plain = [checked(i) for i in block]
        with tracer.installed(lib):
            block_start = perf_counter()
            traced = [checked(i) for i in block]
            traced_s += perf_counter() - block_start
        if pairs % 2 == 1:
            plain = [checked(i) for i in block]
        pairs += 1
        sound = sound and restored(before)
        sound = sound and [c for _s, c in plain] == [c for _s, c in traced]
        untraced_latencies.extend(s for s, _c in plain)
        counters.extend(c for _s, c in plain)

    ops = pairs * workload.block
    layer_self = sum(tracer.self_s.values())
    other = traced_s - layer_self
    sound = sound and other >= 0.0
    units = per_layer_units()
    metrics: dict[str, Any] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.calls[layer] / ops
        metrics[f"{layer}.self_s"] = tracer.self_s[layer] / ops
    metrics["simnet.apply.failed"] = tracer.failed["simnet.apply"] / ops
    for name in EXTRA_ITEMS:
        metrics[name] = tracer.items[name] / ops
    metrics.update(_explorer_metrics(workload, counters, untraced_latencies))
    metrics["traced.ops"] = ops
    metrics["traced.wall_s"] = traced_s / ops
    metrics["other.self_s"] = other / ops
    metrics["trace_overhead"] = traced_s / sum(untraced_latencies)
    return checked, {name: _metric(metrics[name], units[name]) for name in units}, sound


def _explorer_metrics(
    workload: Any, counters: list[tuple | None], latencies: list[float]
) -> dict[str, float]:
    """Search counters of one search, zero where no search runs. The
    kept ratio (children kept over children applied) uses that every
    kept child is visited once a search exhausts."""
    if not isinstance(workload, ExploreWorkload) or counters[0] is None:
        return {name: 0.0 for name in EXPLORER_UNITS}
    visited, deduped, terminals = counters[0]
    kept = visited - 1
    return {
        "explorer.states_visited": visited,
        "explorer.states_deduped": deduped,
        "explorer.terminals_checked": terminals,
        "explorer.states_per_s": visited / statistics.median(latencies),
        "explorer.kept_ratio": kept / (kept + deduped) if kept + deduped else 0.0,
    }


def setup(name: str, seed: int, sizes: Sizes) -> tuple[SimpleNamespace, Any, float]:
    """Import the library afresh and build the workload; returns both and
    the set-up seconds."""
    factory = WORKLOADS.get(name)
    if factory is None:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    start = perf_counter()
    lib = load_library()
    workload = factory(lib, seed, sizes)
    return lib, workload, perf_counter() - start


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL
) -> dict[str, Any]:
    """One benchmark run; returns the result object the command prints."""
    lib, workload, setup_s = setup(name, seed, sizes)
    if trace:
        checked, metrics, sound = traced_run(workload, lib, seconds)
    else:
        min_ops = sizes.min_replays if isinstance(workload, ReplayWorkload) else 1
        checked, latencies, setups = untraced_run(
            workload, seconds, min_ops, lambda: setup(name, seed, sizes)[2]
        )
        metrics, sound = end_to_end_metrics(latencies, [setup_s] + setups), True
    return {
        "correct": sound and checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }
