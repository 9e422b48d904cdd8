"""Command-line front end: run scenarios, replay schedules, check traces,
and explore small configurations.

Exit codes are the machine contract: 0 clean, 2 violations found (for
``scenario``: produced reports diverge from the expected ones), 1 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from .checkers import CHECKER_ORDER, Observations, run_checkers
from .core import Command, Config
from .explorer import ExploreBounds, ExploreError, explore
from .scenarios import (
    SCENARIO_NAMES,
    ScenarioError,
    build_scenario,
    expected_summaries,
    report_summaries,
    write_artifacts,
)
from .simnet import Schedule, ScheduleError, Trace, WorkItem, run

_COMMAND_NAMES = "abcdefgh"
_CANONICAL_FOUR = ("R", "L", "Q", "T")


def _parse_csv(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_properties(text: str | None) -> tuple[str, ...] | None:
    names = _parse_csv(text)
    return names or None


def _print_reports(reports, notes) -> None:
    for report in reports:
        print(f"violation {report.property}: {report.details}")
    for note in notes:
        print(f"note: {note}")
    if not reports:
        print("no violations")


def _replica_names(spec: str) -> tuple[str, ...]:
    names = _parse_csv(spec)
    if len(names) == 1 and names[0].isdigit():
        count = int(names[0])
        if count == 4:
            return _CANONICAL_FOUR
        return tuple(f"r{i}" for i in range(count))
    return names


def _build_workload(cfg: Config, count: int, targets: tuple[str, ...]) -> tuple[WorkItem, ...]:
    """One command per client c1..cN, all on key ``k``: every pair
    interferes, so no other key name could change a verdict. Default
    targets: the first command goes to the first replica; the second goes
    to the first byzantine replica when one exists (so its request can be
    swallowed), else to the third replica; later ones round-robin, two
    replicas apart."""
    if count < 1:
        raise ValueError("--commands must be at least 1")
    if count > len(_COMMAND_NAMES):
        raise ValueError(f"at most {len(_COMMAND_NAMES)} commands supported")
    # A target beyond the last command would be dropped without a word.
    if len(targets) > count:
        raise ValueError(f"--targets names {len(targets)} replicas for {count} commands")
    byz = sorted(cfg.byzantine_ids)
    items = []
    for i in range(count):
        name = _COMMAND_NAMES[i]
        client = f"c{i + 1}"
        if i < len(targets):
            target = targets[i]
        elif i == 0:
            target = cfg.replica_ids[0]
        elif i == 1 and byz:
            target = byz[0]
        else:
            target = cfg.replica_ids[(2 * i) % cfg.n]
        items.append(WorkItem(client, Command(name, client, "k", f"v{name}"), target))
    return tuple(items)


def _cmd_scenario(args: argparse.Namespace) -> int:
    scenario = build_scenario(args.name)
    if args.out:
        paths = write_artifacts(scenario, args.out)
        for kind in sorted(paths):
            print(f"wrote {paths[kind]}")
    produced = report_summaries(scenario)
    for prop, details in produced:
        print(f"violation {prop}: {details}")
    for note in scenario.notes:
        print(f"note: {note}")
    if produced == expected_summaries(args.name):
        print("reports match expectations")
        return 0
    print("reports do not match expectations")
    return 2


def _cmd_replay(args: argparse.Namespace) -> int:
    schedule = Schedule.read(args.schedule)
    sim, _trace = run(schedule, record_trace=False)
    reports, notes = run_checkers(Observations.from_sim(sim), _parse_properties(args.check))
    _print_reports(reports, notes)
    return 2 if reports else 0


def _cmd_check(args: argparse.Namespace) -> int:
    trace = Trace.read(args.trace)
    reports, notes = run_checkers(Observations.from_trace(trace), _parse_properties(args.check))
    _print_reports(reports, notes)
    return 2 if reports else 0


def _cmd_explore(args: argparse.Namespace) -> int:
    replica_ids = _replica_names(args.replicas)
    if not replica_ids:
        raise ValueError("--replicas needs a count or a comma-separated list of ids")
    faults = args.faults if args.faults is not None else (len(replica_ids) - 1) // 3
    cfg = Config(
        n=len(replica_ids),
        f=faults,
        replica_ids=replica_ids,
        byzantine_ids=frozenset(_parse_csv(args.byzantine)),
        faulty_client_ids=frozenset(_parse_csv(args.faulty_clients)),
    )
    workload = _build_workload(cfg, args.commands, _parse_csv(args.targets))
    bounds = ExploreBounds(
        workload=workload,
        max_events=args.max_events,
        max_owner_changes_per_instance=args.max_owner_changes,
        byzantine_branch_tuples=args.branch_tuples,
        max_states=args.max_states,
    )
    properties = _parse_properties(args.properties)
    result = explore(cfg, bounds, properties=properties)

    print(
        f"states visited {result.states_visited}, deduplicated {result.states_deduped}, "
        f"terminals checked {result.terminals_checked}, exhausted {result.exhausted}, "
        f"transitions computed {result.transitions_computed}, "
        f"reused {result.transitions_reused}, elapsed {result.elapsed_seconds:.2f}s"
    )
    for report, schedule in result.violations:
        print(f"violation {report.property}: {report.details}")
        print(f"  minimized schedule: {len(schedule.events)} events")
    if not result.violations and result.exhausted:
        print("no violations")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        payload: dict[str, Any] = {
            "config": cfg.to_json(),
            "bounds": bounds.to_json(),
            "properties": list(properties) if properties else list(CHECKER_ORDER),
            **result.to_json(),
        }
        result_path = os.path.join(args.out, "result.json")
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {result_path}")
        for report, schedule in result.violations:
            sched_path = os.path.join(args.out, f"violation_{report.property}.schedule.json")
            schedule.write(sched_path)
            report_path = os.path.join(args.out, f"violation_{report.property}.report.json")
            with open(report_path, "w", encoding="utf-8") as fh:
                json.dump(report.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {sched_path}")
            print(f"wrote {report_path}")
    if not result.violations and not result.exhausted:
        # Only --max-states stops a search that found nothing; 0 means clean.
        raise ExploreError(
            f"search stopped after {result.states_visited} states (--max-states) "
            "before exhausting its bounds"
        )
    return 2 if result.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ezbft-lab",
        description=(
            "Deterministic simulation laboratory for a leaderless speculative "
            "BFT protocol: scripted counterexample scenarios, schedule replay, "
            "trace checking, and bounded exhaustive exploration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser(
        "scenario",
        help="run a scripted scenario and compare its reports to expectations",
    )
    p_scenario.add_argument("name", choices=SCENARIO_NAMES)
    p_scenario.add_argument(
        "--out", help="directory for schedule.json, trace.jsonl, reports.json"
    )
    p_scenario.set_defaults(handler=_cmd_scenario)

    p_replay = sub.add_parser("replay", help="replay a schedule file and run checkers")
    p_replay.add_argument("schedule", help="path to a schedule.json file")
    p_replay.add_argument(
        "--check",
        help=f"comma-separated properties (default: all of {','.join(CHECKER_ORDER)})",
    )
    p_replay.set_defaults(handler=_cmd_replay)

    p_check = sub.add_parser("check", help="run checkers over a recorded trace file")
    p_check.add_argument("trace", help="path to a trace.jsonl file")
    p_check.add_argument(
        "--check",
        help=f"comma-separated properties (default: all of {','.join(CHECKER_ORDER)})",
    )
    p_check.set_defaults(handler=_cmd_check)

    p_explore = sub.add_parser(
        "explore", help="bounded exhaustive exploration of a small configuration"
    )
    p_explore.add_argument(
        "--replicas",
        default="4",
        help="replica count or comma-separated ids (4 means R,L,Q,T)",
    )
    p_explore.add_argument("--faults", type=int, default=None, help="tolerated faults f")
    p_explore.add_argument("--byzantine", default="", help="comma-separated byzantine replica ids")
    p_explore.add_argument(
        "--faulty-clients", default="", help="comma-separated faulty client ids"
    )
    p_explore.add_argument("--max-events", type=int, required=True, help="depth bound")
    p_explore.add_argument(
        "--commands", type=int, default=2, help="number of single-key commands (default 2)"
    )
    p_explore.add_argument(
        "--targets",
        default="",
        help=(
            "comma-separated target replica per command (default: the first command to "
            "the first replica, the second to the first byzantine replica or else the "
            "third replica, later ones round-robin, two replicas apart)"
        ),
    )
    p_explore.add_argument(
        "--max-owner-changes",
        type=int,
        default=1,
        help="owner-number advances allowed per instance (default 1)",
    )
    p_explore.add_argument(
        "--branch-tuples",
        type=int,
        default=2,
        help="byzantine tuples per equivocation, honest base included (default 2)",
    )
    p_explore.add_argument(
        "--max-states", type=int, default=None, help="optional visited-states abort valve"
    )
    p_explore.add_argument(
        "--properties",
        help=f"comma-separated properties to search for (default: all of {','.join(CHECKER_ORDER)})",
    )
    p_explore.add_argument("--out", help="directory for result.json and schedule files")
    p_explore.set_defaults(handler=_cmd_explore)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # violations, so usage problems map to 1 (help stays 0)
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (
        ScenarioError,
        ScheduleError,
        ExploreError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
