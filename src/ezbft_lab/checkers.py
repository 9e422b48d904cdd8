"""Property oracles over runs.

Five checkers: agreement, validity, dependency inclusion, execution
consistency, liveness. Each consumes Observations (extracted either from a
live Sim or from a trace file), returns at most one ViolationReport, and is
a pure function of its input. Liveness alone has a precondition: it judges
"stuck" states, which is only meaningful after a synchronous tail (every
pending message delivered, owner change given its chance to finish).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .core import Command, Config, interferes
from .simnet import Sim, Trace, WorkItem

AGREEMENT = "agreement"
VALIDITY = "validity"
DEPENDENCY_INCLUSION = "dependency_inclusion"
EXECUTION_CONSISTENCY = "execution_consistency"
LIVENESS = "liveness"

CHECKER_ORDER = (AGREEMENT, VALIDITY, DEPENDENCY_INCLUSION, EXECUTION_CONSISTENCY, LIVENESS)


class PreconditionUnmet(Exception):
    """The trace cannot support this check (liveness needs a tail)."""


def fmt_tuple(tuple_json: Mapping[str, Any]) -> str:
    """Compact one-line tuple rendering used in report details."""
    cmd = tuple_json["command"]["id"]
    deps = ",".join(tuple_json["deps"])
    return f"{cmd}[{deps}]@{tuple_json['seq']}"


@dataclass(frozen=True)
class ViolationReport:
    """A machine-checkable property violation: the witnesses alone must let
    a verifier re-confirm the violation without replaying the run."""

    property: str
    witnesses: tuple[dict[str, Any], ...]
    trace_slice: tuple[int, int] | None
    details: str

    def to_json(self) -> dict[str, Any]:
        return {
            "property": self.property,
            "witnesses": list(self.witnesses),
            "trace_slice": list(self.trace_slice) if self.trace_slice else None,
            "details": self.details,
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "ViolationReport":
        return ViolationReport(
            property=data["property"],
            witnesses=tuple(data["witnesses"]),
            trace_slice=tuple(data["trace_slice"]) if data.get("trace_slice") else None,
            details=data["details"],
        )


@dataclass
class Observations:
    """Everything the checkers need, extracted once from a run."""

    config: Config
    workload: tuple[WorkItem, ...]
    commits: list[dict[str, Any]]
    selections: list[dict[str, Any]]
    final_executed: dict[str, list[str]]
    tail_start: int | None
    pending_count: int

    @staticmethod
    def from_sim(sim: Sim) -> "Observations":
        final_executed = {
            r: [cid for cid, _deps, _seq in state.executed]
            for r, state in sim.replicas.items()
        }
        return Observations(
            config=sim.cfg,
            workload=sim.workload,
            commits=list(sim.commit_log),
            selections=list(sim.selection_log),
            final_executed=final_executed,
            tail_start=sim.tail_start,
            pending_count=len(sim._pending),
        )

    @staticmethod
    def from_trace(trace: Trace) -> "Observations":
        schedule = trace.schedule
        commits: list[dict[str, Any]] = []
        selections: list[dict[str, Any]] = []
        final_executed: dict[str, list[str]] = {}
        emitted: set[str] = set()
        delivered: set[str] = set()
        counters: dict[str, int] = {}
        for item in schedule.workload:
            count = counters.get(item.client, 0)
            counters[item.client] = count + 1
            emitted.add(f"{item.client}#{count}")
        for record in trace.records:
            seq_no = record["seq_no"]
            for env in record.get("emitted") or []:
                emitted.add(env["id"])
            event = record.get("event") or {}
            if event.get("kind") == "deliver":
                delivered.add(event["message"])
            for eff in record.get("effects") or []:
                if eff.get("type") == "commit":
                    commits.append({**eff, "seq_no": seq_no})
                elif eff.get("type") == "selection":
                    selections.append({**eff, "seq_no": seq_no})
                elif eff.get("type") == "execute":
                    final_executed[eff["replica"]] = list(eff["order"])
        return Observations(
            config=schedule.config,
            workload=schedule.workload,
            commits=commits,
            selections=selections,
            final_executed=final_executed,
            tail_start=schedule.tail_start,
            pending_count=len(emitted - delivered),
        )

    def correct_commits(self) -> list[dict[str, Any]]:
        byz = self.config.byzantine_ids
        return [c for c in self.commits if c["replica"] not in byz]


def _tuple_key(tuple_json: Mapping[str, Any]) -> tuple:
    return (
        tuple_json["command"]["id"],
        tuple(tuple_json["deps"]),
        tuple_json["seq"],
    )


def _slice(seq_nos: Iterable[int]) -> tuple[int, int] | None:
    nums = sorted(set(seq_nos))
    return (nums[0], nums[-1]) if nums else None


def check_agreement(obs: Observations) -> ViolationReport | None:
    """Two correct replicas must never commit non-equal tuples at one
    instance. Every commit counts, including re-commits at higher owner
    numbers: a finalized fast-path commit is final."""
    by_instance: dict[str, dict[tuple, dict[str, Any]]] = {}
    for c in obs.correct_commits():
        entry = by_instance.setdefault(c["instance"], {})
        entry.setdefault((c["replica"], _tuple_key(c["tuple"])), c)
    witnesses: list[dict[str, Any]] = []
    parts: list[str] = []
    for instance in sorted(by_instance):
        entries = by_instance[instance]
        keys = {k[1] for k in entries}
        replicas_by_key = {
            key: sorted({r for (r, k) in entries if k == key}) for key in keys
        }
        diverged = len(keys) >= 2 and len({r for (r, _k) in entries}) >= 2
        if not diverged:
            continue
        group: list[dict[str, Any]] = sorted(
            (
                {
                    "replica": c["replica"],
                    "instance": c["instance"],
                    "tuple": c["tuple"],
                    "via": c["via"],
                    "owner_number": c["owner_number"],
                    "seq_no": c["seq_no"],
                }
                for c in entries.values()
            ),
            key=lambda w: (w["replica"], _tuple_key(w["tuple"])),
        )
        witnesses += group
        rendered = "; ".join(
            f"{fmt_tuple(next(c['tuple'] for c in entries.values() if _tuple_key(c['tuple']) == key))}"
            f" by {','.join(replicas_by_key[key])}"
            for key in sorted(keys)
        )
        parts.append(f"instance {instance} committed as {rendered}")
    if not witnesses:
        return None
    return ViolationReport(
        AGREEMENT,
        tuple(witnesses),
        _slice(w["seq_no"] for w in witnesses),
        "; ".join(parts),
    )


def check_validity(obs: Observations) -> ViolationReport | None:
    """Correct replicas must only commit commands some client proposed."""
    proposed = {w.command.id for w in obs.workload}
    offending = [
        c for c in obs.correct_commits() if c["tuple"]["command"]["id"] not in proposed
    ]
    if not offending:
        return None
    witnesses = tuple(
        sorted(
            (
                {
                    "replica": c["replica"],
                    "instance": c["instance"],
                    "tuple": c["tuple"],
                    "seq_no": c["seq_no"],
                }
                for c in offending
            ),
            key=lambda w: (w["instance"], w["replica"]),
        )
    )
    names = sorted({w["tuple"]["command"]["id"] for w in witnesses})
    return ViolationReport(
        VALIDITY,
        witnesses,
        _slice(w["seq_no"] for w in witnesses),
        f"unproposed commands committed: {', '.join(names)}",
    )


def _committed_commands(obs: Observations) -> dict[str, dict[str, Any]]:
    """Per committed command id (at correct replicas): its command, the
    instances it committed at, the union of dep lists over its commits, and
    the first commit record."""
    out: dict[str, dict[str, Any]] = {}
    for c in obs.correct_commits():
        tj = c["tuple"]
        cid = tj["command"]["id"]
        entry = out.setdefault(
            cid,
            {
                "command": Command.from_json(tj["command"]),
                "instances": set(),
                "deps": set(),
                "first": c,
            },
        )
        entry["instances"].add(c["instance"])
        entry["deps"].update(tj["deps"])
    return out


def _uncovered_pairs(obs: Observations) -> list[tuple[dict[str, Any], dict[str, Any]]]:
    """Committed interfering pairs where neither command's committed deps
    reference any instance the other committed at."""
    committed = _committed_commands(obs)
    pairs: list[tuple[dict[str, Any], dict[str, Any]]] = []
    ids = sorted(committed)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            ea, eb = committed[a], committed[b]
            if not interferes(ea["command"], eb["command"]):
                continue
            if ea["deps"] & eb["instances"] or eb["deps"] & ea["instances"]:
                continue
            pairs.append((ea, eb))
    return pairs


def _pair_witnesses(pairs: list[tuple[dict[str, Any], dict[str, Any]]]) -> tuple[dict[str, Any], ...]:
    witnesses = []
    for ea, eb in pairs:
        for e in (ea, eb):
            first = e["first"]
            witnesses.append(
                {
                    "command": e["command"].id,
                    "replica": first["replica"],
                    "instance": first["instance"],
                    "tuple": first["tuple"],
                    "seq_no": first["seq_no"],
                }
            )
    return tuple(witnesses)


def check_dependency_inclusion(obs: Observations) -> ViolationReport | None:
    """Committed interfering commands must reference each other: at least
    one of the pair carries the other's instance in its dependencies."""
    pairs = _uncovered_pairs(obs)
    if not pairs:
        return None
    witnesses = _pair_witnesses(pairs)
    names = "; ".join(
        f"{ea['command'].id}@{sorted(ea['instances'])[0]} and "
        f"{eb['command'].id}@{sorted(eb['instances'])[0]} committed with neither depending on the other"
        for ea, eb in pairs
    )
    return ViolationReport(
        DEPENDENCY_INCLUSION,
        witnesses,
        _slice(w["seq_no"] for w in witnesses),
        names,
    )


def check_execution_consistency(obs: Observations) -> ViolationReport | None:
    """Correct replicas must execute committed interfering commands in one
    order. Reports actual order divergence, and also the state where both
    commands committed without a dependency either way: nothing constrains
    their order then, which is the violation even if tie-breaks happen to
    align."""
    committed = _committed_commands(obs)
    ids = sorted(committed)
    divergences: list[dict[str, Any]] = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if not interferes(committed[a]["command"], committed[b]["command"]):
                continue
            orders: dict[str, str] = {}
            for replica in obs.config.correct_replicas():
                seq = obs.final_executed.get(replica, [])
                if a in seq and b in seq:
                    orders[replica] = f"{a}<{b}" if seq.index(a) < seq.index(b) else f"{b}<{a}"
            if len(set(orders.values())) > 1:
                divergences.append({"pair": [a, b], "orders": orders})
    if divergences:
        witnesses = tuple(
            {"pair": d["pair"], "replica": r, "order": o}
            for d in divergences
            for r, o in sorted(d["orders"].items())
        )
        details = "; ".join(
            f"({d['pair'][0]},{d['pair'][1]}) executed in diverging orders: "
            + ", ".join(f"{r} ran {o}" for r, o in sorted(d["orders"].items()))
            for d in divergences
        )
        return ViolationReport(EXECUTION_CONSISTENCY, witnesses, None, details)

    pairs = _uncovered_pairs(obs)
    if not pairs:
        return None
    witnesses = _pair_witnesses(pairs)
    details = "; ".join(
        f"interfering pair ({ea['command'].id},{eb['command'].id}) committed with no dependency "
        "either way: their execution order is unconstrained"
        for ea, eb in pairs
    )
    return ViolationReport(
        EXECUTION_CONSISTENCY,
        witnesses,
        _slice(w["seq_no"] for w in witnesses),
        details,
    )


# The selection fields a liveness conflict witness cites.
_CONFLICT_FIELDS = ("leader", "instance", "owner_number", "tuple", "second")


def check_liveness(obs: Observations) -> ViolationReport | None:
    """A correct client's command must commit once the network turns
    synchronous. Assessable only on traces that end with a synchronous
    tail: everything pending delivered and owner change given its chance.
    Reports when some correct client's command is committed at no correct
    replica and an owner-change selection hit the certified-conflict dead
    end during the tail."""
    if obs.tail_start is None:
        raise PreconditionUnmet("liveness needs a schedule with a synchronous tail")
    if obs.pending_count:
        raise PreconditionUnmet(
            f"liveness needs every message delivered; {obs.pending_count} still pending"
        )
    committed_ids = {c["tuple"]["command"]["id"] for c in obs.correct_commits()}
    stuck = [
        w
        for w in obs.workload
        if w.client not in obs.config.faulty_client_ids
        and w.command.id not in committed_ids
    ]
    byz = obs.config.byzantine_ids
    conflicts = [
        s
        for s in obs.selections
        if s["outcome"] == "conflict"
        and s["seq_no"] >= obs.tail_start
        and s["leader"] not in byz
    ]
    if not stuck or not conflicts:
        return None
    witnesses = tuple(
        [{"stuck_command": w.command.id, "client": w.client} for w in stuck]
        + [
            {"conflict": {k: s[k] for k in _CONFLICT_FIELDS}, "seq_no": s["seq_no"]}
            for s in conflicts
        ]
    )
    stuck_names = ", ".join(f"{w.command.id} from {w.client}" for w in stuck)
    first = conflicts[0]
    details = (
        f"commands never committed: {stuck_names}; owner change for {first['instance']} "
        f"at number {first['owner_number']} found conflicting certified tuples "
        f"{fmt_tuple(first['tuple'])} vs {fmt_tuple(first['second'])} and no rule resolves them"
    )
    return ViolationReport(
        LIVENESS, witnesses, _slice(s["seq_no"] for s in conflicts), details
    )


CHECKERS = {
    AGREEMENT: check_agreement,
    VALIDITY: check_validity,
    DEPENDENCY_INCLUSION: check_dependency_inclusion,
    EXECUTION_CONSISTENCY: check_execution_consistency,
    LIVENESS: check_liveness,
}


def run_checkers(
    obs: Observations, properties: Iterable[str] | None = None
) -> tuple[list[ViolationReport], list[str]]:
    """Run the requested checkers in canonical order. A liveness check whose
    precondition fails becomes a note, not an error: the other verdicts
    stand on their own."""
    requested = list(properties) if properties is not None else list(CHECKER_ORDER)
    unknown = [p for p in requested if p not in CHECKERS]
    if unknown:
        raise ValueError(f"unknown properties: {', '.join(unknown)}")
    reports: list[ViolationReport] = []
    notes: list[str] = []
    for prop in CHECKER_ORDER:
        if prop not in requested:
            continue
        try:
            report = CHECKERS[prop](obs)
        except PreconditionUnmet as exc:
            notes.append(f"{prop}: precondition unmet: {exc}")
            continue
        if report is not None:
            reports.append(report)
    return reports, notes


# The commit fields a witness may cite.
_COMMIT_FIELDS = ("replica", "instance", "tuple", "owner_number", "via", "seq_no")


def verify_report(report: ViolationReport, obs: Observations) -> bool:
    """Re-confirm a report from its witnesses against independent
    observations. Used to validate minimized schedules and golden files.

    Every property shares one rule: a witness that cites a tuple must equal
    a correct replica's observed commit on every commit field it names,
    and the trace slice must span exactly the witnesses' seq numbers (None
    when no witness has one)."""
    cited = _slice(w["seq_no"] for w in report.witnesses if "seq_no" in w)
    if report.trace_slice != cited:
        return False
    commits = obs.correct_commits()
    for w in report.witnesses:
        if "tuple" in w and not any(
            all(c[k] == w[k] for k in _COMMIT_FIELDS if k in w) for c in commits
        ):
            return False
    if report.property == AGREEMENT:
        by_instance: dict[str, set[tuple]] = {}
        pairs_ok = False
        for w in report.witnesses:
            by_instance.setdefault(w["instance"], set()).add(
                (w["replica"], _tuple_key(w["tuple"]))
            )
        for entries in by_instance.values():
            keys = {k for _r, k in entries}
            replicas = {r for r, _k in entries}
            if len(keys) >= 2 and len(replicas) >= 2:
                pairs_ok = True
        return pairs_ok
    if report.property == VALIDITY:
        proposed = {w.command.id for w in obs.workload}
        return bool(report.witnesses) and all(
            w["tuple"]["command"]["id"] not in proposed for w in report.witnesses
        )
    if report.property == EXECUTION_CONSISTENCY and all("pair" in w for w in report.witnesses):
        return _verify_divergence(report.witnesses, obs)
    if report.property in (DEPENDENCY_INCLUSION, EXECUTION_CONSISTENCY):
        return _verify_uncovered_pairs(report.witnesses, obs)
    if report.property == LIVENESS:
        return _verify_liveness(report.witnesses, obs)
    return False


def _verify_uncovered_pairs(witnesses: tuple[dict[str, Any], ...], obs: Observations) -> bool:
    """Pair witnesses, two per pair, each a correct replica's commit (checked
    by ``verify_report``): each must name its tuple's command, the two
    commands must interfere, and neither command's committed deps may
    reference an instance the other committed at."""
    if not witnesses or len(witnesses) % 2:
        return False
    committed = _committed_commands(obs)
    for pair in zip(witnesses[::2], witnesses[1::2]):
        for w in pair:
            if w["command"] != w["tuple"]["command"]["id"]:
                return False
        ea, eb = (committed[w["tuple"]["command"]["id"]] for w in pair)
        if not interferes(ea["command"], eb["command"]):
            return False
        if ea["deps"] & eb["instances"] or eb["deps"] & ea["instances"]:
            return False
    return True


def _verify_liveness(witnesses: tuple[dict[str, Any], ...], obs: Observations) -> bool:
    """Liveness witnesses, on a run with a tail and nothing pending: at
    least one stuck command, a correct client's workload command that no
    correct replica committed, and at least one conflict, a ``conflict``
    selection of a correct leader at or after the tail start, cited with
    its seq number. Every witness must be one of the two."""
    if obs.tail_start is None or obs.pending_count:
        return False
    committed = {c["tuple"]["command"]["id"] for c in obs.correct_commits()}
    waiting = [
        {"stuck_command": w.command.id, "client": w.client}
        for w in obs.workload
        if w.client not in obs.config.faulty_client_ids and w.command.id not in committed
    ]
    correct = obs.config.correct_replicas()
    conflicts = [
        {"conflict": {k: s[k] for k in _CONFLICT_FIELDS}, "seq_no": s["seq_no"]}
        for s in obs.selections
        if s["outcome"] == "conflict" and s["seq_no"] >= obs.tail_start and s["leader"] in correct
    ]
    stuck = [w for w in witnesses if w in waiting]
    cited = [w for w in witnesses if w in conflicts]
    return bool(stuck) and bool(cited) and len(stuck) + len(cited) == len(witnesses)


def _verify_divergence(witnesses: tuple[dict[str, Any], ...], obs: Observations) -> bool:
    """Divergence witnesses: each names a committed interfering pair and
    the order a correct replica finally executed it in, which must be the
    order in ``final_executed``; every pair needs two differing orders."""
    committed = _committed_commands(obs)
    correct = set(obs.config.correct_replicas())
    orders: dict[tuple[str, str], set[str]] = {}
    for w in witnesses:
        a, b = w["pair"]
        if a not in committed or b not in committed:
            return False
        if not interferes(committed[a]["command"], committed[b]["command"]):
            return False
        executed = obs.final_executed.get(w["replica"], [])
        if w["replica"] not in correct or a not in executed or b not in executed:
            return False
        order = f"{a}<{b}" if executed.index(a) < executed.index(b) else f"{b}<{a}"
        if w["order"] != order:
            return False
        orders.setdefault((a, b), set()).add(order)
    return bool(orders) and all(len(seen) >= 2 for seen in orders.values())
