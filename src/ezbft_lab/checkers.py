"""Property oracles over runs.

Five checkers: agreement, validity, dependency inclusion, execution
consistency, liveness. Each consumes Observations (extracted either from a
live Sim or from a trace file), returns at most one ViolationReport, and is
a pure function of its input. Liveness alone has a precondition: it judges
"stuck" states, which is only meaningful after a synchronous tail (every
pending message delivered, owner change given its chance to finish).

Observation records hold values; checkers decode nothing and write a
report's JSON only when they build it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Collection, Iterable, Mapping

from .core import Config, InstanceId, OrderingTuple, interferes, json_field, json_fields, json_value
from .owner_change import CONFLICT
from .simnet import DELIVER, Sim, Trace, WorkItem, malformed, observed_effect

AGREEMENT = "agreement"
VALIDITY = "validity"
DEPENDENCY_INCLUSION = "dependency_inclusion"
EXECUTION_CONSISTENCY = "execution_consistency"
LIVENESS = "liveness"

CHECKER_ORDER = (AGREEMENT, VALIDITY, DEPENDENCY_INCLUSION, EXECUTION_CONSISTENCY, LIVENESS)


class PreconditionUnmet(Exception):
    """The trace cannot support this check (liveness needs a tail)."""


def fmt_tuple(t: OrderingTuple) -> str:
    """Compact one-line tuple rendering used in report details."""
    command_id, deps, seq = _report_order(t)
    return f"{command_id}[{','.join(deps)}]@{seq}"


@dataclass(frozen=True)
class ViolationReport:
    """A machine-checkable property violation: the witnesses alone must let
    a verifier re-confirm the violation without replaying the run."""

    property: str
    witnesses: tuple[dict[str, Any], ...]
    trace_slice: tuple[int, int] | None
    details: str

    to_json = json_fields

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "ViolationReport":
        return ViolationReport(
            property=data["property"],
            witnesses=tuple(data["witnesses"]),
            trace_slice=tuple(data["trace_slice"]) if data.get("trace_slice") else None,
            details=data["details"],
        )


@dataclass(frozen=True)
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
        """The one reader of trace records. Raises ScheduleError when a
        record misses a field the checkers read (seq number, emitted ids,
        delivered message, commit, selection and execute effects), or
        holds it with the wrong type."""
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
        with malformed("trace"):
            for record in trace.records:
                seq_no = json_field(record, "seq_no", int)
                for env in json_field(record, "emitted", list, optional=True) or []:
                    emitted.add(json_field(env, "id", str))
                event = json_field(record, "event", dict, optional=True) or {}
                if json_field(event, "kind", str, optional=True) == DELIVER:
                    delivered.add(json_field(event, "message", str))
                for eff in json_field(record, "effects", list, optional=True) or []:
                    observed = observed_effect(eff, seq_no) or {}
                    if observed.get("type") == "execute":
                        final_executed[observed["replica"]] = observed["order"]
                    elif observed:
                        (commits if observed["type"] == "commit" else selections).append(observed)
        return Observations(
            config=schedule.config,
            workload=schedule.workload,
            commits=commits,
            selections=selections,
            final_executed=final_executed,
            tail_start=schedule.tail_start,
            pending_count=len(emitted - delivered),
        )

    @cached_property
    def correct_commits(self) -> list[dict[str, Any]]:
        """The commits of correct replicas, computed once per object: every
        checker reads them. The dataclass is frozen, so ``commits`` and
        ``config`` cannot be rebound under the kept list."""
        byz = self.config.byzantine_ids
        return [c for c in self.commits if c["replica"] not in byz]


def _protocol_key(t: OrderingTuple) -> tuple:
    """Equal exactly when ``tuples_equal`` holds."""
    return (t.command.id, t.deps, t.seq)


def _report_order(t: OrderingTuple) -> tuple:
    """The order reports list tuples in, dep lists compared as text."""
    return (t.command.id, tuple(str(d) for d in sorted(t.deps)), t.seq)


def _slice(seq_nos: Iterable[int]) -> tuple[int, int] | None:
    nums = sorted(set(seq_nos))
    return (nums[0], nums[-1]) if nums else None


# The commit fields each kind of witness cites, in the order it writes them.
# A pair witness names its command first.
_AGREEMENT_FIELDS = ("replica", "instance", "tuple", "via", "owner_number", "seq_no")
_VALIDITY_FIELDS = ("replica", "instance", "tuple", "seq_no")
_PAIR_FIELDS = ("replica", "instance", "tuple", "seq_no")
# The selection fields a liveness conflict witness cites.
_CONFLICT_FIELDS = ("leader", "instance", "owner_number", "tuple", "second")


def _cite(record: Mapping[str, Any], fields: tuple[str, ...]) -> dict[str, Any]:
    """The JSON of the named fields of a record, as a witness cites them."""
    return {k: json_value(record[k]) for k in fields}


def _pair_witness(commit: Mapping[str, Any]) -> dict[str, Any]:
    return {"command": commit["tuple"].command.id, **_cite(commit, _PAIR_FIELDS)}


def _diverged(entries: Collection[tuple[str, Any]]) -> bool:
    """Whether ``(replica, value)`` entries hold two values and two
    replicas: one instance's commits, or one pair's execution orders."""
    return len({v for _r, v in entries}) >= 2 and len({r for r, _v in entries}) >= 2


def check_agreement(obs: Observations) -> ViolationReport | None:
    """Two correct replicas must never commit non-equal tuples at one
    instance. Every commit counts, including re-commits at higher owner
    numbers: a finalized fast-path commit is final."""
    by_instance: dict[InstanceId, dict[tuple, dict[str, Any]]] = {}
    for c in obs.correct_commits:
        entry = by_instance.setdefault(c["instance"], {})
        entry.setdefault((c["replica"], _protocol_key(c["tuple"])), c)
    witnesses: list[dict[str, Any]] = []
    parts: list[str] = []
    for instance in sorted(by_instance, key=str):
        entries = by_instance[instance]
        if not _diverged(entries):
            continue
        cited = sorted(entries.values(), key=lambda c: (c["replica"], _report_order(c["tuple"])))
        witnesses += (_cite(c, _AGREEMENT_FIELDS) for c in cited)
        shown: dict[tuple, tuple[OrderingTuple, set[str]]] = {}
        for c in cited:
            shown.setdefault(_report_order(c["tuple"]), (c["tuple"], set()))[1].add(c["replica"])
        rendered = "; ".join(
            f"{fmt_tuple(t)} by {','.join(sorted(replicas))}"
            for _order, (t, replicas) in sorted(shown.items())
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


def _unproposed(obs: Observations) -> list[dict[str, Any]]:
    """Correct replicas' commits of commands no client proposed."""
    proposed = {w.command.id for w in obs.workload}
    return [c for c in obs.correct_commits if c["tuple"].command.id not in proposed]


def check_validity(obs: Observations) -> ViolationReport | None:
    """Correct replicas must only commit commands some client proposed."""
    unproposed = _unproposed(obs)
    witnesses = sorted(
        (_cite(c, _VALIDITY_FIELDS) for c in unproposed),
        key=lambda w: (w["instance"], w["replica"]),
    )
    if not witnesses:
        return None
    names = sorted({c["tuple"].command.id for c in unproposed})
    return ViolationReport(
        VALIDITY,
        tuple(witnesses),
        _slice(w["seq_no"] for w in witnesses),
        f"unproposed commands committed: {', '.join(names)}",
    )


def _committed_commands(obs: Observations) -> dict[str, dict[str, Any]]:
    """Per committed command id (at correct replicas): its command, the
    instances it committed at, the union of dep lists over its commits, and
    the first commit record."""
    out: dict[str, dict[str, Any]] = {}
    for c in obs.correct_commits:
        t = c["tuple"]
        entry = out.get(t.command.id)
        if entry is None:
            entry = out[t.command.id] = {
                "command": t.command, "instances": set(), "deps": set(), "first": c,
            }
        entry["instances"].add(c["instance"])
        entry["deps"].update(t.deps)
    return out


def _interfering(committed: Mapping[str, Mapping[str, Any]]) -> list[tuple[str, str]]:
    """The pairs ``(a, b)``, ``a < b``, of committed command ids whose
    commands interfere."""
    ids = sorted(committed)
    return [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if interferes(committed[a]["command"], committed[b]["command"])
    ]


def _uncovered(ea: Mapping[str, Any], eb: Mapping[str, Any]) -> bool:
    """Neither command's committed deps reference an instance the other
    committed at."""
    return not (ea["deps"] & eb["instances"] or eb["deps"] & ea["instances"])


def _uncovered_pairs(committed: Mapping[str, Mapping[str, Any]]) -> list[tuple[Any, Any]]:
    """The committed interfering pairs of entries that are uncovered."""
    pairs = ((committed[a], committed[b]) for a, b in _interfering(committed))
    return [(ea, eb) for ea, eb in pairs if _uncovered(ea, eb)]


def _pair_witnesses(pairs: list[tuple[Any, Any]]) -> tuple[dict[str, Any], ...]:
    return tuple(_pair_witness(e["first"]) for pair in pairs for e in pair)


def check_dependency_inclusion(obs: Observations) -> ViolationReport | None:
    """Committed interfering commands must reference each other: at least
    one of the pair carries the other's instance in its dependencies."""
    pairs = _uncovered_pairs(_committed_commands(obs))
    if not pairs:
        return None
    witnesses = _pair_witnesses(pairs)
    names = "; ".join(
        f"{ea['command'].id}@{min(map(str, ea['instances']))} and "
        f"{eb['command'].id}@{min(map(str, eb['instances']))} committed with neither depending on the other"
        for ea, eb in pairs
    )
    return ViolationReport(
        DEPENDENCY_INCLUSION,
        witnesses,
        _slice(w["seq_no"] for w in witnesses),
        names,
    )


def _orders(obs: Observations, a: str, b: str) -> list[dict[str, Any]]:
    """Divergence witnesses of the pair ``(a, b)``: the order each correct
    replica that executed both finally ran them in, by replica."""
    witnesses = []
    for replica in sorted(obs.config.correct_replicas()):
        seq = obs.final_executed.get(replica, [])
        if a in seq and b in seq:
            order = f"{a}<{b}" if seq.index(a) < seq.index(b) else f"{b}<{a}"
            witnesses.append({"pair": [a, b], "replica": replica, "order": order})
    return witnesses


def check_execution_consistency(obs: Observations) -> ViolationReport | None:
    """Correct replicas must execute committed interfering commands in one
    order. Reports actual order divergence, and also the state where both
    commands committed without a dependency either way: nothing constrains
    their order then, which is the violation even if tie-breaks happen to
    align."""
    committed = _committed_commands(obs)
    divergences = []
    for a, b in _interfering(committed):
        orders = _orders(obs, a, b)
        if _diverged([(w["replica"], w["order"]) for w in orders]):
            divergences.append((a, b, orders))
    if divergences:
        witnesses = tuple(w for _a, _b, orders in divergences for w in orders)
        details = "; ".join(
            f"({a},{b}) executed in diverging orders: "
            + ", ".join(f"{w['replica']} ran {w['order']}" for w in orders)
            for a, b, orders in divergences
        )
        return ViolationReport(EXECUTION_CONSISTENCY, witnesses, None, details)

    pairs = _uncovered_pairs(committed)
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


def _tail_unmet(obs: Observations) -> str | None:
    """Why liveness cannot be judged on these observations, or None."""
    if obs.tail_start is None:
        return "liveness needs a schedule with a synchronous tail"
    if obs.pending_count:
        return f"liveness needs every message delivered; {obs.pending_count} still pending"
    return None


def _stuck(obs: Observations) -> list[dict[str, Any]]:
    """Stuck witnesses: each correct client's workload command that no
    correct replica committed."""
    committed_ids = {c["tuple"].command.id for c in obs.correct_commits}
    return [
        {"stuck_command": w.command.id, "client": w.client}
        for w in obs.workload
        if w.client not in obs.config.faulty_client_ids and w.command.id not in committed_ids
    ]


def _tail_conflicts(obs: Observations) -> list[dict[str, Any]]:
    """The certified-conflict selections correct leaders made in the tail."""
    byz = obs.config.byzantine_ids
    return [
        s for s in obs.selections
        if s["outcome"] == CONFLICT and s["seq_no"] >= obs.tail_start and s["leader"] not in byz
    ]


def _conflict_witness(selection: Mapping[str, Any]) -> dict[str, Any]:
    return {"conflict": _cite(selection, _CONFLICT_FIELDS), "seq_no": selection["seq_no"]}


def check_liveness(obs: Observations) -> ViolationReport | None:
    """A correct client's command must commit once the network turns
    synchronous. Assessable only on traces that end with a synchronous
    tail: everything pending delivered and owner change given its chance.
    Reports when some correct client's command is committed at no correct
    replica and an owner-change selection hit the certified-conflict dead
    end during the tail."""
    unmet = _tail_unmet(obs)
    if unmet:
        raise PreconditionUnmet(unmet)
    stuck, conflicts = _stuck(obs), _tail_conflicts(obs)
    if not stuck or not conflicts:
        return None
    stuck_names = ", ".join(f"{w['stuck_command']} from {w['client']}" for w in stuck)
    first = conflicts[0]
    details = (
        f"commands never committed: {stuck_names}; owner change for {first['instance']} "
        f"at number {first['owner_number']} found conflicting certified tuples "
        f"{fmt_tuple(first['tuple'])} vs {fmt_tuple(first['second'])} and no rule resolves them"
    )
    witnesses = tuple(stuck + [_conflict_witness(s) for s in conflicts])
    return ViolationReport(LIVENESS, witnesses, _slice(s["seq_no"] for s in conflicts), details)


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


def verify_report(report: ViolationReport, obs: Observations) -> bool:
    """Re-confirm a report from its witnesses against independent
    observations, such as those of a traced replay. Returns False, and
    never raises, for a report that does not hold, whatever its shape.

    A report holds when three things do. Every witness equals a witness
    the property's checker writes from these observations, field for
    field, so a missing, extra or changed field fails. Together the
    witnesses show the violation by the checker's own rule. The trace
    slice spans exactly the witnesses' seq numbers (None when none has
    one)."""
    prop, witnesses = report.property, list(report.witnesses)
    paired = prop in (DEPENDENCY_INCLUSION, EXECUTION_CONSISTENCY)
    committed = _committed_commands(obs) if paired else {}
    if prop == AGREEMENT:
        supported = [_cite(c, _AGREEMENT_FIELDS) for c in obs.correct_commits]
    elif prop == VALIDITY:
        supported = [_cite(c, _VALIDITY_FIELDS) for c in _unproposed(obs)]
    elif paired:
        supported = [_pair_witness(c) for c in obs.correct_commits]
        if prop == EXECUTION_CONSISTENCY:
            supported += [w for a, b in _interfering(committed) for w in _orders(obs, a, b)]
    elif prop == LIVENESS and not _tail_unmet(obs):
        supported = _stuck(obs) + [_conflict_witness(s) for s in _tail_conflicts(obs)]
    else:
        return False
    if not witnesses or any(w not in supported for w in witnesses):
        return False

    if prop == AGREEMENT:
        # The checker's own rule, over the commits the witnesses cite.
        cited = [c for c in obs.correct_commits if _cite(c, _AGREEMENT_FIELDS) in witnesses]
        shown = check_agreement(replace(obs, commits=cited)) is not None
    elif prop == LIVENESS:
        shown = any("stuck_command" in w for w in witnesses) and any(
            "conflict" in w for w in witnesses
        )
    elif prop == EXECUTION_CONSISTENCY and all("pair" in w for w in witnesses):
        by_pair: dict[tuple, set[tuple]] = {}
        for w in witnesses:
            by_pair.setdefault(tuple(w["pair"]), set()).add((w["replica"], w["order"]))
        shown = all(map(_diverged, by_pair.values()))
    elif paired:
        interfering = set(_interfering(committed))
        # A divergence witness among pair witnesses names no command.
        ids = [w.get("command") for w in witnesses]
        shown = len(ids) % 2 == 0 and all(
            (a, b) in interfering and _uncovered(committed[a], committed[b])
            for a, b in zip(ids[::2], ids[1::2])
        )
    else:
        shown = True
    return shown and report.trace_slice == _slice(w["seq_no"] for w in witnesses if "seq_no" in w)
