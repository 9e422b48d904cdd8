"""Bounded exhaustive search over schedules and adversary choices.

From a fixed workload, the explorer enumerates every interleaving of
message deliveries, client timeouts, owner-change triggers, and adversary
branch points up to a depth bound, deduplicating states by a content
digest so commuting orders collapse. Every terminal state is completed
with a deterministic synchronous tail (deliver everything, let owner
changes finish) and checked; commit points are additionally checked
mid-run. Each finding comes back as a machine-checkable report paired
with a schedule minimized by greedy event elision that replays to the
same report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from .adversary import (
    BYZ_ARBITRARY_VOTE,
    BYZ_EQUIVOCATE_SPEC_REPLY,
    FAULTY_SPLIT,
    ByzantineChoice,
    FaultyClientChoice,
)
from .checkers import (
    CHECKER_ORDER,
    CHECKERS,
    LIVENESS,
    Observations,
    ViolationReport,
    run_checkers,
)
from .client import SEQ_MODE_MAX, SPECULATING
from .replica import SPECULATED
from .core import (
    Config,
    InstanceId,
    OrderingTuple,
    canonical_json,
    interferes,
    tuple_sort_key,
    tuples_equal,
)
from .messages import ClientRequest, CommitCertificate, SpecOrder, SpecReply, payload_to_json
from .owner_change import CONFLICT
from .simnet import (
    ADVERSARY,
    DELIVER,
    DRAIN_CAP,
    TIMEOUT,
    TRIGGER_OWNER_CHANGE,
    Event,
    Schedule,
    ScheduleError,
    Sim,
    TransitionMemo,
    WorkItem,
)


class ExploreError(Exception):
    """Unusable bounds, a runaway tail, or a minimize precondition failure."""


@dataclass(frozen=True)
class ExploreBounds:
    """Finite search envelope for one exploration.

    workload: the fixed command submissions every explored run starts from.
    max_events: depth bound; runs reaching it are tail-completed and checked.
    max_owner_changes_per_instance: how far an instance's owner number may
        advance beyond its default during the run (and its tail).
    byzantine_branch_tuples: cap on the tuples a byzantine replica may use
        across one equivocation or vote, counting the honest base tuple.
    max_states: optional safety valve; the search aborts (exhausted=False)
        after visiting this many states.
    """

    workload: tuple[WorkItem, ...]
    max_events: int
    max_owner_changes_per_instance: int = 1
    byzantine_branch_tuples: int = 2
    max_states: int | None = None

    def __post_init__(self) -> None:
        if self.max_events < 0:
            raise ValueError("max_events must be nonnegative")
        if self.max_owner_changes_per_instance < 0:
            raise ValueError("max_owner_changes_per_instance must be nonnegative")
        if self.byzantine_branch_tuples < 0:
            raise ValueError("byzantine_branch_tuples must be nonnegative")

    def to_json(self) -> dict[str, Any]:
        return {
            "workload": [w.to_json() for w in self.workload],
            "max_events": self.max_events,
            "max_owner_changes_per_instance": self.max_owner_changes_per_instance,
            "byzantine_branch_tuples": self.byzantine_branch_tuples,
            "max_states": self.max_states,
        }


@dataclass
class ExploreResult:
    """Outcome of one bounded exploration. ``violations`` holds one entry
    per property found, each a (report, minimized schedule) pair where the
    schedule replays to exactly that report."""

    states_visited: int
    violations: list[tuple[ViolationReport, Schedule]] = field(default_factory=list)
    exhausted: bool = False
    states_deduped: int = 0
    terminals_checked: int = 0
    elapsed_seconds: float = 0.0
    transitions_computed: int = 0
    transitions_reused: int = 0

    def found_properties(self) -> tuple[str, ...]:
        return tuple(report.property for report, _schedule in self.violations)

    def to_json(self) -> dict[str, Any]:
        return {
            "states_visited": self.states_visited,
            "violations": [
                {"report": report.to_json(), "schedule": schedule.to_json()}
                for report, schedule in self.violations
            ],
            "exhausted": self.exhausted,
            "states_deduped": self.states_deduped,
            "terminals_checked": self.terminals_checked,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "transitions_computed": self.transitions_computed,
            "transitions_reused": self.transitions_reused,
        }


# -- move enumeration -----------------------------------------------------


def _delivery_moves(sim: Sim) -> list[Event]:
    return [Event(DELIVER, message=env.id) for env in sim.pending()]


def _timeout_moves(sim: Sim) -> list[Event]:
    """A correct client may fire its retransmission timer once it could
    assemble a slow-path certificate: a 2f+1 same-instance reply set."""
    moves: list[Event] = []
    for cid in sorted(sim.clients):
        if cid in sim.cfg.faulty_client_ids:
            continue
        state = sim.clients[cid]
        for command_id, req in state.requests.items():
            if req.phase != SPECULATING or not req.timer_armed:
                continue
            by_instance: dict[str, set[str]] = {}
            for sender, reply in req.replies.items():
                by_instance.setdefault(str(reply.instance), set()).add(sender)
            if any(len(s) >= sim.cfg.quorum_slow for s in by_instance.values()):
                moves.append(Event(TIMEOUT, client=cid, command=command_id))
    return moves


def _extension_instances(
    sim: Sim, byz: str, base: OrderingTuple, instance: InstanceId
) -> list[InstanceId]:
    """Dependency instances a byzantine replica can cite when inflating a
    tuple: interfering proposals it has heard, plus phantom slots in its
    own space for interfering client requests it received but never
    proposed (numbered in sorted command order, so the universe does not
    depend on inbox arrival order)."""
    gammas: list[InstanceId] = []
    seen: set[InstanceId] = set(base.deps) | {instance}
    heard: list[InstanceId] = []
    for _sender, payload in sim.inboxes[byz]:
        if (
            isinstance(payload, SpecOrder)
            and payload.instance not in seen
            and interferes(payload.tuple.command, base.command)
        ):
            heard.append(payload.instance)
            seen.add(payload.instance)
    gammas.extend(sorted(heard, key=str))
    phantom_cmds = sorted(
        {
            payload.command.id
            for _sender, payload in sim.inboxes[byz]
            if isinstance(payload, ClientRequest) and interferes(payload.command, base.command)
        }
    )
    for slot, _cmd in enumerate(phantom_cmds):
        phantom = InstanceId(byz, slot)
        if phantom not in seen:
            gammas.append(phantom)
    return gammas


def _extensions(
    sim: Sim, byz: str, base: OrderingTuple, instance: InstanceId, cap: int
) -> list[OrderingTuple]:
    out = [
        OrderingTuple(base.command, frozenset(base.deps | {gamma}), base.seq + 1)
        for gamma in _extension_instances(sim, byz, base, instance)
    ]
    return out[: max(cap, 0)]


def _byz_equivocation_moves(sim: Sim, bounds: ExploreBounds) -> list[Event]:
    """One move per (unanswered SPEC-ORDER, inflated tuple): reply to the
    client with both the honest tuple and the inflated one."""
    if bounds.byzantine_branch_tuples < 2:
        return []
    moves: list[Event] = []
    for byz in sorted(sim.cfg.byzantine_ids):
        inbox, consumed = sim.inboxes[byz], sim.consumed[byz]
        for item, (_sender, payload) in enumerate(inbox):
            if item in consumed or not isinstance(payload, SpecOrder):
                continue
            for ext in _extensions(
                sim, byz, payload.tuple, payload.instance, bounds.byzantine_branch_tuples - 1
            ):
                choice = ByzantineChoice(
                    BYZ_EQUIVOCATE_SPEC_REPLY, item=item, branches=(payload.tuple, ext)
                )
                moves.append(Event(ADVERSARY, node=byz, choice=choice))
    return moves


def _byz_claims(sim: Sim, byz: str, instance: InstanceId, cap: int) -> list[OrderingTuple]:
    """Tuples a byzantine replica can plausibly claim for an instance: the
    proposals it heard for it, plus their dependency inflations."""
    claims: list[OrderingTuple] = []
    keys: set[tuple] = set()
    for _sender, payload in sim.inboxes[byz]:
        if isinstance(payload, SpecOrder) and payload.instance == instance:
            for candidate in [payload.tuple] + _extensions(
                sim, byz, payload.tuple, payload.instance, max(cap - 1, 0)
            ):
                key = tuple_sort_key(candidate)
                if key not in keys:
                    keys.add(key)
                    claims.append(candidate)
    return claims[: max(cap, 0)]


def _byz_vote_moves(sim: Sim, bounds: ExploreBounds) -> list[Event]:
    """A byzantine replica joins an owner change some correct replica has
    already started, voting an arbitrary claimed tuple."""
    moves: list[Event] = []
    active: dict[InstanceId, set[int]] = {}
    for rid in sim.cfg.correct_replicas():
        for inst, number in sim.replicas[rid].voted:
            active.setdefault(inst, set()).add(number)
    for byz in sorted(sim.cfg.byzantine_ids):
        state = sim.replicas[byz]
        for inst in sorted(active, key=str):
            target = state.current_owner_number(sim.cfg, inst) + 1
            if target not in active[inst] or (inst, target) in state.voted:
                continue
            for claimed in _byz_claims(sim, byz, inst, bounds.byzantine_branch_tuples):
                choice = ByzantineChoice(BYZ_ARBITRARY_VOTE, instance=inst, branches=(claimed,))
                moves.append(Event(ADVERSARY, node=byz, choice=choice))
    return moves


def _reply_groups(
    state_received: list[SpecReply], command_id: str
) -> dict[tuple[str, int], dict[tuple, tuple[OrderingTuple, dict[str, SpecReply]]]]:
    """Group a client's received replies for one command by (instance,
    owner number), then by tuple; senders within a tuple are deduplicated.
    Arrival order never matters."""
    groups: dict[tuple[str, int], dict[tuple, tuple[OrderingTuple, dict[str, SpecReply]]]] = {}
    for reply in state_received:
        if reply.tuple.command.id != command_id:
            continue
        ctx = groups.setdefault((str(reply.instance), reply.owner_number), {})
        key = tuple_sort_key(reply.tuple)
        entry = ctx.setdefault(key, (reply.tuple, {}))
        entry[1].setdefault(reply.sender, reply)
    return groups


def _certificate_universe(
    cfg: Config, state_received: list[SpecReply], command_id: str
) -> list[CommitCertificate]:
    """Every commit certificate a faulty client could assemble from the
    replies it actually holds: fast (all n identical), uniform slow (2f+1
    identical), and mixed slow (f+1 of one tuple plus f of another)."""
    certs: list[CommitCertificate] = []
    seen: set[str] = set()

    def add(kind: str, replies: list[SpecReply]) -> None:
        cert = CommitCertificate(kind, tuple(sorted(replies, key=lambda r: r.sender)))
        marker = canonical_json(
            {"kind": kind, "replies": sorted(canonical_json(payload_to_json(r)) for r in replies)}
        )
        if marker not in seen and cert.validate(cfg.n, cfg.f) is None:
            seen.add(marker)
            certs.append(cert)

    groups = _reply_groups(state_received, command_id)
    for ctx_key in sorted(groups):
        by_tuple = groups[ctx_key]
        ordered = sorted(by_tuple)
        for key in ordered:
            _tup, senders = by_tuple[key]
            if len(senders) == cfg.n:
                add("fast", [senders[s] for s in sorted(senders)])
            if len(senders) >= cfg.quorum_slow:
                picks = sorted(senders)[: cfg.quorum_slow]
                add("slow", [senders[s] for s in picks])
        for key_a in ordered:
            for key_b in ordered:
                if key_a == key_b:
                    continue
                _ta, senders_a = by_tuple[key_a]
                _tb, senders_b = by_tuple[key_b]
                picks_a = sorted(senders_a)[: cfg.f + 1]
                picks_b = [s for s in sorted(senders_b) if s not in picks_a][: cfg.f]
                if len(picks_a) == cfg.f + 1 and len(picks_b) == cfg.f:
                    add(
                        "slow",
                        [senders_a[s] for s in picks_a] + [senders_b[s] for s in picks_b],
                    )
    return certs


def _faulty_moves(sim: Sim, bounds: ExploreBounds, acted: frozenset[str]) -> list[Event]:
    """A faulty client splits two conflicting certificates between its
    request's target replica and one other correct replica. One adversary
    action per faulty client per run keeps the space finite."""
    moves: list[Event] = []
    for cid in sorted(sim.cfg.faulty_client_ids):
        if cid in acted or cid not in sim.clients:
            continue
        state = sim.clients[cid]
        for command_id, req in state.requests.items():
            certs = _certificate_universe(sim.cfg, state.received, command_id)
            others = [
                rid
                for rid in sim.cfg.replica_ids
                if rid != req.target and rid not in sim.cfg.byzantine_ids
            ]
            for first in certs:
                for second in certs:
                    if first is second or tuples_equal(
                        first.vouched_tuple(), second.vouched_tuple()
                    ):
                        continue
                    for other in others:
                        choice = FaultyClientChoice(
                            FAULTY_SPLIT,
                            command_id=command_id,
                            certificates=((first, (req.target,)), (second, (other,))),
                        )
                        moves.append(Event(ADVERSARY, node=cid, choice=choice))
    return moves


def _trigger_targets(sim: Sim, bounds: ExploreBounds, instance: InstanceId) -> list[str]:
    """Correct replicas that may still start the next owner change for an
    instance they hold, within the per-instance advance cap and with a
    correct next leader (a byzantine leader would silently absorb votes)."""
    cfg = sim.cfg
    cap = cfg.default_owner_number(instance) + bounds.max_owner_changes_per_instance
    out: list[str] = []
    for rid in cfg.replica_ids:
        if rid in cfg.byzantine_ids:
            continue
        state = sim.replicas[rid]
        if instance not in state.log:
            continue
        target = state.current_owner_number(cfg, instance) + 1
        if target > cap or (instance, target) in state.voted:
            continue
        if cfg.leader_at(target) in cfg.byzantine_ids:
            continue
        out.append(rid)
    return out


def _trigger_moves(sim: Sim, bounds: ExploreBounds) -> list[Event]:
    moves: list[Event] = []
    held = {
        inst
        for rid in sim.cfg.correct_replicas()
        for inst in sim.replicas[rid].log
    }
    for inst in sorted(held, key=str):
        for rid in _trigger_targets(sim, bounds, inst):
            moves.append(Event(TRIGGER_OWNER_CHANGE, replica=rid, instance=inst))
    return moves


def enabled_moves(sim: Sim, bounds: ExploreBounds, acted: frozenset[str]) -> list[Event]:
    """Every event applicable at this state, in deterministic order:
    deliveries first (pending order), then timeouts, byzantine actions,
    faulty-client actions, and owner-change triggers."""
    return (
        _delivery_moves(sim)
        + _timeout_moves(sim)
        + _byz_equivocation_moves(sim, bounds)
        + _byz_vote_moves(sim, bounds)
        + _faulty_moves(sim, bounds, acted)
        + _trigger_moves(sim, bounds)
    )


# -- synchronous tail -----------------------------------------------------


def extend_with_tail(sim: Sim, bounds: ExploreBounds) -> list[Event]:
    """Deterministic eventual-synchrony completion, applied in place:
    deliver every pending message, then repeatedly trigger owner changes
    (within the per-instance cap, skipping instances already stuck on a
    conflict) and deliver again until quiescent. Marks the tail start for
    liveness assessment and returns the events applied."""
    cfg = sim.cfg
    if sim.tail_start is None:
        sim.tail_start = sim.seq_no
    applied = sim.drain("tail")
    correct = cfg.correct_replicas()
    for _round in range(DRAIN_CAP):
        fired = False
        speculated = {
            inst
            for rid in correct
            for inst, rec in sim.replicas[rid].log.items()
            if rec.status == SPECULATED
        }
        # A trigger only records and sends a vote; decisions change when
        # votes are delivered, so one scan per round sees every conflict.
        conflicted = {
            inst
            for rid in correct
            for (inst, _n), sel in sim.replicas[rid].decisions.items()
            if sel.outcome == CONFLICT
        }
        for inst in sorted(speculated - conflicted, key=str):
            for rid in _trigger_targets(sim, bounds, inst):
                event = Event(TRIGGER_OWNER_CHANGE, replica=rid, instance=inst, note="tail")
                sim.apply(event)
                applied.append(event)
                fired = True
        if not fired:
            return applied
        applied += sim.drain("tail")
    raise ExploreError("synchronous tail did not quiesce")


# -- minimization ----------------------------------------------------------


def _replay_matching(schedule: Schedule, prop: str, details: str) -> ViolationReport | None:
    """Replay a schedule and return its report for ``prop`` when the report
    carries exactly the given details, else None (including on replay
    errors, which just mean a candidate elision broke the run)."""
    sim = Sim(schedule.config, schedule.workload, record_trace=False, seq_mode=schedule.seq_mode)
    sim.tail_start = schedule.tail_start
    try:
        for event in schedule.events:
            sim.apply(event)
    except ScheduleError:
        return None
    reports, _notes = run_checkers(Observations.from_sim(sim), (prop,))
    for report in reports:
        if report.details == details:
            return report
    return None


def minimize(schedule: Schedule, report: ViolationReport) -> Schedule:
    """Greedy event elision: repeatedly drop single events while the replay
    still produces the same report (same property, same details). The
    result replays to the report and has no single removable event.
    Raises ExploreError if the schedule does not replay to the report."""
    if _replay_matching(schedule, report.property, report.details) is None:
        raise ExploreError("schedule does not replay to the given report")
    events = list(schedule.events)
    tail_start = schedule.tail_start
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(events):
            candidate = events[:index] + events[index + 1 :]
            ts = (
                tail_start - 1
                if tail_start is not None and index < tail_start
                else tail_start
            )
            trial = Schedule(
                schedule.config,
                schedule.workload,
                tuple(candidate),
                tail_start=ts,
                seq_mode=schedule.seq_mode,
            )
            if _replay_matching(trial, report.property, report.details) is not None:
                events, tail_start, changed = candidate, ts, True
            else:
                index += 1
    return Schedule(
        schedule.config,
        schedule.workload,
        tuple(events),
        tail_start=tail_start,
        seq_mode=schedule.seq_mode,
    )


# -- search ----------------------------------------------------------------


def _state_key(sim: Sim, acted: frozenset[str]) -> str:
    return sim.fingerprint() + "|" + ",".join(sorted(acted))


def explore(
    config: Config,
    bounds: ExploreBounds,
    properties: Iterable[str] | None = None,
    seq_mode: str = SEQ_MODE_MAX,
) -> ExploreResult:
    """Depth-first enumeration of every schedule within ``bounds``,
    checking the requested properties (default: all). States already seen
    at an equal or shallower depth are pruned by content digest. The
    search stops early once every requested property has a finding; it
    reports exhausted=True only when the full bounded space was covered."""
    start = time.monotonic()
    requested = (
        tuple(p for p in CHECKER_ORDER if p in set(properties))
        if properties is not None
        else CHECKER_ORDER
    )
    if properties is not None:
        unknown = sorted(set(properties) - set(CHECKERS))
        if unknown:
            raise ValueError(f"unknown properties: {', '.join(unknown)}")
    cheap = tuple(p for p in requested if p != LIVENESS)
    found: dict[str, tuple[ViolationReport, Schedule]] = {}

    def record(schedule: Schedule, report: ViolationReport) -> None:
        """Minimize and store one finding; the stored report is the one the
        minimized schedule itself replays to."""
        if report.property in found:
            return
        if _replay_matching(schedule, report.property, report.details) is None:
            return
        minimized = minimize(schedule, report)
        final = _replay_matching(minimized, report.property, report.details)
        if final is not None:
            found[report.property] = (final, minimized)

    memo = TransitionMemo()
    root = Sim(config, bounds.workload, record_trace=False, seq_mode=seq_mode, memo=memo)
    seen: dict[str, int] = {_state_key(root, frozenset()): 0}
    # Each entry: the path to a state, the faulty clients that acted on it
    # and the state.
    stack: list[tuple[tuple[Event, ...], frozenset[str], Sim]] = [((), frozenset(), root)]
    visited = deduped = terminals = 0
    aborted = False

    while stack:
        if all(prop in found for prop in requested):
            break
        if bounds.max_states is not None and visited >= bounds.max_states:
            aborted = True
            break
        events, acted, sim = stack.pop()
        visited += 1
        moves = enabled_moves(sim, bounds, acted) if len(events) < bounds.max_events else []

        if not moves:
            terminals += 1
            tail_sim = sim.clone()
            tail_events = extend_with_tail(tail_sim, bounds)
            reports, _notes = run_checkers(Observations.from_sim(tail_sim), requested)
            for report in reports:
                record(
                    Schedule(
                        config,
                        bounds.workload,
                        events + tuple(tail_events),
                        tail_start=len(events),
                        seq_mode=seq_mode,
                    ),
                    report,
                )
            continue

        depth = len(events) + 1
        for move in reversed(moves):
            child = sim.clone()
            try:
                rec = child.apply(move)
            except ScheduleError:
                continue
            path = events + (move,)
            if cheap and any(eff.get("type") == "commit" for eff in rec["effects"]):
                reports, _notes = run_checkers(Observations.from_sim(child), cheap)
                for report in reports:
                    record(
                        Schedule(config, bounds.workload, path, tail_start=None, seq_mode=seq_mode),
                        report,
                    )
            child_acted = acted
            if move.kind == ADVERSARY and move.node in config.faulty_client_ids:
                child_acted = acted | {move.node}
            key = _state_key(child, child_acted)
            prev = seen.get(key)
            if prev is not None and prev <= depth:
                deduped += 1
                continue
            seen[key] = depth
            stack.append((path, child_acted, child))

    return ExploreResult(
        states_visited=visited,
        violations=[found[p] for p in CHECKER_ORDER if p in found],
        exhausted=not stack and not aborted,
        states_deduped=deduped,
        terminals_checked=terminals,
        elapsed_seconds=time.monotonic() - start,
        transitions_computed=memo.computed,
        transitions_reused=memo.reused,
    )
