"""Bounded exhaustive search over schedules and adversary choices.

From a fixed workload, the explorer enumerates every interleaving of
message deliveries, client timeouts, owner-change triggers, and adversary
branch points up to a depth bound, deduplicating states by a hash of
their value so commuting orders collapse. Every terminal state is completed
with a deterministic synchronous tail (deliver everything, let owner
changes finish) that keeps only its effects, and checked; commit points
are additionally checked mid-run. Each finding comes back as a
machine-checkable report paired with a schedule minimized by greedy event
elision that replays to the same report and whose traced replay verifies
it; a terminal's tail events are rebuilt, by replaying its path, only for a
finding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator

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
    verify_report,
)
from .client import SPECULATING, slow_quorum
from .replica import SPECULATED
from .core import (
    Config,
    InstanceId,
    OrderingTuple,
    interferes,
    json_fields,
    tuple_sort_key,
    tuples_equal,
)
from .messages import ClientRequest, CommitCertificate, SpecOrder, SpecReply
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
    check_workload_clients,
    node_key,
    run,
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
        if self.max_states is not None and self.max_states < 0:
            raise ValueError("max_states must be nonnegative")

    to_json = json_fields


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
    """A correct client may fire its armed retransmission timer once it
    could assemble a slow-path certificate (``client.slow_quorum``)."""
    moves: list[Event] = []
    for cid in sorted(sim.clients):
        if cid in sim.cfg.faulty_client_ids:
            continue
        state = sim.clients[cid]
        for command_id, req in state.requests.items():
            if req.phase != SPECULATING or not req.timer_armed:
                continue
            if slow_quorum(req, sim.cfg) is not None:
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
    inbox = sim.replicas[byz].inbox
    for _sender, payload in inbox:
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
            for _sender, payload in inbox
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
        state = sim.replicas[byz]
        for item, (_sender, payload) in enumerate(state.inbox):
            if item in state.consumed or not isinstance(payload, SpecOrder):
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
    for _sender, payload in sim.replicas[byz].inbox:
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
            if state.next_vote(sim.cfg, inst) not in active[inst]:
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
    # A valid certificate's replies come from distinct senders, sorted by
    # sender, so equal certificates hold equal reply sets.
    seen: set[CommitCertificate] = set()

    def add(kind: str, replies: list[SpecReply]) -> None:
        cert = CommitCertificate(kind, tuple(sorted(replies, key=lambda r: r.sender)))
        if cert not in seen and cert.validate(cfg.n, cfg.f) is None:
            seen.add(cert)
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
            others = [rid for rid in sim.cfg.correct_replicas() if rid != req.target]
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
    for rid in cfg.correct_replicas():
        state = sim.replicas[rid]
        if instance not in state.log:
            continue
        target = state.next_vote(cfg, instance)
        if target is None or target > cap or cfg.leader_at(target) in cfg.byzantine_ids:
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


def _tail_round(sim: Sim, bounds: ExploreBounds) -> Iterator[tuple[str, InstanceId]]:
    """One tail round's owner-change triggers ``(replica, instance)``: for
    each instance a correct replica speculated on and none found
    conflicted, every replica that may still trigger it. Each instance's
    replicas are read after the triggers before it were applied."""
    correct = sim.cfg.correct_replicas()
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
            yield rid, inst


def extend_with_tail(
    sim: Sim, bounds: ExploreBounds, *, events: bool = True
) -> list[Event] | range:
    """Deterministic eventual-synchrony completion, applied in place:
    deliver every pending message, then repeatedly trigger owner changes
    (within the per-instance cap, skipping instances already stuck on a
    conflict) and deliver again until quiescent. Marks the tail start for
    liveness assessment and returns the events applied.

    With ``events=False`` the tail keeps only its effects (``Sim.settle``):
    the same steps in the same order, the same logs and seq numbers, but no
    events, envelope ids or records, and the Sim is not to be extended
    afterwards. It returns the seq numbers its steps took, one per event
    the full tail would return. A traced Sim raises ValueError."""
    if sim.tail_start is None:
        sim.tail_start = sim.seq_no
    if not events:
        start = sim.seq_no
        sim.settle()
        for _round in range(DRAIN_CAP):
            if not sim.settle(_tail_round(sim, bounds)):
                return range(start, sim.seq_no)
        raise ExploreError("synchronous tail did not quiesce")
    applied = sim.drain("tail")
    for _round in range(DRAIN_CAP):
        fired = False
        for rid, inst in _tail_round(sim, bounds):
            event = Event(TRIGGER_OWNER_CHANGE, replica=rid, instance=inst, note="tail")
            sim.apply(event)
            applied.append(event)
            fired = True
        if not fired:
            return applied
        applied += sim.drain("tail")
    raise ExploreError("synchronous tail did not quiesce")


# -- minimization ----------------------------------------------------------


def _matching_report(schedule: Schedule, prop: str, details: str) -> ViolationReport | None:
    """Replay a schedule and return its report for ``prop`` when the report
    carries exactly the given details, else None (including on replay
    errors, which just mean a candidate elision broke the run)."""
    try:
        sim, _trace = run(schedule, record_trace=False)
    except ScheduleError:
        return None
    reports, _notes = run_checkers(Observations.from_sim(sim), (prop,))
    for report in reports:
        if report.details == details:
            return report
    return None


def minimize(
    schedule: Schedule, report: ViolationReport
) -> tuple[Schedule, ViolationReport]:
    """Greedy event elision: repeatedly drop single events while the replay
    still produces the same report (same property, same details). Returns
    the minimized schedule, which has no single removable event, and the
    report it replays to. Raises ExploreError if the schedule does not
    replay to the report."""
    final = _matching_report(schedule, report.property, report.details)
    if final is None:
        raise ExploreError("schedule does not replay to the given report")
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(schedule.events):
            events, tail_start = schedule.events, schedule.tail_start
            trial = replace(
                schedule,
                events=events[:index] + events[index + 1 :],
                tail_start=(
                    tail_start - 1
                    if tail_start is not None and index < tail_start
                    else tail_start
                ),
            )
            matched = _matching_report(trial, report.property, report.details)
            if matched is not None:
                schedule, final, changed = trial, matched, True
            else:
                index += 1
    return schedule, final


# -- search ----------------------------------------------------------------


def _state_key(sim: Sim, acted: frozenset[str]) -> int:
    """The 64-bit hash of a state's node keys, its pending pool's multiset
    hash and the faulty clients that acted on it. Node keys are cached on
    installed states and the pool hash is kept up to date by each event,
    so a key costs what the last event changed. ``seen`` holds these
    fixed-size keys, as TLC does, because exact keys would keep every
    pending multiset alive."""
    nodes = (*sim.replicas.values(), *sim.clients.values())
    return hash((*map(node_key, nodes), sim.pending_hash(), acted))


def explore(
    config: Config,
    bounds: ExploreBounds,
    properties: Iterable[str] | None = None,
) -> ExploreResult:
    """Depth-first enumeration of every schedule within ``bounds``,
    checking the requested properties (default: all). States already seen
    at an equal or shallower depth are pruned by state key. The
    search stops early once every requested property has a finding; it
    reports exhausted=True only when the full bounded space was covered.
    Raises ValueError for an unknown property, an empty property list, an
    empty workload, a faulty client without a workload item, a workload
    target that is not a replica or a workload client whose id is a
    replica's."""
    start = time.monotonic()
    wanted = None if properties is None else set(properties)
    requested = (
        CHECKER_ORDER if wanted is None else tuple(p for p in CHECKER_ORDER if p in wanted)
    )
    if wanted is not None:
        unknown = sorted(wanted - set(CHECKERS))
        if unknown:
            raise ValueError(f"unknown properties: {', '.join(unknown)}")
    # No property leaves nothing to check, no request leaves nothing to
    # run, a faulty client without a request never acts, and a request to
    # no replica is never delivered: each would make a clean verdict vacuous.
    if not requested:
        raise ValueError("no properties to check")
    if not bounds.workload:
        raise ValueError("the workload has no commands")
    idle = sorted(config.faulty_client_ids - {item.client for item in bounds.workload})
    if idle:
        raise ValueError(f"faulty clients without a workload item: {', '.join(idle)}")
    lost = sorted({item.target for item in bounds.workload} - set(config.replica_ids))
    if lost:
        raise ValueError(f"workload targets that are not replicas: {', '.join(lost)}")
    check_workload_clients(config, bounds.workload)
    cheap = tuple(p for p in requested if p != LIVENESS)
    found: dict[str, tuple[ViolationReport, Schedule]] = {}

    def record(schedule: Schedule, report: ViolationReport) -> None:
        """Minimize and store one finding; the stored report is the one the
        minimized schedule itself replays to, and it must verify against
        the observations of that schedule's traced replay. A finding whose
        schedule does not replay to it, or whose report does not verify,
        is a lab bug, and raises ExploreError."""
        if report.property not in found:
            minimized, final = minimize(schedule, report)
            _sim, trace = run(minimized)
            if not verify_report(final, Observations.from_trace(trace)):
                raise ExploreError(
                    f"the {final.property} report does not verify against its traced replay"
                )
            found[report.property] = (final, minimized)

    memo = TransitionMemo()
    root = Sim(config, bounds.workload, record_trace=False, memo=memo)
    seen: dict[int, int] = {_state_key(root, frozenset()): 0}
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
            extend_with_tail(sim, bounds, events=False)
            reports, _notes = run_checkers(Observations.from_sim(sim), requested)
            fresh = [report for report in reports if report.property not in found]
            if fresh:
                # Rebuild the tail's events only for a new finding, by
                # replaying the path without the memo.
                schedule = Schedule(config, bounds.workload, events)
                tail = extend_with_tail(run(schedule, record_trace=False)[0], bounds)
                schedule = replace(schedule, events=events + tuple(tail), tail_start=len(events))
                for report in fresh:
                    record(schedule, report)
            continue

        depth = len(events) + 1
        for move in reversed(moves):
            child = sim.clone()
            try:
                child.apply(move)
            except ScheduleError:
                continue
            path = events + (move,)
            # Each commit effect adds one commit-log entry.
            if cheap and len(child.commit_log) > len(sim.commit_log):
                reports, _notes = run_checkers(Observations.from_sim(child), cheap)
                for report in reports:
                    record(Schedule(config, bounds.workload, path), report)
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
