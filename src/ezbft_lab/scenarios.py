"""Scripted executions that drive the protocol into its known failure modes.

Three named scenarios, each a hand-built schedule over four replicas
[R, L, Q, T]:

  safety            A byzantine replica answers one proposal with two
                    different tuples; its colluding client packages a fast
                    certificate from the plain replies and a slow
                    certificate that folds in the equivocation, sends one
                    to each of two replicas, and the subsequent owner
                    change spreads the second tuple. Correct replicas
                    finalize different tuples for one instance.

  exec-consistency  Fault-free: two clients race interfering commands at
                    different replicas so each command's owner sees no
                    conflict. Owner changes then finalize both commands
                    with empty dependency sets: nothing constrains their
                    relative execution order.

  liveness          The colluding client builds two slow certificates for
                    non-equal tuples of the same instance and delivers one
                    each to two replicas. The owner change collects both;
                    no selection rule reconciles two certified tuples, so
                    the instance sticks and the other client's command can
                    never finish.

Every scenario produces a replayable Schedule, a Trace, and the violation
reports the property checkers derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .adversary import (
    BYZ_ARBITRARY_VOTE,
    BYZ_EQUIVOCATE_SPEC_REPLY,
    FAULTY_SPLIT,
    ByzantineChoice,
    FaultyClientChoice,
)
from .checkers import Observations, ViolationReport, run_checkers
from .client import ClientState
from .core import (
    Command,
    Config,
    InstanceId,
    OrderingTuple,
    canonical_json,
    tuples_equal,
)
from .messages import CommitCertificate, SpecReply
from .simnet import (
    ADVERSARY,
    DELIVER,
    TIMEOUT,
    TRIGGER_OWNER_CHANGE,
    Event,
    Schedule,
    Sim,
    Trace,
    WorkItem,
)

SAFETY = "safety"
EXEC_CONSISTENCY = "exec-consistency"
LIVENESS = "liveness"
SCENARIO_NAMES = (SAFETY, EXEC_CONSISTENCY, LIVENESS)

# What the checkers must report for each scenario, frozen as
# (property, details) pairs in checker order.
EXPECTED_REPORTS: dict[str, tuple[tuple[str, str], ...]] = {
    SAFETY: (
        (
            "agreement",
            "instance R.0 committed as a[]@1 by R; a[T.0]@2 by L,Q",
        ),
    ),
    EXEC_CONSISTENCY: (
        (
            "dependency_inclusion",
            "a@R.0 and b@Q.0 committed with neither depending on the other",
        ),
        (
            "execution_consistency",
            "interfering pair (a,b) committed with no dependency either way: "
            "their execution order is unconstrained",
        ),
    ),
    LIVENESS: (
        (
            "agreement",
            "instance R.0 committed as a[]@1 by R; a[T.0]@2 by L",
        ),
        (
            "liveness",
            "commands never committed: b from c2; owner change for R.0 at "
            "number 1 found conflicting certified tuples a[]@1 vs a[T.0]@2 "
            "and no rule resolves them",
        ),
    ),
}


class ScenarioError(Exception):
    """A scenario script stopped matching the simulation it drives."""


class UnknownScenario(ScenarioError):
    """No scenario is registered under the requested name."""


class ScheduleBuilder:
    """Builds a schedule by actually running it, one event at a time.

    Each helper locates its target in the live simulation (so scripts name
    messages by kind and endpoints, not by envelope id), applies the event,
    and appends it to the schedule. The result replays to a byte-identical
    trace.
    """

    def __init__(self, cfg: Config, workload: tuple[WorkItem, ...], seq_mode: str = "max"):
        self.cfg = cfg
        self.workload = workload
        self.seq_mode = seq_mode
        self.sim = Sim(cfg, workload, record_trace=True, seq_mode=seq_mode)
        self.events: list[Event] = []
        self.tail_start: int | None = None

    def _apply(self, event: Event) -> dict:
        self.events.append(event)
        return self.sim.apply(event)

    def deliver(self, kind: str, frm: str, to: str, nth: int | None = None, note: str = "") -> dict:
        """Deliver the pending message of this kind between these endpoints.
        Ambiguity is an error unless ``nth`` picks one in emission order."""
        matches = [
            e
            for e in self.sim.pending()
            if e.kind == kind and e.sender == frm and e.recipient == to
        ]
        if nth is None:
            if len(matches) != 1:
                raise ScenarioError(
                    f"expected exactly one pending {kind} {frm}->{to}, found {len(matches)}"
                )
            env = matches[0]
        else:
            if not 0 <= nth < len(matches):
                raise ScenarioError(
                    f"no pending {kind} {frm}->{to} at position {nth} (found {len(matches)})"
                )
            env = matches[nth]
        return self._apply(Event(DELIVER, message=env.id, note=note))

    def adversary(self, node: str, choice, note: str = "") -> dict:
        return self._apply(Event(ADVERSARY, node=node, choice=choice, note=note))

    def timeout(self, client: str, command_id: str, note: str = "") -> dict:
        return self._apply(Event(TIMEOUT, client=client, command=command_id, note=note))

    def trigger(self, replica: str, instance: InstanceId | str, note: str = "") -> dict:
        inst = instance if isinstance(instance, InstanceId) else InstanceId.parse(instance)
        return self._apply(Event(TRIGGER_OWNER_CHANGE, replica=replica, instance=inst, note=note))

    def mark_tail(self) -> None:
        """Everything from the next event on counts as the synchronous tail."""
        self.tail_start = self.sim.seq_no
        self.sim.tail_start = self.tail_start

    def drain(self) -> int:
        """Deliver pending messages oldest-first until none remain."""
        applied = self.sim.drain()
        self.events += applied
        return len(applied)

    def received_reply(self, client: str, sender: str, t: OrderingTuple) -> SpecReply:
        """The exact reply object this client received: certificates built
        from anything else would count as forgeries."""
        state: ClientState = self.sim.clients[client]
        for r in state.received:
            if r.sender == sender and tuples_equal(r.tuple, t):
                return r
        raise ScenarioError(f"{client} holds no reply from {sender} for {t.to_json()}")

    def certificate(
        self, kind: str, client: str, picks: list[tuple[str, OrderingTuple]]
    ) -> CommitCertificate:
        replies = tuple(
            sorted(
                (self.received_reply(client, sender, t) for sender, t in picks),
                key=lambda r: r.sender,
            )
        )
        return CommitCertificate(kind, replies)

    def schedule(self) -> Schedule:
        return Schedule(
            self.cfg, self.workload, tuple(self.events), self.tail_start, self.seq_mode
        )


@dataclass
class ScenarioRun:
    """A finished scenario: its schedule, the run artifacts, the verdicts."""

    name: str
    schedule: Schedule
    sim: Sim
    trace: Trace
    reports: list[ViolationReport]
    notes: list[str]

    def reports_json(self) -> dict:
        return {
            "scenario": self.name,
            "reports": [r.to_json() for r in self.reports],
            "notes": list(self.notes),
        }


def _four_replicas(byzantine: frozenset[str] = frozenset(), faulty: frozenset[str] = frozenset()) -> Config:
    return Config(4, 1, ("R", "L", "Q", "T"), byzantine, faulty)


def _finish(name: str, b: ScheduleBuilder) -> ScenarioRun:
    schedule = b.schedule()
    trace = Trace(schedule, b.sim.records)
    reports, notes = run_checkers(Observations.from_sim(b.sim))
    return ScenarioRun(name, schedule, b.sim, trace, reports, notes)


def _build_safety() -> ScenarioRun:
    cfg = _four_replicas(byzantine=frozenset({"T"}), faulty=frozenset({"c1"}))
    a = Command("a", "c1", "k", "va")
    bcmd = Command("b", "c2", "k", "vb")
    workload = (WorkItem("c1", a, "R"), WorkItem("c2", bcmd, "T"))
    b = ScheduleBuilder(cfg, workload)

    r0 = InstanceId("R", 0)
    bare = OrderingTuple(a, frozenset(), 1)
    ext = OrderingTuple(a, frozenset({InstanceId("T", 0)}), 2)

    b.deliver("request", "c1", "R", note="R assigns a to its next slot")
    b.deliver("request", "c2", "T", note="b reaches the byzantine replica and goes no further")
    b.deliver("spec_order", "R", "L")
    b.deliver("spec_order", "R", "Q")
    b.deliver("spec_order", "R", "T")
    b.adversary(
        "T",
        ByzantineChoice(BYZ_EQUIVOCATE_SPEC_REPLY, item=1, branches=(bare, ext)),
        note="T answers the same proposal with two tuples",
    )
    b.deliver("spec_reply", "R", "c1")
    b.deliver("spec_reply", "L", "c1")
    b.deliver("spec_reply", "Q", "c1")
    b.deliver("spec_reply", "T", "c1", nth=0)
    b.deliver("spec_reply", "T", "c1")

    cc_fast = b.certificate("fast", "c1", [("R", bare), ("L", bare), ("Q", bare), ("T", bare)])
    cc_slow = b.certificate("slow", "c1", [("L", bare), ("Q", bare), ("T", ext)])
    b.adversary(
        "c1",
        FaultyClientChoice(FAULTY_SPLIT, certificates=((cc_fast, ("R",)), (cc_slow, ("Q",)))),
        note="one certificate per recipient: R finalizes fast, Q slow",
    )
    b.deliver("commit_fast", "c1", "R", note="R finalizes a[]@1")
    b.deliver("commit", "c1", "Q", note="Q finalizes a[T.0]@2")
    b.deliver("commit_reply", "Q", "c1")

    b.trigger("L", r0)
    b.trigger("Q", r0)
    b.adversary(
        "T",
        ByzantineChoice(BYZ_ARBITRARY_VOTE, instance=r0, branches=(ext,)),
        note="T votes the equivocated tuple into the owner change",
    )
    b.deliver("owner_change", "L", "L")
    b.deliver("owner_change", "Q", "L")
    b.deliver("owner_change", "T", "L", note="selection sees Q's certificate and picks a[T.0]@2")
    b.deliver("new_owner", "L", "L")
    b.deliver("new_owner", "L", "Q")
    b.deliver("new_owner", "L", "T")
    b.deliver("commit_reply", "L", "c1")
    b.deliver("commit_reply", "Q", "c1")
    # The NEW-OWNER addressed to R stays pending: R keeps its fast commit.
    return _finish(SAFETY, b)


def _build_exec_consistency() -> ScenarioRun:
    cfg = _four_replicas()
    a = Command("a", "c1", "k", "va")
    bcmd = Command("b", "c2", "k", "vb")
    workload = (WorkItem("c1", a, "R"), WorkItem("c2", bcmd, "Q"))
    b = ScheduleBuilder(cfg, workload)

    r0 = InstanceId("R", 0)
    q0 = InstanceId("Q", 0)

    b.deliver("request", "c1", "R", note="R proposes a with no dependencies")
    b.deliver("request", "c2", "Q", note="Q proposes b with no dependencies")
    b.deliver("spec_order", "R", "L", note="L sees a first: replies a[]@1")
    b.deliver("spec_order", "Q", "R", note="R already holds a: replies b[R.0]@2")
    b.deliver("spec_order", "R", "Q", note="Q already holds b: replies a[Q.0]@2")
    b.deliver("spec_order", "Q", "T", note="T sees b first: replies b[]@1")
    b.deliver("spec_order", "R", "T")
    # The proposal of b addressed to L stays pending for the whole run.
    b.deliver("spec_reply", "R", "c1")
    b.deliver("spec_reply", "L", "c1")
    b.deliver("spec_reply", "Q", "c1")
    b.deliver("spec_reply", "T", "c1")
    b.deliver("spec_reply", "Q", "c2")
    b.deliver("spec_reply", "R", "c2")
    b.deliver("spec_reply", "T", "c2")

    b.trigger("L", r0)
    b.trigger("R", r0)
    b.trigger("Q", r0)
    b.deliver("owner_change", "L", "L")
    b.deliver("owner_change", "R", "L")
    b.deliver("owner_change", "Q", "L", note="two plain replies outweigh Q's extension: a[]@1 wins")
    b.deliver("new_owner", "L", "L")
    b.deliver("new_owner", "L", "Q", note="Q overwrites a[Q.0]@2 with a[]@1")
    b.deliver("new_owner", "L", "T")

    b.trigger("T", q0)
    b.trigger("Q", q0)
    b.trigger("R", q0)
    b.deliver("owner_change", "T", "T")
    b.deliver("owner_change", "Q", "T")
    b.deliver("owner_change", "R", "T", note="two plain replies outweigh R's extension: b[]@1 wins")
    b.deliver("new_owner", "T", "R", note="R overwrites b[R.0]@2 with b[]@1")
    b.deliver("new_owner", "T", "Q")
    b.deliver("new_owner", "T", "T")

    b.deliver("commit_reply", "L", "c1")
    b.deliver("commit_reply", "Q", "c1")
    b.deliver("commit_reply", "T", "c1")
    b.deliver("commit_reply", "R", "c2")
    b.deliver("commit_reply", "Q", "c2")
    b.deliver("commit_reply", "T", "c2")
    return _finish(EXEC_CONSISTENCY, b)


def _build_liveness() -> ScenarioRun:
    cfg = _four_replicas(byzantine=frozenset({"T"}), faulty=frozenset({"c1"}))
    a = Command("a", "c1", "k", "va")
    bcmd = Command("b", "c2", "k", "vb")
    workload = (WorkItem("c1", a, "R"), WorkItem("c2", bcmd, "T"))
    b = ScheduleBuilder(cfg, workload)

    r0 = InstanceId("R", 0)
    bare = OrderingTuple(a, frozenset(), 1)
    ext = OrderingTuple(a, frozenset({InstanceId("T", 0)}), 2)

    b.deliver("request", "c1", "R")
    b.deliver("spec_order", "R", "L")
    b.deliver("spec_order", "R", "Q")
    b.deliver("spec_order", "R", "T")
    b.deliver("request", "c2", "T", note="b reaches only the byzantine replica")
    b.adversary(
        "T",
        ByzantineChoice(BYZ_EQUIVOCATE_SPEC_REPLY, item=0, branches=(bare, ext)),
        note="T answers the same proposal with two tuples",
    )
    b.deliver("spec_reply", "R", "c1")
    b.deliver("spec_reply", "L", "c1")
    b.deliver("spec_reply", "Q", "c1")
    b.deliver("spec_reply", "T", "c1", nth=0)
    b.deliver("spec_reply", "T", "c1")

    cc1 = b.certificate("slow", "c1", [("L", bare), ("Q", bare), ("R", bare)])
    cc2 = b.certificate("slow", "c1", [("L", bare), ("Q", bare), ("T", ext)])
    b.adversary(
        "c1",
        FaultyClientChoice(FAULTY_SPLIT, certificates=((cc1, ("R",)), (cc2, ("L",)))),
        note="two slow certificates vouch for non-equal tuples",
    )
    b.deliver("commit", "c1", "R", note="R finalizes a[]@1")
    b.deliver("commit", "c1", "L", note="L finalizes a[T.0]@2")
    b.deliver("commit_reply", "R", "c1")
    b.deliver("commit_reply", "L", "c1")

    b.mark_tail()
    b.trigger("R", r0)
    b.trigger("L", r0)
    b.trigger("Q", r0)
    b.drain()
    # The new owner sees both certificates at the same owner number; no
    # selection rule reconciles them, so no NEW-OWNER is ever sent and
    # the other client's command is stuck behind the dead instance space.
    return _finish(LIVENESS, b)


def build_happy_path() -> ScenarioRun:
    """Fault-free single command committing on the fast path; every checker
    passes. Used as the clean baseline in tests and demos."""
    cfg = _four_replicas()
    a = Command("a", "c1", "k", "va")
    workload = (WorkItem("c1", a, "R"),)
    b = ScheduleBuilder(cfg, workload)
    b.deliver("request", "c1", "R")
    b.deliver("spec_order", "R", "L")
    b.deliver("spec_order", "R", "Q")
    b.deliver("spec_order", "R", "T")
    b.deliver("spec_reply", "R", "c1")
    b.deliver("spec_reply", "L", "c1")
    b.deliver("spec_reply", "Q", "c1")
    b.deliver("spec_reply", "T", "c1", note="all four replies match: fast certificate")
    b.mark_tail()
    b.drain()
    return _finish("happy-path", b)


_BUILDERS = {
    SAFETY: _build_safety,
    EXEC_CONSISTENCY: _build_exec_consistency,
    LIVENESS: _build_liveness,
}


def build_scenario(name: str) -> ScenarioRun:
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownScenario(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}"
        )
    return builder()


def expected_summaries(name: str) -> tuple[tuple[str, str], ...]:
    if name not in EXPECTED_REPORTS:
        raise UnknownScenario(name)
    return EXPECTED_REPORTS[name]


def report_summaries(run: ScenarioRun) -> tuple[tuple[str, str], ...]:
    return tuple((r.property, r.details) for r in run.reports)


def write_artifacts(run: ScenarioRun, out_dir: str) -> dict[str, str]:
    """Write schedule.json, trace.jsonl, and reports.json into a directory."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "schedule": os.path.join(out_dir, "schedule.json"),
        "trace": os.path.join(out_dir, "trace.jsonl"),
        "reports": os.path.join(out_dir, "reports.json"),
    }
    run.schedule.write(paths["schedule"])
    run.trace.write(paths["trace"])
    with open(paths["reports"], "w", encoding="utf-8") as fh:
        fh.write(canonical_json(run.reports_json()) + "\n")
    return paths


def golden_text(name: str, kind: str) -> str:
    """Packaged reference artifact for a scenario: kind is one of
    'schedule', 'trace', 'reports'."""
    suffix = {"schedule": "schedule.json", "trace": "trace.jsonl", "reports": "reports.json"}[kind]
    return (
        resources.files("ezbft_lab.data").joinpath(f"{name}.{suffix}").read_text("utf-8")
    )


def artifact_text(run: ScenarioRun, kind: str) -> str:
    """The same bytes write_artifacts writes, as a string."""
    if kind == "schedule":
        return canonical_json(run.schedule.to_json()) + "\n"
    if kind == "trace":
        return run.trace.serialize()
    if kind == "reports":
        return canonical_json(run.reports_json()) + "\n"
    raise ValueError(f"unknown artifact kind {kind!r}")
