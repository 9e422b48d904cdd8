"""Deterministic discrete-event harness.

A Schedule is the complete description of a run: configuration, workload,
and an ordered event list. Running it is pure replay — virtual time is the
event index, message ids are assigned deterministically at emission, and
every handler is a deterministic step function — so the same schedule
always produces the byte-identical trace. Messages are never lost: an
undelivered envelope stays pending until some event delivers it.

Delivery semantics by recipient:
  - correct replica / correct client: the payload goes straight into the
    matching protocol handler;
  - byzantine replica: the payload lands in an inbox and nothing happens
    until an adversary event consumes it;
  - faulty client: the payload is recorded (clients can always read their
    channel) but protocol reactions come only from adversary events.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from . import adversary as adversary_mod
from . import client as client_mod
from . import owner_change
from .client import ClientState
from .core import (
    Command,
    Config,
    InstanceId,
    OrderingTuple,
    canonical_json,
    digest,
    json_field,
    json_strings,
)
from .messages import (
    ClientRequest,
    CommitReply,
    Envelope,
    SpecReply,
    envelope_to_json,
    payload_to_json,
)
from .replica import ReplicaState
from .adversary import ByzantineChoice, FaultyClientChoice

DELIVER = "deliver"
TIMEOUT = "timeout"
TRIGGER_OWNER_CHANGE = "trigger_owner_change"
ADVERSARY = "adversary"

DRAIN_CAP = 10_000
# Handler steps a TransitionMemo holds before it starts over.
MEMO_CAP = 512


class ScheduleError(Exception):
    """The schedule asked for something the run cannot do."""


@dataclass(frozen=True)
class WorkItem:
    """One client command submission: who sends what to which replica."""

    client: str
    command: Command
    target: str

    def to_json(self) -> dict[str, Any]:
        return {"client": self.client, "command": self.command.to_json(), "target": self.target}

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "WorkItem":
        return WorkItem(
            json_field(data, "client", str),
            Command.from_json(json_field(data, "command", dict)),
            json_field(data, "target", str),
        )


class Event(NamedTuple):
    """One scheduled step. Exactly the fields for its kind are set:

    deliver:              message (an envelope id)
    timeout:              client, command (a command id)
    trigger_owner_change: replica, instance
    adversary:            node, choice
    """

    kind: str
    message: str | None = None
    client: str | None = None
    command: str | None = None
    replica: str | None = None
    instance: InstanceId | None = None
    node: str | None = None
    choice: ByzantineChoice | FaultyClientChoice | None = None
    note: str = ""

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind}
        if self.message is not None:
            data["message"] = self.message
        if self.client is not None:
            data["client"] = self.client
        if self.command is not None:
            data["command"] = self.command
        if self.replica is not None:
            data["replica"] = self.replica
        if self.instance is not None:
            data["instance"] = str(self.instance)
        if self.node is not None:
            data["node"] = self.node
        if self.choice is not None:
            data["choice"] = adversary_mod.choice_to_json(self.choice)
        if self.note:
            data["note"] = self.note
        return data

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "Event":
        def text(key: str) -> str | None:
            return json_field(data, key, str, optional=True)

        instance = text("instance")
        choice = json_field(data, "choice", dict, optional=True)
        return Event(
            kind=json_field(data, "kind", str),
            message=text("message"),
            client=text("client"),
            command=text("command"),
            replica=text("replica"),
            instance=InstanceId.parse(instance) if instance else None,
            node=text("node"),
            choice=adversary_mod.choice_from_json(choice) if choice else None,
            note=text("note") or "",
        )


@dataclass(frozen=True)
class Schedule:
    """A complete, replayable run description."""

    config: Config
    workload: tuple[WorkItem, ...]
    events: tuple[Event, ...]
    tail_start: int | None = None
    seq_mode: str = client_mod.SEQ_MODE_MAX

    def to_json(self) -> dict[str, Any]:
        return {
            "config": self.config.to_json(),
            "workload": [w.to_json() for w in self.workload],
            "events": [e.to_json() for e in self.events],
            "tail_start": self.tail_start,
            "seq_mode": self.seq_mode,
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "Schedule":
        """Raises ScheduleError when a field is missing or ill-typed."""
        with _malformed("schedule"):
            seq_mode = json_field(data, "seq_mode", str, optional=True) or client_mod.SEQ_MODE_MAX
            if seq_mode not in (client_mod.SEQ_MODE_MAX, client_mod.SEQ_MODE_RECOMPUTE):
                raise ValueError(f"unknown seq mode {seq_mode!r}")
            return Schedule(
                config=Config.from_json(json_field(data, "config", dict)),
                workload=tuple(WorkItem.from_json(w) for w in json_field(data, "workload", list)),
                events=tuple(Event.from_json(e) for e in json_field(data, "events", list)),
                tail_start=json_field(data, "tail_start", int, optional=True),
                seq_mode=seq_mode,
            )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(self.to_json()) + "\n")

    @staticmethod
    def read(path: str) -> "Schedule":
        with open(path, "r", encoding="utf-8") as fh:
            return Schedule.from_json(json.load(fh))


@dataclass
class Trace:
    """Header (the schedule) plus one record per executed event."""

    schedule: Schedule
    records: list[dict[str, Any]]

    def lines(self) -> list[str]:
        head = canonical_json({"schedule": self.schedule.to_json()})
        return [head] + [canonical_json(r) for r in self.records]

    def serialize(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())

    @staticmethod
    def read(path: str) -> "Trace":
        """Raises ScheduleError when the header or a record misses a field
        the checkers read, or holds it with the wrong type."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if not lines:
            raise ScheduleError("empty trace file")
        with _malformed("trace"):
            schedule = Schedule.from_json(json_field(json.loads(lines[0]), "schedule", dict))
            records = [json.loads(ln) for ln in lines[1:]]
            for record in records:
                _check_record(record)
        return Trace(schedule, records)


@contextmanager
def _malformed(what: str) -> Iterator[None]:
    """Report a missing or ill-typed field as a ScheduleError."""
    try:
        yield
    except KeyError as exc:
        raise ScheduleError(f"malformed {what}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed {what}: {exc}") from exc


def _check_record(record: Any) -> None:
    """Type-check the trace record fields that observations and checkers
    read: seq number, emitted ids, delivered message, and the commit,
    selection and execute effects."""
    json_field(record, "seq_no", int)
    for env in json_field(record, "emitted", list, optional=True) or []:
        json_field(env, "id", str)
    event = json_field(record, "event", dict, optional=True) or {}
    if json_field(event, "kind", str, optional=True) == DELIVER:
        json_field(event, "message", str)
    for eff in json_field(record, "effects", list, optional=True) or []:
        kind = json_field(eff, "type", str, optional=True)
        if kind == "commit":
            for key in ("replica", "instance", "via"):
                json_field(eff, key, str)
            json_field(eff, "owner_number", int)
            OrderingTuple.from_json(json_field(eff, "tuple", dict))
        elif kind == "selection":
            for key in ("leader", "instance"):
                json_field(eff, key, str)
            json_field(eff, "owner_number", int)
            # A conflict names both certified tuples; other outcomes may not.
            conflict = json_field(eff, "outcome", str) == "conflict"
            for key in ("tuple", "second"):
                value = json_field(eff, key, dict, optional=not conflict)
                if value is not None:
                    OrderingTuple.from_json(value)
        elif kind == "execute":
            json_field(eff, "replica", str)
            json_strings(eff, "order")


class _Step(NamedTuple):
    """One memoized handler step: the canonical state it ran on, the
    object its key names by identity, and what it produced."""

    before: Any
    keep: Any
    after: Any
    outputs: tuple[tuple[str, Any], ...]
    effects: tuple[dict[str, Any], ...]


class TransitionMemo:
    """Handler steps of correct nodes, shared by the Sims of one search.

    Node states and the payloads steps emit are hash-consed: a state's
    ``value()`` (or a payload itself) maps to one canonical object, so
    equal values share that object and the derived forms it carries. No
    Sim changes an installed state, so no canonical state ever changes. A
    step is keyed by the identity of its canonical input state plus the
    event's input: sender and payload identity for a delivery, the
    instance for an owner-change trigger, the command for a timeout. It
    stores the canonical result state, the canonical payloads to emit and
    the effects. Handlers also read the configuration, so a memo serves
    the Sims of one configuration.

    Each entry holds the objects its key names by identity, so no identity
    is reused while the entry exists. Identities stand for values, so
    clearing is always safe: the memo starts over once it holds
    ``MEMO_CAP`` steps.
    """

    def __init__(self) -> None:
        self.computed = 0
        self.reused = 0
        self._clear()

    def _clear(self) -> None:
        self._states: dict[tuple, Any] = {}
        self._payloads: dict[Any, Any] = {}
        self._steps: dict[tuple[int, tuple], _Step] = {}

    def canonical(self, state: Any) -> Any:
        """The canonical object equal to ``state``."""
        return self._states.setdefault(state.value(), state)

    def lookup(self, state: Any, key: tuple) -> _Step | None:
        """The stored step for a canonical state and an event input."""
        step = self._steps.get((id(state), key))
        if step is not None:
            self.reused += 1
        return step

    def store(
        self,
        before: Any,
        key: tuple,
        keep: Any,
        after: Any,
        outputs: list[tuple[str, Any]],
        effects: list[dict[str, Any]],
    ) -> _Step:
        """Record a computed step, starting over first when full."""
        if len(self._steps) >= MEMO_CAP:
            self._clear()
        payloads = self._payloads
        step = _Step(
            before,
            keep,
            self.canonical(after),
            tuple((recipient, payloads.setdefault(p, p)) for recipient, p in outputs),
            tuple(effects),
        )
        self._steps[(id(before), key)] = step
        self.computed += 1
        return step


class Sim:
    """Live simulation state: every node plus the message pool.

    The constructor seeds one pending request envelope per workload item
    (hop 0); nothing else happens until events are applied.

    A Sim never changes a node-state object once it installed it: every
    event that changes a node installs a new object, either a private copy
    the handler changed or the memo's canonical result. A byzantine
    replica's inbox and consumed set are replaced together with its state.
    Installed objects can therefore be shared freely, and each carries its
    own dedup projection and trace digest (and each envelope its dedup
    token), so fingerprints and trace digests are computed only for what
    an event installed.

    A Sim built with a ``TransitionMemo`` (and every clone of it) keeps
    each correct node's state canonical and runs every correct node's
    handler step through the memo. A reused step re-emits its payloads
    through ``_emit``, so envelope ids, hops, logs and effects are those
    of a direct run.
    """

    def __init__(
        self,
        cfg: Config,
        workload: tuple[WorkItem, ...],
        record_trace: bool = False,
        seq_mode: str = client_mod.SEQ_MODE_MAX,
        memo: TransitionMemo | None = None,
    ):
        self.cfg = cfg
        self.workload = workload
        self.record_trace = record_trace
        self.seq_mode = seq_mode
        self.replicas: dict[str, ReplicaState] = {r: ReplicaState(r) for r in cfg.replica_ids}
        self.clients: dict[str, ClientState] = {}
        # Undelivered envelopes in emission order.
        self._pending: dict[str, Envelope] = {}
        self.counters: dict[str, int] = {}
        self.inboxes: dict[str, list[tuple[str, Any]]] = {b: [] for b in sorted(cfg.byzantine_ids)}
        self.consumed: dict[str, set[int]] = {b: set() for b in sorted(cfg.byzantine_ids)}
        self.seq_no = 0
        self.tail_start: int | None = None
        self.records: list[dict[str, Any]] = []
        # Cheap observation logs kept even with tracing off.
        self.commit_log: list[dict[str, Any]] = []
        self.selection_log: list[dict[str, Any]] = []
        self._memo = memo

        for item in workload:
            state = self.clients.setdefault(item.client, ClientState(item.client))
            client_mod.new_request(state, item.command, item.target)
            self._emit(item.client, item.target, ClientRequest(item.client, item.command), hop=0)
        if memo is not None:
            faulty = cfg.byzantine_ids | cfg.faulty_client_ids
            for nodes in (self.replicas, self.clients):
                for node in nodes:
                    if node not in faulty:
                        nodes[node] = memo.canonical(nodes[node])

    def clone(self) -> "Sim":
        """A twin sharing every installed node object with this Sim; an
        event on either installs new objects and leaves the other alone."""
        twin = Sim.__new__(Sim)
        twin.cfg = self.cfg
        twin.workload = self.workload
        twin.record_trace = self.record_trace
        twin.seq_mode = self.seq_mode
        twin.replicas = dict(self.replicas)
        twin.clients = dict(self.clients)
        twin._pending = dict(self._pending)
        twin.counters = dict(self.counters)
        twin.inboxes = dict(self.inboxes)
        twin.consumed = dict(self.consumed)
        twin.seq_no = self.seq_no
        twin.tail_start = self.tail_start
        twin.records = list(self.records)
        twin.commit_log = list(self.commit_log)
        twin.selection_log = list(self.selection_log)
        twin._memo = self._memo
        return twin

    def _own(self, node: str) -> Any:
        """Install and return a private copy of ``node``'s state for an
        event to change; a byzantine replica's inbox and consumed set are
        copied with it."""
        if node in self.clients:
            state = self.clients[node] = self.clients[node].clone()
            return state
        state = self.replicas[node] = self.replicas[node].clone()
        if node in self.inboxes:
            self.inboxes[node] = list(self.inboxes[node])
            self.consumed[node] = set(self.consumed[node])
        return state

    # -- emission and delivery ------------------------------------------

    def _emit(self, sender: str, recipient: str, payload: Any, hop: int) -> Envelope:
        count = self.counters.get(sender, 0)
        self.counters[sender] = count + 1
        env = Envelope(f"{sender}#{count}", sender, recipient, payload, hop)
        self._pending[env.id] = env
        return env

    def pending(self) -> list[Envelope]:
        """Produced-but-undelivered envelopes, in emission order."""
        return list(self._pending.values())

    def drain(self, note: str = "") -> list[Event]:
        """Deliver the oldest pending envelope until none remain; returns
        the events applied, each carrying ``note``. Raises ScheduleError
        when ``DRAIN_CAP`` deliveries leave messages pending."""
        applied: list[Event] = []
        for _ in range(DRAIN_CAP):
            if not self._pending:
                return applied
            event = Event(DELIVER, message=next(iter(self._pending)), note=note)
            self.apply(event)
            applied.append(event)
        raise ScheduleError(f"drain did not quiesce within {DRAIN_CAP} deliveries")

    def _wrap(self, sender: str, outputs: list[tuple[str, Any]], hop: int) -> list[Envelope]:
        return [self._emit(sender, recipient, payload, hop) for recipient, payload in outputs]

    def _react(
        self,
        node: str,
        key: tuple,
        keep: Any,
        handler: Callable[[Any], tuple[list[tuple[str, Any]], list[dict[str, Any]]]],
        hop: int,
    ) -> tuple[list[Envelope], list[dict[str, Any]]]:
        """Run a correct node's handler on a copy of its state and emit its
        outputs at ``hop``. With a memo, the step is first looked up by the
        canonical state and ``key``; ``keep`` is an object the key names by
        identity. A computed step is stored with its result state made
        canonical, and the canonical result is installed."""
        memo = self._memo
        if memo is None:
            outputs, effects = handler(self._own(node))
            return self._wrap(node, outputs, hop), effects
        nodes: dict[str, Any] = self.clients if node in self.clients else self.replicas
        before = nodes[node]
        step = memo.lookup(before, key)
        if step is None:
            after = before.clone()
            outputs, effects = handler(after)
            step = memo.store(before, key, keep, after, outputs, effects)
        nodes[node] = step.after
        return [self._emit(node, r, p, hop) for r, p in step.outputs], list(step.effects)

    def _deliver(self, env_id: str) -> tuple[list[Envelope], list[dict[str, Any]]]:
        env = self._pending.pop(env_id, None)
        if env is None:
            raise ScheduleError(f"message {env_id!r} is not pending (unknown or already delivered)")
        node = env.recipient

        if node in self.cfg.byzantine_ids:
            self._own(node)
            self.inboxes[node].append((env.sender, env.payload))
            return [], [{"type": "inbox", "node": node, "from": env.sender, "kind": env.kind}]

        cfg, sender, payload = self.cfg, env.sender, env.payload
        key = (sender, id(payload))
        if node in cfg.replica_ids:
            try:
                return self._react(
                    node,
                    key,
                    payload,
                    lambda state: adversary_mod.honest_step(state, cfg, sender, payload),
                    env.hop + 1,
                )
            except adversary_mod.BadChoice as exc:
                raise ScheduleError(f"message {env_id!r} cannot be delivered: {exc}") from exc

        if node in self.clients:
            if node in cfg.faulty_client_ids:
                state = self._own(node)
                if isinstance(payload, SpecReply):
                    client_mod.record_reply(state, payload)
                elif isinstance(payload, CommitReply):
                    client_mod.record_commit_reply(state, payload)
                return [], [{"type": "recorded", "node": node, "kind": env.kind}]
            if isinstance(payload, SpecReply):
                handler = client_mod.on_spec_reply
            elif isinstance(payload, CommitReply):
                handler = client_mod.on_commit_reply
            else:
                return [], [{"type": "drop", "node": node, "reason": "unexpected_payload"}]
            return self._react(
                node,
                key,
                payload,
                lambda state: handler(state, cfg, payload),
                env.hop + 1,
            )

        raise ScheduleError(f"message {env_id!r} addressed to unknown node {node!r}")

    # -- event application ----------------------------------------------

    def apply(self, event: Event) -> dict[str, Any]:
        """Execute one event; returns its record, which carries the trace
        fields (and is retained) only when tracing is on."""
        if event.kind == DELIVER:
            emitted, effects = self._deliver(event.message)
        elif event.kind == TIMEOUT:
            emitted, effects = self._apply_timeout(event)
        elif event.kind == TRIGGER_OWNER_CHANGE:
            emitted, effects = self._apply_trigger(event)
        elif event.kind == ADVERSARY:
            emitted, effects = self._apply_adversary(event)
        else:
            raise ScheduleError(f"unknown event kind {event.kind!r}")

        for eff in effects:
            if eff.get("type") == "commit":
                self.commit_log.append({**eff, "seq_no": self.seq_no})
            elif eff.get("type") == "selection":
                self.selection_log.append({**eff, "seq_no": self.seq_no})

        if self.record_trace:
            record = {
                "seq_no": self.seq_no,
                "kind": event.kind,
                "event": event.to_json(),
                "emitted": [envelope_to_json(e) for e in emitted],
                "effects": effects,
                "digests": self.node_digests(),
            }
            self.records.append(record)
        else:
            record = {"seq_no": self.seq_no, "kind": event.kind, "effects": effects}
        self.seq_no += 1
        return record

    def _apply_timeout(self, event: Event) -> tuple[list[Envelope], list[dict[str, Any]]]:
        if event.client not in self.clients:
            raise ScheduleError(f"timeout for unknown client {event.client!r}")
        if event.client in self.cfg.faulty_client_ids:
            raise ScheduleError("timeouts fire only for correct clients")
        return self._react(
            event.client,
            (TIMEOUT, event.command, self.seq_mode),
            None,
            lambda state: client_mod.on_timeout(state, self.cfg, event.command, self.seq_mode),
            0,
        )

    def _apply_trigger(self, event: Event) -> tuple[list[Envelope], list[dict[str, Any]]]:
        if event.replica not in self.cfg.replica_ids:
            raise ScheduleError(f"owner-change trigger for unknown replica {event.replica!r}")
        if event.replica in self.cfg.byzantine_ids:
            raise ScheduleError("owner-change triggers apply to correct replicas only")
        if event.instance is None:
            raise ScheduleError("owner-change trigger names no instance")
        return self._react(
            event.replica,
            (TRIGGER_OWNER_CHANGE, event.instance),
            None,
            lambda state: owner_change.make_vote(state, self.cfg, event.instance),
            0,
        )

    def _apply_adversary(self, event: Event) -> tuple[list[Envelope], list[dict[str, Any]]]:
        node = event.node
        try:
            if node in self.cfg.byzantine_ids:
                if not isinstance(event.choice, ByzantineChoice):
                    raise ScheduleError(f"{node} takes byzantine choices")
                state = self._own(node)
                outputs, effects = adversary_mod.apply_byzantine(
                    state, self.cfg, self.inboxes[node], self.consumed[node], event.choice
                )
            elif node in self.cfg.faulty_client_ids:
                if not isinstance(event.choice, FaultyClientChoice):
                    raise ScheduleError(f"{node} takes faulty-client choices")
                if node not in self.clients:
                    raise ScheduleError(f"faulty client {node!r} has no workload")
                outputs, effects = adversary_mod.apply_faulty_client(
                    self._own(node), self.cfg, event.choice
                )
            else:
                raise ScheduleError(f"adversary event for non-faulty node {node!r}")
        except (adversary_mod.BadChoice, adversary_mod.ForgedReply) as exc:
            raise ScheduleError(f"adversary event failed: {exc}") from exc
        return self._wrap(node, outputs, 0), effects

    # -- snapshots --------------------------------------------------------

    def node_digests(self) -> dict[str, str]:
        """Digest of every replica and client state, as trace records
        carry them."""
        digests: dict[str, str] = {}
        for node, state in (*self.replicas.items(), *self.clients.items()):
            if state.digest is None:
                state.digest = digest(state.to_json())
            digests[node] = state.digest
        return digests

    def fingerprint(self) -> str:
        """Identity of this state for search deduplication: node states,
        byzantine inboxes and the pending multiset, without envelope ids.

        Arrival orders that cannot influence future behavior (a client's
        received-reply history, inbox item order) are sorted away so that
        commuting delivery interleavings collapse to one search state. The
        parts are canonical JSON, which never contains a newline, so the
        newline-joined digest input is unambiguous.
        """
        nodes = (*self.replicas.items(), *self.clients.items())
        parts = [self._part(node, state) for node, state in nodes]
        parts += sorted(env.token for env in self._pending.values())
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    def _part(self, node: str, state: Any) -> str:
        """The dedup projection of one node, cached on its state."""
        if state.part is None:
            data = state.to_json()
            if node in self.clients:
                data["received"] = sorted(canonical_json(r) for r in data["received"])
            elif node in self.inboxes:
                consumed = self.consumed[node]
                data = {
                    "state": data,
                    "inbox": sorted(
                        canonical_json(
                            {"from": s, "payload": payload_to_json(p), "consumed": i in consumed}
                        )
                        for i, (s, p) in enumerate(self.inboxes[node])
                    ),
                }
            state.part = canonical_json(data)
        return state.part


def run(schedule: Schedule, record_trace: bool = True) -> tuple[Sim, Trace]:
    """Replay a schedule from scratch. Deterministic: equal schedules give
    byte-identical traces."""
    sim = Sim(schedule.config, schedule.workload, record_trace, schedule.seq_mode)
    sim.tail_start = schedule.tail_start
    for event in schedule.events:
        sim.apply(event)
    return sim, Trace(schedule, sim.records)

