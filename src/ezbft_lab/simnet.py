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
  - byzantine replica: the payload lands in the inbox its state holds and
    nothing happens until an adversary event consumes it;
  - faulty client: the payload is recorded (clients can always read their
    channel) but protocol reactions come only from adversary events.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    json_field,
    json_fields,
    json_strings,
    json_value,
    text_digest,
)
from .messages import ClientRequest, CommitReply, Envelope, SpecReply
from .replica import ReplicaState
from .adversary import ByzantineChoice, FaultyClientChoice

DELIVER = "deliver"
TIMEOUT = "timeout"
TRIGGER_OWNER_CHANGE = "trigger_owner_change"
ADVERSARY = "adversary"

# The slow-path rule every schedule file names: the union of the reported
# deps at the highest reported seq. A file naming any other rule is refused,
# not replayed under this one.
SEQ_MODE = "max"

DRAIN_CAP = 10_000
# Handler steps a TransitionMemo holds before it starts over.
MEMO_CAP = 512

# What an event produces: ``(recipient, payload)`` outputs, emitted by the
# caller, and effect dicts.
Outputs = Sequence[tuple[str, Any]]
Effects = Sequence[dict[str, Any]]
# A handler changes the node state it is given and returns what it produced.
Handler = Callable[..., tuple[list[tuple[str, Any]], list[dict[str, Any]]]]


class ScheduleError(Exception):
    """The schedule asked for something the run cannot do."""


@dataclass(frozen=True)
class WorkItem:
    """One client command submission: who sends what to which replica."""

    client: str
    command: Command
    target: str

    to_json = json_fields

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

    def to_json(self) -> dict[str, Any]:
        return {**json_fields(self), "seq_mode": SEQ_MODE}

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "Schedule":
        """Raises ScheduleError when a field is missing or ill-typed."""
        with malformed("schedule"):
            seq_mode = json_field(data, "seq_mode", str, optional=True)
            if seq_mode not in (None, SEQ_MODE):
                raise ValueError(f"unknown seq mode {seq_mode!r}")
            schedule = Schedule(
                config=Config.from_json(json_field(data, "config", dict)),
                workload=tuple(WorkItem.from_json(w) for w in json_field(data, "workload", list)),
                events=tuple(Event.from_json(e) for e in json_field(data, "events", list)),
                tail_start=json_field(data, "tail_start", int, optional=True),
            )
            # The tail is a suffix of the events, empty when it starts at
            # their end.
            tail_start, count = schedule.tail_start, len(schedule.events)
            if tail_start is not None and not 0 <= tail_start <= count:
                raise ValueError(f"tail_start {tail_start} is outside the {count} events")
            check_workload_clients(schedule.config, schedule.workload)
            return schedule

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(self.to_json()) + "\n")

    @staticmethod
    def read(path: str) -> "Schedule":
        with open(path, "r", encoding="utf-8") as fh:
            return Schedule.from_json(json.load(fh))


def check_workload_clients(config: Config, workload: Iterable[WorkItem]) -> None:
    """Raise ValueError when a workload client's id is a replica's: one id
    cannot name two nodes."""
    clash = sorted({item.client for item in workload} & set(config.replica_ids))
    if clash:
        raise ValueError(f"workload clients that are replica ids: {', '.join(clash)}")


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
        """Raises ScheduleError when a line is not JSON or the header is
        malformed. The records are checked as they are decoded, by
        ``Observations.from_trace``."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if not lines:
            raise ScheduleError("empty trace file")
        with malformed("trace"):
            schedule = Schedule.from_json(json_field(json.loads(lines[0]), "schedule", dict))
            records = [json.loads(ln) for ln in lines[1:]]
        return Trace(schedule, records)


@contextmanager
def malformed(what: str) -> Iterator[None]:
    """Report a missing or ill-typed field as a ScheduleError."""
    try:
        yield
    except KeyError as exc:
        raise ScheduleError(f"malformed {what}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed {what}: {exc}") from exc


def observed_effect(eff: Any, seq_no: int) -> dict[str, Any] | None:
    """A traced commit or selection effect decoded into the record that
    ``Sim._log_event`` logs, as far as checkers read it; an execute effect
    into its replica and order; None for any other. Raises on a bad field."""
    kind = json_field(eff, "type", str, optional=True)
    if kind == "execute":
        return {"type": kind, "replica": json_field(eff, "replica", str), "order": json_strings(eff, "order")}
    if kind not in _LOGGED_TYPES:
        return None
    record = {"type": kind, "seq_no": seq_no}
    for key in ("replica", "via") if kind == "commit" else ("leader", "outcome"):
        record[key] = json_field(eff, key, str)
    record["instance"] = InstanceId.parse(json_field(eff, "instance", str))
    record["owner_number"] = json_field(eff, "owner_number", int)
    # A commit names one tuple and a conflict two; other selections may not.
    optional = kind == "selection" and record["outcome"] != owner_change.CONFLICT
    for key in ("tuple",) if kind == "commit" else ("tuple", "second"):
        value = json_field(eff, key, dict, optional=optional)
        record[key] = None if value is None else OrderingTuple.from_json(value)
    return record


class _Step(NamedTuple):
    """One memoized handler step: the canonical state it ran on, the
    object its key names by identity, what it produced, and the commit and
    selection effects among its effects, which ``Sim._log_event`` logs."""

    before: Any
    keep: Any
    after: Any
    outputs: tuple[tuple[str, Any], ...]
    effects: tuple[dict[str, Any], ...]
    logged: tuple[dict[str, Any], ...]


class TransitionMemo:
    """Handler steps of correct nodes, shared by the Sims of one search.

    Node states and the payloads steps emit are hash-consed: a state's
    ``value()`` (or a payload itself) maps to one canonical object, so
    equal values share that object and the derived forms it carries, the
    node key (``node_key``) among them. ``value()`` ignores dict order, so
    states that differ only in the order their dicts were filled share one
    object and one set of steps. No Sim changes an installed state, so no canonical
    state ever changes. A step is keyed by the identity of its canonical
    input state plus the event's input: sender and payload identity for a
    delivery, the instance for an owner-change trigger, the command for a
    timeout. It stores the canonical result state, the canonical payloads
    to emit and the effects. Handlers also read the configuration, so a
    memo serves the Sims of one configuration.

    Each entry holds the objects its key names by identity, so no identity
    is reused while the entry exists. Identities stand for values, so
    forgetting an entry is always safe. The memo keeps two generations of
    states, payloads and steps. Once the young generation holds
    ``MEMO_CAP`` steps it becomes the old one, the previous old one is
    dropped, and a fresh young one starts, so the memo holds at most
    2 x ``MEMO_CAP`` steps. ``lookup``, ``canonical`` and payload
    interning consult the old generation after the young one and promote
    what they find into the young one, so what a search keeps using
    survives the start-over. Callers go through ``lookup`` and ``store``
    and keep no reference to the tables. ``Sim._step``, and ``Sim.settle``
    for a tail delivery, look a step up once per event, and compute and
    store it through ``Sim._compute`` on a miss.
    """

    def __init__(self) -> None:
        self.computed = 0
        self.reused = 0
        self._states: dict[tuple, Any] = {}
        self._payloads: dict[Any, Any] = {}
        self._steps: dict[tuple[int, tuple], _Step] = {}
        self._old_states: dict[tuple, Any] = {}
        self._old_payloads: dict[Any, Any] = {}
        self._old_steps: dict[tuple[int, tuple], _Step] = {}

    def _new_generation(self) -> None:
        """Make the young generation the old one and start a fresh one."""
        self._old_states, self._old_payloads, self._old_steps = (
            self._states, self._payloads, self._steps,
        )
        self._states, self._payloads, self._steps = {}, {}, {}

    def _keep(self, entry: tuple[int, tuple], step: _Step) -> None:
        """Put a step into the young generation, starting a new one first
        when it is full."""
        if len(self._steps) >= MEMO_CAP:
            self._new_generation()
        self._steps[entry] = step

    def canonical(self, state: Any) -> Any:
        """The canonical object equal to ``state``."""
        value = state.value()
        found = self._states.get(value)
        if found is None:
            found = self._old_states.get(value, state)
            self._states[value] = found
        return found

    def _intern(self, payload: Any) -> Any:
        """The canonical object equal to a payload a step emits."""
        found = self._payloads.get(payload)
        if found is None:
            found = self._old_payloads.get(payload, payload)
            self._payloads[found] = found
        return found

    def lookup(self, state: Any, key: tuple) -> _Step | None:
        """The stored step for a canonical state and an event input."""
        entry = (id(state), key)
        step = self._steps.get(entry)
        if step is None:
            step = self._old_steps.get(entry)
            if step is None:
                return None
            self._keep(entry, step)
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
        """Record a computed step."""
        step = _Step(
            before,
            keep,
            self.canonical(after),
            tuple((recipient, self._intern(p)) for recipient, p in outputs),
            tuple(effects),
            _logged(effects),
        )
        self._keep((id(before), key), step)
        self.computed += 1
        return step


class Sim:
    """Live simulation state: every node plus the message pool.

    The constructor seeds one pending request envelope per workload item
    (hop 0); nothing else happens until events are applied.

    A Sim never changes a node-state object once it installed it: every
    event that changes a node installs a new object, either a private copy
    the handler changed or the memo's canonical result. A byzantine
    replica's inbox and consumed set are part of its state. Installed
    objects can therefore be shared freely, and each carries its node key
    and its trace digest, so both are computed only for what an event
    installed. The pending pool's part of the search key is a multiset hash
    (``pending_hash``). Once asked for, it is kept up to date: ``_emit``
    adds and a delivery in ``apply`` subtracts each envelope's element
    hash. A ``settle`` drops it, so an effects-only tail pays nothing for
    it.

    A Sim delivers messages two ways. ``apply`` builds the event, emits
    the node's outputs into the pending pool and is the reference; a
    ``drain`` is a loop of ``apply`` deliveries. ``settle`` keeps only
    effects and queues outputs on a FIFO; it is the search's fast path.
    ``_route`` decides which deliveries are a correct node's handler step
    and ``_receive`` holds the other delivery rules. ``settle`` looks a
    routed step up in the memo itself, sends every other delivery through
    ``_receive`` and runs owner-change triggers through the step ``apply``
    uses. A Sim built with a ``TransitionMemo`` (and every clone of it)
    keeps each correct node's state canonical and looks each of its
    handler steps up in the memo once; a hit installs the stored result
    state and returns the stored outputs and effects, so envelope ids,
    hops, logs and effects are those of a direct run.
    """

    def __init__(
        self,
        cfg: Config,
        workload: tuple[WorkItem, ...],
        record_trace: bool = False,
        memo: TransitionMemo | None = None,
    ):
        self.cfg = cfg
        self.workload = workload
        self.record_trace = record_trace
        self.replicas: dict[str, ReplicaState] = {r: ReplicaState(r) for r in cfg.replica_ids}
        self.clients: dict[str, ClientState] = {}
        # Undelivered envelopes in emission order, and the sum mod 2**64 of
        # their element hashes, kept from the first ``pending_hash`` call
        # on (None until then, and again after a settle).
        self._pending: dict[str, Envelope] = {}
        self._pending_hash: int | None = None
        self.counters: dict[str, int] = {}
        self.seq_no = 0
        self.tail_start: int | None = None
        self.records: list[dict[str, Any]] = []
        # Cheap observation logs, holding values, kept even with tracing off.
        self.commit_log: list[dict[str, Any]] = []
        self.selection_log: list[dict[str, Any]] = []
        self._memo = memo

        for item in workload:
            state = self.clients.setdefault(item.client, ClientState(item.client))
            client_mod.new_request(state, item.command, item.target)
            self._emit(item.client, [(item.target, ClientRequest(item.client, item.command))], 0)
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
        twin.replicas = dict(self.replicas)
        twin.clients = dict(self.clients)
        twin._pending = dict(self._pending)
        twin._pending_hash = self._pending_hash
        twin.counters = dict(self.counters)
        twin.seq_no = self.seq_no
        twin.tail_start = self.tail_start
        twin.records = list(self.records)
        twin.commit_log = list(self.commit_log)
        twin.selection_log = list(self.selection_log)
        twin._memo = self._memo
        return twin

    def _own(self, node: str) -> Any:
        """Install and return a private copy of ``node``'s state for an
        event to change."""
        nodes: dict[str, Any] = self.clients if node in self.clients else self.replicas
        state = nodes[node] = nodes[node].clone()
        return state

    # -- emission and delivery ------------------------------------------

    def _emit(self, sender: str, outputs: Outputs, hop: int) -> list[Envelope]:
        """Put ``sender``'s ``(recipient, payload)`` outputs into the
        pending pool as envelopes at ``hop``, with ids from its counter."""
        emitted = []
        total = self._pending_hash
        for recipient, payload in outputs:
            count = self.counters.get(sender, 0)
            self.counters[sender] = count + 1
            env = Envelope(f"{sender}#{count}", sender, recipient, payload, hop)
            self._pending[env.id] = env
            emitted.append(env)
            if total is not None:
                total += _element_hash(sender, recipient, payload)
        if total is not None:
            self._pending_hash = total & _MASK
        return emitted

    def pending(self) -> list[Envelope]:
        """Produced-but-undelivered envelopes, in emission order."""
        return list(self._pending.values())

    def pending_hash(self) -> int:
        """The pending pool as a multiset hash: the sum mod 2**64 of every
        pending envelope's element hash, ignoring ids, hops and order.
        Computed from scratch on the first call, then kept by each event."""
        total = self._pending_hash
        if total is None:
            total = self._pending_hash = pool_hash(self._pending.values())
        return total

    def drain(self, note: str = "") -> list[Event]:
        """Deliver the oldest pending message through ``apply`` until none
        remain; returns the events applied, each carrying ``note``. Raises
        ScheduleError when ``DRAIN_CAP`` deliveries leave messages pending."""
        applied: list[Event] = []
        for _ in range(DRAIN_CAP):
            if not self._pending:
                return applied
            event = Event(DELIVER, message=next(iter(self._pending)), note=note)
            self.apply(event)
            applied.append(event)
        raise ScheduleError(f"drain did not quiesce within {DRAIN_CAP} deliveries")

    def settle(self, triggers: Iterable[tuple[str, InstanceId]] = ()) -> int:
        """Apply each owner-change trigger ``(replica, instance)``, then
        deliver every message until none remain; returns the number of
        triggers applied. Deliveries and triggers take the steps, order and
        seq numbers that ``apply`` and ``drain`` give them: the pending
        envelopes in emission order, then the triggers' outputs, each
        delivery's outputs queued behind. Each trigger is taken from
        ``triggers`` after the one before it was applied, and goes through
        the step ``apply`` uses. With a memo, a delivery that ``_route``
        makes a handler step is looked up here, once, and computed by
        ``_compute``, the compute half ``_step`` uses, on a miss; every
        other delivery goes through ``_receive``.

        Only effects are kept: the commit and selection logs and
        ``seq_no``. No envelope id, event, record, counter or pool hash is
        built, and outputs are queued as the ``(sender, outputs)`` batch the
        step returned. Counters are therefore stale afterwards, so a settled
        Sim is only read, never extended. A traced Sim records every event,
        so it raises ValueError. Raises ScheduleError when ``DRAIN_CAP``
        deliveries leave messages pending."""
        if self.record_trace:
            raise ValueError("a traced Sim records every event; settle records none")
        fifo: deque[tuple[str, Outputs]] = deque(
            (env.sender, ((env.recipient, env.payload),)) for env in self._pending.values()
        )
        self._pending = {}
        self._pending_hash = None
        fired = 0
        for replica, instance in triggers:
            outputs, _effects, logged = self._apply_trigger(replica, instance)
            self._log_event(logged)
            if outputs:
                fifo.append((replica, outputs))
            fired += 1
        memo = self._memo
        if memo is not None:
            lookup = memo.lookup
        route, receive, compute = self._route, self._receive, self._compute
        left = DRAIN_CAP
        while fifo:
            sender, batch = fifo.popleft()
            for node, payload in batch:
                if not left:
                    raise ScheduleError(f"drain did not quiesce within {DRAIN_CAP} deliveries")
                left -= 1
                step_of = None if memo is None else route(None, sender, node, payload)
                if step_of is None:
                    outputs, _effects, logged = receive(None, sender, node, payload)
                else:
                    nodes, handler, args = step_of
                    before, key = nodes[node], (sender, id(payload))
                    step = lookup(before, key)
                    if step is None:
                        step = compute(before, key, payload, handler, *args)
                    nodes[node] = step.after
                    outputs, logged = step.outputs, step.logged
                if outputs:
                    fifo.append((node, outputs))
                if logged:
                    self._log_event(logged)
                else:
                    self.seq_no += 1
        return fired

    def _step(
        self,
        node: str,
        key: tuple,
        keep: Any,
        handler: Handler,
        *args: Any,
    ) -> tuple[Outputs, Effects, Effects]:
        """Run correct ``node``'s ``handler(state, *args)`` and return its
        outputs, effects and the effects to log. Without a memo the handler
        changes a private copy of the state. With one, the step is looked
        up once under the canonical state and the event input ``key``
        (``keep`` is an object the key names by identity), computed on a
        copy and stored on a miss, and its canonical result state is
        installed."""
        memo = self._memo
        if memo is None:
            outputs, effects = handler(self._own(node), *args)
            return outputs, effects, _logged(effects)
        nodes: dict[str, Any] = self.replicas if node in self.replicas else self.clients
        before = nodes[node]
        step = memo.lookup(before, key)
        if step is None:
            step = self._compute(before, key, keep, handler, *args)
        nodes[node] = step.after
        # Its last three fields: outputs, effects and logged effects.
        return step[3:]

    def _compute(
        self,
        before: Any,
        key: tuple,
        keep: Any,
        handler: Handler,
        *args: Any,
    ) -> _Step:
        """The compute half of a memo step that missed: run
        ``handler(state, *args)`` on a copy of the canonical state
        ``before`` and store the step under ``before`` and ``key``."""
        after = before.clone()
        outputs, effects = handler(after, *args)
        return self._memo.store(before, key, keep, after, outputs, effects)

    def _route(
        self, env_id: str | None, sender: str, node: str, payload: Any
    ) -> tuple[dict[str, Any], Handler, tuple] | None:
        """The handler step a delivery is, as the recipient's state table,
        its handler and the handler's arguments after the state; None when
        the delivery is none: a byzantine replica's inbox, a faulty
        client's record, a payload a correct client does not take or an
        unknown recipient. ``_receive`` and ``settle`` both route here."""
        cfg = self.cfg
        if node in self.replicas:
            if node in cfg.byzantine_ids:
                return None
            return self.replicas, _honest_delivery, (cfg, env_id, sender, payload)
        if node in self.clients and node not in cfg.faulty_client_ids:
            handler = _CLIENT_HANDLERS.get(type(payload))
            if handler is not None:
                return self.clients, handler, (cfg, payload)
        return None

    def _receive(
        self, env_id: str | None, sender: str, node: str, payload: Any
    ) -> tuple[Outputs, Effects, Effects]:
        """Hand a message taken from the pool to its recipient and return
        the recipient's outputs, effects and effects to log, emitting
        nothing. A handler step (``_route``) goes through ``_step``; the
        other delivery rules live here. ``env_id`` only names the message
        in errors; ``settle`` delivers without one."""
        step_of = self._route(env_id, sender, node, payload)
        if step_of is not None:
            _nodes, handler, args = step_of
            return self._step(node, (sender, id(payload)), payload, handler, *args)

        if node in self.cfg.byzantine_ids:
            state = self._own(node)
            state.inbox += ((sender, payload),)
            return [], [{"type": "inbox", "node": node, "from": sender, "kind": payload.kind}], ()

        if node in self.clients:
            if node in self.cfg.faulty_client_ids:
                state = self._own(node)
                if isinstance(payload, SpecReply):
                    client_mod.record_reply(state, payload)
                elif isinstance(payload, CommitReply):
                    client_mod.record_commit_reply(state, payload)
                return [], [{"type": "recorded", "node": node, "kind": payload.kind}], ()
            return [], [{"type": "drop", "node": node, "reason": "unexpected_payload"}], ()

        raise ScheduleError(
            f"{_message_name(env_id, sender, node)} addressed to unknown node {node!r}"
        )

    # -- event application ----------------------------------------------

    def apply(self, event: Event) -> dict[str, Any]:
        """Execute one event, emit its outputs into the pending pool and
        return its record (see ``_record``)."""
        kind = event.kind
        hop = 0
        if kind == DELIVER:
            env = self._pending.pop(event.message, None)
            if env is None:
                raise ScheduleError(
                    f"message {event.message!r} is not pending (unknown or already delivered)"
                )
            if self._pending_hash is not None:
                self._pending_hash = (
                    self._pending_hash - _element_hash(env.sender, env.recipient, env.payload)
                ) & _MASK
            node, hop = env.recipient, env.hop + 1
            outputs, effects, logged = self._receive(env.id, env.sender, node, env.payload)
        elif kind == TIMEOUT:
            node = event.client
            outputs, effects, logged = self._apply_timeout(event)
        elif kind == TRIGGER_OWNER_CHANGE:
            node = event.replica
            outputs, effects, logged = self._apply_trigger(event.replica, event.instance)
        elif kind == ADVERSARY:
            node = event.node
            outputs, effects = self._apply_adversary(event)
            logged = _logged(effects)
        else:
            raise ScheduleError(f"unknown event kind {kind!r}")
        return self._record(event, self._emit(node, outputs, hop), effects, logged)

    def _record(
        self, event: Event, emitted: list[Envelope], effects: Effects, logged: Effects
    ) -> dict[str, Any]:
        """Log an event's commit and selection effects, ``logged``, and
        return its record. Only with tracing on is it retained and does it
        carry the trace fields and the effects' JSON, written only here."""
        traced = self.record_trace
        effects = json_value(effects) if traced else list(effects)
        record = {"seq_no": self.seq_no, "kind": event.kind, "effects": effects}
        self._log_event(logged)
        if traced:
            record["event"] = event.to_json()
            record["emitted"] = [json_fields(e) for e in emitted]
            record["digests"] = self.node_digests()
            self.records.append(record)
        return record

    def _log_event(self, logged: Effects) -> None:
        """Log an event's commit and selection effects (see ``_logged``) at
        its seq number, then advance ``seq_no``."""
        seq_no = self.seq_no
        for eff in logged:
            log = self.commit_log if eff["type"] == "commit" else self.selection_log
            log.append({**eff, "seq_no": seq_no})
        self.seq_no = seq_no + 1

    def _apply_timeout(self, event: Event) -> tuple[Outputs, Effects, Effects]:
        if event.client not in self.clients:
            raise ScheduleError(f"timeout for unknown client {event.client!r}")
        if event.client in self.cfg.faulty_client_ids:
            raise ScheduleError("timeouts fire only for correct clients")
        return self._step(
            event.client, (TIMEOUT, event.command), None,
            client_mod.on_timeout, self.cfg, event.command,
        )

    def _apply_trigger(
        self, replica: str | None, instance: InstanceId | None
    ) -> tuple[Outputs, Effects, Effects]:
        if replica not in self.cfg.replica_ids:
            raise ScheduleError(f"owner-change trigger for unknown replica {replica!r}")
        if replica in self.cfg.byzantine_ids:
            raise ScheduleError("owner-change triggers apply to correct replicas only")
        if instance is None:
            raise ScheduleError("owner-change trigger names no instance")
        self._check_instance(instance)
        return self._step(
            replica, (TRIGGER_OWNER_CHANGE, instance), None,
            owner_change.make_vote, self.cfg, instance,
        )

    def _apply_adversary(self, event: Event) -> tuple[Outputs, Effects]:
        node = event.node
        try:
            if node in self.cfg.byzantine_ids:
                if not isinstance(event.choice, ByzantineChoice):
                    raise ScheduleError(f"{node} takes byzantine choices")
                if event.choice.instance is not None:
                    self._check_instance(event.choice.instance)
                return adversary_mod.apply_byzantine(self._own(node), self.cfg, event.choice)
            if node in self.cfg.faulty_client_ids:
                if not isinstance(event.choice, FaultyClientChoice):
                    raise ScheduleError(f"{node} takes faulty-client choices")
                if node not in self.clients:
                    raise ScheduleError(f"faulty client {node!r} has no workload")
                return adversary_mod.apply_faulty_client(self._own(node), self.cfg, event.choice)
            raise ScheduleError(f"adversary event for non-faulty node {node!r}")
        except (adversary_mod.BadChoice, adversary_mod.ForgedReply) as exc:
            raise ScheduleError(f"adversary event failed: {exc}") from exc

    def _check_instance(self, instance: InstanceId) -> None:
        """Refuse an event's instance whose owner is not a replica: every
        owner-number rule starts from the owner's position."""
        if instance.owner not in self.cfg.replica_ids:
            raise ScheduleError(
                f"instance {instance} is owned by {instance.owner!r}, not a replica"
            )

    # -- snapshots --------------------------------------------------------

    def node_digests(self) -> dict[str, str]:
        """Digest of every replica and client state, as trace records
        carry them: the sha256 of the state's canonical JSON text."""
        digests: dict[str, str] = {}
        for node, state in (*self.replicas.items(), *self.clients.items()):
            if state.digest is None:
                state.digest = text_digest(state.to_json())
            digests[node] = state.digest
        return digests


# -- search key and logged effects ---------------------------------------

_MASK = (1 << 64) - 1
# Effect types that ``Sim._log_event`` logs.
_LOGGED_TYPES = ("commit", "selection")


def _logged(effects: Effects) -> tuple[dict[str, Any], ...]:
    """The commit and selection effects among an event's effects."""
    return tuple(eff for eff in effects if eff.get("type") in _LOGGED_TYPES)


def _honest_delivery(
    state: ReplicaState, cfg: Config, env_id: str | None, sender: str, payload: Any
) -> tuple[list[tuple[str, Any]], list[dict[str, Any]]]:
    """A correct replica's handler for a delivered payload. A payload no
    honest handler takes is a ScheduleError naming the message."""
    try:
        return adversary_mod.honest_step(state, cfg, sender, payload)
    except adversary_mod.BadChoice as exc:
        raise ScheduleError(
            f"{_message_name(env_id, sender, state.id)} cannot be delivered: {exc}"
        ) from exc


# The handler a correct client runs on each payload type it takes; it drops
# any other payload.
_CLIENT_HANDLERS: dict[type, Handler] = {
    SpecReply: client_mod.on_spec_reply,
    CommitReply: client_mod.on_commit_reply,
}


def _message_name(env_id: str | None, sender: str, node: str) -> str:
    """A message as errors name it: by its envelope id when it has one."""
    if env_id is None:
        return f"a message from {sender!r} to {node!r}"
    return f"message {env_id!r}"


def _element_hash(sender: str, recipient: str, payload: Any) -> int:
    """One pending envelope's part of the pool hash: splitmix64's finalizer
    applied to the Python hash of ``(sender, recipient, payload)``. A sum of
    raw Python hashes is not a sound multiset hash: tuple hashes are nearly
    additive in their last item, so two pools that swap payloads between
    two recipients can sum alike. The finalizer spreads every input bit
    over all 64 output bits."""
    x = (hash((sender, recipient, payload)) + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def pool_hash(envelopes: Iterable[Envelope]) -> int:
    """The multiset hash of a pending pool, computed from scratch."""
    total = sum(_element_hash(env.sender, env.recipient, env.payload) for env in envelopes)
    return total & _MASK


def node_key(state: Any) -> int:
    """One node's part of the search key, cached on its state in ``key``:
    the hash of its ``value()`` with the arrival-ordered part made a
    multiset, so that commuting delivery orders give one key. That part is
    a client's received replies, or a byzantine replica's inbox of
    ``(sender, payload, consumed)``. It is computed on first use: most
    canonical states a search makes are tail states that are never keyed."""
    if state.key is None:
        value = state.value()
        if isinstance(state, ClientState):
            # value() ends with the received replies.
            value = value[:-1] + (_multiset(state.received),)
        elif state.inbox:
            # value() ends with the inbox and the consumed indices.
            consumed = state.consumed
            inbox = _multiset((s, p, i in consumed) for i, (s, p) in enumerate(state.inbox))
            value = value[:-2] + (inbox,)
        state.key = hash(value)
    return state.key


def _multiset(items: Iterable[Any]) -> frozenset:
    """Hashable items as an order-free multiset."""
    return frozenset(Counter(items).items())


def run(schedule: Schedule, record_trace: bool = True) -> tuple[Sim, Trace]:
    """Replay a schedule from scratch. Deterministic: equal schedules give
    byte-identical traces."""
    sim = Sim(schedule.config, schedule.workload, record_trace)
    sim.tail_start = schedule.tail_start
    for event in schedule.events:
        sim.apply(event)
    return sim, Trace(schedule, sim.records)

