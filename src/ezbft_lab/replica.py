"""Replica state machine: speculative ordering, commit validation, execution.

Handlers mutate the given state and return ``(outputs, effects)``: outputs
are ``(recipient, payload)`` pairs the harness wraps in envelopes, effects
dicts of what changed that hold values; only ``Sim._record`` writes JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .core import (
    Command,
    Config,
    InstanceId,
    OrderingTuple,
    OwnerNumber,
    cached_hash,
    cached_json,
    canonical_json,
    interferes,
    json_fields,
    json_object,
    state_json,
    tuples_equal,
)
from .messages import (
    Commit,
    CommitCertificate,
    CommitFast,
    CommitReply,
    SpecOrder,
    SpecReply,
    payload_text,
    payloads_text,
)

SPECULATED = "speculated"
COMMITTED = "committed"

Output = tuple[str, Any]
Effect = dict[str, Any]


@cached_hash
@dataclass(frozen=True)
class InstanceRecord:
    """What one replica currently holds for one instance."""

    instance: InstanceId
    tuple: OrderingTuple
    owner_number: OwnerNumber
    status: str
    certificate: CommitCertificate | None = None


@dataclass
class ReplicaState:
    """One replica's full local state. Values held in containers are frozen,
    so cloning is a shallow copy of the containers.

    A byzantine replica also holds what it received and has not acted on:
    ``inbox``, the ``(sender, payload)`` pairs in arrival order, and
    ``consumed``, the indices of the items an adversary choice used up.
    Both are immutable values, so a clone shares them and a change installs
    new ones; a correct replica keeps both empty.

    ``value()`` is the state's one identity: the transition memo
    hash-conses states by it and the search's state key is built from it.
    A Sim never changes a state once it installed it, so the state carries
    its derived forms: ``key`` (its 64-bit part of the search key, see
    ``simnet.node_key``), ``digest``
    (the trace digest) and ``texts`` (the JSON text of each field, see
    ``core.state_json``), filled on first use. None is a constructor
    option or part of ``value()``; ``clone()`` hands ``texts`` on."""

    id: str
    next_slot: int = 0
    log: dict[InstanceId, InstanceRecord] = field(default_factory=dict)
    # Spec replies this replica itself sent, latest per instance.
    sent_replies: dict[InstanceId, SpecReply] = field(default_factory=dict)
    # Current owner number per instance, only where it moved off the default.
    owner_numbers: dict[InstanceId, OwnerNumber] = field(default_factory=dict)
    # Owner-change bookkeeping while this replica acts as a new owner:
    # votes collected and the selection decision, keyed by (instance, number).
    votes: dict[tuple[InstanceId, OwnerNumber], dict[str, Any]] = field(default_factory=dict)
    decisions: dict[tuple[InstanceId, OwnerNumber], Any] = field(default_factory=dict)
    # Owner numbers this replica has already voted into, to suppress re-votes.
    voted: set[tuple[InstanceId, OwnerNumber]] = field(default_factory=set)
    # Execution artifacts, rebuilt by replay() whenever the log changes.
    executed: tuple[tuple[str, tuple[str, ...], int], ...] = ()
    kv: dict[str, tuple[str, ...]] = field(default_factory=dict)
    inbox: tuple[tuple[str, Any], ...] = ()
    consumed: frozenset[int] = frozenset()
    key: int | None = field(default=None, init=False, compare=False, repr=False)
    digest: str | None = field(default=None, init=False, compare=False, repr=False)
    texts: dict[str, tuple[Any, str]] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def clone(self) -> "ReplicaState":
        twin = ReplicaState(
            id=self.id,
            next_slot=self.next_slot,
            log=dict(self.log),
            sent_replies=dict(self.sent_replies),
            owner_numbers=dict(self.owner_numbers),
            votes={k: dict(v) for k, v in self.votes.items()},
            decisions=dict(self.decisions),
            voted=set(self.voted),
            executed=self.executed,
            kv=dict(self.kv),
            inbox=self.inbox,
            consumed=self.consumed,
        )
        twin.texts = self.texts
        return twin

    def value(self) -> tuple:
        """The state as one hashable value of its frozen parts. Dicts and
        ``voted`` are sorted by key, so insertion order, on which no
        handler's result depends, is not part of it: equal values are
        equal states. It ends with the inbox, in arrival order, and the
        consumed indices."""
        return (
            ReplicaState,
            self.id,
            self.next_slot,
            tuple(sorted(self.log.items())),
            tuple(sorted(self.sent_replies.items())),
            tuple(sorted(self.owner_numbers.items())),
            tuple(sorted((key, tuple(sorted(votes.items()))) for key, votes in self.votes.items())),
            tuple(sorted(self.decisions.items())),
            tuple(sorted(self.voted)),
            self.executed,
            tuple(sorted(self.kv.items())),
            self.inbox,
            self.consumed,
        )

    def to_json(self) -> str:
        """The state's canonical JSON text, which trace digests hash."""
        return state_json(self, _REPLICA_FIELDS)

    def current_owner_number(self, cfg: Config, instance: InstanceId) -> OwnerNumber:
        number = self.owner_numbers.get(instance)
        return cfg.default_owner_number(instance) if number is None else number

    def next_vote(self, cfg: Config, instance: InstanceId) -> OwnerNumber | None:
        """The owner number this replica's next vote moves an instance
        into, or None once it has voted for that number."""
        target = self.current_owner_number(cfg, instance) + 1
        return None if (instance, target) in self.voted else target

    def interfering_instances(self, cmd: Command) -> frozenset[InstanceId]:
        return frozenset(
            i for i, rec in self.log.items() if interferes(rec.tuple.command, cmd)
        )


def _by_instance(items: dict[InstanceId, Any], encode: Callable[[Any], str]) -> str:
    return json_object([(str(i), encode(v)) for i, v in items.items()])


def _by_number(
    items: dict[tuple[InstanceId, OwnerNumber], Any], encode: Callable[[Any], str]
) -> str:
    return json_object([(f"{i}@{n}", encode(v)) for (i, n), v in items.items()])


def _record_text(rec: InstanceRecord) -> str:
    """The record's JSON text as its replica's log holds it, under its
    instance. It is written from the kept texts of its tuple and its
    certificate, which other records and payloads share, and kept on the
    record in ``cached_json``'s slot."""
    text = rec.__dict__.get("_json")
    if text is None:
        cert = rec.certificate
        text = rec.__dict__["_json"] = json_object([
            ("tuple", cached_json(rec.tuple, OrderingTuple.to_json)),
            ("owner_number", canonical_json(rec.owner_number)),
            ("status", canonical_json(rec.status)),
            ("certificate", "null" if cert is None else cached_json(cert, json_fields)),
        ])
    return text


def _selection_text(selection: Any) -> str:
    return cached_json(selection, type(selection).to_json)


# ReplicaState's JSON form: each attribute, under its own name, and the
# function that writes its value's JSON text.
_REPLICA_FIELDS: tuple[tuple[str, Callable[[Any], str]], ...] = (
    ("id", canonical_json),
    ("next_slot", canonical_json),
    ("log", lambda log: _by_instance(log, _record_text)),
    ("sent_replies", lambda sent: _by_instance(sent, payload_text)),
    ("owner_numbers", lambda numbers: _by_instance(numbers, canonical_json)),
    ("votes", lambda votes: _by_number(votes, payloads_text)),
    ("decisions", lambda decisions: _by_number(decisions, _selection_text)),
    ("voted", lambda voted: canonical_json(sorted(f"{i}@{n}" for i, n in voted))),
    ("executed", canonical_json),
    ("kv", canonical_json),
)


def execution_order(records: Iterable[InstanceRecord], replica_order: tuple[str, ...]) -> list[InstanceRecord]:
    """Deterministic execution order: ascending seq, ties broken by the
    instance owner's position in the configuration, then slot."""
    pos = {r: i for i, r in enumerate(replica_order)}
    return sorted(
        records,
        key=lambda rec: (rec.tuple.seq, pos[rec.instance.owner], rec.instance.slot),
    )


def replay(state: ReplicaState, cfg: Config) -> Effect | None:
    """Rebuild execution artifacts from the log on a fresh store.

    Returns an execute effect when the executed sequence changed. Replaying
    from scratch is how attribute changes on commit take hold: the whole
    key's history is re-run rather than patched.
    """
    ordered = execution_order(state.log.values(), cfg.replica_ids)
    executed = tuple(
        (rec.tuple.command.id, tuple(sorted(str(d) for d in rec.tuple.deps)), rec.tuple.seq)
        for rec in ordered
    )
    kv: dict[str, tuple[str, ...]] = {}
    for rec in ordered:
        cmd = rec.tuple.command
        kv[cmd.key] = kv.get(cmd.key, ()) + (cmd.payload,)
    if executed == state.executed:
        state.kv = kv
        return None
    state.executed = executed
    state.kv = kv
    return {
        "type": "execute",
        "replica": state.id,
        "order": [e[0] for e in executed],
    }


def result_for(state: ReplicaState, cmd: Command) -> str:
    """Execution result a replica reports for a command: the key's history
    up to and including it. Diverging orders yield diverging results."""
    by_id = {rec.tuple.command.id: rec.tuple.command for rec in state.log.values()}
    seen: list[str] = []
    for cid, _deps, _seq in state.executed:
        c = by_id[cid]
        if c.key != cmd.key:
            continue
        seen.append(c.payload)
        if cid == cmd.id:
            break
    return "|".join(seen)


def _store(state: ReplicaState, cfg: Config, rec: InstanceRecord) -> list[Effect]:
    state.log[rec.instance] = rec
    effects: list[Effect] = []
    exec_effect = replay(state, cfg)
    if exec_effect:
        effects.append(exec_effect)
    return effects


def on_client_request(
    state: ReplicaState, cfg: Config, cmd: Command
) -> tuple[list[Output], list[Effect]]:
    """Assign the next slot in this replica's instance space, broadcast the
    proposal, and answer the client directly (the owner replies too)."""
    instance = InstanceId(state.id, state.next_slot)
    state.next_slot += 1
    deps = state.interfering_instances(cmd)
    seq = max((state.log[d].tuple.seq for d in deps), default=0) + 1
    t = OrderingTuple(cmd, deps, seq)
    number = cfg.default_owner_number(instance)
    rec = InstanceRecord(instance, t, number, SPECULATED)
    effects: list[Effect] = [
        {"type": "propose", "replica": state.id, "instance": instance, "tuple": t}
    ]
    effects += _store(state, cfg, rec)
    outputs: list[Output] = [
        (peer, SpecOrder(instance, t, number, cmd.client))
        for peer in cfg.replica_ids
        if peer != state.id
    ]
    reply = SpecReply(state.id, cmd.client, instance, t, number, result_for(state, cmd))
    state.sent_replies[instance] = reply
    outputs.append((cmd.client, reply))
    return outputs, effects


def on_spec_order(
    state: ReplicaState, cfg: Config, msg: SpecOrder, sender: str
) -> tuple[list[Output], list[Effect]]:
    """Accept a proposal into an empty slot, fold in locally known
    interference, execute speculatively, and reply to the client."""
    current = state.current_owner_number(cfg, msg.instance)
    if msg.owner_number < current:
        return [], [_drop(state.id, "stale_owner_number", msg.instance)]
    if cfg.leader_at(msg.owner_number) != sender:
        return [], [_drop(state.id, "not_leader", msg.instance)]
    if msg.instance in state.log:
        return [], [_drop(state.id, "slot_occupied", msg.instance)]

    cmd = msg.tuple.command
    local = state.interfering_instances(cmd)
    deps = msg.tuple.deps | local
    # msg.seq already covers the sender's view of msg.deps; only locally
    # known tuples can raise it further (dangling refs stay dangling).
    local_seq = max((state.log[d].tuple.seq for d in deps if d in state.log), default=0) + 1
    seq = max(msg.tuple.seq, local_seq)
    t = OrderingTuple(cmd, deps, seq)
    rec = InstanceRecord(msg.instance, t, msg.owner_number, SPECULATED)
    effects = [
        {"type": "accept", "replica": state.id, "instance": msg.instance, "tuple": t}
    ]
    effects += _store(state, cfg, rec)
    reply = SpecReply(state.id, msg.client, msg.instance, t, msg.owner_number, result_for(state, cmd))
    state.sent_replies[msg.instance] = reply
    return [(msg.client, reply)], effects


def on_commit_fast(
    state: ReplicaState, cfg: Config, msg: CommitFast, sender: str
) -> tuple[list[Output], list[Effect]]:
    """Commit on a full fast certificate: 3f+1 identical replies."""
    reason = msg.certificate.validate(cfg.n, cfg.f)
    if reason is None and msg.certificate.cert_kind != "fast":
        reason = "fast path requires a fast certificate"
    if reason is None and msg.certificate.instance != msg.instance:
        reason = "certificate is for a different instance"
    if reason is None and msg.certificate.owner_number < state.current_owner_number(cfg, msg.instance):
        reason = "stale certificate owner number"
    if reason is not None:
        return [], [_drop(state.id, f"invalid_certificate: {reason}", msg.instance)]
    t = msg.certificate.vouched_tuple()
    return [], _commit(state, cfg, msg.instance, t, msg.certificate.owner_number, "fast", msg.certificate)


def on_commit(
    state: ReplicaState, cfg: Config, msg: Commit, sender: str
) -> tuple[list[Output], list[Effect]]:
    """Commit on a slow certificate, re-execute if attributes changed, and
    report the result back to the command's client.

    Validation checks the certificate is internally consistent and that the
    committed tuple is exactly its dep union and seq max. It cannot tell
    which replies the client left out; that gap is a property of the
    protocol, not of this implementation.
    """
    reason = msg.certificate.validate(cfg.n, cfg.f)
    if reason is None and msg.certificate.cert_kind != "slow":
        reason = "slow path requires a slow certificate"
    if reason is None and msg.certificate.instance != msg.instance:
        reason = "certificate is for a different instance"
    if reason is None and not tuples_equal(msg.certificate.vouched_tuple(), msg.tuple):
        reason = "tuple is not the certificate's union/max"
    if reason is None and msg.certificate.owner_number < state.current_owner_number(cfg, msg.instance):
        reason = "stale certificate owner number"
    if reason is not None:
        return [], [_drop(state.id, f"invalid_certificate: {reason}", msg.instance)]

    effects = _commit(state, cfg, msg.instance, msg.tuple, msg.certificate.owner_number, "slow", msg.certificate)
    cmd = msg.tuple.command
    reply = CommitReply(state.id, cmd.client, msg.instance, msg.tuple, result_for(state, cmd))
    return [(cmd.client, reply)], effects


def _commit(
    state: ReplicaState,
    cfg: Config,
    instance: InstanceId,
    t: OrderingTuple,
    number: OwnerNumber,
    via: str,
    certificate: CommitCertificate | None,
) -> list[Effect]:
    rec = InstanceRecord(instance, t, number, COMMITTED, certificate)
    effects: list[Effect] = [
        {
            "type": "commit",
            "replica": state.id,
            "instance": instance,
            "tuple": t,
            "owner_number": number,
            "via": via,
        }
    ]
    effects += _store(state, cfg, rec)
    if number > state.current_owner_number(cfg, instance):
        state.owner_numbers[instance] = number
    return effects


def _drop(replica: str, reason: str, instance: InstanceId) -> Effect:
    return {"type": "drop", "node": replica, "reason": reason, "instance": instance}
