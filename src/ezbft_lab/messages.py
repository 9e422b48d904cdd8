"""Wire-level message payloads, commit certificates, and network envelopes.

Sender identity on an envelope is authoritative: the harness only ever
stamps the true producer, which is the stand-in for authenticated channels.
Faulty nodes may say arbitrary things but never as somebody else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Mapping, NamedTuple

from .core import (
    Command,
    InstanceId,
    OrderingTuple,
    OwnerNumber,
    cached_hash,
    canonical_json,
    json_field,
)


@cached_hash
@dataclass(frozen=True)
class ClientRequest:
    kind = "request"
    client: str
    command: Command


@cached_hash
@dataclass(frozen=True)
class SpecOrder:
    """Speculative ordering proposal, broadcast by an instance's owner."""

    kind = "spec_order"
    instance: InstanceId
    tuple: OrderingTuple
    owner_number: OwnerNumber
    client: str


@cached_hash
@dataclass(frozen=True)
class SpecReply:
    """A replica's speculative reply; also the record certificates are built from."""

    kind = "spec_reply"
    sender: str
    client: str
    instance: InstanceId
    tuple: OrderingTuple
    owner_number: OwnerNumber
    result: str = ""


@cached_hash
@dataclass(frozen=True)
class CommitCertificate:
    """A set of spec replies packaged by a client to vouch for a tuple.

    cert_kind "fast" needs 3f+1 identical replies; "slow" needs 2f+1 replies
    and vouches for their dep union and seq max.
    """

    cert_kind: str
    replies: tuple[SpecReply, ...]

    @property
    def instance(self) -> InstanceId:
        return self.replies[0].instance

    @property
    def owner_number(self) -> OwnerNumber:
        return self.replies[0].owner_number

    def vouched_tuple(self) -> OrderingTuple:
        if self.cert_kind == "fast":
            return self.replies[0].tuple
        deps: set[InstanceId] = set()
        seq = 0
        for r in self.replies:
            deps |= r.tuple.deps
            seq = max(seq, r.tuple.seq)
        return OrderingTuple(self.replies[0].tuple.command, frozenset(deps), seq)

    def validate(self, n: int, f: int) -> str | None:
        """Return a rejection reason, or None when the certificate is acceptable.

        Slow-path validation deliberately checks only what the replies
        themselves support (distinct senders, one owner number, union/max
        consistency); it cannot see which replies a client chose to omit.
        """
        from .core import tuples_equal

        if not self.replies:
            return "empty certificate"
        senders = {r.sender for r in self.replies}
        if len(senders) != len(self.replies):
            return "duplicate senders in certificate"
        if len({r.instance for r in self.replies}) != 1:
            return "certificate mixes instances"
        if len({r.owner_number for r in self.replies}) != 1:
            return "certificate mixes owner numbers"
        if len({r.tuple.command.id for r in self.replies}) != 1:
            return "certificate mixes commands"
        if self.cert_kind == "fast":
            if len(self.replies) != n:
                return f"fast certificate needs {n} replies"
            first = self.replies[0].tuple
            if not all(tuples_equal(r.tuple, first) for r in self.replies):
                return "fast certificate replies are not identical"
        elif self.cert_kind == "slow":
            if len(self.replies) < 2 * f + 1:
                return f"slow certificate needs at least {2 * f + 1} replies"
        else:
            return f"unknown certificate kind {self.cert_kind!r}"
        return None


@cached_hash
@dataclass(frozen=True)
class CommitFast:
    kind = "commit_fast"
    instance: InstanceId
    certificate: CommitCertificate


@cached_hash
@dataclass(frozen=True)
class Commit:
    kind = "commit"
    instance: InstanceId
    tuple: OrderingTuple
    certificate: CommitCertificate


@cached_hash
@dataclass(frozen=True)
class CommitReply:
    kind = "commit_reply"
    sender: str
    client: str
    instance: InstanceId
    tuple: OrderingTuple
    result: str


@cached_hash
@dataclass(frozen=True)
class OwnerChangeVote:
    """One replica's vote to move an instance into a new owner number.

    Carries the sender's currently accepted tuple, the spec reply it sent
    under the previous owner number, and any commit certificate it holds.
    """

    kind = "owner_change"
    sender: str
    instance: InstanceId
    owner_number: OwnerNumber
    accepted_tuple: OrderingTuple | None = None
    spec_reply: SpecReply | None = None
    certificate: CommitCertificate | None = None


@cached_hash
@dataclass(frozen=True)
class NewOwner:
    """The new owner's decision, carrying the votes that justify it."""

    kind = "new_owner"
    instance: InstanceId
    tuple: OrderingTuple
    owner_number: OwnerNumber
    proof: tuple[OwnerChangeVote, ...]


Payload = (
    ClientRequest
    | SpecOrder
    | SpecReply
    | CommitFast
    | Commit
    | CommitReply
    | OwnerChangeVote
    | NewOwner
)


class Envelope(NamedTuple):
    """One point-to-point message in flight. Broadcasts are one envelope per
    recipient; ids are ``sender#counter`` and double as trace references."""

    id: str
    sender: str
    recipient: str
    payload: Payload
    hop: int

    @property
    def kind(self) -> str:
        return self.payload.kind

    @property
    def token(self) -> str:
        """The envelope as search deduplication sees it, without id or hop:
        the canonical JSON of ``{"from", "to", "payload"}``, assembled from
        the payload's cached JSON."""
        return (
            '{"from":'
            + _quote(self.sender)
            + ',"payload":'
            + payload_json(self.payload)
            + ',"to":'
            + _quote(self.recipient)
            + "}"
        )


def payload_json(p: Payload) -> str:
    """The canonical JSON of a payload, computed once per payload object and
    kept in its ``__dict__`` outside its fields, so ``==``, ``repr`` and
    node ``value()``s ignore it."""
    cache = p.__dict__
    text = cache.get("_json")
    if text is None:
        text = cache["_json"] = canonical_json(payload_to_json(p))
    return text


def payload_to_json(p: Payload) -> dict[str, Any]:
    if isinstance(p, ClientRequest):
        return {"kind": p.kind, "client": p.client, "command": p.command.to_json()}
    if isinstance(p, SpecOrder):
        return {
            "kind": p.kind,
            "instance": str(p.instance),
            "tuple": p.tuple.to_json(),
            "owner_number": p.owner_number,
            "client": p.client,
        }
    if isinstance(p, SpecReply):
        return {
            "kind": p.kind,
            "sender": p.sender,
            "client": p.client,
            "instance": str(p.instance),
            "tuple": p.tuple.to_json(),
            "owner_number": p.owner_number,
            "result": p.result,
        }
    if isinstance(p, CommitFast):
        return {
            "kind": p.kind,
            "instance": str(p.instance),
            "certificate": certificate_to_json(p.certificate),
        }
    if isinstance(p, Commit):
        return {
            "kind": p.kind,
            "instance": str(p.instance),
            "tuple": p.tuple.to_json(),
            "certificate": certificate_to_json(p.certificate),
        }
    if isinstance(p, CommitReply):
        return {
            "kind": p.kind,
            "sender": p.sender,
            "client": p.client,
            "instance": str(p.instance),
            "tuple": p.tuple.to_json(),
            "result": p.result,
        }
    if isinstance(p, OwnerChangeVote):
        return {
            "kind": p.kind,
            "sender": p.sender,
            "instance": str(p.instance),
            "owner_number": p.owner_number,
            "accepted_tuple": p.accepted_tuple.to_json() if p.accepted_tuple else None,
            "spec_reply": payload_to_json(p.spec_reply) if p.spec_reply else None,
            "certificate": certificate_to_json(p.certificate) if p.certificate else None,
        }
    if isinstance(p, NewOwner):
        return {
            "kind": p.kind,
            "instance": str(p.instance),
            "tuple": p.tuple.to_json(),
            "owner_number": p.owner_number,
            "proof": [payload_to_json(v) for v in p.proof],
        }
    raise TypeError(f"unknown payload {p!r}")


def certificate_to_json(c: CommitCertificate) -> dict[str, Any]:
    return {"cert_kind": c.cert_kind, "replies": [payload_to_json(r) for r in c.replies]}


def _payload_of(kind: type, data: Any) -> Any:
    """A nested payload that must be of one class."""
    payload = payload_from_json(data)
    if not isinstance(payload, kind):
        raise TypeError(f"expected a {kind.kind} payload, got {payload.kind}")
    return payload


def certificate_from_json(data: Mapping[str, Any]) -> CommitCertificate:
    replies = tuple(_payload_of(SpecReply, r) for r in json_field(data, "replies", list))
    if not replies:
        raise ValueError("a certificate packages at least one spec reply")
    return CommitCertificate(json_field(data, "cert_kind", str), replies)


def payload_from_json(data: Mapping[str, Any]) -> Payload:
    kind = json_field(data, "kind", str)

    def text(key: str) -> str:
        return json_field(data, key, str)

    def number(key: str) -> int:
        return json_field(data, key, int)

    def nested(key: str, load: Callable[[Any], Any], optional: bool = False) -> Any:
        value = json_field(data, key, dict, optional)
        return None if value is None else load(value)

    def instance() -> InstanceId:
        return InstanceId.parse(text("instance"))

    def tuple_() -> OrderingTuple:
        return nested("tuple", OrderingTuple.from_json)

    if kind == "request":
        return ClientRequest(text("client"), nested("command", Command.from_json))
    if kind == "spec_order":
        return SpecOrder(instance(), tuple_(), number("owner_number"), text("client"))
    if kind == "spec_reply":
        return SpecReply(
            text("sender"),
            text("client"),
            instance(),
            tuple_(),
            number("owner_number"),
            json_field(data, "result", str, optional=True) or "",
        )
    if kind == "commit_fast":
        return CommitFast(instance(), nested("certificate", certificate_from_json))
    if kind == "commit":
        return Commit(instance(), tuple_(), nested("certificate", certificate_from_json))
    if kind == "commit_reply":
        return CommitReply(text("sender"), text("client"), instance(), tuple_(), text("result"))
    if kind == "owner_change":
        return OwnerChangeVote(
            text("sender"),
            instance(),
            number("owner_number"),
            nested("accepted_tuple", OrderingTuple.from_json, optional=True),
            nested("spec_reply", partial(_payload_of, SpecReply), optional=True),
            nested("certificate", certificate_from_json, optional=True),
        )
    if kind == "new_owner":
        return NewOwner(
            instance(),
            tuple_(),
            number("owner_number"),
            tuple(_payload_of(OwnerChangeVote, v) for v in json_field(data, "proof", list)),
        )
    raise ValueError(f"unknown payload kind {kind!r}")


def envelope_to_json(e: Envelope) -> dict[str, Any]:
    return {
        "id": e.id,
        "sender": e.sender,
        "recipient": e.recipient,
        "hop": e.hop,
        "payload": payload_to_json(e.payload),
    }

