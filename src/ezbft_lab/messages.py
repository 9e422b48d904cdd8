"""Wire-level message payloads, commit certificates, and network envelopes.

Sender identity on an envelope is authoritative: the harness only ever
stamps the true producer, which is the stand-in for authenticated channels.
Faulty nodes may say arbitrary things but never as somebody else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .core import (
    Command,
    InstanceId,
    OrderingTuple,
    OwnerNumber,
    cached_call,
    cached_hash,
    cached_json,
    json_field,
    json_fields,
    json_object,
    tuples_equal,
)


@cached_hash
@dataclass(frozen=True)
class ClientRequest:
    kind = "request"
    client: str
    command: Command

    to_json = json_fields


@cached_hash
@dataclass(frozen=True)
class SpecOrder:
    """Speculative ordering proposal, broadcast by an instance's owner."""

    kind = "spec_order"
    instance: InstanceId
    tuple: OrderingTuple
    owner_number: OwnerNumber
    client: str

    to_json = json_fields


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

    to_json = json_fields


@cached_hash
@dataclass(frozen=True)
class CommitCertificate:
    """A set of spec replies packaged by a client to vouch for a tuple.

    cert_kind "fast" needs 3f+1 identical replies; "slow" needs 2f+1 replies
    and vouches for their dep union and seq max.
    """

    cert_kind: str
    replies: tuple[SpecReply, ...]

    to_json = json_fields

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
        """Return a rejection reason, or None when the certificate is
        acceptable; computed once per object and ``(n, f)``.

        Slow-path validation deliberately checks only what the replies
        themselves support (distinct senders, one owner number, union/max
        consistency); it cannot see which replies a client chose to omit.
        """
        return cached_call(self, CommitCertificate._validate, n, f)

    def _validate(self, n: int, f: int) -> str | None:
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

    to_json = json_fields


@cached_hash
@dataclass(frozen=True)
class Commit:
    kind = "commit"
    instance: InstanceId
    tuple: OrderingTuple
    certificate: CommitCertificate

    to_json = json_fields


@cached_hash
@dataclass(frozen=True)
class CommitReply:
    kind = "commit_reply"
    sender: str
    client: str
    instance: InstanceId
    tuple: OrderingTuple
    result: str

    to_json = json_fields


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

    to_json = json_fields


@cached_hash
@dataclass(frozen=True)
class NewOwner:
    """The new owner's decision, carrying the votes that justify it."""

    kind = "new_owner"
    instance: InstanceId
    tuple: OrderingTuple
    owner_number: OwnerNumber
    proof: tuple[OwnerChangeVote, ...]

    to_json = json_fields


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

    to_json = json_fields

    @property
    def kind(self) -> str:
        return self.payload.kind


def payload_text(p: Payload) -> str:
    """The canonical JSON text of ``p.to_json()``, encoded once per payload
    object."""
    return cached_json(p, json_fields)


def payloads_text(items: Mapping[str, Payload]) -> str:
    """The canonical JSON text of a dict of payloads keyed by node id."""
    return json_object([(key, payload_text(p)) for key, p in items.items()])


def certificate_from_json(data: Mapping[str, Any]) -> CommitCertificate:
    replies = tuple(spec_reply_from_json(r) for r in json_field(data, "replies", list))
    if not replies:
        raise ValueError("a certificate packages at least one spec reply")
    return CommitCertificate(json_field(data, "cert_kind", str), replies)


def spec_reply_from_json(data: Mapping[str, Any]) -> SpecReply:
    """A spec reply packaged in a faulty client's certificate: the one
    payload that input files carry. Traces are never decoded."""
    kind = json_field(data, "kind", str)
    if kind != SpecReply.kind:
        raise TypeError(f"expected a {SpecReply.kind} payload, got {kind}")
    return SpecReply(
        json_field(data, "sender", str),
        json_field(data, "client", str),
        InstanceId.parse(json_field(data, "instance", str)),
        OrderingTuple.from_json(json_field(data, "tuple", dict)),
        json_field(data, "owner_number", int),
        json_field(data, "result", str, optional=True) or "",
    )
