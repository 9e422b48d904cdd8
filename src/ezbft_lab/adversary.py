"""Misbehavior as data: byzantine-replica and faulty-client actions.

Every action is a deterministic function of (state, choice), so the
scheduler and explorer control misbehavior by enumerating choices rather
than sampling randomness. Two hard limits mirror what authenticated
channels enforce in the modeled system: an adversary cannot send a message
whose sender field is not its own id, and a client cannot package a reply
it never received.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from . import client as client_mod
from . import owner_change, replica
from .core import Config, InstanceId, OrderingTuple, json_field, json_strings
from .messages import (
    ClientRequest,
    Commit,
    CommitCertificate,
    CommitFast,
    NewOwner,
    OwnerChangeVote,
    SpecOrder,
    SpecReply,
    certificate_from_json,
    certificate_to_json,
    payload_to_json,
)
from .replica import Effect, Output, ReplicaState

BYZ_EQUIVOCATE_SPEC_REPLY = "equivocate_spec_reply"
BYZ_EQUIVOCATE_SPEC_ORDER = "equivocate_spec_order"
BYZ_ARBITRARY_VOTE = "arbitrary_owner_change_tuple"
BYZ_SILENT = "silent"
BYZ_HONEST = "honest"

FAULTY_SPLIT = "split_certificates"
FAULTY_SELECTIVE = "selective_send"
FAULTY_HONEST = "honest"


class ForgedReply(Exception):
    """A packaged certificate referenced a reply the client never received."""


class BadChoice(Exception):
    """A choice that cannot be applied to the current state."""


@dataclass(frozen=True)
class ByzantineChoice:
    """One byzantine-replica action.

    kind:
      - honest: process inbox item ``item`` through the correct handlers.
      - silent: consume inbox item ``item`` and do nothing.
      - equivocate_spec_reply: answer the SPEC-ORDER at inbox item ``item``
        with one well-formed SPEC-REPLY per branch tuple, all to the client.
      - arbitrary_owner_change_tuple: vote ``branches[0]`` for ``instance``
        with a fabricated matching spec reply (and any genuinely held
        certificate, never a fabricated one).
      - equivocate_spec_order: propose the branch tuples at a fresh own
        instance, partitioning peers between branches (experimental; no
        scripted run uses it, synthetic checks do).
    """

    kind: str
    item: int | None = None
    instance: InstanceId | None = None
    branches: tuple[OrderingTuple, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "item": self.item,
            "instance": str(self.instance) if self.instance else None,
            "branches": [t.to_json() for t in self.branches],
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "ByzantineChoice":
        instance = json_field(data, "instance", str, optional=True)
        return ByzantineChoice(
            kind=json_field(data, "kind", str),
            item=json_field(data, "item", int, optional=True),
            instance=InstanceId.parse(instance) if instance else None,
            branches=tuple(
                OrderingTuple.from_json(t)
                for t in json_field(data, "branches", list, optional=True) or []
            ),
        )


@dataclass(frozen=True)
class FaultyClientChoice:
    """One faulty-client action.

    kind:
      - honest: emit exactly what a correct client would emit now for
        ``command_id`` (fast certificate if the replies justify one).
      - split_certificates: send each packaged certificate to its own
        recipient set; at least two certificates vouching for non-equal
        tuples.
      - selective_send: send a single certificate to a strict subset of
        replicas.
    """

    kind: str
    command_id: str | None = None
    certificates: tuple[tuple[CommitCertificate, tuple[str, ...]], ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "command_id": self.command_id,
            "certificates": [
                {"certificate": certificate_to_json(c), "recipients": list(rs)}
                for c, rs in self.certificates
            ],
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "FaultyClientChoice":
        return FaultyClientChoice(
            kind=json_field(data, "kind", str),
            command_id=json_field(data, "command_id", str, optional=True),
            certificates=tuple(
                (
                    certificate_from_json(json_field(e, "certificate", dict)),
                    tuple(json_strings(e, "recipients")),
                )
                for e in json_field(data, "certificates", list, optional=True) or []
            ),
        )


def choice_to_json(choice: ByzantineChoice | FaultyClientChoice) -> dict[str, Any]:
    data = choice.to_json()
    data["role"] = "byzantine" if isinstance(choice, ByzantineChoice) else "faulty_client"
    return data


def choice_from_json(data: Mapping[str, Any]) -> ByzantineChoice | FaultyClientChoice:
    if json_field(data, "role", str) == "byzantine":
        return ByzantineChoice.from_json(data)
    return FaultyClientChoice.from_json(data)


def _byz_effect(node: str, action: str, detail: str = "") -> Effect:
    eff: Effect = {"type": "byzantine", "node": node, "action": action}
    if detail:
        eff["detail"] = detail
    return eff


def _take_item(
    inbox: Sequence[tuple[str, Any]], consumed: set[int], item: int | None
) -> tuple[str, Any]:
    if item is None or not 0 <= item < len(inbox):
        raise BadChoice(f"no inbox item {item!r}")
    if item in consumed:
        raise BadChoice(f"inbox item {item} already consumed")
    consumed.add(item)
    return inbox[item]


def honest_step(
    state: ReplicaState, cfg: Config, sender: str, payload: Any
) -> tuple[list[Output], list[Effect]]:
    if isinstance(payload, ClientRequest):
        return replica.on_client_request(state, cfg, payload.command)
    if isinstance(payload, SpecOrder):
        return replica.on_spec_order(state, cfg, payload, sender)
    if isinstance(payload, CommitFast):
        return replica.on_commit_fast(state, cfg, payload, sender)
    if isinstance(payload, Commit):
        return replica.on_commit(state, cfg, payload, sender)
    if isinstance(payload, OwnerChangeVote):
        return owner_change.on_vote(state, cfg, payload, sender)
    if isinstance(payload, NewOwner):
        return owner_change.on_new_owner(state, cfg, payload, sender)
    raise BadChoice(f"no honest handler for {type(payload).__name__}")


def byz_spec_replies(
    state: ReplicaState,
    cfg: Config,
    inbox: Sequence[tuple[str, Any]],
    consumed: set[int],
    choice: ByzantineChoice,
) -> tuple[list[Output], list[Effect]]:
    """Equivocate on a received SPEC-ORDER: one reply per branch tuple, all
    addressed to the proposing client, each well-formed on its own."""
    sender, payload = _take_item(inbox, consumed, choice.item)
    if not isinstance(payload, SpecOrder):
        raise BadChoice("equivocate_spec_reply needs a SPEC-ORDER inbox item")
    if len(choice.branches) < 2:
        raise BadChoice("equivocate_spec_reply needs at least two branches")
    outputs: list[Output] = [
        (
            payload.client,
            SpecReply(state.id, payload.client, payload.instance, branch, payload.owner_number, ""),
        )
        for branch in choice.branches
    ]
    detail = " vs ".join(str(b.to_json()) for b in choice.branches)
    return outputs, [_byz_effect(state.id, choice.kind, detail)]


def byz_owner_change_vote(
    state: ReplicaState, cfg: Config, choice: ByzantineChoice
) -> tuple[list[Output], list[Effect]]:
    """Vote an arbitrary tuple into an owner change, backed by a fabricated
    spec reply of this replica's own (signable) and only genuinely held
    certificates."""
    if choice.instance is None or not choice.branches:
        raise BadChoice("arbitrary_owner_change_tuple needs instance and a tuple")
    instance = choice.instance
    claimed = choice.branches[0]
    target = state.current_owner_number(cfg, instance) + 1
    rec = state.log.get(instance)
    fabricated = SpecReply(
        state.id, claimed.command.client, instance, claimed, target - 1, ""
    )
    vote = OwnerChangeVote(
        sender=state.id,
        instance=instance,
        owner_number=target,
        accepted_tuple=claimed,
        spec_reply=fabricated,
        certificate=rec.certificate if rec else None,
    )
    state.voted.add((instance, target))
    return [(cfg.leader_at(target), vote)], [
        _byz_effect(state.id, choice.kind, str(claimed.to_json()))
    ]


def byz_spec_orders(
    state: ReplicaState, cfg: Config, choice: ByzantineChoice
) -> tuple[list[Output], list[Effect]]:
    """Propose the branch tuples at a fresh own instance, splitting the
    peer set between branches, and fabricate matching own replies."""
    if not choice.branches:
        raise BadChoice("equivocate_spec_order needs at least one branch")
    instance = InstanceId(state.id, state.next_slot)
    state.next_slot += 1
    number = cfg.default_owner_number(instance)
    peers = [p for p in cfg.replica_ids if p != state.id]
    k = len(choice.branches)
    outputs: list[Output] = []
    for i, branch in enumerate(choice.branches):
        for peer in peers[i::k]:
            outputs.append((peer, SpecOrder(instance, branch, number, branch.command.client)))
        outputs.append(
            (
                branch.command.client,
                SpecReply(state.id, branch.command.client, instance, branch, number, ""),
            )
        )
    return outputs, [_byz_effect(state.id, choice.kind, str(instance))]


def apply_byzantine(
    state: ReplicaState,
    cfg: Config,
    inbox: Sequence[tuple[str, Any]],
    consumed: set[int],
    choice: ByzantineChoice,
) -> tuple[list[Output], list[Effect]]:
    """Apply one byzantine choice against the replica's shadow state."""
    if state.id not in cfg.byzantine_ids:
        raise BadChoice(f"{state.id} is not byzantine")
    if choice.kind == BYZ_HONEST:
        sender, payload = _take_item(inbox, consumed, choice.item)
        outputs, effects = honest_step(state, cfg, sender, payload)
        return outputs, [_byz_effect(state.id, choice.kind)] + effects
    if choice.kind == BYZ_SILENT:
        _take_item(inbox, consumed, choice.item)
        return [], [_byz_effect(state.id, choice.kind)]
    if choice.kind == BYZ_EQUIVOCATE_SPEC_REPLY:
        return byz_spec_replies(state, cfg, inbox, consumed, choice)
    if choice.kind == BYZ_ARBITRARY_VOTE:
        return byz_owner_change_vote(state, cfg, choice)
    if choice.kind == BYZ_EQUIVOCATE_SPEC_ORDER:
        return byz_spec_orders(state, cfg, choice)
    raise BadChoice(f"unknown byzantine choice kind {choice.kind!r}")


def faulty_client_certificates(
    state: client_mod.ClientState, cfg: Config, choice: FaultyClientChoice
) -> tuple[list[Output], list[Effect]]:
    """Package received replies into certificates and send them wherever the
    choice says. Packaging a reply that was never received raises
    ForgedReply: that is the one thing a faulty client cannot do."""
    if choice.kind == FAULTY_HONEST:
        return _faulty_honest(state, cfg, choice)
    if choice.kind not in (FAULTY_SPLIT, FAULTY_SELECTIVE):
        raise BadChoice(f"unknown faulty client choice kind {choice.kind!r}")
    if choice.kind == FAULTY_SPLIT and len(choice.certificates) < 2:
        raise BadChoice("split_certificates needs at least two certificates")
    if choice.kind == FAULTY_SELECTIVE and len(choice.certificates) != 1:
        raise BadChoice("selective_send packages exactly one certificate")

    outputs: list[Output] = []
    for cert, recipients in choice.certificates:
        for r in cert.replies:
            if r not in state.received:
                raise ForgedReply(f"{state.id} never received {payload_to_json(r)}")
        if cert.cert_kind == "fast":
            msg: Any = CommitFast(cert.instance, cert)
        else:
            msg = Commit(cert.instance, cert.vouched_tuple(), cert)
        for recipient in recipients:
            outputs.append((recipient, msg))
    effect = {
        "type": "faulty_client",
        "node": state.id,
        "action": choice.kind,
        "certificates": [
            {"vouches": c.vouched_tuple().to_json(), "recipients": list(rs)}
            for c, rs in choice.certificates
        ],
    }
    return outputs, [effect]


def _faulty_honest(
    state: client_mod.ClientState, cfg: Config, choice: FaultyClientChoice
) -> tuple[list[Output], list[Effect]]:
    """Behave, for this step, exactly like a correct client would."""
    ids = [choice.command_id] if choice.command_id else sorted(state.requests)
    outputs: list[Output] = []
    effects: list[Effect] = []
    for command_id in ids:
        req = state.request_for(command_id)
        if req is None or req.phase != client_mod.SPECULATING:
            continue
        fast = client_mod.fast_path_output(req, cfg)
        if fast is None:
            continue
        req.phase = client_mod.COMPLETE
        req.timer_armed = False
        outputs += [(peer, fast) for peer in cfg.replica_ids]
        effects.append(
            {"type": "phase", "client": state.id, "request": command_id, "phase": client_mod.COMPLETE}
        )
    return outputs, [{"type": "faulty_client", "node": state.id, "action": FAULTY_HONEST}] + effects


def apply_faulty_client(
    state: client_mod.ClientState, cfg: Config, choice: FaultyClientChoice
) -> tuple[list[Output], list[Effect]]:
    if state.id not in cfg.faulty_client_ids:
        raise BadChoice(f"{state.id} is not a faulty client")
    return faulty_client_certificates(state, cfg, choice)
