"""Owner change: votes, safe-tuple selection, and new-owner installation.

Selection weighs two kinds of evidence at the highest owner number present:
commit certificates (condition 1) and f+1 matching spec replies (condition
2). A tuple that extends a qualifying base can be chosen instead, but only
with enough evidence for every added dependency. Two certificates for
non-equal tuples that the extension rules cannot reconcile leave the
instance stuck; that outcome is first-class here, not an exception path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .core import (
    Config,
    InstanceId,
    OrderingTuple,
    OwnerNumber,
    cached_hash,
    tuple_sort_key,
    tuples_equal,
)
from .messages import CommitReply, NewOwner, OwnerChangeVote, SpecReply
from .replica import Effect, Output, ReplicaState, _commit, _drop, result_for

SAFE = "safe"
CONFLICT = "conflict"
NO_CANDIDATE = "no_candidate"


class InsufficientVotes(Exception):
    """Selection needs n-f votes from distinct senders over one instance."""


@cached_hash
@dataclass(frozen=True)
class CandidateTuple:
    """How much evidence one tuple has at the highest owner number."""

    tuple: OrderingTuple
    has_commit_cert: bool
    reply_count: int

    def to_json(self) -> dict[str, Any]:
        return {
            "tuple": self.tuple.to_json(),
            "has_commit_cert": self.has_commit_cert,
            "reply_count": self.reply_count,
        }


@cached_hash
@dataclass(frozen=True)
class Selection:
    """Outcome of safe-tuple selection for one (instance, owner number)."""

    outcome: str
    instance: InstanceId
    owner_number: OwnerNumber
    tuple: OrderingTuple | None = None
    second: OrderingTuple | None = None
    condition: int | None = None
    candidates: tuple[CandidateTuple, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "outcome": self.outcome,
            "instance": str(self.instance),
            "owner_number": self.owner_number,
            "tuple": self.tuple.to_json() if self.tuple else None,
            "second": self.second.to_json() if self.second else None,
            "condition": self.condition,
            "candidates": [c.to_json() for c in self.candidates],
        }


def _extends(pj: OrderingTuple, pi: OrderingTuple) -> bool:
    return pj.command.id == pi.command.id and pj.deps > pi.deps


def _dedupe(tuples: Iterable[OrderingTuple]) -> list[OrderingTuple]:
    out: list[OrderingTuple] = []
    for t in sorted(tuples, key=tuple_sort_key):
        if not any(tuples_equal(t, u) for u in out):
            out.append(t)
    return out


def select_safe_tuple(votes: Sequence[OwnerChangeVote], cfg: Config) -> Selection:
    """Deterministic, order-insensitive selection over a full vote set."""
    if not votes:
        raise InsufficientVotes("no votes")
    senders = {v.sender for v in votes}
    if len(senders) != len(votes):
        raise InsufficientVotes("duplicate vote senders")
    if len(senders) < cfg.quorum_owner_change:
        raise InsufficientVotes(
            f"need {cfg.quorum_owner_change} votes, got {len(senders)}"
        )
    instances = {v.instance for v in votes}
    numbers = {v.owner_number for v in votes}
    if len(instances) != 1 or len(numbers) != 1:
        raise InsufficientVotes("votes mix instances or owner numbers")
    instance = votes[0].instance
    target = votes[0].owner_number

    replies = [v.spec_reply for v in votes if v.spec_reply is not None]
    certs = [v.certificate for v in votes if v.certificate is not None]
    evidence_numbers = [r.owner_number for r in replies] + [c.owner_number for c in certs]
    if not evidence_numbers:
        return Selection(NO_CANDIDATE, instance, target)
    high = max(evidence_numbers)
    replies_h = [r for r in replies if r.owner_number == high]
    certs_h = [c for c in certs if c.owner_number == high]

    cond1 = _dedupe(
        c.vouched_tuple() for c in certs_h if c.instance == instance
    )
    reply_groups: dict[tuple, list[SpecReply]] = {}
    for r in replies_h:
        if r.instance != instance:
            continue
        reply_groups.setdefault(tuple_sort_key(r.tuple), []).append(r)
    cond2 = _dedupe(
        rs[0].tuple
        for rs in reply_groups.values()
        if len({r.sender for r in rs}) >= cfg.f + 1
    )

    def reply_support(t: OrderingTuple) -> int:
        rs = reply_groups.get(tuple_sort_key(t), [])
        return len({r.sender for r in rs})

    def in_cond1(t: OrderingTuple) -> bool:
        return any(tuples_equal(t, u) for u in cond1)

    def in_cond2(t: OrderingTuple) -> bool:
        return any(tuples_equal(t, u) for u in cond2)

    def valid_extension(pj: OrderingTuple, pi: OrderingTuple) -> bool:
        """Extension rules: the extension itself must qualify, and every
        added dependency needs matching evidence at the same owner number."""
        added = pj.deps - pi.deps
        if in_cond1(pj):
            if all(
                len({r.sender for r in replies_h if r.instance == gamma}) >= cfg.f + 1
                for gamma in added
            ):
                return True
        if in_cond2(pj):
            if all(
                any(c.instance == gamma for c in certs_h) for gamma in added
            ):
                return True
        return False

    candidates = _dedupe(cond1 + cond2)
    summary = tuple(
        CandidateTuple(t, in_cond1(t), reply_support(t)) for t in candidates
    )
    if not candidates:
        return Selection(NO_CANDIDATE, instance, target)

    condition: int | None
    if len(cond1) >= 2:
        # Several certified tuples: only a valid extension chain reconciles
        # them. Otherwise the instance is stuck.
        resolved: OrderingTuple | None = None
        for p in cond1:
            if all(
                tuples_equal(p, q) or (_extends(p, q) and valid_extension(p, q))
                for q in cond1
            ):
                resolved = p
                break
        if resolved is None:
            return Selection(
                CONFLICT, instance, target,
                tuple=cond1[0], second=cond1[1], candidates=summary,
            )
        base, condition = resolved, 1
    elif cond1:
        base, condition = cond1[0], 1
    else:
        base, condition = cond2[0], 2

    extensions = [
        c
        for c in candidates
        if not tuples_equal(c, base) and _extends(c, base) and valid_extension(c, base)
    ]
    if extensions:
        base = max(extensions, key=lambda t: (len(t.deps), tuple_sort_key(t)))
    return Selection(SAFE, instance, target, tuple=base, condition=condition, candidates=summary)


def make_vote(state: ReplicaState, cfg: Config, instance: InstanceId) -> tuple[list[Output], list[Effect]]:
    """Emit this replica's vote to move the instance to the next owner."""
    target = state.current_owner_number(cfg, instance) + 1
    if (instance, target) in state.voted:
        return [], [{"type": "drop", "node": state.id, "reason": "already_voted",
                     "instance": str(instance)}]
    state.voted.add((instance, target))
    rec = state.log.get(instance)
    vote = OwnerChangeVote(
        sender=state.id,
        instance=instance,
        owner_number=target,
        accepted_tuple=rec.tuple if rec else None,
        spec_reply=state.sent_replies.get(instance),
        certificate=rec.certificate if rec else None,
    )
    effect = {
        "type": "owner_change_vote",
        "replica": state.id,
        "instance": str(instance),
        "owner_number": target,
    }
    return [(cfg.leader_at(target), vote)], [effect]


def on_vote(
    state: ReplicaState, cfg: Config, vote: OwnerChangeVote, sender: str
) -> tuple[list[Output], list[Effect]]:
    """Collect votes as the prospective new owner; decide at n-f of them."""
    if vote.sender != sender:
        return [], [_drop(state.id, "vote_sender_mismatch", vote.instance)]
    if cfg.leader_at(vote.owner_number) != state.id:
        return [], [_drop(state.id, "vote_for_other_leader", vote.instance)]
    if vote.certificate is not None and vote.certificate.validate(cfg.n, cfg.f) is not None:
        return [], [_drop(state.id, "invalid_vote_certificate", vote.instance)]
    key = (vote.instance, vote.owner_number)
    if key in state.decisions:
        return [], [_drop(state.id, "owner_change_already_decided", vote.instance)]
    state.votes.setdefault(key, {})[vote.sender] = vote
    if len(state.votes[key]) < cfg.quorum_owner_change:
        return [], []
    return issue_new_owner(state, cfg, vote.instance, vote.owner_number)


def issue_new_owner(
    state: ReplicaState, cfg: Config, instance: InstanceId, number: OwnerNumber
) -> tuple[list[Output], list[Effect]]:
    """Run selection over the collected votes. A safe pick broadcasts
    NEW-OWNER; a conflict is recorded and nothing is sent: there is no rule
    left that lets this leader proceed."""
    key = (instance, number)
    votes = tuple(sorted(state.votes[key].values(), key=lambda v: v.sender))
    selection = select_safe_tuple(votes, cfg)
    state.decisions[key] = selection
    effects: list[Effect] = [
        {"type": "selection", "leader": state.id, **selection.to_json()}
    ]
    if selection.outcome != SAFE:
        return [], effects
    msg = NewOwner(instance, selection.tuple, number, votes)
    outputs: list[Output] = [(peer, msg) for peer in cfg.replica_ids]
    return outputs, effects


def on_new_owner(
    state: ReplicaState, cfg: Config, msg: NewOwner, sender: str
) -> tuple[list[Output], list[Effect]]:
    """Accept a new owner's tuple only if its proof re-derives it."""
    if cfg.leader_at(msg.owner_number) != sender:
        return [], [_drop(state.id, "new_owner_not_from_leader", msg.instance)]
    if msg.owner_number <= state.current_owner_number(cfg, msg.instance):
        return [], [_drop(state.id, "stale_new_owner", msg.instance)]
    for vote in msg.proof:
        if vote.instance != msg.instance or vote.owner_number != msg.owner_number:
            return [], [_drop(state.id, "invalid_proof: vote mismatch", msg.instance)]
        if vote.certificate is not None and vote.certificate.validate(cfg.n, cfg.f) is not None:
            return [], [_drop(state.id, "invalid_proof: bad certificate", msg.instance)]
    try:
        selection = select_safe_tuple(msg.proof, cfg)
    except InsufficientVotes:
        return [], [_drop(state.id, "invalid_proof: insufficient votes", msg.instance)]
    if selection.outcome != SAFE or not tuples_equal(selection.tuple, msg.tuple):
        return [], [_drop(state.id, "invalid_proof: selection mismatch", msg.instance)]

    state.owner_numbers[msg.instance] = msg.owner_number
    prev = state.log.get(msg.instance)
    keep_cert = None
    if prev is not None and prev.certificate is not None and tuples_equal(prev.tuple, msg.tuple):
        keep_cert = prev.certificate
    effects: list[Effect] = [
        {
            "type": "new_owner_accept",
            "replica": state.id,
            "instance": str(msg.instance),
            "owner_number": msg.owner_number,
        }
    ]
    effects += _commit(
        state, cfg, msg.instance, msg.tuple, msg.owner_number, "new_owner", keep_cert
    )
    cmd = msg.tuple.command
    reply = CommitReply(state.id, cmd.client, msg.instance, msg.tuple, result_for(state, cmd))
    return [(cmd.client, reply)], effects

