"""Client state machine: speculative fast path, timeout-driven slow path,
and commit-reply counting. Clients never talk to each other; a request is
complete when enough identical evidence has come back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .core import Command, Config, InstanceId, OrderingTuple, tuples_equal
from .messages import Commit, CommitCertificate, CommitFast, CommitReply, SpecReply, payload_to_json

SPECULATING = "speculating"
FINALIZING = "finalizing"
COMPLETE = "complete"

SEQ_MODE_MAX = "max"
SEQ_MODE_RECOMPUTE = "recompute"

Output = tuple[str, Any]
Effect = dict[str, Any]


@dataclass
class PendingRequest:
    """One outstanding command: replies keep the latest record per sender."""

    command: Command
    target: str
    phase: str = SPECULATING
    timer_armed: bool = True
    replies: dict[str, SpecReply] = field(default_factory=dict)
    commit_replies: dict[str, CommitReply] = field(default_factory=dict)

    def clone(self) -> "PendingRequest":
        return PendingRequest(
            command=self.command,
            target=self.target,
            phase=self.phase,
            timer_armed=self.timer_armed,
            replies=dict(self.replies),
            commit_replies=dict(self.commit_replies),
        )


@dataclass
class ClientState:
    """One client's local state. Like ``ReplicaState`` it carries its dedup
    projection ``part`` and trace ``digest``, filled on first use."""

    id: str
    requests: dict[str, PendingRequest] = field(default_factory=dict)
    # Every spec reply ever delivered to this client, in arrival order.
    # This is the ground truth for what a faulty client may package.
    received: list[SpecReply] = field(default_factory=list)
    part: str | None = field(default=None, init=False, compare=False, repr=False)
    digest: str | None = field(default=None, init=False, compare=False, repr=False)

    def clone(self) -> "ClientState":
        return ClientState(
            id=self.id,
            requests={k: v.clone() for k, v in self.requests.items()},
            received=list(self.received),
        )

    def value(self) -> tuple:
        """The state as one hashable value of its frozen parts, dict and
        arrival order included: equal values are equal states."""
        return (
            ClientState,
            self.id,
            tuple(
                (
                    command_id,
                    req.command,
                    req.target,
                    req.phase,
                    req.timer_armed,
                    tuple(req.replies.items()),
                    tuple(req.commit_replies.items()),
                )
                for command_id, req in self.requests.items()
            ),
            tuple(self.received),
        )

    def to_json(self) -> dict[str, Any]:
        """The state as trace digests and dedup projections see it."""
        return {
            "id": self.id,
            "requests": {
                cid: {
                    "target": req.target,
                    "phase": req.phase,
                    "timer_armed": req.timer_armed,
                    "replies": {s: payload_to_json(r) for s, r in req.replies.items()},
                    "commit_replies": {s: payload_to_json(r) for s, r in req.commit_replies.items()},
                }
                for cid, req in self.requests.items()
            },
            "received": [payload_to_json(r) for r in self.received],
        }

    def request_for(self, command_id: str) -> PendingRequest | None:
        return self.requests.get(command_id)


def new_request(state: ClientState, cmd: Command, target: str) -> None:
    state.requests[cmd.id] = PendingRequest(cmd, target)


def _phase_effect(client: str, request: str, phase: str) -> Effect:
    return {"type": "phase", "client": client, "request": request, "phase": phase}


def _drop(client: str, reason: str) -> Effect:
    return {"type": "drop", "node": client, "reason": reason}


def record_reply(state: ClientState, msg: SpecReply) -> None:
    """Record a delivered spec reply without reacting to it. This is the
    delivery path for clients whose protocol logic is driven externally."""
    state.received.append(msg)
    req = state.request_for(msg.tuple.command.id)
    if req is not None and req.phase == SPECULATING:
        req.replies[msg.sender] = msg


def record_commit_reply(state: ClientState, msg: CommitReply) -> None:
    """Record a delivered commit reply without reacting to it."""
    req = state.request_for(msg.tuple.command.id)
    if req is not None:
        req.commit_replies[msg.sender] = msg


def fast_path_output(req: PendingRequest, cfg: Config) -> CommitFast | None:
    """The fast-path completion message, if the recorded replies justify one:
    all 3f+1 replicas answered with equal tuples at one instance."""
    if len(req.replies) != cfg.n:
        return None
    replies = list(req.replies.values())
    first = replies[0]
    if not all(
        tuples_equal(r.tuple, first.tuple) and r.instance == first.instance
        for r in replies
    ):
        return None
    cert = CommitCertificate("fast", tuple(sorted(replies, key=lambda r: r.sender)))
    return CommitFast(first.instance, cert)


def on_spec_reply(
    state: ClientState, cfg: Config, msg: SpecReply
) -> tuple[list[Output], list[Effect]]:
    """Record a reply; with all 3f+1 identical, finish on the fast path."""
    state.received.append(msg)
    req = state.request_for(msg.tuple.command.id)
    if req is None:
        return [], [_drop(state.id, "reply_for_unknown_request")]
    if req.phase != SPECULATING:
        return [], [_drop(state.id, "reply_after_speculation_ended")]
    req.replies[msg.sender] = msg

    fast = fast_path_output(req, cfg)
    if fast is not None:
        req.phase = COMPLETE
        req.timer_armed = False
        outputs: list[Output] = [(peer, fast) for peer in cfg.replica_ids]
        return outputs, [_phase_effect(state.id, msg.tuple.command.id, COMPLETE)]
    return [], []


def on_timeout(
    state: ClientState, cfg: Config, command_id: str, seq_mode: str = SEQ_MODE_MAX
) -> tuple[list[Output], list[Effect]]:
    """Fall back to the slow path: package every recorded reply, commit to
    the dep union, and wait for commit replies. Too few replies re-arm."""
    req = state.request_for(command_id)
    if req is None:
        return [], [_drop(state.id, "timeout_for_unknown_request")]
    if req.phase != SPECULATING or not req.timer_armed:
        return [], [_drop(state.id, "timeout_after_speculation_ended")]

    # Replies must agree on the instance to be packaged together.
    by_instance: dict[InstanceId, list[SpecReply]] = {}
    for r in req.replies.values():
        by_instance.setdefault(r.instance, []).append(r)
    usable: list[SpecReply] | None = None
    for inst in sorted(by_instance):
        if len(by_instance[inst]) >= cfg.quorum_slow:
            usable = by_instance[inst]
            break
    if usable is None:
        return [], [{"type": "timer_rearmed", "client": state.id, "request": command_id}]

    deps: set[InstanceId] = set()
    for r in usable:
        deps |= r.tuple.deps
    if seq_mode == SEQ_MODE_MAX:
        seq = max(r.tuple.seq for r in usable)
    elif seq_mode == SEQ_MODE_RECOMPUTE:
        # Without the dep tuples themselves, the tightest consistent read of
        # the evidence is: a reply with deps claims a seq one past its
        # highest dep, so dep-less replies do not lift the result.
        seq = max((r.tuple.seq for r in usable if r.tuple.deps), default=1)
    else:
        raise ValueError(f"unknown seq mode {seq_mode!r}")
    t = OrderingTuple(req.command, frozenset(deps), seq)
    cert = CommitCertificate("slow", tuple(sorted(usable, key=lambda r: r.sender)))
    req.phase = FINALIZING
    req.timer_armed = False
    outputs: list[Output] = [
        (peer, Commit(usable[0].instance, t, cert)) for peer in cfg.replica_ids
    ]
    return outputs, [_phase_effect(state.id, command_id, FINALIZING)]


def on_commit_reply(
    state: ClientState, cfg: Config, msg: CommitReply
) -> tuple[list[Output], list[Effect]]:
    """Count identical commit replies; 2f+1 of them complete the request.
    Completion emits nothing: the certificate already reached the replicas."""
    req = state.request_for(msg.tuple.command.id)
    if req is None:
        return [], [_drop(state.id, "commit_reply_for_unknown_request")]
    if req.phase == COMPLETE:
        return [], [_drop(state.id, "commit_reply_after_completion")]
    req.commit_replies[msg.sender] = msg

    groups: dict[tuple, int] = {}
    for r in req.commit_replies.values():
        key = (r.instance, tuple(sorted(str(d) for d in r.tuple.deps)), r.tuple.seq, r.result)
        groups[key] = groups.get(key, 0) + 1
    if any(count >= cfg.quorum_slow for count in groups.values()):
        req.phase = COMPLETE
        req.timer_armed = False
        return [], [_phase_effect(state.id, msg.tuple.command.id, COMPLETE)]
    return [], []
