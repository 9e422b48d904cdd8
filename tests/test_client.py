"""Client fast path, timeout fallback, and commit-reply counting."""

import pytest

from ezbft_lab.client import (
    COMPLETE,
    FINALIZING,
    SPECULATING,
    ClientState,
    new_request,
    on_commit_reply,
    on_spec_reply,
    on_timeout,
)
from ezbft_lab.core import InstanceId, OrderingTuple, tuples_equal
from ezbft_lab.messages import Commit, CommitFast, CommitReply, SpecReply


def _client(cmd, target="R"):
    state = ClientState(cmd.client)
    new_request(state, cmd, target)
    return state


def _reply(sender, inst, t, number=0, client="c1"):
    return SpecReply(sender, client, inst, t, number, "")


def test_fast_path_needs_all_identical_replies(cfg, cmd_a, bare):
    state = _client(cmd_a)
    inst = InstanceId("R", 0)
    for sender in ("R", "L", "Q"):
        outputs, _ = on_spec_reply(state, cfg, _reply(sender, inst, bare))
        assert outputs == []
    outputs, effects = on_spec_reply(state, cfg, _reply("T", inst, bare))

    assert [r for r, _ in outputs] == list(cfg.replica_ids)
    msg = outputs[0][1]
    assert isinstance(msg, CommitFast) and msg.certificate.cert_kind == "fast"
    assert [r.sender for r in msg.certificate.replies] == ["L", "Q", "R", "T"]
    assert state.requests["a"].phase == COMPLETE
    assert not state.requests["a"].timer_armed


def test_fast_path_blocked_by_divergent_reply(cfg, cmd_a, bare, ext):
    state = _client(cmd_a)
    inst = InstanceId("R", 0)
    for sender in ("R", "L", "Q"):
        on_spec_reply(state, cfg, _reply(sender, inst, bare))
    outputs, _ = on_spec_reply(state, cfg, _reply("T", inst, ext))
    assert outputs == []
    assert state.requests["a"].phase == SPECULATING


def test_timeout_commits_dep_union_and_seq_max(cfg, cmd_a, bare, ext):
    state = _client(cmd_a)
    inst = InstanceId("R", 0)
    on_spec_reply(state, cfg, _reply("R", inst, bare))
    on_spec_reply(state, cfg, _reply("L", inst, ext))
    on_spec_reply(state, cfg, _reply("Q", inst, bare))

    outputs, _effects = on_timeout(state, cfg, "a")
    assert [r for r, _ in outputs] == list(cfg.replica_ids)
    commit = outputs[0][1]
    assert isinstance(commit, Commit)
    assert commit.tuple.deps == frozenset({InstanceId("T", 0)})
    assert commit.tuple.seq == 2
    assert commit.certificate.cert_kind == "slow"
    assert len(commit.certificate.replies) == 3
    assert state.requests["a"].phase == FINALIZING
    assert not state.requests["a"].timer_armed


def test_slow_path_takes_the_highest_reported_seq(cfg, cmd_a):
    """A reply with no deps still lifts the committed seq: the slow path
    takes the highest seq any reply reports, not one derived from deps."""
    inst = InstanceId("R", 0)
    inflated = OrderingTuple(cmd_a, frozenset(), 5)
    with_dep = OrderingTuple(cmd_a, frozenset({InstanceId("L", 0)}), 2)
    plain = OrderingTuple(cmd_a, frozenset(), 1)

    state = _client(cmd_a)
    for sender, t in (("R", inflated), ("L", with_dep), ("Q", plain)):
        on_spec_reply(state, cfg, _reply(sender, inst, t))
    outputs, _ = on_timeout(state, cfg, "a")
    assert outputs[0][1].tuple.seq == 5


def test_timeout_with_too_few_replies_rearms(cfg, cmd_a, bare):
    state = _client(cmd_a)
    inst = InstanceId("R", 0)
    on_spec_reply(state, cfg, _reply("R", inst, bare))
    on_spec_reply(state, cfg, _reply("L", inst, bare))
    outputs, effects = on_timeout(state, cfg, "a")
    assert outputs == []
    assert effects[0]["type"] == "timer_rearmed"
    assert state.requests["a"].phase == SPECULATING


def test_timeout_needs_quorum_at_a_single_instance(cfg, cmd_a, bare):
    state = _client(cmd_a)
    other = OrderingTuple(cmd_a, frozenset(), 1)
    on_spec_reply(state, cfg, _reply("R", InstanceId("R", 0), bare))
    on_spec_reply(state, cfg, _reply("L", InstanceId("R", 0), bare))
    on_spec_reply(state, cfg, _reply("Q", InstanceId("T", 0), other))
    outputs, effects = on_timeout(state, cfg, "a")
    assert outputs == [] and effects[0]["type"] == "timer_rearmed"


def test_commit_replies_complete_at_slow_quorum(cfg, cmd_a, bare):
    state = _client(cmd_a)
    inst = InstanceId("R", 0)
    req = state.requests["a"]
    req.phase = FINALIZING

    for i, sender in enumerate(("R", "L")):
        _, effects = on_commit_reply(state, cfg, CommitReply(sender, "c1", inst, bare, "va"))
        assert req.phase == FINALIZING, f"completed after only {i + 1} replies"
    _, effects = on_commit_reply(state, cfg, CommitReply("Q", "c1", inst, bare, "va"))
    assert req.phase == COMPLETE
    assert effects[-1] == {"type": "phase", "client": "c1", "request": "a", "phase": COMPLETE}


def test_commit_replies_must_match_to_count(cfg, cmd_a, bare, ext):
    state = _client(cmd_a)
    inst = InstanceId("R", 0)
    state.requests["a"].phase = FINALIZING
    on_commit_reply(state, cfg, CommitReply("R", "c1", inst, bare, "va"))
    on_commit_reply(state, cfg, CommitReply("L", "c1", inst, ext, "va"))
    on_commit_reply(state, cfg, CommitReply("Q", "c1", inst, bare, "other"))
    assert state.requests["a"].phase == FINALIZING


def test_stray_messages_are_dropped_with_reasons(cfg, cmd_a, bare):
    state = _client(cmd_a)
    inst = InstanceId("R", 0)
    state.requests["a"].phase = COMPLETE
    _, effects = on_spec_reply(state, cfg, _reply("R", inst, bare))
    assert effects[0]["reason"] == "reply_after_speculation_ended"
    _, effects = on_timeout(state, cfg, "zzz")
    assert effects[0]["reason"] == "timeout_for_unknown_request"
    _, effects = on_commit_reply(state, cfg, CommitReply("R", "c1", inst, bare, "va"))
    assert effects[0]["reason"] == "commit_reply_after_completion"
