"""Byzantine-replica and faulty-client action envelopes.

Every action here is constrained to what a real attacker could do: replies
and votes are signable fabrications of the node's own, certificates must be
genuinely held, and faulty clients can only repackage replies they actually
received.
"""

import pytest

from ezbft_lab.adversary import (
    BYZ_ARBITRARY_VOTE,
    BYZ_EQUIVOCATE_SPEC_ORDER,
    BYZ_EQUIVOCATE_SPEC_REPLY,
    BYZ_HONEST,
    BYZ_SILENT,
    FAULTY_HONEST,
    FAULTY_SELECTIVE,
    FAULTY_SPLIT,
    BadChoice,
    ByzantineChoice,
    FaultyClientChoice,
    ForgedReply,
    apply_byzantine,
    apply_faulty_client,
    choice_from_json,
    choice_to_json,
    honest_step,
)
from ezbft_lab.client import COMPLETE, ClientState, new_request, record_reply
from ezbft_lab.core import InstanceId, tuples_equal
from ezbft_lab.messages import (
    Commit,
    CommitCertificate,
    CommitFast,
    SpecOrder,
    SpecReply,
)
from ezbft_lab.replica import ReplicaState, on_spec_order


def _sreply(sender, inst, t, number=0, client="c1"):
    return SpecReply(sender, client, inst, t, number, "")


def test_honest_choice_matches_the_correct_handler(byz_cfg, bare):
    order = SpecOrder(InstanceId("R", 0), bare, 0, "c1")

    correct = ReplicaState("T")
    expected_outputs, expected_effects = on_spec_order(correct, byz_cfg, order, "R")

    byz = ReplicaState("T", inbox=(("R", order),))
    outputs, effects = apply_byzantine(byz, byz_cfg, ByzantineChoice(BYZ_HONEST, item=0))

    assert byz.consumed == {0}
    assert outputs == expected_outputs
    assert effects[0]["action"] == BYZ_HONEST
    assert effects[1:] == expected_effects
    assert byz.log.keys() == correct.log.keys()


def test_silent_choice_consumes_and_does_nothing(byz_cfg, bare):
    order = SpecOrder(InstanceId("R", 0), bare, 0, "c1")
    byz = ReplicaState("T", inbox=(("R", order),))
    outputs, _ = apply_byzantine(byz, byz_cfg, ByzantineChoice(BYZ_SILENT, item=0))
    assert outputs == [] and byz.consumed == {0} and byz.log == {}


def test_equivocate_spec_reply_sends_one_reply_per_branch(byz_cfg, bare, ext):
    inbox = (("R", SpecOrder(InstanceId("R", 0), bare, 0, "c1")),)
    byz = ReplicaState("T", inbox=inbox)
    choice = ByzantineChoice(BYZ_EQUIVOCATE_SPEC_REPLY, item=0, branches=(bare, ext))

    outputs, _ = apply_byzantine(byz, byz_cfg, choice)
    assert byz.consumed == {0}
    assert [r for r, _ in outputs] == ["c1", "c1"]
    sent = [m for _, m in outputs]
    assert all(m.sender == "T" and m.instance == InstanceId("R", 0) for m in sent)
    assert tuples_equal(sent[0].tuple, bare) and tuples_equal(sent[1].tuple, ext)

    with pytest.raises(BadChoice):
        apply_byzantine(byz, byz_cfg, choice)  # already consumed
    fresh = ReplicaState("T", inbox=inbox)
    with pytest.raises(BadChoice):
        apply_byzantine(fresh, byz_cfg, ByzantineChoice(BYZ_EQUIVOCATE_SPEC_REPLY, item=5, branches=(bare, ext)))
    with pytest.raises(BadChoice):
        apply_byzantine(fresh, byz_cfg, ByzantineChoice(BYZ_EQUIVOCATE_SPEC_REPLY, item=0, branches=(bare,)))


def test_arbitrary_vote_fabricates_only_its_own_reply(byz_cfg, ext):
    byz = ReplicaState("T")
    choice = ByzantineChoice(BYZ_ARBITRARY_VOTE, instance=InstanceId("R", 0), branches=(ext,))
    outputs, _ = apply_byzantine(byz, byz_cfg, choice)

    [(recipient, vote)] = outputs
    assert recipient == "L"  # leader at the next owner number
    assert vote.sender == "T" and vote.owner_number == 1
    assert tuples_equal(vote.accepted_tuple, ext)
    assert vote.spec_reply.sender == "T" and vote.spec_reply.owner_number == 0
    assert vote.certificate is None  # never fabricated
    assert (InstanceId("R", 0), 1) in byz.voted


def test_equivocate_spec_order_partitions_peers(byz_cfg, cmd_a, bare, ext):
    byz = ReplicaState("T")
    choice = ByzantineChoice(BYZ_EQUIVOCATE_SPEC_ORDER, branches=(bare, ext))
    outputs, _ = apply_byzantine(byz, byz_cfg, choice)

    inst = InstanceId("T", 0)
    assert byz.next_slot == 1
    orders = [(r, m) for r, m in outputs if isinstance(m, SpecOrder)]
    assert {r for r, _ in orders} == {"R", "L", "Q"}
    by_branch = {r: m.tuple for r, m in orders}
    assert tuples_equal(by_branch["R"], bare) and tuples_equal(by_branch["Q"], bare)
    assert tuples_equal(by_branch["L"], ext)
    own_replies = [m for _, m in outputs if isinstance(m, SpecReply)]
    assert len(own_replies) == 2 and all(m.instance == inst for m in own_replies)


def test_byzantine_actions_only_at_byzantine_replicas(cfg, bare):
    with pytest.raises(BadChoice):
        apply_byzantine(ReplicaState("R"), cfg, ByzantineChoice(BYZ_SILENT, item=0))


def _received_client(cfg, inst, tuples_by_sender):
    state = ClientState("c1")
    new_request(state, list(tuples_by_sender.values())[0].command, "R")
    for sender, t in tuples_by_sender.items():
        record_reply(state, _sreply(sender, inst, t))
    return state


def test_faulty_split_sends_divergent_certificates(byz_cfg, cmd_a, bare, ext):
    inst = InstanceId("R", 0)
    state = ClientState("c1")
    new_request(state, cmd_a, "R")
    for sender in ("R", "L", "Q", "T"):
        record_reply(state, _sreply(sender, inst, bare))
    for sender in ("L", "Q", "T"):
        record_reply(state, _sreply(sender, inst, ext))

    fast = CommitCertificate("fast", tuple(_sreply(s, inst, bare) for s in ("L", "Q", "R", "T")))
    slow = CommitCertificate("slow", tuple(_sreply(s, inst, ext) for s in ("L", "Q", "T")))
    choice = FaultyClientChoice(
        FAULTY_SPLIT, "a", certificates=((fast, ("R",)), (slow, ("L", "Q")))
    )
    outputs, effects = apply_faulty_client(state, byz_cfg, choice)

    assert [(r, type(m).__name__) for r, m in outputs] == [
        ("R", "CommitFast"), ("L", "Commit"), ("Q", "Commit"),
    ]
    assert tuples_equal(outputs[1][1].tuple, ext)
    assert effects[0]["action"] == FAULTY_SPLIT


def test_faulty_client_cannot_forge_replies(byz_cfg, cmd_a, bare, ext):
    inst = InstanceId("R", 0)
    state = ClientState("c1")
    new_request(state, cmd_a, "R")
    for sender in ("R", "L", "Q", "T"):
        record_reply(state, _sreply(sender, inst, bare))

    forged = CommitCertificate("slow", tuple(_sreply(s, inst, ext) for s in ("L", "Q", "T")))
    honest_cert = CommitCertificate("fast", tuple(_sreply(s, inst, bare) for s in ("L", "Q", "R", "T")))
    with pytest.raises(ForgedReply):
        apply_faulty_client(
            state, byz_cfg,
            FaultyClientChoice(FAULTY_SPLIT, "a", certificates=((honest_cert, ("R",)), (forged, ("L",)))),
        )


def test_faulty_choice_shape_guards(byz_cfg, cmd_a, bare):
    inst = InstanceId("R", 0)
    state = ClientState("c1")
    new_request(state, cmd_a, "R")
    for sender in ("R", "L", "Q", "T"):
        record_reply(state, _sreply(sender, inst, bare))
    cert = CommitCertificate("fast", tuple(_sreply(s, inst, bare) for s in ("L", "Q", "R", "T")))

    with pytest.raises(BadChoice):
        apply_faulty_client(state, byz_cfg, FaultyClientChoice(FAULTY_SPLIT, "a", certificates=((cert, ("R",)),)))
    with pytest.raises(BadChoice):
        apply_faulty_client(
            state, byz_cfg,
            FaultyClientChoice(FAULTY_SELECTIVE, "a", certificates=((cert, ("R",)), (cert, ("L",)))),
        )
    with pytest.raises(BadChoice):
        apply_faulty_client(ClientState("c9"), byz_cfg, FaultyClientChoice(FAULTY_HONEST))


def test_faulty_honest_equals_correct_fast_path(byz_cfg, cmd_a, bare):
    inst = InstanceId("R", 0)
    state = ClientState("c1")
    new_request(state, cmd_a, "R")
    for sender in ("R", "L", "Q", "T"):
        record_reply(state, _sreply(sender, inst, bare))

    outputs, _ = apply_faulty_client(state, byz_cfg, FaultyClientChoice(FAULTY_HONEST, "a"))
    assert [r for r, _ in outputs] == list(byz_cfg.replica_ids)
    assert all(isinstance(m, CommitFast) for _, m in outputs)
    assert state.requests["a"].phase == COMPLETE


def test_choice_json_round_trip(byz_cfg, bare, ext):
    byz = ByzantineChoice(BYZ_EQUIVOCATE_SPEC_REPLY, item=2, branches=(bare, ext))
    assert choice_to_json(choice_from_json(choice_to_json(byz))) == choice_to_json(byz)

    inst = InstanceId("R", 0)
    cert = CommitCertificate("fast", tuple(_sreply(s, inst, bare) for s in ("L", "Q", "R", "T")))
    faulty = FaultyClientChoice(FAULTY_SELECTIVE, "a", certificates=((cert, ("R", "L")),))
    assert choice_to_json(choice_from_json(choice_to_json(faulty))) == choice_to_json(faulty)
