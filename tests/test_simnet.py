"""Deterministic network simulation: schedules, traces, and delivery rules."""

import pytest

from ezbft_lab.adversary import BYZ_HONEST, ByzantineChoice, FaultyClientChoice, FAULTY_HONEST
from ezbft_lab.core import Command, Config, InstanceId, canonical_json
from ezbft_lab.explorer import _state_key
from ezbft_lab.scenarios import build_scenario
from ezbft_lab.simnet import (
    ADVERSARY,
    DELIVER,
    TIMEOUT,
    TRIGGER_OWNER_CHANGE,
    Event,
    Schedule,
    ScheduleError,
    Sim,
    Trace,
    WorkItem,
    run,
)


def _workload(*items):
    return tuple(WorkItem(client, cmd, target) for client, cmd, target in items)


@pytest.fixture
def single_item(cmd_a):
    return _workload(("c1", cmd_a, "R"))


def test_workload_seeds_one_request_envelope_each(cfg, cmd_a, cmd_b):
    sim = Sim(cfg, _workload(("c1", cmd_a, "R"), ("c2", cmd_b, "Q")))
    pending = sim.pending()
    assert [e.id for e in pending] == ["c1#0", "c2#0"]
    assert all(e.hop == 0 for e in pending)


def test_request_delivery_fans_out_orders_and_own_reply(cfg, single_item):
    sim = Sim(cfg, single_item)
    sim.apply(Event(DELIVER, message="c1#0"))
    pending = sim.pending()
    # Three proposals to the peers plus the owner's direct reply.
    assert [e.recipient for e in pending] == ["L", "Q", "T", "c1"]
    assert all(e.hop == 1 for e in pending)


def test_emitted_hop_is_one_past_the_delivered_hop(cfg, single_item):
    sim = Sim(cfg, single_item, record_trace=True)
    sim.apply(Event(DELIVER, message="c1#0"))
    record = sim.apply(Event(DELIVER, message="R#0"))
    assert [e["hop"] for e in record["emitted"]] == [2]


def test_scripted_runs_are_byte_identical(cfg):
    first = build_scenario("safety").trace.serialize()
    second = build_scenario("safety").trace.serialize()
    assert first == second


def test_schedule_and_trace_round_trip(tmp_path):
    scenario = build_scenario("exec-consistency")

    sched_path = tmp_path / "s.json"
    scenario.schedule.write(str(sched_path))
    back = Schedule.read(str(sched_path))
    assert canonical_json(back.to_json()) == canonical_json(scenario.schedule.to_json())

    trace_path = tmp_path / "t.jsonl"
    scenario.trace.write(str(trace_path))
    assert Trace.read(str(trace_path)).serialize() == scenario.trace.serialize()


def test_replaying_a_schedule_reproduces_the_trace():
    scenario = build_scenario("liveness")
    _, trace = run(scenario.schedule)
    assert trace.serialize() == scenario.trace.serialize()


def test_event_json_round_trip(bare, ext):
    events = [
        Event(DELIVER, message="c1#0"),
        Event(TIMEOUT, client="c1", command="a"),
        Event(TRIGGER_OWNER_CHANGE, replica="L", instance=InstanceId("R", 0), note="tail"),
        Event(ADVERSARY, node="T", choice=ByzantineChoice(BYZ_HONEST, item=0)),
    ]
    for event in events:
        assert Event.from_json(event.to_json()).to_json() == event.to_json()


def test_delivery_rule_violations_raise(byz_cfg, cmd_a, cmd_b):
    workload = _workload(("c1", cmd_a, "R"), ("c2", cmd_b, "Q"))
    sim = Sim(byz_cfg, workload)

    with pytest.raises(ScheduleError):
        sim.apply(Event(DELIVER, message="nope#9"))
    sim.apply(Event(DELIVER, message="c1#0"))
    with pytest.raises(ScheduleError):
        sim.apply(Event(DELIVER, message="c1#0"))  # double delivery
    with pytest.raises(ScheduleError):
        sim.apply(Event(TIMEOUT, client="c9", command="a"))
    with pytest.raises(ScheduleError):
        sim.apply(Event(TIMEOUT, client="c1", command="a"))  # faulty client
    with pytest.raises(ScheduleError):
        sim.apply(Event(TRIGGER_OWNER_CHANGE, replica="T", instance=InstanceId("R", 0)))
    with pytest.raises(ScheduleError):
        sim.apply(Event(ADVERSARY, node="L", choice=ByzantineChoice(BYZ_HONEST, item=0)))
    with pytest.raises(ScheduleError):
        sim.apply(Event(kind="jitter"))


def test_byzantine_deliveries_queue_in_the_inbox(byz_cfg, cmd_a):
    sim = Sim(byz_cfg, _workload(("c1", cmd_a, "T")))
    sim.apply(Event(DELIVER, message="c1#0"))
    assert sim.pending() == []  # nothing emitted until the adversary acts
    assert len(sim.inboxes["T"]) == 1 and not sim.consumed["T"]

    sim.apply(Event(ADVERSARY, node="T", choice=ByzantineChoice(BYZ_HONEST, item=0)))
    assert sim.consumed["T"] == {0}
    assert [e.recipient for e in sim.pending()] == ["R", "L", "Q", "c1"]


def test_faulty_client_deliveries_record_only(byz_cfg, cmd_a, bare):
    sim = Sim(byz_cfg, _workload(("c1", cmd_a, "R")))
    sim.apply(Event(DELIVER, message="c1#0"))
    while sim.pending():
        sim.apply(Event(DELIVER, message=sim.pending()[0].id))
    sim.apply(Event(ADVERSARY, node="T", choice=ByzantineChoice(BYZ_HONEST, item=0)))
    while sim.pending():
        sim.apply(Event(DELIVER, message=sim.pending()[0].id))
    # All four replies arrived; a correct client would have finished fast.
    state = sim.clients["c1"]
    assert len(state.received) == 4
    assert state.requests["a"].phase == "speculating"
    assert sim.pending() == []

    sim.apply(Event(ADVERSARY, node="c1", choice=FaultyClientChoice(FAULTY_HONEST, "a")))
    assert [e.payload.kind for e in sim.pending()] == ["commit_fast"] * 4


def test_client_state_digest_ignores_reply_arrival_order(cfg, cmd_a):
    def run_with(order):
        sim = Sim(cfg, _workload(("c1", cmd_a, "R")))
        sim.apply(Event(DELIVER, message="c1#0"))
        sim.apply(Event(DELIVER, message="R#0"))  # L now holds its reply
        for msg in order:
            sim.apply(Event(DELIVER, message=msg))
        return sim

    forward = run_with(["R#3", "L#0"])
    backward = run_with(["L#0", "R#3"])
    assert _state_key(forward, frozenset()) == _state_key(backward, frozenset())
    # The trace-facing view keeps arrival order.
    assert forward.clients["c1"].received != backward.clients["c1"].received


def test_empty_schedule_runs_to_an_empty_trace(cfg):
    schedule = Schedule(cfg, (), ())
    sim, trace = run(schedule)
    assert trace.records == []
    assert sim.pending() == []
    assert trace.serialize().count("\n") == 1  # header only
