import pytest

from conftest import looper, nonzero_halter, query_probe, zero_halter

from ittm.fm import (BY_DIVERGENCE, BY_WITNESS, ConstructionRefusal, FMState,
                     Requirement, Restraint, WAITING, check_attention,
                     check_event_log, check_witness_hygiene, fm_construct,
                     fresh_witness, receive_attention)
from ittm.machine import extend_to_oracle_tracks, p_flip, p_halt
from ittm.approx import universal_run
from ittm.oracle import run_programs
from ittm.ordinal import ZERO as ZERO_ORD, from_int
from ittm.reals import ZERO as ZERO_REAL, parse_real
from ittm.runner import BudgetPolicy

B = BudgetPolicy(3, 96, 1024)


def empty_state(programs=(), budget=B):
    progs = list(programs)
    state = FMState(progs, budget, 16)
    state.oracle_programs = [extend_to_oracle_tracks(p) if p.track_count == 3
                             else p for p in progs]
    state.appearance_log = universal_run(run_programs(progs, budget), budget)
    for pid in range(len(progs)):
        state.requirements.append(Requirement("R", pid, 2 * pid))
        state.requirements.append(Requirement("S", pid, 2 * pid + 1))
    return state


def test_fresh_witness_with_nothing_to_avoid_is_zero():
    state = empty_state()
    req = Requirement("R", 0, 0)
    assert fresh_witness(state, req) == ZERO_REAL


def test_fresh_witness_avoids_preserved_sets():
    state = empty_state()
    state.restraints[1] = Restraint(1, "A", ZERO_ORD, (parse_real("0(0)*"),), ())
    req = Requirement("R", 5, 10)
    w = fresh_witness(state, req)
    assert w.bit(0) == 1
    assert w != ZERO_REAL


def test_fresh_witness_always_absent_from_inputs():
    state = empty_state([zero_halter(), p_halt(), p_flip()])
    state.requirements[0].witness = parse_real("101(0)*")
    state.restraints[2] = Restraint(2, "B", ZERO_ORD,
                                    (parse_real("11(0)*"), parse_real("(1)*")), ())
    req = state.requirements[3]
    w = fresh_witness(state, req)
    assert w not in set(state.appearance_log.segment(from_int(1)))
    assert w not in {parse_real("101(0)*"), parse_real("11(0)*"), parse_real("(1)*")}


def test_fresh_witness_refuses_truncated_log():
    from ittm.machine import p_sweep
    state = empty_state([p_sweep()], BudgetPolicy(3, 96, 16))
    state.stage = from_int(50)
    assert state.appearance_log.truncated
    assert state.appearance_log.complete_below < from_int(51)
    with pytest.raises(ConstructionRefusal):
        fresh_witness(state, state.requirements[0])


def test_check_attention_cases():
    state = empty_state([zero_halter(), p_flip(), p_halt()])
    for req in state.requirements:
        req.witness = ZERO_REAL
    att = check_attention(state, state.requirements[0], B)   # zero halter
    assert att is not None
    res, qlog = att
    assert res.output.is_zero() and qlog == ()
    assert check_attention(state, state.requirements[2], B) is None  # looper
    assert check_attention(state, state.requirements[4], B) is None  # output 1


def test_receive_attention_first_event():
    state = empty_state([zero_halter(), p_halt()])
    for req in state.requirements:
        req.witness = fresh_witness(state, req)
    state.stage = from_int(1)
    before = [r.witness for r in state.requirements]
    att = check_attention(state, state.requirements[0], B)
    receive_attention(state, state.requirements[0], att)
    assert state.members("A") == [before[0]]
    assert state.requirements[0].state == BY_WITNESS
    assert 0 in state.restraints
    # every weaker waiting requirement was handed a fresh witness
    for req in state.requirements[1:]:
        assert req.witness != before[req.priority]


def test_receive_attention_lowest_priority_reassigns_nothing():
    state = empty_state([zero_halter()])
    for req in state.requirements:
        req.witness = fresh_witness(state, req)
    state.stage = from_int(1)
    low = state.requirements[-1]
    att = check_attention(state, low, B)
    receive_attention(state, low, att)
    events = [e for e in state.events if e["type"] == "witness"]
    assert events == []


def test_scripted_injury_two_phase():
    # phase one: a weaker requirement certifies a run whose queries include
    # the stronger requirement's standing witness; phase two: the stronger
    # requirement acts, the preserved set is hit, the injury is logged
    state = empty_state([query_probe(), nonzero_halter(1)])
    r0, s0 = state.requirements[0], state.requirements[1]
    r0.witness = parse_real("1(0)*")
    s0.witness = parse_real("11(0)*")
    for req in state.requirements[2:]:
        req.witness = fresh_witness(state, req)
    state.stage = from_int(2)
    att = check_attention(state, s0, B)
    assert att is not None
    receive_attention(state, s0, att)
    assert parse_real("1(0)*") in state.restraints[1].preserved
    state.stage = from_int(3)
    att = check_attention(state, r0, B)
    assert att is not None
    receive_attention(state, r0, att)
    assert s0.state == WAITING
    assert s0.injuries == [(from_int(3), 0)]
    assert 1 not in state.restraints
    assert [e["type"] for e in state.events].count("injury") == 1


def test_fm_construct_empty():
    state, report = fm_construct([], B)
    assert state.members("A") == [] and state.members("B") == []
    assert state.events == []
    assert report["requirements"] == []


def test_fm_construct_zero_halter_served_in_priority_order():
    progs = [zero_halter(), nonzero_halter(1)]
    state, report = fm_construct(progs, B)
    by_label = {e["requirement"]: e for e in report["requirements"]}
    assert by_label["R_0"]["classification"] == BY_WITNESS
    assert by_label["S_0"]["classification"] == BY_WITNESS
    attentions = [e for e in state.events if e["type"] == "attention"]
    assert [e["requirement"] for e in attentions] == ["R_0", "S_0"]
    # R_0 was served at the first halting event, S_0 at the next one
    halting = [e["stage"] for e in state.events if e["type"] == "halting-event"]
    assert attentions[0]["stage"] == halting[0]
    assert attentions[1]["stage"] == halting[1]
    assert len(state.members("A")) == 1 and len(state.members("B")) == 1
    assert report["flags"] == []


def test_fm_construct_loopers_only():
    progs = [looper(0), looper(1)]
    state, report = fm_construct(progs, B)
    acting = [e for e in state.events
              if e["type"] in ("halting-event", "attention", "addition", "injury")]
    assert acting == []
    for entry in report["requirements"]:
        assert entry["classification"] == BY_DIVERGENCE
        assert entry["recheck"] == "loops"
    assert report["flags"] == []


INJURY_PROGS = [query_probe(), nonzero_halter(1), nonzero_halter(2), looper(0)]


def test_fm_construct_organic_injury():
    state, report = fm_construct(INJURY_PROGS, B)
    by_label = {e["requirement"]: e for e in report["requirements"]}
    assert by_label["R_0"]["classification"] == BY_WITNESS
    assert by_label["S_0"]["classification"] == BY_WITNESS
    assert by_label["S_0"]["injuries"] == [["3", 0]]
    assert len(by_label["S_0"]["lineage"]) == 2      # reassigned once
    assert report["flags"] == []
    assert check_event_log(state) == []
    assert check_witness_hygiene(state) == []


def test_fm_construct_deterministic():
    a_state, a_report = fm_construct(INJURY_PROGS, B)
    b_state, b_report = fm_construct(INJURY_PROGS, B)
    assert a_state.events == b_state.events
    assert a_report == b_report


def test_injury_bound_holds():
    state, _report = fm_construct(INJURY_PROGS, B)
    attentions = {}
    for ev in state.events:
        if ev["type"] == "attention":
            attentions[ev["priority"]] = attentions.get(ev["priority"], 0) + 1
    for req in state.requirements:
        allowed = sum(n for pr, n in attentions.items() if pr < req.priority)
        assert len(req.injuries) <= allowed
