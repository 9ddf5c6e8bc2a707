import pytest

from conftest import looper, nonzero_halter, query_probe, zero_halter

import ittm.fm as fm
from ittm.fm import (BY_DIVERGENCE, BY_WITNESS, ConstructionRefusal, FMState,
                     Requirement, Restraint, WAITING, check_attention,
                     check_event_log, check_witness_hygiene, fm_construct,
                     fresh_witness, receive_attention)
from ittm.machine import extend_to_oracle_tracks, p_flip, p_halt
from ittm.approx import TruncatedLog, diagonal_against, universal_run
from ittm.oracle import enumeration_slice, run_programs
from ittm.ordinal import ZERO as ZERO_ORD, from_int, successor
from ittm.reals import ZERO as ZERO_REAL, parse_real
from ittm.runner import DEFAULT_BUDGET, BudgetPolicy

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
    for entry in report["requirements"]:
        assert entry["lineage"] == [
            (ev["stage"], ev["witness"]) for ev in state.events
            if ev["type"] == "witness"
            and ev["requirement"] == entry["requirement"]]
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


# --- the kept avoid list against the from-scratch rule ------------------------

CRITERION_6_PROGS = [query_probe(), zero_halter(), nonzero_halter(1),
                     nonzero_halter(2), nonzero_halter(3), looper(0), looper(2)]
CRITERION_6_BUDGET = BudgetPolicy(3, 128, 2048)


def reference_avoid(state):
    """The avoid list built from scratch, as every witness once was."""
    avoid, seen = [], set()
    def push(r):
        if r not in seen:
            seen.add(r)
            avoid.append(r)
    for r in state.appearance_log.segment(successor(state.stage)):
        push(r)
    for owner in sorted(state.restraints):
        for r in state.restraints[owner].preserved:
            push(r)
    for other in state.requirements:
        if other.witness is not None:
            push(other.witness)
    for side in ("A", "B"):
        for r in state.members(side):
            push(r)
    return avoid


def reference_fresh_witness(state, req):
    try:
        return diagonal_against(reference_avoid(state))
    except TruncatedLog as exc:
        raise ConstructionRefusal(str(exc))


@pytest.fixture
def counts(monkeypatch):
    """Counts the full rebuilds of the avoid list."""
    counts = {"witnesses": 0, "rebuilds": 0}
    build = fm._build_avoid
    def counted(state, upto):
        counts["rebuilds"] += 1
        return build(state, upto)
    monkeypatch.setattr(fm, "_build_avoid", counted)
    return counts


@pytest.fixture
def checked_witnesses(counts, monkeypatch):
    """Every fresh_witness call is compared with the from-scratch rule on the
    same state, and counted."""
    kept = fm.fresh_witness
    def checked(state, req):
        try:
            expected = reference_fresh_witness(state, req)
        except ConstructionRefusal as exc:
            with pytest.raises(ConstructionRefusal) as kept_exc:
                kept(state, req)
            assert str(kept_exc.value) == str(exc)
            raise
        out = kept(state, req)
        assert out == expected
        counts["witnesses"] += 1
        return out
    monkeypatch.setattr(fm, "fresh_witness", checked)
    return counts


def _count(state, kind):
    return sum(ev["type"] == kind for ev in state.events)


@pytest.mark.parametrize("programs, budget", [
    (CRITERION_6_PROGS, CRITERION_6_BUDGET),
    (INJURY_PROGS, B),
], ids=["criterion-6", "organic-injury"])
def test_kept_avoid_list_matches_rebuild_through_injuries(checked_witnesses,
                                                          programs, budget):
    state, report = fm_construct(programs, budget)
    assert report is not None and report["flags"] == []
    assert _count(state, "injury") >= 1
    # the query probe certifies non-empty preserved sets, and the injured
    # requirement's old witness is a member when it is handed a new one, so
    # the rebuild fallback runs between attentions
    assert any(e["preserved"] for e in state.events if e["type"] == "restraint")
    assert checked_witnesses["rebuilds"] > 1 + _count(state, "attention")
    assert checked_witnesses["witnesses"] == _count(state, "witness")
    assert check_witness_hygiene(state) == []


@pytest.mark.parametrize("states, bound", [(0, 4), (0, 16), (0, 48), (1, 40)])
def test_kept_avoid_list_matches_rebuild_on_enumerations(checked_witnesses,
                                                         states, bound):
    state, report = fm_construct(enumeration_slice(bound, states, 3))
    assert report is not None
    assert checked_witnesses["witnesses"] == _count(state, "witness") > 0
    assert check_witness_hygiene(state) == []


def test_kept_avoid_list_refuses_as_the_rebuild_did(checked_witnesses,
                                                    monkeypatch):
    progs = enumeration_slice(64, 0, 3)
    state, report = fm_construct(progs)
    assert report is None
    assert state.flags[-1].startswith("refused: appearance log complete below")
    monkeypatch.setattr(fm, "fresh_witness", reference_fresh_witness)
    ref_state, ref_report = fm_construct(progs)
    assert ref_report is None
    assert state.flags == ref_state.flags
    assert state.events == ref_state.events


def test_kept_avoid_list_when_a_witness_appears_later(checked_witnesses):
    # R_0's first witness is 1(0)*, which p_halt writes at stage 1, so once
    # the stage moves on that witness is listed twice: in the segment and in
    # its own slot, and replacing it must rebuild the list
    state = empty_state([p_halt(), zero_halter(), p_flip()])
    for req in state.requirements:
        fm._assign_witness(state, req)
    r0 = state.requirements[0]
    assert r0.witness == parse_real("1(0)*")
    assert r0.witness not in state.appearance_log.segment(from_int(1))
    state.stage = from_int(3)
    assert r0.witness in state.appearance_log.segment(from_int(4))
    rebuilds = checked_witnesses["rebuilds"]
    for req in state.requirements:
        fm._assign_witness(state, req)
    assert checked_witnesses["rebuilds"] == rebuilds + 2
    assert checked_witnesses["witnesses"] == 2 * len(state.requirements)
    assert check_witness_hygiene(state) == []


def test_kept_avoid_list_follows_edits_of_the_state(checked_witnesses):
    state = empty_state([zero_halter(), p_halt(), p_flip()])
    # assigned last to first, every first witness but one lands before
    # entries already listed
    for req in reversed(state.requirements):
        fm._assign_witness(state, req)
    reqs = state.requirements
    fm._assign_witness(state, reqs[5])
    state.restraints[1] = Restraint(1, "A", ZERO_ORD,
                                    (parse_real("(01)*"), reqs[3].witness), ())
    fm._assign_witness(state, reqs[2])
    state.side_rows("B").setdefault(0, []).append(parse_real("0101(1)*"))
    fm._assign_witness(state, reqs[4])
    # a witness that is also a member does not own its slot
    state.side_rows("A").setdefault(1, []).append(reqs[2].witness)
    fm._assign_witness(state, reqs[2])
    fm._assign_witness(state, reqs[5])
    reqs[0].witness = parse_real("11(0)*")
    fm._assign_witness(state, reqs[4])
    # nor does S_1's, which is also in the preserved set
    fm._assign_witness(state, reqs[3])
    fm._assign_witness(state, reqs[1])
    assert checked_witnesses["witnesses"] == 14
    assert checked_witnesses["rebuilds"] == 12
    # a member listed after every witness slot
    state = empty_state([zero_halter(), p_halt()])
    state.side_rows("A")[0] = [parse_real("1(0)*")]
    for req in state.requirements:
        fm._assign_witness(state, req)
    assert checked_witnesses["rebuilds"] == 16


def test_avoid_list_rebuilds_only_per_attention(counts):
    # fm --states 0 --bound 48: one build for the first assignments, then at
    # most one per attention, where every witness once rebuilt the list
    state, _report = fm_construct(enumeration_slice(48, 0, 3), DEFAULT_BUDGET)
    assert _count(state, "witness") == 3528
    assert counts["rebuilds"] <= 1 + _count(state, "attention") == 49


def test_witness_hygiene_replays_distinctness():
    state, _report = fm_construct(INJURY_PROGS, B)
    assert check_witness_hygiene(state) == []
    last = state.events[-1]["stage"]
    member = next(e["real"] for e in state.events if e["type"] == "addition")
    current = {e["requirement"]: e["witness"]
               for e in state.events if e["type"] == "witness"}
    state.events.append({"type": "witness", "stage": last, "requirement": "R_3",
                         "priority": 6, "witness": member})
    state.events.append({"type": "witness", "stage": last, "requirement": "S_3",
                         "priority": 7, "witness": current["R_1"]})
    problems = check_witness_hygiene(state)
    assert any("already a member" in p for p in problems)
    assert any("already a current witness" in p for p in problems)
