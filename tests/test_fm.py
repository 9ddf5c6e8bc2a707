import hashlib
import json
from collections import Counter

import pytest

from conftest import looper, nonzero_halter, query_probe, zero_halter

import ittm.fm as fm
from ittm.fm import (BY_DIVERGENCE, BY_WITNESS, FMState,
                     Requirement, Restraint, check_attention,
                     check_event_log, fm_construct, fresh_witness,
                     receive_attention)
from ittm.machine import extend_to_oracle_tracks, p_flip, p_halt
from ittm.approx import (AppearanceLog, TruncatedLog, diagonal_against,
                         universal_run)
from ittm.oracle import enumeration_slice, run_programs
from ittm.ordinal import ZERO as ZERO_ORD, from_int, successor
from ittm.reals import ZERO as ZERO_REAL, parse_real
from ittm.runner import DEFAULT_BUDGET, BudgetPolicy

B = BudgetPolicy(3, 96, 1024)


def empty_state(programs=(), budget=B):
    progs = list(programs)
    state = FMState(budget)
    state.oracle_programs = [extend_to_oracle_tracks(p) if p.track_count == 3
                             else p for p in progs]
    state.appearance_log = universal_run(run_programs(progs, budget), budget)
    for pid in range(len(progs)):
        state.requirements.append(Requirement("R", pid, 2 * pid))
        state.requirements.append(Requirement("S", pid, 2 * pid + 1))
    return state


def test_fresh_witness_with_nothing_to_avoid_is_zero():
    state = empty_state()
    assert fresh_witness(state) == ZERO_REAL


def test_fresh_witness_avoids_preserved_sets():
    state = empty_state()
    state.restraints[1] = Restraint((parse_real("0(0)*"),), ())
    w = fresh_witness(state)
    assert w.bit(0) == 1
    assert w != ZERO_REAL


def test_fresh_witness_always_absent_from_inputs():
    state = empty_state([zero_halter(), p_halt(), p_flip()])
    state.requirements[0].witness = parse_real("101(0)*")
    state.restraints[2] = Restraint((parse_real("11(0)*"), parse_real("(1)*")), ())
    w = fresh_witness(state)
    assert w not in set(state.appearance_log.segment(from_int(1)))
    assert w not in {parse_real("101(0)*"), parse_real("11(0)*"), parse_real("(1)*")}


def test_fresh_witness_refuses_truncated_log():
    from ittm.machine import p_sweep
    state = empty_state([p_sweep()], BudgetPolicy(3, 96, 16))
    state.stage = from_int(50)
    assert state.appearance_log.truncated
    assert state.appearance_log.complete_below < from_int(51)
    with pytest.raises(TruncatedLog):
        fresh_witness(state)


def test_check_attention_cases():
    state = empty_state([zero_halter(), p_flip(), p_halt()])
    for req in state.requirements:
        req.witness = ZERO_REAL
    att = check_attention(state, state.requirements[0])   # zero halter
    assert att is not None
    res, qlog = att
    assert res.output.is_zero() and qlog == ()
    assert check_attention(state, state.requirements[2]) is None  # looper
    assert check_attention(state, state.requirements[4]) is None  # output 1


def test_receive_attention_first_event():
    state = empty_state([zero_halter(), p_halt()])
    for req in state.requirements:
        req.witness = fresh_witness(state)
    state.stage = from_int(1)
    before = [r.witness for r in state.requirements]
    att = check_attention(state, state.requirements[0])
    receive_attention(state, state.requirements[0], att)
    assert state.members("A") == [before[0]]
    assert list(state.restraints) == [0]    # R_0 alone is certified
    # every weaker waiting requirement was handed a fresh witness
    for req in state.requirements[1:]:
        assert req.witness != before[req.priority]


def test_receive_attention_lowest_priority_reassigns_nothing():
    state = empty_state([zero_halter()])
    for req in state.requirements:
        req.witness = fresh_witness(state)
    state.stage = from_int(1)
    low = state.requirements[-1]
    att = check_attention(state, low)
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
        req.witness = fresh_witness(state)
    state.stage = from_int(2)
    att = check_attention(state, s0)
    assert att is not None
    receive_attention(state, s0, att)
    assert parse_real("1(0)*") in state.restraints[1].preserved
    state.stage = from_int(3)
    att = check_attention(state, r0)
    assert att is not None
    receive_attention(state, r0, att)
    assert 1 not in state.restraints         # S_0 is waiting again
    assert [(e["stage"], e["requirement"], e["priority"], e["injured_by"])
            for e in state.events if e["type"] == "injury"] == \
        [("3", "S_0", 1, "R_0")]


def test_fm_construct_empty():
    state, report = fm_construct([], B)
    assert state.members("A") == [] and state.members("B") == []
    assert state.events == []
    assert report["requirements"] == []
    assert check_event_log(state) == []


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
    assert check_event_log(state) == []


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
    assert check_event_log(state) == []


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


def test_fm_construct_deterministic():
    a_state, a_report = fm_construct(INJURY_PROGS, B)
    b_state, b_report = fm_construct(INJURY_PROGS, B)
    assert a_state.events == b_state.events
    assert a_report == b_report


def test_injury_bound_holds():
    state, _report = fm_construct(INJURY_PROGS, B)
    attentions = Counter(ev["priority"] for ev in state.events
                         if ev["type"] == "attention")
    injuries = Counter(ev["priority"] for ev in state.events
                       if ev["type"] == "injury")
    assert injuries == {1: 1}
    for req in state.requirements:
        allowed = sum(n for pr, n in attentions.items() if pr < req.priority)
        assert injuries[req.priority] <= allowed


# --- the batch's avoid list against the from-scratch rule --------------------

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
    return diagonal_against(reference_avoid(state))


@pytest.fixture
def counts(monkeypatch):
    """Counts the full rebuilds of the avoid list; a refusal builds none."""
    counts = {"witnesses": 0, "rebuilds": 0}
    build = fm._build_avoid
    def counted(state):
        avoid = build(state)
        counts["rebuilds"] += 1
        return avoid
    monkeypatch.setattr(fm, "_build_avoid", counted)
    return counts


def reference_assign(state, req, avoid):
    """`fm._assign_witness` by the from-scratch rule, keeping no list."""
    req.witness = reference_fresh_witness(state, req)
    state.log("witness", requirement=req.label(), priority=req.priority,
              witness=req.witness.render())
    return None


@pytest.fixture
def checked_witnesses(counts, monkeypatch):
    """Every witness the construction hands out is compared with the
    from-scratch rule on the state before it is written, and counted."""
    assign = fm._assign_witness
    def checked(state, req, avoid):
        try:
            expected = reference_fresh_witness(state, req)
        except TruncatedLog as exc:
            with pytest.raises(TruncatedLog) as kept_exc:
                assign(state, req, avoid)
            assert str(kept_exc.value) == str(exc)
            raise
        kept = assign(state, req, avoid)
        assert req.witness == expected
        counts["witnesses"] += 1
        return kept
    monkeypatch.setattr(fm, "_assign_witness", checked)
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
    assert check_event_log(state) == []


@pytest.mark.parametrize("states, bound", [(0, 4), (0, 16), (0, 48), (1, 40)])
def test_kept_avoid_list_matches_rebuild_on_enumerations(checked_witnesses,
                                                         states, bound):
    state, report = fm_construct(enumeration_slice(bound, states, 3))
    assert report is not None
    assert checked_witnesses["witnesses"] == _count(state, "witness") > 0
    assert check_event_log(state) == []


def test_kept_avoid_list_refuses_as_the_rebuild_did(checked_witnesses,
                                                    monkeypatch):
    progs = enumeration_slice(64, 0, 3)
    state, report = fm_construct(progs)
    assert report is None
    assert state.flags[-1].startswith("refused: appearance log complete below")
    monkeypatch.setattr(fm, "_assign_witness", reference_assign)
    ref_state, ref_report = fm_construct(progs)
    assert ref_report is None
    assert state.flags == ref_state.flags
    assert state.events == ref_state.events
    # the refusal cut a batch short, which only the refused flag allows
    assert check_event_log(state) == []
    state.flags.pop()
    [problem] = check_event_log(state)
    assert problem.startswith("the log ends early, with the witness of ")


def test_kept_avoid_list_when_a_witness_appears_later(checked_witnesses):
    # R_0's first witness is 1(0)*, which p_halt writes at stage 1, so once
    # the stage moves on that witness is listed twice: in the segment and in
    # its own slot, and replacing it must rebuild the list
    state = empty_state([p_halt(), zero_halter(), p_flip()])
    fm._assign_witnesses(state, state.requirements)
    r0 = state.requirements[0]
    assert r0.witness == parse_real("1(0)*")
    assert r0.witness not in state.appearance_log.segment(from_int(1))
    state.stage = from_int(3)
    assert r0.witness in state.appearance_log.segment(from_int(4))
    rebuilds = checked_witnesses["rebuilds"]
    fm._assign_witnesses(state, state.requirements)
    assert checked_witnesses["rebuilds"] == rebuilds + 2
    assert checked_witnesses["witnesses"] == 2 * len(state.requirements)


def test_kept_avoid_list_follows_edits_of_the_state(checked_witnesses):
    state = empty_state([zero_halter(), p_halt(), p_flip()])
    reqs = state.requirements
    fm._assign_witnesses(state, reqs)
    # a witness that is also a member does not own its slot, nor does S_1's,
    # which is also in a preserved set: each is rebuilt around
    state.added["A"].append((1, reqs[2].witness))
    state.restraints[1] = Restraint((parse_real("(01)*"), reqs[3].witness), ())
    fm._assign_witnesses(state, reqs)
    assert checked_witnesses["witnesses"] == 12
    assert checked_witnesses["rebuilds"] == 1 + 3
    # a member listed after every witness slot: no first witness may be
    # added in place
    state = empty_state([zero_halter(), p_halt()])
    state.added["A"].append((0, parse_real("1(0)*")))
    fm._assign_witnesses(state, state.requirements)
    assert checked_witnesses["witnesses"] == 16
    assert checked_witnesses["rebuilds"] == 4 + 4


def test_witness_text_is_the_rendered_diagonal():
    import random
    rng = random.Random(5)
    words = [0, 1, 2, 5] + [rng.getrandbits(rng.randint(1, 200))
                            for _ in range(300)]
    for word in words:
        assert fm._witness_text(word) == ZERO_REAL.flipped(word).render()


def test_avoid_list_rebuilds_only_per_attention(counts):
    # fm --states 0 --bound 48: one build for the first assignments, then
    # one per attention, where every witness once rebuilt the list
    state, _report = fm_construct(enumeration_slice(48, 0, 3), DEFAULT_BUDGET)
    assert _count(state, "witness") == 3528
    assert counts["rebuilds"] == 1 + _count(state, "attention") == 49
    assert check_event_log(state) == []


def test_witness_hygiene_replays_distinctness():
    # S_3's witness at stage 2 is edited to a real it must avoid.  The value
    # of a witness is free, so the replay reports each source that holds it
    # and goes on: S_3 is handed new witnesses later and never attends.
    state, _report = fm_construct(INJURY_PROGS, B)
    assert check_event_log(state) == []
    [k] = [k for k, ev in enumerate(state.events) if ev["type"] == "witness"
           and ev["requirement"] == "S_3" and ev["stage"] == "2"]
    current = {ev["requirement"]: ev["witness"] for ev in state.events[:k]
               if ev["type"] == "witness"}
    member = next(e["real"] for e in state.events if e["type"] == "addition")
    assert member == current["S_0"]      # S_0 is certified, so keeps it
    for witness, sources in [
            (current["R_1"], ["is already a current witness at 2"]),
            (member, ["lies in preserved set of 1",
                      "is already a current witness at 2",
                      "is already a member at 2"])]:
        state.events[k]["witness"] = witness
        assert check_event_log(state) == [
            "witness %s %s" % (witness, why) for why in sources]


def test_event_log_check_reports_unknown_requirements():
    # each event takes the place of the first logged event of its type, on
    # a copy of the log, since the replay stops at the first out of place
    state, _report = fm_construct(INJURY_PROGS, B)
    assert check_event_log(state) == []
    events = state.events
    for event, problem in [
            ({"type": "restraint", "requirement": "R_9", "priority": 18,
              "preserved": []},
             "requirement 'R_9' where 'S_0' is due; priority 18 where 1 is due"),
            ({"type": "restraint", "requirement": "R_0", "priority": -1,
              "preserved": []},
             "requirement 'R_0' where 'S_0' is due; priority -1 where 1 is due"),
            ({"type": "addition", "side": "B", "row": 9, "real": "11(0)*",
              "requirement": "R_9"},
             "row 9 where 0 is due; requirement 'R_9' where 'S_0' is due")]:
        k = next(k for k, ev in enumerate(events) if ev["type"] == event["type"])
        state.events = (events[:k] + [dict(event, stage=events[k]["stage"])]
                        + events[k + 1:])
        assert check_event_log(state) == ["event %d: %s" % (k, problem)]


@pytest.mark.parametrize("event, problem", [
    ({"type": "addition", "stage": "1", "side": "A", "real": "1(0)*"},
     "event %d lacks row, requirement"),
    ({"type": "injury", "stage": "1", "requirement": "S_0", "injured_by": "R_0"},
     "event %d lacks priority"),
    ({"type": "witness", "stage": "w+", "requirement": "R_0", "priority": 0,
      "witness": "1(0)*"},
     "event %d: witness at w+ is out of place"),
    ({"type": "halting-event", "stage": "w+", "program": 0},
     "event %d: empty term in ordinal literal 'w+'"),
    # a field of the wrong kind is reported, not raised as TypeError
    ({"type": "injury", "stage": "1", "requirement": "S_0", "priority": [0],
      "injured_by": "R_0"},
     "event %d: priority [0] is not an int"),
    ({"type": "witness", "stage": "1", "requirement": "R_0", "priority": 0,
      "witness": ["0(0)*"]},
     "event %d: witness ['0(0)*'] is not a str"),
    ({"type": "addition", "stage": "1", "side": "A", "row": 0, "real": ["x"],
      "requirement": "R_0"},
     "event %d: real ['x'] is not a str"),
    ({"type": "restraint", "stage": "1", "requirement": "R_0", "priority": 0,
      "preserved": ["0(0)*", 1]},
     "event %d: preserved ['0(0)*', 1] is not a list of str"),
    ({"type": ["injury"], "stage": "1"},
     "event %d: type ['injury'] is not a str"),
], ids=["addition-without-requirement", "injury-without-priority",
        "witness-at-no-stage", "halting-event-at-no-stage",
        "injury-with-list-priority", "witness-with-list-witness",
        "addition-with-list-real", "restraint-preserving-an-int", "type-a-list"])
def test_event_checks_report_malformed_events(event, problem):
    # a tampered log is reported by the index of the bad event, not raised
    state, _report = fm_construct(enumeration_slice(4, 0, 3))
    assert check_event_log(state) == []
    k = len(state.events)
    state.events.append(event)
    assert check_event_log(state) == [problem % k]


# --- the injury path: pinned bytes and forged injuries -----------------------

def _sha256_of_lines(records):
    return hashlib.sha256("".join(
        json.dumps(x, sort_keys=True, separators=(",", ":")) + "\n"
        for x in records).encode()).hexdigest()


@pytest.mark.parametrize("programs, budget, events_sha, report_sha", [
    (CRITERION_6_PROGS, CRITERION_6_BUDGET,
     "325b90d183655a8bd483d9760b8a6db23f3703470d5a3d4c60f95a6e4f065ef0",
     "5f12aab43f1da052da138d5716f06134a6df02b9016b6264003f3c2043d40369"),
    (INJURY_PROGS, B,
     "55c097c714357a417ff62b3777c2da717c3f210be1018744bf7a0dc3d3a3ac82",
     "0a47aabbc1bcc6655922faab1fa32a49acd78e63df7d1104a8eeec87223ae3c0"),
], ids=["criterion-6", "organic-injury"])
def test_injury_path_bytes_are_pinned(programs, budget, events_sha, report_sha):
    # enumerated programs never query, so these two constructions are the
    # ones whose events and reports carry an injury and preserved reals
    state, report = fm_construct(programs, budget)
    assert _count(state, "injury") == 1
    assert _sha256_of_lines(state.events) == events_sha
    assert _sha256_of_lines([report]) == report_sha
    assert check_event_log(state) == []


@pytest.mark.parametrize("after, nth, injury, problem", [
    ("S_1", 0, {"stage": "6", "requirement": "S_1", "priority": 3,
                "injured_by": "R_2"},
     "type 'injury' where 'witness' is due; requirement 'S_1' where 'R_2' is"
     " due; priority 3 where 4 is due"),
    ("S_0", 1, {"stage": "3", "requirement": "S_0", "priority": 1,
                "injured_by": "R_0"},
     "type 'injury' where 'witness' is due; requirement 'S_0' where 'R_1' is"
     " due; priority 1 where 2 is due"),
], ids=["by-a-weaker-requirement", "past-the-injury-bound"])
def test_event_log_check_reports_forged_injuries(after, nth, injury, problem):
    # each forged injury is well formed and drops a standing restraint, but
    # no addition hit it: the witnesses of the restraint's batch are due
    state, _report = fm_construct(CRITERION_6_PROGS, CRITERION_6_BUDGET)
    assert check_event_log(state) == []
    at = [k for k, ev in enumerate(state.events)
          if ev["type"] == "restraint" and ev["requirement"] == after][nth]
    assert state.events[at]["stage"] == injury["stage"]
    state.events.insert(at + 1, {"type": "injury", **injury})
    assert check_event_log(state) == ["event %d: %s" % (at + 1, problem)]


# --- forged logs: the replay stops at the forged event -----------------------

def _slice_16():
    """fm_construct(enumeration_slice(16, 0, 3)) at (3, 256, 256): 472 events,
    every stage 0 or 1, no injury and no preserved real."""
    state, _report = fm_construct(enumeration_slice(16, 0, 3),
                                  BudgetPolicy(3, 256, 256))
    assert len(state.events) == 472
    return state


def _nth(events, kind, n):
    return [k for k, ev in enumerate(events) if ev["type"] == kind][n]


def _real_never_a_witness(events):
    k = _nth(events, "addition", 2)
    events[k]["real"] = "0101(0)*"
    return k


def _attention_deleted(events):
    k = _nth(events, "attention", 2)
    del events[k]
    return k


def _addition_repeated_at_the_last_halting_stage(events):
    last = events[_nth(events, "halting-event", -1)]["stage"]
    events.append(dict(events[_nth(events, "addition", 2)], stage=last))
    return len(events) - 1


def _addition_on_the_wrong_side(events):
    k = _nth(events, "addition", 2)
    events[k]["side"] = {"A": "B", "B": "A"}[events[k]["side"]]
    return k


def _log_reversed(events):
    events.reverse()
    return 0


def _halting_event_names_no_program(events):
    k = _nth(events, "halting-event", 3)
    events[k]["program"] = 16
    return k


def _injury_labelled_with_another_requirement(events):
    # S_0's label with S_1's priority, right after S_1's restraint
    k = 1 + next(k for k, ev in enumerate(events)
                 if ev["type"] == "restraint" and ev["requirement"] == "S_1")
    events.insert(k, {"type": "injury", "stage": "6", "requirement": "S_0",
                      "priority": 3, "injured_by": "R_0"})
    return k


@pytest.mark.parametrize("construct, forge, problem", [
    (_slice_16, _real_never_a_witness, "real '0101(0)*' where '11(0)*' is due"),
    (_slice_16, _attention_deleted, "addition at 1 is out of place"),
    (_slice_16, _addition_repeated_at_the_last_halting_stage,
     "addition at 1 is out of place"),
    (_slice_16, _addition_on_the_wrong_side, "side 'B' where 'A' is due"),
    (_slice_16, _log_reversed,
     "stage '1' where '0' is due; requirement 'S_15' where 'R_0' is due;"
     " priority 31 where 0 is due"),
    (_slice_16, _halting_event_names_no_program,
     "halting event names no program 16"),
    (lambda: fm_construct(CRITERION_6_PROGS, CRITERION_6_BUDGET)[0],
     _injury_labelled_with_another_requirement,
     "type 'injury' where 'witness' is due; requirement 'S_0' where 'R_2' is"
     " due; priority 3 where 4 is due"),
], ids=["real-never-a-witness", "attention-deleted", "addition-repeated",
        "addition-on-the-wrong-side", "log-reversed", "program-unknown",
        "injury-of-another-label"])
def test_event_log_check_stops_at_a_forged_event(construct, forge, problem):
    # every later expectation rests on the forged event, so it is the only
    # problem reported
    state = construct()
    assert check_event_log(state) == []
    k = forge(state.events)
    assert check_event_log(state) == ["event %d: %s" % (k, problem)]


def _addition_at_the_wrong_row(events):
    k = _nth(events, "addition", 2)
    events[k]["row"] += 1
    return ["event %d: row 2 where 1 is due" % k]


def _addition_at_no_halting_stage(events):
    k = _nth(events, "addition", 2)
    events[k]["stage"] = "2"
    return ["event %d: stage '2' where '1' is due" % k]


def _injury_unlogged(events):
    k = _nth(events, "injury", 0)
    del events[k]
    return ["event %d: type 'restraint' where 'injury' is due; requirement"
            " 'R_0' where 'S_0' is due; priority 0 where 1 is due; injured_by"
            " None where 'R_0' is due" % k]


def _stronger_restraint_disturbed(events):
    # R_0's restraint is made to preserve the real S_0 adds after it; the
    # construction would flag the disturbance and log no injury
    r = _nth(events, "restraint", 0)
    assert events[r]["requirement"] == "R_0"
    real = next(ev["real"] for ev in events[r:]
                if ev["type"] == "addition" and ev["requirement"] == "S_0")
    events[r]["preserved"].append(real)
    return ["witness %s lies in preserved set of 0" % real,
            "addition %s disturbs restraint of priority 0" % real]


@pytest.mark.parametrize("construct, forge", [
    (_slice_16, _addition_at_the_wrong_row),
    (_slice_16, _addition_at_no_halting_stage),
    (lambda: fm_construct(INJURY_PROGS, B)[0], _injury_unlogged),
    (_slice_16, _stronger_restraint_disturbed),
], ids=["wrong-row", "no-halting-stage", "injury-unlogged",
        "stronger-restraint-disturbed"])
def test_event_log_check_keeps_the_addition_checks(construct, forge):
    state = construct()
    assert check_event_log(state) == []
    problems = forge(state.events)
    assert check_event_log(state) == problems


def _last_halting_stage_lowered(state):
    k = _nth(state.events, "halting-event", -1)
    state.events[k]["stage"] = "0"
    return ["event %d: stage 0 is below the last halting stage 1" % k]


def _appearance_log_cut_at_zero(state):
    state.appearance_log = AppearanceLog(state.appearance_log.records, ZERO_ORD)
    return ["event 0: appearance log complete below 0 only, need 1"]


def _member_unlogged(state):
    state.added["A"].append((0, parse_real("1(0)*")))
    return ["the members of A are not the logged additions"]


@pytest.mark.parametrize("forge", [
    _last_halting_stage_lowered, _appearance_log_cut_at_zero, _member_unlogged,
], ids=["halting-stage-falls", "segment-uncovered", "member-unlogged"])
def test_event_log_check_reports_what_the_replay_cannot_follow(forge):
    state = _slice_16()
    assert check_event_log(state) == []
    problems = forge(state)
    assert check_event_log(state) == problems
