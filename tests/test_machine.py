import itertools

import pytest

from ittm.machine import (Program, ProgramError, ProgramSyntaxError, Rule,
                          TotalityError, default_rule, extend_to_oracle_tracks,
                          parse_program, p_flip, p_flip_lh, p_halt, p_sweep,
                          render_program, total_program, validate)

MINIMAL = "\n".join(
    ["tracks: 3", "start: s0", "limit: s0", "halt: h",
     "s0 000 -> h 001 S"] +
    ["s0 %s -> h 000 L" % "".join(map(str, r))
     for r in itertools.product((0, 1), repeat=3) if r != (0, 0, 0)]) + "\n"


def test_parse_minimal_two_state_program():
    p = parse_program(MINIMAL)
    assert sorted(p.states()) == ["h", "s0"]
    assert p.rules[("s0", (0, 0, 0))] == Rule((0, 0, 1), "S", "h")
    assert validate(p) == []


def test_totality_error_lists_missing_read_vectors():
    text = "tracks: 3\nstart: s0\nlimit: s0\nhalt: h\ns0 000 -> h 001 S\n"
    with pytest.raises(TotalityError) as err:
        parse_program(text)
    assert len(err.value.missing) == 7
    assert ("s0", (0, 0, 1)) in err.value.missing


def test_oscillator_source_matches_hand_simulation():
    text = render_program(p_flip())
    p = parse_program(text)
    from ittm.runner import initial_snapshot, step
    s = initial_snapshot(p)
    expected_scratch0 = [1, 0, 1, 0, 1, 0]
    for want in expected_scratch0:
        s = step(s, p)
        assert s.state == "start" and s.head == 0
        assert s.tracks[1].bit(0) == want


def test_parse_render_round_trip_is_identity():
    for p in (p_halt(), p_flip(), p_flip_lh(), p_sweep()):
        text = render_program(p)
        assert parse_program(text) == p
        assert render_program(parse_program(text)) == text


def test_syntax_errors_carry_positions():
    with pytest.raises(ProgramSyntaxError) as err:
        parse_program("tracks: 3\nstart: a\nlimit: a\nhalt: h\na 00 -> h 000 S\n")
    assert err.value.line == 5
    with pytest.raises(ProgramSyntaxError):
        parse_program("tracks: 3\nwat: x\n")
    with pytest.raises(ProgramSyntaxError):
        parse_program("tracks: 5\nstart: a\nlimit: a\nhalt: h\n")


def test_duplicate_rule_rejected():
    text = ("tracks: 3\nstart: s0\nlimit: s0\nhalt: h\n"
            "s0 000 -> h 001 S\ns0 000 -> h 000 L\n")
    with pytest.raises(ProgramSyntaxError) as err:
        parse_program(text)
    assert "duplicate" in str(err.value)


def test_undeclared_next_state_rejected():
    lines = ["tracks: 3", "start: s0", "limit: s0", "halt: h"]
    for r in itertools.product((0, 1), repeat=3):
        tgt = "ghost" if r == (0, 0, 0) else "h"
        lines.append("s0 %s -> %s 000 S" % ("".join(map(str, r)), tgt))
    with pytest.raises(ProgramSyntaxError) as err:
        parse_program("\n".join(lines) + "\n")
    assert "undeclared" in str(err.value)


def test_validate_flags_halt_rules():
    p = p_halt()
    rules = dict(p.rules)
    rules[("halt", (0, 0, 0))] = default_rule("halt", 3)
    with pytest.raises(ProgramError, match="halt state 'halt' has outgoing rule"):
        Program(track_count=3, start_state="start", limit_state="limit",
                halt_state="halt", rules=rules)


def test_validate_flags_incomplete_query_protocol():
    rules = {}
    for st in ("start", "limit"):
        for read in itertools.product((0, 1), repeat=4):
            rules[(st, read)] = default_rule("halt", 4)
    with pytest.raises(ProgramError, match="query protocol incomplete"):
        Program(track_count=4, start_state="start", limit_state="limit",
                halt_state="halt", query_state="query", rules=rules)


def test_validate_flags_limit_equal_halt():
    rules = {}
    for read in itertools.product((0, 1), repeat=3):
        rules[("start", read)] = default_rule("h", 3)
    with pytest.raises(ProgramError, match="distinct"):
        Program(track_count=3, start_state="start", limit_state="h",
                halt_state="h", rules=rules)


ODD_NAMES = ["a b", "x#y", "p->q", "", " s", "t\n", "#", "->"]


@pytest.mark.parametrize("name", ODD_NAMES)
def test_validate_rejects_state_names_that_cannot_round_trip(name):
    """A name render_program cannot write back as one token is refused as a
    work state, as the start state and as the halt state."""
    with pytest.raises(ProgramError, match="not one token"):
        total_program(3, {}, states=("start", "limit", name))
    to_halt = {(st, read): Rule((0, 0, 0), "L", name)
               for st in ("start", "limit")
               for read in itertools.product((0, 1), repeat=3)}
    with pytest.raises(ProgramError, match="not one token"):
        Program(track_count=3, start_state="start", limit_state="limit",
                halt_state=name, rules=to_halt)
    renamed = {(name if st == "start" else st, read): rule
               for (st, read), rule in p_halt().rules.items()}
    with pytest.raises(ProgramError, match="not one token"):
        Program(track_count=3, start_state=name, limit_state="limit",
                halt_state="halt", rules=renamed)


@pytest.mark.parametrize("name", ["s-1", "a>b", "q:1", "-", ">x", "tracks"])
def test_state_names_with_punctuation_round_trip(name):
    p = total_program(3, {("start", (0, 0, 0)): Rule((0, 0, 1), "R", name)},
                      states=("start", "limit", name))
    assert parse_program(render_program(p)) == p


def test_extend_to_oracle_tracks_preserves_behavior():
    from ittm.runner import BudgetPolicy, run_transfinite
    from ittm.reals import ZERO
    b = BudgetPolicy(3, 64, 128)
    for p3 in (p_halt(), p_flip_lh()):
        p4 = extend_to_oracle_tracks(p3)
        assert validate(p4) == []
        r3 = run_transfinite(p3, ZERO, b)
        r4 = run_transfinite(p4, ZERO, b)
        assert r3.outcome == r4.outcome
        assert r3.time == r4.time
        assert r3.output == r4.output


def test_comments_and_blank_lines_ignored():
    text = render_program(p_halt())
    noisy = "# header comment\n\n" + text.replace(
        "start: start", "start: start  # the initial state")
    assert parse_program(noisy) == p_halt()
