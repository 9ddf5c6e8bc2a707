import hashlib
import itertools
import random
import sys
from pathlib import Path

import pytest

from ittm.machine import (READ_VECTORS, Program, ProgramError,
                          ProgramSyntaxError, Rule, RuleTable, TotalityError,
                          default_rule, extend_to_oracle_tracks, layout,
                          layout_by_code, parse_program, p_flip, p_flip_lh,
                          p_halt, p_sweep, render_program, total_program,
                          validate, vector_code)

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


def _two_pass_problems(p):
    """`validate` as it was written before its one-pass form: the per-rule
    checks, then the rule states from a second walk over every state, with
    the read vectors made afresh for each state."""
    problems = []
    if p.limit_state == p.halt_state:
        problems.append("limit state must be distinct from halt state")
    protocol = [p.query_state, p.yes_state, p.no_state]
    if any(s is not None for s in protocol) and any(s is None for s in protocol):
        problems.append("query protocol incomplete: query/yes/no states must "
                        "all be present or all absent")
    if p.track_count != 4 and any(s is not None for s in protocol):
        problems.append("query protocol needs a 4-track program: the query "
                        "is the fourth track")
    for (state, read), rule in p.rules.items():
        vec = "".join(map(str, read))
        if state == p.halt_state:
            problems.append("halt state %r has outgoing rule" % state)
        if state == p.query_state:
            problems.append("query state %r has outgoing rule (answers are "
                            "oracle-driven)" % state)
        if len(read) != p.track_count or len(rule.write) != p.track_count:
            problems.append("rule %s/%s has wrong vector width" % (state, vec))
        elif any(b not in (0, 1) for b in read + rule.write):
            problems.append("rule %s/%s has a bit other than 0 and 1" % (state, vec))
        if rule.move not in ("L", "R", "S"):
            problems.append("rule %s/%s has bad move %r" % (state, vec, rule.move))
    states = [p.start_state, p.limit_state, p.halt_state] + [
        s for s in (p.query_state, p.yes_state, p.no_state) if s is not None]
    states += [st for st, _ in p.rules] + [r.next_state for r in p.rules.values()]
    special = {p.start_state, p.limit_state, p.halt_state,
               p.query_state, p.yes_state, p.no_state}
    rule_states = []
    for s in ([p.start_state, p.limit_state]
              + sorted({s for s in states if s not in special})):
        if s not in rule_states and s not in (p.halt_state, p.query_state):
            rule_states.append(s)
    for s in (p.yes_state, p.no_state):
        if s is not None and s not in rule_states and s != p.halt_state:
            rule_states.append(s)
    for state in rule_states + [p.halt_state, p.query_state]:
        if state is not None and not (state.split() == [state] and "#" not in state
                                      and "->" not in state):
            problems.append("state name %r is not one token free of whitespace, "
                            "'#' and '->'" % (state,))
    for state in rule_states:
        for read in itertools.product((0, 1), repeat=p.track_count):
            if (state, read) not in p.rules:
                problems.append((state, read))
    return problems


def test_validate_reports_what_a_two_pass_check_reports_in_its_order():
    from types import SimpleNamespace
    from ittm.oracle import enumeration_slice
    tables = []
    for p in enumeration_slice(400, 2, 3) + enumeration_slice(100, 1, 4):
        fields = dict(track_count=p.track_count, start_state="start",
                      limit_state="limit", halt_state="halt", query_state=None,
                      yes_state=None, no_state=None)
        tables.append(dict(fields, rules=dict(p.rules)))
        keys = sorted(p.rules)
        # drop slots, add a halt rule, a bad move, a wrong width, bits other
        # than 0 and 1 and odd names, mixed together
        broken = {k: r for i, (k, r) in enumerate(sorted(p.rules.items()))
                  if i % 3}
        broken[("halt", keys[0][1])] = Rule((0,) * p.track_count, "X", "q x")
        broken[("w#1", (0, 1))] = Rule((1,), "S", "limit")
        broken[keys[1]] = Rule((0,) * (p.track_count - 1) + (2,), "S", "halt")
        broken[("s1", (2,) + keys[0][1][1:])] = Rule(keys[0][1], "R", "s1")
        tables.append(dict(fields, rules=broken))
        tables.append(dict(fields, rules=broken, limit_state="halt",
                           query_state="start", yes_state="y"))
    for table in tables:
        p = SimpleNamespace(**table)
        assert validate(p) == _two_pass_problems(p)
    assert any(len(_two_pass_problems(SimpleNamespace(**t))) > 20 for t in tables)
    assert any("other than 0 and 1" in m for m in validate(SimpleNamespace(**tables[1])))


def test_render_program_text_is_unchanged():
    """Rule lines as joined digits, sorted by state class, name and read."""
    from ittm.oracle import enumeration_slice
    from conftest import query_probe
    for p in enumeration_slice(500, 2, 3) + enumeration_slice(100, 1, 4) + [
            p_flip(), p_sweep(), query_probe(), parse_program(MINIMAL)]:
        lines = render_program(p).splitlines()
        order = {p.start_state: 0, p.limit_state: 1}
        want = ["%s %s -> %s %s %s" % (st, "".join(map(str, read)), r.next_state,
                                       "".join(map(str, r.write)), r.move)
                for (st, read), r in sorted(
                    p.rules.items(),
                    key=lambda kv: (order.get(kv[0][0], 2), kv[0][0], kv[0][1]))]
        assert lines[len(lines) - len(want):] == want


def test_rule_tables_read_like_the_dicts_they_are_made_from():
    p = parse_program(MINIMAL)
    source = {}
    for line in MINIMAL.splitlines()[4:]:
        state, read, _, nxt, write, move = line.split()
        source[(state, tuple(map(int, read)))] = Rule(tuple(map(int, write)),
                                                      move, nxt)
    for table in (p.rules, extend_to_oracle_tracks(p).rules):
        made = dict(table)
        assert table == made and len(table) == len(made)
        assert list(table) == list(made) and list(table.keys()) == list(made)
        assert list(table.items()) == list(made.items())
        assert list(table.values()) == list(made.values())
        assert all(key in table and table[key] is rule and table.get(key) is rule
                   for key, rule in made.items())
    assert p.rules == source and ("h", (0, 0, 0)) not in p.rules
    with pytest.raises(KeyError):
        p.rules[("h", (0, 0, 0))]


def test_enumerated_programs_share_their_table_slots():
    from ittm.oracle import enumeration_slice
    programs = enumeration_slice(3000, 2, 3)
    # one slots dict per set of rule-carrying states: no work state, one, two
    assert len({id(p.rules.slots) for p in programs}) == 3
    for p in programs[:50]:
        own = sys.getsizeof(p.rules) + sys.getsizeof(p.rules.rules)
        assert own < sys.getsizeof(dict(p.rules)) / 2


def test_total_program_reports_keys_outside_its_states():
    halt_rule = {("halt", (0, 0, 0)): default_rule("halt", 3)}
    with pytest.raises(ProgramError, match="halt state 'halt' has outgoing rule"):
        total_program(3, halt_rule)
    narrow = {("start", (0, 0)): Rule((0, 0), "S", "halt")}
    with pytest.raises(ProgramError, match="wrong vector width"):
        total_program(3, narrow)
    # a rule with a bit other than 0 and 1 could not be written back or certified
    for key, rule in ((("start", (0, 0, 0)), Rule((0, 0, 2), "S", "halt")),
                      (("start", (2, 0, 0)), Rule((0, 0, 1), "S", "halt"))):
        with pytest.raises(ProgramError, match="start/.* has a bit other than 0 and 1"):
            total_program(3, {key: rule})
    # `Rule` does not check its fields' types: a list in any of them is a
    # ProgramError naming the rule, not a TypeError from a set lookup
    for rule, problem in ((Rule([0, 0, 1], "S", "halt"), r"unhashable write \[0, 0, 1\]"),
                          (Rule((0, 0, 1), "S", ["halt"]), r"unhashable next state \['halt'\]"),
                          (Rule((0, 0, 1), ["S"], "halt"), r"bad move \['S'\]")):
        with pytest.raises(ProgramError, match="rule start/000 has " + problem):
            total_program(3, {("start", (0, 0, 0)): rule})


def test_every_way_of_giving_a_table_lands_on_one_layout():
    """A shuffled dict, a RuleTable in reversed key order, shuffled rule lines
    and `total_program` over shuffled states hold the layout the enumeration
    uses for the same states, so they render, digest and compare alike."""
    from ittm.oracle import enumeration_slice
    rng = random.Random(16)
    states = ("start", "limit", "s0", "s1")
    p = [q for q in enumeration_slice(5000, 2, 3) if q.rules.states == states][-1]
    items = list(p.rules.items())
    shuffled = rng.sample(items, len(items))
    fields = dict(track_count=3, start_state="start", limit_state="limit",
                  halt_state="halt")
    backwards = RuleTable(states, {k: i for i, (k, _) in enumerate(items[::-1])},
                          tuple(r for _, r in items[::-1]))
    swapped = ("limit", "start", "s0", "s1")
    limit_first = RuleTable(swapped, layout(swapped, 3),
                            tuple(p.rules[key] for key in layout(swapped, 3)))
    text = render_program(p).splitlines(keepends=True)
    overrides = {k: r for k, r in items if r != default_rule("halt", 3)}
    assert overrides
    built = [Program(**fields, rules=dict(shuffled)),
             Program(**fields, rules=backwards),
             Program(**fields, rules=limit_first),
             parse_program("".join(text[:4] + rng.sample(text[4:], len(text) - 4))),
             total_program(3, overrides, states=("limit", "s1", "start", "s0"))]
    for q in built:
        assert q.rules.slots is p.rules.slots is layout(states, 3)
        assert q.rules.states == states
        assert render_program(q) == render_program(p)
        assert q.digest() == p.digest() and q == p and hash(q) == hash(p)
    four = enumeration_slice(3, 2, 4)[2]
    assert four.rules.slots is extend_to_oracle_tracks(p).rules.slots is layout(states, 4)
    # a start state that is also the limit state leads, then the others by name
    q = Program(track_count=3, start_state="s1", limit_state="s1", halt_state="h",
                rules={(st, read): Rule(read, "S", "h") for st in ("s1", "s0", "a")
                       for read in itertools.product((0, 1), repeat=3)})
    assert q.rules.slots is layout(("s1", "a", "s0"), 3)
    with pytest.raises(ValueError, match="rendering order"):
        layout(("start", "limit", "s1", "s0"), 3)


@pytest.mark.parametrize("args, digest", [
    ((60000, 2, 3), "c02db057a8f5ee9e7150265db6cbab983d8ea1f678f0aa296587b78218185ffc"),
    ((60000, 4, 3), "d13b0a82c32ff4ff1cff7462fcbb3ae880256910b37a44143b0c49c83ec22a0c"),
    ((20000, 2, 4), "2b2e6dfed6769fb629c9dc1cb42cbd38eaea03025a4c6ed7e676ac1ad93ab3d9")])
def test_enumerated_programs_render_the_pinned_bytes(args, digest):
    from ittm.oracle import enumeration_slice
    text = "".join(render_program(p) for p in enumeration_slice(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_hard_set_files_render_back_byte_for_byte():
    files = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "hard_set").glob("*.itm"))
    assert len(files) == 14
    for f in files:
        text = f.read_text(encoding="utf-8")
        assert render_program(parse_program(text)) == text, f.name


def test_enumerated_digests_are_pinned():
    """The names `survey` prints, over both track counts."""
    from ittm.oracle import enumeration_slice
    programs = enumeration_slice(60000, 2, 3) + enumeration_slice(20000, 3, 4)
    names = "".join(p.digest() for p in programs)
    assert hashlib.sha256(names.encode()).hexdigest() == \
        "7b9c4472f9f1c07a07a3568dd40f5b1642aac7b5ee25b134f579b053854e56b8"


def test_a_rule_equal_to_the_default_renders_like_the_shared_one():
    """Parsing makes a new rule for every line, so the default slots of a
    parsed program hold rules equal to the shared default but not it: they
    take the formatting path and must give the cached line's bytes."""
    from ittm.oracle import enumeration_slice
    fill = default_rule("halt", 3)
    for p in enumeration_slice(3000, 2, 3)[-3:] + [p_halt()]:
        q = parse_program(render_program(p))
        assert any(rule is fill for rule in p.rules.values())
        assert fill in q.rules.values()
        assert not any(rule is fill for rule in q.rules.values())
        assert render_program(q) == render_program(p)
        assert q.digest() == p.digest() and q == p


def test_survey_names_format_only_the_overridden_rules(monkeypatch):
    """cli-mix's `survey --states 2 --bound 2000` names 2,000 programs with
    38,912 rule slots, of which 1,997 hold a rule other than the default:
    only those go through the one helper that formats a rule."""
    import ittm.machine as machine
    from ittm.oracle import enumeration_slice
    programs = enumeration_slice(2000, 2, 3)
    assert sum(len(p.rules) for p in programs) == 38912
    for p in programs[:3]:    # one per layout, all default: fills the caches
        render_program(p)
    formatted = []
    format_rule = machine._rule_text
    monkeypatch.setattr(machine, "_rule_text",
                        lambda rule: formatted.append(rule) or format_rule(rule))
    names = [p.digest() for p in programs]
    assert len(formatted) == 1997 and len(set(names)) == 2000


def test_layout_by_code_finds_every_slot_of_the_layout():
    """`runner.run_block` finds a slot from its read code, track t's bit at
    bit t: `layout_by_code(states, tracks)[state][vector_code(read)]` is
    `layout(states, tracks)[state, read]` for every read vector.  Over every
    enumerated layout at 3 and 4 tracks, a parsed hard-set program, a table
    whose start is its limit state and the query probe's states."""
    from conftest import query_probe
    from ittm.oracle import ENUM_WORK_CAP, enumeration_slice
    hard = Path(__file__).resolve().parents[1] / "perfbench" / "hard_set" / "10825.itm"
    programs = [*enumeration_slice(ENUM_WORK_CAP + 1, ENUM_WORK_CAP, 3),
                *enumeration_slice(ENUM_WORK_CAP + 1, ENUM_WORK_CAP, 4),
                parse_program(hard.read_text()), parse_program(MINIMAL),
                query_probe()]
    for p in programs:
        states, tracks = p.rules.states, p.track_count
        slots, by_code = layout(states, tracks), layout_by_code(states, tracks)
        assert p.rules.slots is slots and list(by_code) == list(states)
        for state in states:
            assert len(by_code[state]) == 2 ** tracks
            for read in READ_VECTORS[tracks]:
                code = vector_code(read)
                assert code == sum(bit << t for t, bit in enumerate(read))
                assert by_code[state][code] == slots[state, read]
        assert all(rule.write_code == vector_code(rule.write)
                   for rule in p.rules.values())


def reference_render(p):
    """A program's text line by line, from its fields alone."""
    lines = ["tracks: %d" % p.track_count, "start: %s" % p.start_state,
             "limit: %s" % p.limit_state, "halt: %s" % p.halt_state]
    for name, state in (("query", p.query_state), ("yes", p.yes_state),
                        ("no", p.no_state)):
        if state is not None:
            lines.append("%s: %s" % (name, state))
    for (state, read), rule in p.rules.items():
        lines.append("%s %s -> %s %s %s" % (
            state, "".join(map(str, read)), rule.next_state,
            "".join(map(str, rule.write)), rule.move))
    return "\n".join(lines) + "\n"


def layout_programs(tracks):
    """Over every enumerated layout at `tracks`: the all-default table, one
    with another rule in each single slot, and one with another rule in
    every slot."""
    from ittm.oracle import ENUM_WORK_CAP, _option_list, enumeration_slice
    rng = random.Random(tracks)
    out = []
    for work, base in enumerate(enumeration_slice(ENUM_WORK_CAP + 1,
                                                  ENUM_WORK_CAP, tracks)):
        states, options = base.rules.states, _option_list(work, tracks)[1:]
        keys = list(base.rules)
        out.append(base)
        out += [total_program(tracks, {key: rng.choice(options)}, states)
                for key in keys]
        out.append(total_program(tracks, {key: rng.choice(options)
                                          for key in keys}, states))
    return out


def test_render_program_matches_a_line_by_line_render():
    """`render_program` splices the formatted lines of the rules that are
    not the shared default into cached text; a plain renderer gives the same
    text on every enumerated layout at 3 and 4 tracks, a parsed hard-set
    program, a table whose start is its limit state, the query probe and
    4-track extensions."""
    from conftest import query_probe
    from ittm.oracle import ENUM_WORK_CAP
    hard = Path(__file__).resolve().parents[1] / "perfbench" / "hard_set" / "10825.itm"
    three = layout_programs(3)
    programs = [*three, *layout_programs(4), parse_program(hard.read_text()),
                parse_program(MINIMAL), query_probe(),
                *map(extend_to_oracle_tracks, three + [p_flip(), p_sweep()])]
    # the enumerated layouts at both track counts, MINIMAL's and the probe's
    assert len({(p.rules.states, p.track_count) for p in programs}) == \
        2 * (ENUM_WORK_CAP + 1) + 2
    for p in programs:
        assert render_program(p) == reference_render(p)
    assert render_program(parse_program(MINIMAL)) == MINIMAL


def reference_extend(p):
    """`extend_to_oracle_tracks` built field by field, with no cache."""
    rules = {(state, read + (b,)): Rule(rule.write + (b,), rule.move,
                                        rule.next_state)
             for (state, read), rule in p.rules.items() for b in (0, 1)}
    return Program(track_count=4, start_state=p.start_state,
                   limit_state=p.limit_state, halt_state=p.halt_state,
                   query_state=p.query_state, yes_state=p.yes_state,
                   no_state=p.no_state, rules=rules)


def test_extend_to_oracle_tracks_matches_the_field_by_field_build():
    for p in [*layout_programs(3), p_flip(), p_sweep(), p_flip_lh()]:
        got, want = extend_to_oracle_tracks(p), reference_extend(p)
        assert got == want and got.rules.slots is want.rules.slots
        assert [r.write_code for r in got.rules.values()] == \
            [vector_code(r.write) for r in want.rules.values()]


def test_fm_makes_two_rules_per_distinct_rule(monkeypatch, capsys):
    """cli-mix's `fm --states 0 --bound 48` extends 48 programs of 16 slots
    to 4 tracks; each distinct 3-track rule is extended once."""
    import ittm.machine as machine
    from ittm import cli
    from ittm.oracle import enumeration_slice
    distinct = {rule for p in enumeration_slice(48, 0, 3)
                for rule in p.rules.values()}
    made = []
    post_init = Rule.__post_init__
    monkeypatch.setattr(Rule, "__post_init__",
                        lambda rule: made.append(rule) or post_init(rule))
    machine._oracle_track_rules.cache_clear()
    assert cli.main(["fm", "--states", "0", "--bound", "48"]) == 1
    capsys.readouterr()
    extended = [rule for rule in made if len(rule.write) == 4]
    assert 0 < len(extended) <= 2 * len(distinct) < 1536
