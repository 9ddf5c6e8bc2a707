import importlib
import itertools

import pytest

from conftest import oracle_bit_halter, query_probe, total_program

from ittm.machine import (Program, ProgramError, Rule, extend_to_oracle_tracks,
                          layout, p_flip, p_halt, parse_program, render_program,
                          validate)
from ittm.ordinal import from_int, pair_index
from ittm.oracle import (RealOracle, SetOracle, _option_list,
                         enumeration_slice, jump_boldface, jump_lightface,
                         replay_queries, run_programs, run_with_oracle)
from ittm.reals import ZERO as ZERO_REAL, parse_real
from ittm.runner import BudgetPolicy, OracleProtocolError, run_transfinite

B = BudgetPolicy(3, 64, 256)


def test_enumeration_zero_work_states_counts():
    # the class of k overrides holds C(S,k) * (O-1)^k programs, for S slots
    # and O options; with no work state S is 16 and O is 72, and the
    # generator must reproduce the classes exactly for k <= 1
    upto_one = 1 + 16 * 71
    progs = enumeration_slice(upto_one + 5, 0, 3)
    texts = {render_program(p) for p in progs}
    assert len(texts) == upto_one + 5            # duplicate-free
    base = progs[0]
    assert all(r == Rule((0, 0, 0), "L", "halt") for r in base.rules.values())
    # the first 1 + 16*71 programs differ from the base in at most one rule
    for p in progs[:upto_one]:
        diffs = sum(1 for k, r in p.rules.items() if base.rules[k] != r)
        assert diffs <= 1
    assert sum(1 for k, r in progs[upto_one].rules.items()
               if base.rules[k] != r) == 2
    # only programs whose rules map among the special states
    for p in progs[:100]:
        for r in p.rules.values():
            assert r.next_state in ("start", "limit", "halt")


def test_enumeration_full_space_closed_form():
    # a level's space is O ** S: 72 ** 16, 96 ** 24 and (16 * 3 * 3) ** 32
    for work, tracks, slots, options in ((0, 3, 16, 72), (1, 3, 24, 96),
                                         (0, 4, 32, 16 * 3 * 3)):
        states = ("start", "limit", "s0")[:2 + work]
        assert len(layout(states, tracks)) == slots
        assert len(_option_list(work, tracks)) == options


def test_enumeration_is_deterministic():
    a = enumeration_slice(120, 2, 3)
    b = enumeration_slice(120, 2, 3)
    assert [render_program(p) for p in a] == [render_program(p) for p in b]


def test_enumeration_contains_p_halt_at_fixed_index():
    texts = [render_program(p) for p in enumeration_slice(80, 0, 3)]
    assert texts.index(render_program(p_halt())) == 5


def test_programs_are_checked_when_made_not_when_run(monkeypatch):
    machine = importlib.import_module("ittm.machine")
    original = machine.validate
    calls = []
    def counting(p):
        calls.append(p)
        return original(p)
    for name in ("machine", "runner", "oracle", "approx", "fm", "cli"):
        module = importlib.import_module("ittm." + name)
        if getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", counting)
    programs = enumeration_slice(200, 2, 3)
    checks = len(calls)
    calls.clear()
    enumeration_slice(2000, 2, 3)
    # enumerated programs are checked once per work level, not one by one
    assert 0 < len(calls) == checks < 200
    calls.clear()
    run_programs(programs, B)
    assert calls == []
    # every default slot of every enumerated program holds one shared rule
    default = programs[0].rules[("start", (0, 0, 0))]
    assert all(r is default for p in programs for r in p.rules.values()
               if r == default)


@pytest.mark.parametrize("bad", [Rule((0, 0, 1), "X", "halt"),
                                 Rule((0, 0, 2), "S", "halt"),
                                 Rule((0, 0, 1), "S", "s9")])
def test_each_work_level_is_checked_before_its_programs_are_made(monkeypatch, bad):
    oracle = importlib.import_module("ittm.oracle")
    options = oracle._option_list
    # the bad option comes first after the default rule, so the 1,140th
    # program (work 1, one override) would hold it
    monkeypatch.setattr(oracle, "_option_list", lambda work, tracks: (
        options(work, tracks)[:1] + [bad] + options(work, tracks)[1:]
        if work == 1 else options(work, tracks)))
    made = []
    with pytest.raises(ProgramError):   # or its subclass TotalityError
        made.extend(itertools.islice(oracle.enumerate_programs(2, 3), 2000))
    assert made == []
    with pytest.raises(ProgramError):
        enumeration_slice(2000, 2, 3)


@pytest.mark.parametrize("args", [(60000, 4, 3), (20000, 2, 4)])
def test_enumerated_programs_pass_the_full_check(args):
    """The first and last program of every level (override count, work
    states) in the slice pass `validate` as any hand-built program does."""
    programs = enumeration_slice(*args)
    default = programs[0].rules[("start", (0,) * args[2])]
    levels = {}
    for p in programs:
        level = (sum(r is not default for r in p.rules.values()), p.rules.states)
        levels.setdefault(level, []).append(p)
    assert len(levels) > args[1] + 1    # more than the levels of no override
    for level in levels.values():
        for p in (level[0], level[-1]):
            assert validate(p) == []
            assert render_program(Program(**{name: getattr(p, name) for name in
                                             Program.__dataclass_fields__})) \
                == render_program(p)


def test_run_with_set_oracle_membership():
    probe = query_probe()
    # the probe's second query is 11(0)*; yes answers halt with zero output
    res, qlog = run_with_oracle(probe, ZERO_REAL,
                                SetOracle(frozenset([parse_real("11(0)*")]), 16), B)
    assert res.outcome == "halted" and res.output.is_zero()
    assert [(q.real.render(), q.answer) for q in qlog] == \
        [("1(0)*", False), ("11(0)*", True)]
    res, qlog = run_with_oracle(probe, ZERO_REAL, SetOracle(frozenset(), 16), B)
    assert [(q.real.render(), q.answer) for q in qlog] == \
        [("1(0)*", False), ("11(0)*", False)]
    assert res.output == parse_real("01(0)*")    # no-branch, input bit1 clear


def test_real_oracle_copy_program():
    # copies oracle bit 0 to the output track and halts
    overrides = {}
    for read in itertools.product((0, 1), repeat=4):
        i, s, o, b = read
        overrides[("start", read)] = Rule((i, s, b, b), "S", "halt")
    p = total_program(4, overrides)
    res, qlog = run_with_oracle(p, ZERO_REAL, RealOracle(parse_real("1(0)*")), B)
    assert res.outcome == "halted" and res.output == parse_real("1(0)*")
    assert qlog == ()


def test_oracle_protocol_mismatches():
    with pytest.raises(OracleProtocolError):
        run_with_oracle(p_halt(), ZERO_REAL, SetOracle(frozenset(), 8), B)   # 3 tracks
    with pytest.raises(OracleProtocolError):
        run_with_oracle(query_probe(), ZERO_REAL,
                        RealOracle(ZERO_REAL), B)    # query protocol vs real
    with pytest.raises(OracleProtocolError):
        run_with_oracle(extend_to_oracle_tracks(p_halt()), ZERO_REAL, None, B)
    # the same refusals from the run itself, with the CLI's messages
    real = RealOracle(parse_real("(1)*"))
    with pytest.raises(OracleProtocolError,
                       match="^oracle runs need a 4-track program$"):
        run_transfinite(p_halt(), oracle=real)
    with pytest.raises(OracleProtocolError,
                       match="^query protocol declared but the oracle is a "
                             "real, not a set$"):
        run_transfinite(query_probe(), oracle=real)


def query_table(tracks, first):
    """Text of a table that declares the query protocol and goes to state
    `first` on its first step."""
    lines = ["tracks: %d" % tracks, "start: start", "limit: limit",
             "halt: halt", "query: query", "yes: yes", "no: no"]
    for state, nxt in (("start", first), ("limit", "halt"), ("yes", "halt"),
                       ("no", "halt")):
        for read in itertools.product("01", repeat=tracks):
            lines.append("%s %s -> %s %s S" % (state, "".join(read), nxt,
                                               "".join(read)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("first", ["query", "halt"])
def test_three_track_query_programs_are_refused_when_made(first):
    # the query is the fourth track, so a 3-track table that declares the
    # protocol is refused when it is made, whether or not its first step
    # enters the query state, and never reaches a run
    refused = "query protocol needs a 4-track program"
    overrides = {}
    for read in itertools.product((0, 1), repeat=3):
        overrides[("start", read)] = Rule(read, "S", first)
        overrides[("yes", read)] = Rule(read, "S", "halt")
        overrides[("no", read)] = Rule(read, "S", "halt")
    with pytest.raises(ProgramError, match=refused):
        total_program(3, overrides, query_state="query", yes_state="yes",
                      no_state="no")
    with pytest.raises(ProgramError, match=refused):
        parse_program(query_table(3, first))
    assert parse_program(query_table(4, first)).query_state == "query"


def query_pairing_probe(first):
    """A 4-track program that declares the query protocol and goes to state
    `first` on its first step."""
    overrides = {}
    for read in itertools.product((0, 1), repeat=4):
        overrides[("start", read)] = Rule(read, "S", first)
        overrides[("yes", read)] = Rule(read, "S", "halt")
        overrides[("no", read)] = Rule(read, "S", "halt")
    return total_program(4, overrides, query_state="query", yes_state="yes",
                         no_state="no")


@pytest.mark.parametrize("start", [
    lambda p, o: run_programs([p], BudgetPolicy(3, 64, 64), o),
    lambda p, o: jump_lightface([p], o),
    lambda p, o: run_transfinite(p, oracle=o),
], ids=["run_programs", "jump_lightface", "run_transfinite"])
@pytest.mark.parametrize("first", ["query", "halt"])
def test_every_run_checks_the_pairing_where_it_starts(start, first):
    # refused before the first step, whether or not the query state is
    # reached: a step into it would fail with another message, and a step
    # into halt would end the run
    with pytest.raises(OracleProtocolError,
                       match="^query protocol declared but the oracle is a "
                             "real, not a set$"):
        start(query_pairing_probe(first), RealOracle(parse_real("(1)*")))
    with pytest.raises(OracleProtocolError,
                       match="^oracle runs need a 4-track program$"):
        start(p_halt(), SetOracle(frozenset()))


def test_real_oracle_track_is_immutable():
    # a machine that tries to write the oracle track must not change it
    overrides = {}
    for read in itertools.product((0, 1), repeat=4):
        i, s, o, b = read
        overrides[("start", read)] = Rule((i, s, o, 1 - b), "R", "w1")
        overrides[("w1", read)] = Rule((i, s, o, 1 - b), "S", "halt")
    p = total_program(4, overrides)
    oracle = RealOracle(parse_real("10(01)*"))
    res, _ = run_with_oracle(p, ZERO_REAL, oracle, B)
    for blk in res.blocks:
        for snap in blk.explicit:
            assert snap.tracks[3] == oracle.real


def test_query_log_replay():
    probe = query_probe()
    oracle = SetOracle(frozenset([parse_real("1(0)*")]), 16)
    _res, qlog = run_with_oracle(probe, ZERO_REAL, oracle, B)
    assert replay_queries(qlog, oracle)
    assert not replay_queries(qlog, SetOracle(frozenset(), 16))


def test_jump_lightface_examples():
    progs = [p_halt(), p_flip()]
    jr = jump_lightface(progs, None, B)
    assert jr.halted == ((0, from_int(1)),)
    assert jr.diverges == frozenset({1})
    assert jr.exceeded == frozenset()
    assert jr.halting_real() == parse_real("1(0)*")

    empty = jump_lightface([], None, B)
    assert empty.halted == () and empty.bound == 0


def test_jump_with_empty_set_oracle_matches_plain_jump():
    progs3 = enumeration_slice(90, 0, 3)
    progs4 = [extend_to_oracle_tracks(p) for p in progs3]
    plain = jump_lightface(progs3, None, B)
    relative = jump_lightface(progs4, SetOracle(frozenset(), 16), B)
    assert plain.halted == relative.halted
    assert plain.diverges == relative.diverges
    assert plain.exceeded == relative.exceeded
    # without an oracle a query-protocol machine is answered by the empty set
    bare = jump_lightface([query_probe()], None, B)
    assert bare.halted == jump_lightface([query_probe()], SetOracle(frozenset()), B).halted
    assert bare.halted_set() == frozenset({0})


def test_jump_matches_independent_halting_times():
    progs = enumeration_slice(90, 0, 3)
    jr = jump_lightface(progs, None, B)
    want = {}
    for pid, p in enumerate(progs):
        res = run_transfinite(p, ZERO_REAL, B)
        if res.time is not None:
            want[pid] = res.time
    assert dict(jr.halted) == want


def test_jump_joined_real():
    progs = [oracle_bit_halter(1), oracle_bit_halter(0)]
    oracle = RealOracle(parse_real("1(0)*"))
    jr = jump_lightface(progs, oracle, B)
    assert jr.halted_set() == {0}
    joined = jr.joined()
    for n in range(16):
        assert joined.bit(2 * n) == oracle.real.bit(n)
        assert joined.bit(2 * n + 1) == jr.halting_real().bit(n)


def test_monotone_budget():
    progs = enumeration_slice(140, 0, 3)
    small = jump_lightface(progs, None, BudgetPolicy(2, 8, 64))
    big = jump_lightface(progs, None, BudgetPolicy(2, 32, 64))
    small_h = dict(small.halted)
    big_h = dict(big.halted)
    assert set(small_h) <= set(big_h)
    for pid, t in small_h.items():
        assert big_h[pid] == t


def test_jump_boldface_examples():
    jr = jump_boldface([p_halt()], [ZERO_REAL], None, B)
    assert jr.halted == ((0, ZERO_REAL, from_int(1)),)
    assert jr.pair_set == frozenset({pair_index(0, 0)})

    inputs = [ZERO_REAL, parse_real("1(0)*"), parse_real("(01)*")]
    jr = jump_boldface([p_flip()], inputs, None, B)
    assert jr.halted == () and jr.pair_set == frozenset()

    jr = jump_boldface([p_halt()], [], None, B)
    assert jr.halted == ()
