"""Property tests: parse/render round-trips and the CLI exit-code contract.

Every property runs derandomized, so the suite gives the same examples, and
the same verdict, on every run.
"""

import contextlib
import dataclasses
import io
import itertools
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from ittm.cli import main
from ittm.machine import (MOVES, Program, ProgramError, Rule, p_flip,
                          p_flip_lh, p_halt, p_sweep, parse_program,
                          render_program)
from ittm.oracle import enumeration_slice
from ittm.ordinal import Ordinal, parse_ordinal
from ittm.reals import Real, parse_real

from conftest import query_probe

PROPERTY = settings(derandomize=True, deadline=None)

ENUMERATED = enumeration_slice(2000, 2, 3) + enumeration_slice(300, 1, 4)
HAND_BUILT = [p_halt(), p_flip(), p_flip_lh(), p_sweep(), query_probe()]

NAMES = st.text(string.ascii_lowercase + string.digits + "_", min_size=1, max_size=3)
# names that render_program cannot write back as one token
ODD_NAMES = st.sampled_from(("", "a b", "x#y", "p->q", " s", "t\n", "#", "->"))


def _is_token(name):
    return name is None or (name.split() == [name]
                            and "#" not in name and "->" not in name)


@st.composite
def total_tables(draw):
    """The fields of a random total table: random state names, now and then
    one that cannot be written back, with start and limit possibly one
    state, and the query protocol on some 4-track tables."""
    tracks = draw(st.sampled_from((3, 4)))
    names = draw(st.lists(NAMES, min_size=6, max_size=8, unique=True))
    if draw(st.integers(0, 3)) == 0:
        odd = draw(ODD_NAMES)
        if odd not in names:
            names[draw(st.integers(0, len(names) - 1))] = odd
    start, _, halt, *rest = names
    limit = draw(st.sampled_from(names[:2]))
    ruled, special = list(dict.fromkeys([start, limit] + rest)), {}
    targets = ruled + [halt]
    if tracks == 4 and draw(st.booleans()):
        query, yes, no = rest[:3]
        special = dict(query_state=query, yes_state=yes, no_state=no)
        ruled.remove(query)   # the oracle answers it, so it carries no rules
    vectors = list(itertools.product((0, 1), repeat=tracks))
    options = [Rule(w, m, n) for n in targets for w in vectors for m in MOVES]
    slots = [(state, read) for state in ruled for read in vectors]
    rules = dict(zip(slots, draw(st.lists(st.sampled_from(options),
                                          min_size=len(slots), max_size=len(slots)))))
    return dict(track_count=tracks, start_state=start, limit_state=limit,
                halt_state=halt, rules=rules, **special)


def _fields(p):
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}


TABLES = st.one_of(st.sampled_from(ENUMERATED + HAND_BUILT).map(_fields),
                   total_tables())


@PROPERTY
@given(TABLES)
def test_program_render_parse_round_trip(fields):
    """A total table is a program exactly when every state name is one
    token, and then it reads back from its text."""
    names = [fields[k] for k in fields if k.endswith("_state")]
    names += [state for state, _ in fields["rules"]]
    names += [rule.next_state for rule in fields["rules"].values()]
    if not all(map(_is_token, names)):
        with pytest.raises(ProgramError, match="not one token"):
            Program(**fields)
        return
    p = Program(**fields)
    q = parse_program(render_program(p))
    assert q == p and q.digest() == p.digest()
    assert q.rules == p.rules
    assert (q.track_count, q.start_state, q.limit_state, q.halt_state,
            q.query_state, q.yes_state, q.no_state) == \
        (p.track_count, p.start_state, p.limit_state, p.halt_state,
         p.query_state, p.yes_state, p.no_state)


@st.composite
def table_pairs(draw):
    """The fields of two tables: unrelated, the same table rebuilt from
    equal rules, one move redrawn, or headers that differ only in the query
    protocol (yes and no swapped, or the protocol dropped)."""
    a = draw(TABLES)
    b = dict(a, rules={key: Rule(rule.write, rule.move, rule.next_state)
                       for key, rule in a["rules"].items()})
    how = draw(st.sampled_from(("unrelated", "rebuilt", "one-move", "yes-no",
                                "no-protocol")))
    if how == "unrelated":
        b = draw(TABLES)
    elif how == "one-move":
        key = draw(st.sampled_from(list(b["rules"])))
        rule = b["rules"][key]
        b["rules"][key] = Rule(rule.write, draw(st.sampled_from(MOVES)), rule.next_state)
    elif how == "yes-no":
        b["yes_state"], b["no_state"] = a.get("no_state"), a.get("yes_state")
    elif how == "no-protocol":
        b["query_state"] = b["yes_state"] = b["no_state"] = None
    return a, b


@PROPERTY
@given(table_pairs())
def test_programs_are_equal_exactly_when_their_texts_are(pair):
    """`==` compares the laid-out tables, `hash` hashes the text: equal
    programs have equal text and so equal hashes, and a table that differs
    in any header, query protocol included, is unequal."""
    try:
        p, q = [Program(**fields) for fields in pair]
    except ProgramError:
        return
    same = render_program(p) == render_program(q)
    assert (p == q) == (q == p) == same
    if same:
        assert hash(p) == hash(q) and p.digest() == q.digest()


BITS = st.text("01", min_size=1, max_size=5)
RULE_LINE = st.builds("{} {} -> {} {} {}".format,
                      st.sampled_from(("start", "limit", "halt", "s0", "q")), BITS,
                      st.sampled_from(("start", "limit", "halt", "s0", "ghost")), BITS,
                      st.sampled_from(("L", "R", "S", "X")))
HEADER_LINE = st.builds("{}: {}".format,
                        st.sampled_from(("tracks", "start", "limit", "halt",
                                         "query", "yes", "no", "wat")),
                        st.sampled_from(("3", "4", "5", "x", "", "start", "limit",
                                         "halt", "q", "a b")))
LINE = st.one_of(RULE_LINE, HEADER_LINE, st.text(max_size=12))


@st.composite
def program_texts(draw):
    """A rendered program with a few lines deleted, replaced or added."""
    lines = render_program(draw(st.sampled_from(HAND_BUILT + ENUMERATED[:50]))).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("delete", "replace", "insert")))
        if op != "insert" and at < len(lines):
            del lines[at]
        if op != "delete":
            lines.insert(at, draw(LINE))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


@PROPERTY
@given(st.one_of(program_texts(), st.lists(LINE, max_size=20).map("\n".join)))
def test_program_text_parses_or_raises_program_error(text):
    try:
        p = parse_program(text)
    except ProgramError:
        return
    assert parse_program(render_program(p)) == p


BIT_TUPLES = st.lists(st.sampled_from((0, 1)), max_size=10).map(tuple)


@PROPERTY
@given(BIT_TUPLES, BIT_TUPLES.filter(bool))
def test_real_render_parse_round_trip(prefix, tail):
    x = Real(prefix, tail)
    assert parse_real(x.render()) == x


@PROPERTY
@given(st.text("01()* ", max_size=12))
def test_real_literals_parse_or_raise_value_error(text):
    try:
        x = parse_real(text)
    except ValueError:
        return
    assert parse_real(x.render()) == x


@st.composite
def ordinals(draw):
    exponents = sorted(draw(st.sets(st.integers(0, 6), max_size=4)), reverse=True)
    return Ordinal(tuple((e, draw(st.integers(1, 99))) for e in exponents))


@PROPERTY
@given(ordinals())
def test_ordinal_render_parse_round_trip(a):
    assert parse_ordinal(a.render()) == a


@PROPERTY
@given(st.text("w^*+0123 ", max_size=12))
def test_ordinal_literals_parse_or_raise_value_error(text):
    try:
        a = parse_ordinal(text)
    except ValueError:
        return
    assert parse_ordinal(a.render()) == a


# --- the CLI contract: exit 0, 1 or 2 for any argv --------------------------

# Each command starts small (`--bound`, `--budget`), and every value a drawn
# flag can override it with is small too, so an example takes milliseconds.
BASES = {
    "run": ["run", "{program}", "--budget", "16"],
    "trace": ["trace", "{program}", "--out", "{out}", "--budget", "16"],
    "survey": ["survey", "--bound", "4", "--budget", "16"],
    "jump": ["jump", "--bound", "4", "--budget", "16"],
    "matrix": ["matrix", "--order", "w", "--bound", "4", "--budget", "16"],
    "fm": ["fm", "--bound", "4", "--budget", "16"],
}
PATHS = ("{halt}", "{flip}", "{oracle_program}", "{oracle}", "{bad}",
         "{binary}", "{missing}", "{dir}")
OUTPUTS = ("{out}", "{nowhere}", "{dir}")
VALUES = {
    "--budget": ("1", "2", "8", "32", "0", "-4", "x"),
    "--depth": ("1", "2", "3", "5", "0", "-1", "x"),
    "--cap": ("1", "4", "0", "-1", "x"),
    "--bound": ("0", "1", "3", "6", "-1", "x"),
    "--states": ("0", "1", "2", "4", "9", "x"),
    "--tracks": ("3", "4", "5"),
    "--rows": ("0", "1", "3", "-1"),
    "--order": ("0", "1", "3", "w", "w*2", "w*1+1", "w*5", "w*8", "w^2",
                "w^2*2+w+1", "w^x", "", "+", "-1", "w+w"),
    "--trim-bits": ("0", "1", "8", "-1"),
    "--oracle": PATHS,
    "--oracle-real": ("(0)*", "1(01)*", "1(0", "", "2"),
    "--input": ("(0)*", "11(0)*", "1(0", "x"),
    "--format": ("text", "json", "xml"),
    "--full-snapshots": (),
    "--out": OUTPUTS,
    "--events": OUTPUTS,
    "--report": OUTPUTS,
    "--log": OUTPUTS,
}
COMMON = ("--budget", "--depth")
ORACLE = ("--oracle", "--oracle-real", "--trim-bits")
ENUMERATION = ("--bound", "--states", "--tracks")
FLAGS = {
    "run": COMMON + ORACLE + ("--input", "--format"),
    "trace": COMMON + ORACLE + ("--input", "--out", "--full-snapshots"),
    "survey": COMMON + ENUMERATION + ("--cap", "--out"),
    "jump": COMMON + ORACLE + ENUMERATION + ("--out",),
    "matrix": COMMON + ("--bound", "--states", "--order", "--rows", "--log", "--out"),
    "fm": COMMON + ENUMERATION + ("--cap", "--events", "--report"),
}
STRAYS = ("--prefix-bits", "--wat", "--help", "-", "--format")


@st.composite
def argvs(draw):
    """A command with a few of its own flags, and now and then a stray."""
    command = draw(st.sampled_from(sorted(BASES)))
    argv = [draw(st.sampled_from(PATHS)) if a == "{program}" else a
            for a in BASES[command]]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 7)) == 0:
            argv.append(draw(st.sampled_from(STRAYS)))
        else:
            flag = draw(st.sampled_from(FLAGS[command]))
            argv.append(flag)
            if VALUES[flag]:
                argv.append(draw(st.sampled_from(VALUES[flag])))
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    files = {"out": root / "out.json", "missing": root / "missing.itm",
             "dir": root, "nowhere": root / "missing" / "out.json"}
    for name, text in (("halt", render_program(p_halt())),
                       ("flip", render_program(p_flip())),
                       ("oracle_program", render_program(query_probe())),
                       ("oracle", "1(0)*\n11(0)*\n"),
                       ("bad", "tracks: 3\nstart: s\n")):
        files[name] = root / (name + ".txt")
        files[name].write_text(text)
    files["binary"] = root / "binary.txt"
    files["binary"].write_bytes(b"\xff\xfe tracks: 3\n")
    return {name: str(path) for name, path in files.items()}


@settings(PROPERTY, max_examples=300)
@given(argv=argvs())
@example(argv=["run", "{binary}"])
@example(argv=["survey", "--bound", "1", "--out", "{nowhere}"])
@example(argv=["survey", "--depth", "1", "--states", "0", "--bound", "60",
               "--budget", "16"])
def test_cli_exit_code_is_0_1_or_2(cli_files, argv):
    argv = [a.format(**cli_files) if a.startswith("{") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
