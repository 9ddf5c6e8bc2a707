"""Program model and the `.itm` assembly format.

A program is a total transition table over aligned tape tracks: every
non-halt state must have a rule for every read vector.  A program built in
code or parsed from a file is checked when it is made: construction raises
`TotalityError` for missing rules and `ProgramError` for any other problem.
Enumerated programs are checked once per layout and option list, before the
first of them is made (see `oracle.enumerate_programs`).  Either way a run
trusts the program it is given and checks nothing.  A valid table is laid
out in rendering order (see `layout`), so a program's text is its rules in
table order.  Three tracks mean
(input, scratch, output); a fourth track is the oracle tape.  One head is
shared by all tracks, and a left move at cell 0 leaves the head at cell 0.

Rules written against the query protocol never fire mechanically: a machine
entering the query state is answered by the oracle (see the oracle module),
so the query state carries no rules, like halt.  The query is the fourth
track, so only a 4-track program may declare the protocol.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

MOVES = ("L", "R", "S")

# every read vector of a table, by track count, in order and as a set
READ_VECTORS = {n: tuple(itertools.product((0, 1), repeat=n)) for n in (3, 4)}
_VECTORS = {n: frozenset(reads) for n, reads in READ_VECTORS.items()}


class ProgramError(Exception):
    pass


class ProgramSyntaxError(ProgramError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__("line %d, col %d: %s" % (line, column, message))
        self.line = line
        self.column = column


class TotalityError(ProgramError):
    def __init__(self, missing):
        self.missing = list(missing)
        shown = ", ".join("%s/%s" % (s, "".join(map(str, r)))
                          for s, r in self.missing[:8])
        more = "" if len(self.missing) <= 8 else " (+%d more)" % (len(self.missing) - 8)
        super().__init__("missing rules for: %s%s" % (shown, more))


def vector_code(bits) -> int:
    """A read or write vector as one int: track t's bit at bit t."""
    return sum([1 << t for t, b in enumerate(bits) if b == 1])


@dataclass(frozen=True, slots=True)
class Rule:
    write: tuple[int, ...]
    move: str
    next_state: str
    # the write vector's `vector_code`, which `runner.run_block` flips by
    write_code: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "write_code", vector_code(self.write))


class RuleTable(Mapping):
    """A transition table, (state, read) -> Rule, read like a dict.

    The keys live in `slots`, a dict from key to position, and the rules in
    the tuple `rules`.  A program's table is laid out over its rule-carrying
    `states`: its slots are `layout(states, tracks)`, shared by every table
    over those states, so `items()` is one pass in rendering order.  A
    program keeps a 16-slot table in 224 bytes where a dict takes 632, which
    matters to callers that hold tens of thousands of programs."""

    __slots__ = ("states", "slots", "rules")

    def __init__(self, states: tuple, slots: dict, rules: tuple):
        self.states = states
        self.slots = slots
        self.rules = rules

    def __getitem__(self, key) -> Rule:
        return self.rules[self.slots[key]]

    def __contains__(self, key) -> bool:
        return key in self.slots

    def __iter__(self):
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.rules)

    def keys(self):
        return self.slots.keys()

    def values(self) -> tuple:
        return self.rules

    def items(self):
        return zip(self.slots, self.rules)


@functools.lru_cache(maxsize=256)
def layout(states: tuple[str, ...], tracks: int) -> dict:
    """(state, read) -> slot over `states` x READ_VECTORS[tracks], in the
    order a program renders its rules: state by state, reads ascending.
    `states` must come in rendering order, each once: the start and the limit
    state (those of them that carry rules), then the others by name; a tail
    out of order raises ValueError."""
    if len(set(states)) != len(states) or list(states[2:]) != sorted(states[2:]):
        raise ValueError("states %r are not in rendering order" % (states,))
    return {key: i for i, key in
            enumerate(itertools.product(states, READ_VECTORS[tracks]))}


@functools.lru_cache(maxsize=256)
def layout_by_code(states: tuple[str, ...], tracks: int) -> dict:
    """state -> the slot of `layout(states, tracks)` for each read code, so
    `layout_by_code(states, tracks)[state][vector_code(read)]` is
    `layout(states, tracks)[state, read]`."""
    slots = layout(states, tracks)
    reads = sorted(READ_VECTORS[tracks], key=vector_code)
    return {state: tuple([slots[state, read] for read in reads])
            for state in states}


@dataclass(frozen=True, eq=False, slots=True)
class Program:
    track_count: int
    start_state: str
    limit_state: str
    halt_state: str
    rules: RuleTable    # laid out from any mapping (state, read) -> Rule
    query_state: str | None = None
    yes_state: str | None = None
    no_state: str | None = None

    def __post_init__(self):
        problems = validate(self)
        if problems:
            missing = [m for m in problems if isinstance(m, tuple)]
            if missing:
                raise TotalityError(missing)
            raise ProgramError("; ".join(problems))
        table = self.rules
        states = tuple(sorted({state for state, _ in table}, key=lambda s: (
            s != self.start_state, s != self.limit_state, s)))
        slots = layout(states, self.track_count)
        object.__setattr__(self, "rules", RuleTable(
            states, slots, tuple(table[key] for key in slots)))

    def states(self) -> list[str]:
        named = [self.start_state, self.limit_state, self.halt_state]
        for s in (self.query_state, self.yes_state, self.no_state):
            if s is not None:
                named.append(s)
        seen = dict.fromkeys(named)
        for st, _ in self.rules:
            seen.setdefault(st, None)
        for rule in self.rules.values():
            seen.setdefault(rule.next_state, None)
        return list(seen)

    def __eq__(self, other):
        # comparing the fields is comparing the text: `validate` keeps every
        # state name one token, so a program's text reads back to its fields
        return isinstance(other, Program) and _fields(self) == _fields(other)

    def __hash__(self):
        return hash(render_program(self))

    def digest(self) -> str:
        return hashlib.sha256(render_program(self).encode()).hexdigest()[:16]

    def __repr__(self):
        return "Program[%d states, %d tracks]" % (len(self.states()), self.track_count)


def _fields(p: Program) -> tuple:
    """What a program's text is made of: its track count, its header states
    and its table laid out."""
    return (p.track_count, p.start_state, p.limit_state, p.halt_state,
            p.query_state, p.yes_state, p.no_state, p.rules.states, p.rules.rules)


def _enumerated(tracks: int, rules: RuleTable) -> Program:
    """The program over start, limit and halt, with no query protocol, whose
    table is `rules`, made without `validate`.  `rules` must be laid out
    over `layout(rules.states, tracks)`, with `rules.states` starting
    (start, limit), and must have passed its level's check in
    `oracle.enumerate_programs`, the only caller."""
    p = object.__new__(Program)
    put = object.__setattr__
    put(p, "track_count", tracks)
    put(p, "start_state", "start")
    put(p, "limit_state", "limit")
    put(p, "halt_state", "halt")
    put(p, "rules", rules)
    put(p, "query_state", None)
    put(p, "yes_state", None)
    put(p, "no_state", None)
    return p


def render_program(p: Program) -> str:
    """A program's text, which is its name: the header lines, then one line
    per slot of its layout.  The text is spliced from cached pieces: the
    header, and the layout's text with the shared default rule (the very
    object `default_rule("halt", tracks)`, with which the enumeration and
    `total_program` fill their tables) in every slot.  Only the lines of the
    other rules are formatted and spliced in.  That is exact: an object's
    text is fixed by its fields, so the identical rule has the cached line's
    text.  A rule that only equals the default, such as one `parse_program`
    makes, is formatted and gives the same bytes."""
    table = p.rules
    fill = default_rule("halt", p.track_count)
    heads, text, starts = _layout_text(table.states, p.track_count)
    parts = [_header_text(p.track_count, p.start_state, p.limit_state,
                          p.halt_state, p.query_state, p.yes_state, p.no_state)]
    at = 0
    for i, rule in enumerate(table.rules):
        if rule is not fill:
            parts += text[at:starts[i]], heads[i], _rule_text(rule), "\n"
            at = starts[i + 1]
    parts.append(text[at:])
    return "".join(parts)


@functools.lru_cache(maxsize=256)
def _header_text(tracks: int, start: str, limit: str, halt: str,
                 query: str | None, yes: str | None, no: str | None) -> str:
    """The header lines of a program's text, each ending in a newline."""
    named = [("start", start), ("limit", limit), ("halt", halt),
             ("query", query), ("yes", yes), ("no", no)]
    return "tracks: %d\n" % tracks + "".join(
        "%s: %s\n" % (name, state) for name, state in named if state is not None)


# vector -> its text as a rule writes it
_VECTOR_TEXT = {v: "".join(map(str, v))
                for reads in READ_VECTORS.values() for v in reads}


def _rule_text(rule: Rule) -> str:
    """The right-hand side of a rule line: "next write move"."""
    return "%s %s %s" % (rule.next_state, _VECTOR_TEXT[rule.write], rule.move)


@functools.lru_cache(maxsize=256)
def _layout_text(states: tuple[str, ...], tracks: int):
    """The rule lines of `layout(states, tracks)` with
    `default_rule("halt", tracks)` in every slot: per slot its "state read
    -> " text, then the lines as one text, then where each line starts in
    it and, last, the text's length."""
    heads = tuple("%s %s -> " % (state, _VECTOR_TEXT[read])
                  for state, read in layout(states, tracks))
    line = _rule_text(default_rule("halt", tracks)) + "\n"
    text = "".join(head + line for head in heads)
    starts = tuple(itertools.accumulate((len(head) + len(line) for head in heads),
                                        initial=0))
    return heads, text, starts


def parse_program(text: str) -> Program:
    headers: dict[str, str] = {}
    rules: dict[tuple[str, tuple[int, ...]], Rule] = {}
    rule_lines: list[tuple[int, str, tuple[int, ...], str, tuple[int, ...], str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            lparts, rparts = left.split(), right.split()
            if len(lparts) != 2 or len(rparts) != 3:
                raise ProgramSyntaxError(lineno, 1, "rule must be '<state> <read> -> <state> <write> <L|R|S>'")
            state, read = lparts
            nxt, write, move = rparts
            if any(c not in "01" for c in read) or any(c not in "01" for c in write):
                raise ProgramSyntaxError(lineno, 1, "read/write vectors must be 0/1 strings")
            if move not in MOVES:
                raise ProgramSyntaxError(lineno, 1, "move must be one of L, R, S")
            rule_lines.append((lineno, state, tuple(int(c) for c in read),
                               nxt, tuple(int(c) for c in write), move))
        elif ":" in line:
            name, _, value = line.partition(":")
            name, value = name.strip(), value.strip()
            if name not in ("tracks", "start", "limit", "halt", "query", "yes", "no"):
                raise ProgramSyntaxError(lineno, 1, "unknown header %r" % name)
            if not value or len(value.split()) != 1:
                raise ProgramSyntaxError(lineno, len(name) + 2, "header %r needs one value" % name)
            if name in headers:
                raise ProgramSyntaxError(lineno, 1, "duplicate header %r" % name)
            headers[name] = value
        else:
            raise ProgramSyntaxError(lineno, 1, "expected header or rule")
    for required in ("tracks", "start", "limit", "halt"):
        if required not in headers:
            raise ProgramSyntaxError(0, 0, "missing header %r" % required)
    try:
        track_count = int(headers["tracks"])
    except ValueError:
        raise ProgramSyntaxError(0, 0, "tracks must be an integer")
    if track_count not in (3, 4):
        raise ProgramSyntaxError(0, 0, "tracks must be 3 or 4")
    for lineno, state, read, nxt, write, move in rule_lines:
        if len(read) != track_count or len(write) != track_count:
            raise ProgramSyntaxError(lineno, 1, "vector width must equal track count %d" % track_count)
        if (state, read) in rules:
            raise ProgramSyntaxError(lineno, 1, "duplicate rule for %s %s" % (state, "".join(map(str, read))))
        rules[(state, read)] = Rule(write, move, nxt)
    header_states = {headers["start"], headers["limit"], headers["halt"],
                     headers.get("query"), headers.get("yes"), headers.get("no")}
    sources = {s for s, _ in rules}
    for lineno, state, read, nxt, write, move in rule_lines:
        if nxt not in sources and nxt not in header_states:
            raise ProgramSyntaxError(lineno, 1, "undeclared state %r" % nxt)
    return Program(track_count=track_count,
                   start_state=headers["start"],
                   limit_state=headers["limit"],
                   halt_state=headers["halt"],
                   query_state=headers.get("query"),
                   yes_state=headers.get("yes"),
                   no_state=headers.get("no"),
                   rules=rules)


def validate(p: Program):
    """Check all Program invariants; returns [] when the program is well formed.

    Missing (state, read-vector) pairs are reported as tuples so callers can
    surface the totality gap precisely; everything else is a message string.
    """
    problems: list = []
    if p.track_count not in (3, 4):
        problems.append("track count must be 3 or 4")
        return problems
    if p.limit_state == p.halt_state:
        problems.append("limit state must be distinct from halt state")
    protocol = [p.query_state, p.yes_state, p.no_state]
    if any(s is not None for s in protocol) and any(s is None for s in protocol):
        problems.append("query protocol incomplete: query/yes/no states must all be present or all absent")
    if p.track_count != 4 and any(s is not None for s in protocol):
        problems.append("query protocol needs a 4-track program: the query is the fourth track")
    named = set()   # every state a rule leaves from or goes to
    vectors = _VECTORS[p.track_count]
    try:
        for (state, read), rule in p.rules.items():
            named.add(state)
            named.add(rule.next_state)
            if state == p.halt_state:
                problems.append("halt state %r has outgoing rule" % state)
            if state == p.query_state:
                problems.append("query state %r has outgoing rule (answers are oracle-driven)" % state)
            if read not in vectors or rule.write not in vectors:
                if len(read) != p.track_count or len(rule.write) != p.track_count:
                    problems.append("rule %s/%s has wrong vector width" % (state, "".join(map(str, read))))
                else:
                    problems.append("rule %s/%s has a bit other than 0 and 1" % (state, "".join(map(str, read))))
            if rule.move not in MOVES:
                problems.append("rule %s/%s has bad move %r" % (state, "".join(map(str, read)), rule.move))
    except TypeError:
        # `Rule` does not check its fields' types, and the set lookups above
        # raise on a list write vector or next state: name every such rule
        bad = ["rule %s/%s has unhashable %s %r"
               % (state, "".join(map(str, read)), name, value)
               for (state, read), rule in p.rules.items()
               for name, value in (("write", rule.write),
                                   ("next state", rule.next_state))
               if _unhashable(value)]
        if not bad:
            raise
        return problems + bad
    # the states that must carry a total rule set, in canonical order
    special = {p.start_state, p.limit_state, p.halt_state,
               p.query_state, p.yes_state, p.no_state}
    rule_states = []
    for s in [p.start_state, p.limit_state] + sorted(named - special):
        if s not in rule_states and s != p.halt_state and s != p.query_state:
            rule_states.append(s)
    for s in (p.yes_state, p.no_state):
        if s is not None and s not in rule_states and s != p.halt_state:
            rule_states.append(s)
    # every state of a table either carries rules or is halt or query
    for state in rule_states + [p.halt_state, p.query_state]:
        if state is not None and not _is_token(state):
            problems.append("state name %r is not one token free of whitespace, "
                            "'#' and '->'" % (state,))
    rules, reads = p.rules.keys(), READ_VECTORS[p.track_count]
    for state in rule_states:
        for read in reads:
            if (state, read) not in rules:
                problems.append((state, read))
    return problems


def _unhashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return True
    return False


@functools.cache
def _is_token(name) -> bool:
    """Whether `render_program` can write the state name back as one token."""
    return (isinstance(name, str) and name.split() == [name]
            and "#" not in name and "->" not in name)


# --- default-filled programs and reference machines ------------------------
#
# The fill convention for rules a description leaves open is the least rule
# text "-> halt 000 L".  The canonical enumeration fills its tables the same
# way, which pins the reference machines to small indices in it.

@functools.cache
def default_rule(p_halt_state: str, tracks: int) -> Rule:
    return Rule((0,) * tracks, "L", p_halt_state)


def total_program(tracks: int, overrides, states=("start", "limit"),
                  **special) -> Program:
    """Program over start/limit/halt: `overrides`, and the default rule in
    every other slot of `states` and of the overrides' states."""
    fill = default_rule("halt", tracks)
    rules = {(state, read): fill
             for state in dict.fromkeys((*states, *(st for st, _ in overrides)))
             if state != "halt" for read in READ_VECTORS[tracks]}
    rules.update(overrides)
    return Program(track_count=tracks, start_state="start", limit_state="limit",
                   halt_state="halt", rules=rules, **special)


def p_halt() -> Program:
    """Writes output bit 0 and halts on the first step."""
    return total_program(3, {("start", (0, 0, 0)): Rule((0, 0, 1), "S", "halt")})


def p_flip() -> Program:
    """Flips scratch bit 0 forever; ignores the input track entirely."""
    overrides = {}
    for read in itertools.product((0, 1), repeat=3):
        i, s, o = read
        rule = Rule((i, 1 - s, o), "S", "start")
        overrides[("start", read)] = rule
        overrides[("limit", read)] = rule
    return total_program(3, overrides)


def p_flip_lh() -> Program:
    """p_flip, except the limit state halts on seeing the limsup scratch 1."""
    p = p_flip()
    rules = dict(p.rules)
    rules[("limit", (0, 1, 0))] = Rule((0, 1, 0), "S", "halt")
    return Program(track_count=3, start_state="start", limit_state="limit",
                   halt_state="halt", rules=rules)


def p_sweep() -> Program:
    """Marches right writing scratch 1s; all other rules self-loop."""
    overrides = {}
    for st in ("start", "limit"):
        for read in itertools.product((0, 1), repeat=3):
            overrides[(st, read)] = Rule(read, "S", st)
    overrides[("start", (0, 0, 0))] = Rule((0, 1, 0), "R", "start")
    return total_program(3, overrides)


@functools.lru_cache(maxsize=1024)
def _oracle_track_rules(rule: Rule) -> tuple[Rule, Rule]:
    """The 4-track rules for `rule` read with track 4 at 0 and at 1: each
    writes back what it read there."""
    return tuple(Rule(rule.write + (b,), rule.move, rule.next_state)
                 for b in (0, 1))


def extend_to_oracle_tracks(p: Program) -> Program:
    """4-track version of a 3-track program that never touches track 4."""
    if p.track_count != 3:
        raise ValueError("only 3-track programs can be extended")
    rules = {}
    for (state, read), rule in p.rules.items():
        rules[state, read + (0,)], rules[state, read + (1,)] = (
            _oracle_track_rules(rule))
    return Program(track_count=4, start_state=p.start_state,
                   limit_state=p.limit_state, halt_state=p.halt_state,
                   query_state=p.query_state, yes_state=p.yes_state,
                   no_state=p.no_state, rules=rules)
