"""Oracle protocols, program enumeration, and halting-set jumps.

Real oracles live on the fourth track, read-only.  Set oracles make the
fourth track writable and answer membership queries: a machine entering its
query state has the track-4 content canonicalized (trimmed to the oracle's
bit width, continued by its periodic tail) and is moved to the yes or no
state, costing one step.

Three protocol rules: an oracle run needs a 4-track program, a program that
declares the query protocol is never run against a real, and an oracle-free
`run_programs` answers such a program by the empty set.  The first two are
checked once, in `runner.initial_snapshot`, where every run starts.  A
program that declares the protocol has four tracks: `machine.validate`
refuses any other when the program is made.

The canonical program enumeration is graded: programs are rule tables over
a default rule ("-> halt 000 L"), ordered by (number of overridden slots,
number of work states, override positions, option rank), where slot order
follows the canonical rendering (start's rules first).  Small prefixes of
the enumeration therefore vary the rules that matter on input 0, which is
what makes bounded halting surveys informative.  Enumerated 4-track
programs consult the oracle by reading the tape; the query protocol is for
hand-written machines run against set oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

from .machine import (MOVES, READ_VECTORS, Program, ProgramError, Rule,
                      RuleTable, _enumerated, default_rule, layout)
from .ordinal import Ordinal
from .reals import Real, ZERO as ZERO_REAL, from_support, join
from .runner import (BudgetPolicy, DEFAULT_BUDGET, OracleProtocolError,
                     QueryRecord, RunResult, run_transfinite)

ENUM_WORK_CAP = 4
_WORK_NAMES = ("s0", "s1", "s2", "s3")


@dataclass(frozen=True)
class RealOracle:
    real: Real
    kind: ClassVar[str] = "real"

    def describe(self):
        return {"kind": "real", "real": self.real.render()}


DEFAULT_TRIM_BITS = 64   # query bits a set oracle keeps before its lookup


@dataclass(frozen=True)
class SetOracle:
    members: frozenset[Real]
    trim_bits: int = DEFAULT_TRIM_BITS
    kind: ClassVar[str] = "set"

    def canonical_query(self, track: Real) -> Real:
        return track.truncated(self.trim_bits)

    def contains(self, q: Real) -> bool:
        return q in self.members

    def describe(self):
        return {"kind": "set", "trim_bits": self.trim_bits,
                "members": sorted(m.render() for m in self.members)}


def set_oracle(members, trim_bits: int = DEFAULT_TRIM_BITS) -> SetOracle:
    return SetOracle(frozenset(members), trim_bits)


def replay_queries(query_log: Sequence[QueryRecord], oracle: SetOracle) -> bool:
    """True iff every logged answer matches the oracle, with stages increasing."""
    last = None
    for rec in query_log:
        if last is not None and not (last < rec.stage):
            return False
        if oracle.contains(rec.real) != rec.answer:
            return False
        last = rec.stage
    return True


# --- canonical enumeration -------------------------------------------------

def _slot_list(work: int, tracks: int):
    return list(layout(("start", "limit") + _WORK_NAMES[:work], tracks))


def _option_list(work: int, tracks: int):
    nexts = sorted(["halt", "limit", "start"] + list(_WORK_NAMES[:work]))
    writes = list(itertools.product((0, 1), repeat=tracks))
    return [Rule(w, m, n) for n in nexts for w in writes for m in sorted(MOVES)]


def enumerate_programs(max_work_states: int, tracks: int = 3):
    """Deterministic, duplicate-free stream of all total programs with up to
    max_work_states non-special states.  Graded so that bounded prefixes mix
    halting, looping and sweeping behavior.

    Each work level is checked once, before any program is yielded, and its
    programs are then made without `validate`.  The check is sound because,
    with halt state "halt" and no query protocol, `validate`'s verdict on a
    table laid out over the level's states depends only on that layout and
    on each rule by itself.  The header checks, the state names and
    totality depend on the keys and on the states the rules name, which are
    the layout's states and halt as long as every next state is one of them.
    What is left is per rule: its move and its write vector.  So every table
    of a level is valid iff the layout filled with the default rule passes
    `validate` and every option has a move in MOVES, a write vector in
    READ_VECTORS[tracks] and a next state of the layout or halt.  A level
    that fails raises `TotalityError` or `ProgramError`."""
    if not 0 <= max_work_states <= ENUM_WORK_CAP:
        raise ValueError("max_work_states must be in 0..%d" % ENUM_WORK_CAP)
    if tracks not in (3, 4):
        raise ValueError("tracks must be 3 or 4")
    default = default_rule("halt", tracks)   # one rule object shared
    writes = READ_VECTORS[tracks]
    levels = []
    for work in range(max_work_states + 1):
        states = ("start", "limit") + _WORK_NAMES[:work]
        slots = layout(states, tracks)
        options = _option_list(work, tracks)
        # raised, not asserted, so that `python -O` keeps the check
        if options[0] != default:
            raise AssertionError("the first option is not the default rule")
        # raises TotalityError or ProgramError if the layout is at fault
        Program(track_count=tracks, start_state="start", limit_state="limit",
                halt_state="halt",
                rules=RuleTable(states, slots, (default,) * len(slots)))
        for rule in options:
            if (rule.move not in MOVES or rule.write not in writes
                    or not (rule.next_state == "halt"
                            or rule.next_state in states)):
                raise ProgramError("option %r is not a rule over states %s"
                                   % (rule, ", ".join(states + ("halt",))))
        levels.append((states, slots, options[1:]))
    for k in range(len(levels[-1][1]) + 1):   # up to every slot overridden
        for states, slots, extra in levels:
            if k > len(slots):
                continue
            base = [default] * len(slots)
            for combo in itertools.combinations(range(len(slots)), k):
                for choice in itertools.product(extra, repeat=k):
                    rules = base.copy()
                    for c, rule in zip(combo, choice):
                        rules[c] = rule
                    yield _enumerated(tracks,
                                      RuleTable(states, slots, tuple(rules)))


def enumeration_slice(bound: int, max_work_states: int = 2, tracks: int = 3):
    return list(itertools.islice(enumerate_programs(max_work_states, tracks), bound))


def count_programs(work: int, tracks: int, max_overrides: int | None = None) -> int:
    """Closed-form size of the exactly-`work`-state space, optionally cut at
    an override count (the grading used by the enumerator)."""
    s = len(_slot_list(work, tracks))
    o = len(_option_list(work, tracks)) - 1
    if max_overrides is None:
        return (o + 1) ** s
    total = 0
    for k in range(min(max_overrides, s) + 1):
        total += math.comb(s, k) * o ** k
    return total


# --- relativized runs and jumps -------------------------------------------

def run_with_oracle(p: Program, input_real: Real, o, budget: BudgetPolicy
                    ) -> tuple[RunResult, tuple[QueryRecord, ...]]:
    if o is None:
        raise OracleProtocolError("run_with_oracle needs an oracle")
    log: list[QueryRecord] = []
    res = run_transfinite(p, input_real, budget, oracle=o, query_log=log)
    return res, tuple(log)


def _bare_oracle(p: Program):
    """Oracle for an oracle-free run: machines that declare the query
    protocol are answered by the empty set, the stage-zero approximation."""
    if p.query_state is not None:
        return SetOracle(frozenset())
    return None


def run_programs(programs, budget: BudgetPolicy, oracle=None,
                 input_real: Real = ZERO_REAL) -> list[RunResult]:
    """Run each program once, in order, against the oracle (or, without
    one, against the empty set for query-protocol machines)."""
    return [run_transfinite(p, input_real, budget,
                            oracle if oracle is not None else _bare_oracle(p))
            for p in programs]


@dataclass(frozen=True)
class JumpResult:
    halted: tuple[tuple[int, Ordinal], ...]
    exceeded: frozenset[int]
    diverges: frozenset[int]
    bound: int
    oracle: object | None

    def halted_set(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.halted)

    def halting_real(self) -> Real:
        """Characteristic sequence of the halting set under the enumeration."""
        return from_support(self.halted_set())

    def joined(self) -> Real:
        """A (+) h^A for a real oracle A, via the bit interleaving join."""
        if self.oracle is None or self.oracle.kind != "real":
            raise OracleProtocolError("joined real is defined for real oracles")
        return join(self.oracle.real, self.halting_real())


def jump_lightface(programs, oracle=None, budget: BudgetPolicy = DEFAULT_BUDGET
                   ) -> JumpResult:
    """Budgeted halting set over the enumerated space, on input all-zero."""
    results = run_programs(programs, budget, oracle)
    halted, exceeded, diverges = [], set(), set()
    for pid, res in enumerate(results):
        if res.outcome == "halted":
            halted.append((pid, res.time))
        elif res.outcome == "loops":
            diverges.add(pid)
        else:
            exceeded.add(pid)
    return JumpResult(tuple(halted), frozenset(exceeded), frozenset(diverges),
                      len(results), oracle)


@dataclass(frozen=True)
class BoldfaceResult:
    halted: tuple[tuple[int, Real, Ordinal], ...]
    pair_set: frozenset[int]


def jump_boldface(programs, inputs: Sequence[Real], oracle=None,
                  budget: BudgetPolicy = DEFAULT_BUDGET) -> BoldfaceResult:
    """Halting pairs <p, x> over a finite input set."""
    from .ordinal import pair_index
    progs = list(programs)
    inputs = list(inputs)
    by_input = [run_programs(progs, budget, oracle, x) for x in inputs]
    halted = []
    pairs = set()
    for pid in range(len(progs)):
        for xi, x in enumerate(inputs):
            res = by_input[xi][pid]
            if res.outcome == "halted":
                halted.append((pid, x, res.time))
                pairs.add(pair_index(pid, xi))
    return BoldfaceResult(tuple(halted), frozenset(pairs))
