"""Oracle protocols, program enumeration, and halting-set jumps.

Real oracles live on the fourth track, read-only.  Set oracles make the
fourth track writable and answer membership queries: a machine entering its
query state has the track-4 content canonicalized (trimmed to the oracle's
bit width, continued by its periodic tail) and is moved to the yes or no
state, costing one step.

Three protocol rules: an oracle run needs a 4-track program, a program that
declares the query protocol is never run against a real, and an oracle-free
`run_programs` answers such a program by the empty set (and always runs it:
a query reads the whole fourth track, not one slot).  The first two are
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
from dataclasses import dataclass
from typing import ClassVar, Sequence

from .machine import (MOVES, READ_VECTORS, Program, ProgramError, Rule,
                      RuleTable, _enumerated, default_rule, layout)
from .ordinal import Ordinal, pair_index
from .reals import Real, ZERO as ZERO_REAL, from_support, join
from .runner import (BudgetPolicy, DEFAULT_BUDGET, OracleProtocolError,
                     QueryRecord, RunResult, run_transfinite, slots_read)

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


# --- relativized runs and jumps -------------------------------------------

def run_with_oracle(p: Program, input_real: Real, o, budget: BudgetPolicy
                    ) -> tuple[RunResult, tuple[QueryRecord, ...]]:
    if o is None:
        raise OracleProtocolError("run_with_oracle needs an oracle")
    log: list[QueryRecord] = []
    res = run_transfinite(p, input_real, budget, oracle=o, query_log=log)
    return res, tuple(log)


# The longest run, in rows over all its blocks, whose slots `run_programs`
# derives.  In one batch of the 2,000 random tables of tests/conftest.py at
# (4, 256, 256), on a 2-vCPU VM with Python 3.11: with no bound, 220
# derivations read 36,668 rows in 0.043 s and the batch made 1,589 runs;
# with this bound, 291 read 1,537 rows in 0.003 s and it made 1,591.  The
# enumeration prefixes derive no run of more than 4 rows.
_DERIVE_ROWS = 256


def run_programs(programs, budget: BudgetPolicy, oracle=None,
                 input_real: Real = ZERO_REAL) -> list[RunResult]:
    """Run each distinct behaviour once, in order, against the oracle (or,
    without one, against the empty set for query-protocol machines).

    Against any oracle or none, a run of a program without the query
    protocol depends on its program only through the track count, the
    start, limit and halt states, and the rules at the slots it reads (see
    `runner.slots_read`).  So programs that agree there share one
    `RunResult`, found in a trie that lives for this call.  A root holds
    those four header fields.  Below it each node reads one slot, the next
    one a run reads for the first time, which depends only on the rules read
    so far, and branches on the rule found there.  A program whose walk ends
    at a leaf gets that leaf's result, and one whose walk falls off is run
    and hung there as a leaf whose slots are not derived yet.  Only when a
    later walk reaches such a leaf are its slots derived from its result:
    the leaf then moves down below one new node for each slot past its
    depth, and the walk goes on.  A leaf whose slots cannot be derived (a
    run of more than `_DERIVE_ROWS` rows, or one cut by an ordinal
    overflow) gives its place to the program whose walk reached it, which
    is run and hung there.  Query-protocol programs are always run."""
    programs = list(programs)
    results = []
    # Nodes are numbers.  reads[n] is the slot node n reads, one tuple per
    # distinct slot, and edges[n << 32 | c] is the child of node n under the
    # rule of code c: a node, or ~k for the leaf of results[k].  Codes and
    # node numbers count dict and list entries, so they stay below 2**32,
    # and a node adds no object for the collector to count or walk.
    roots, edges, reads = {}, {}, []
    slots_met, rule_codes = {}, {}
    # A rule's code by its id skips hashing the rule, which runs Python
    # code; ids stay valid while `programs` holds every rule.
    rule_ids = {}
    unread = set()   # k for each leaf ~k whose slots are not derived yet
    for k, p in enumerate(programs):
        if p.query_state is not None:
            results.append(run_transfinite(p, input_real, budget,
                                           oracle or SetOracle(frozenset())))
            continue
        slots, rules = p.rules.slots, p.rules.rules
        parent, edge = roots, (p.track_count, p.start_state, p.limit_state,
                               p.halt_state)
        child, depth = roots.get(edge), 0
        while child is not None:
            if child >= 0:
                rule = rules[slots[reads[child]]]
                code = rule_ids.get(id(rule))
                if code is None:
                    code = rule_ids[id(rule)] = rule_codes.setdefault(
                        rule, len(rule_codes))
                parent, edge = edges, child << 32 | code
                child = edges.get(edge)
                depth += 1
                continue
            j = ~child
            if j not in unread:
                break
            read = slots_read(results[j], _DERIVE_ROWS)
            unread.remove(j)
            if read is None:
                child = None    # this run takes the leaf's place
                break
            table = programs[j].rules
            for slot in reversed(read[depth:]):
                node = len(reads)
                reads.append(slots_met.setdefault(slot, slot))
                code = rule_codes.setdefault(table[slot], len(rule_codes))
                edges[node << 32 | code] = child
                child = node
            parent[edge] = child
        if child is None:
            parent[edge] = ~k
            unread.add(k)
        elif ~child not in unread:
            results.append(results[~child])
            continue
        results.append(run_transfinite(p, input_real, budget, oracle))
    return results


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
