"""Exact transfinite execution.

Successor steps follow the transition table.  Limit stages are only ever
computed under a certificate that makes them exact:

* RepeatCert(mu, pi): the full configuration at step mu+pi equals the one at
  step mu, so the run is periodic from mu and the omega-limit of each cell is
  1 iff the cell is 1 somewhere in one period (that is its limsup).

* TranslationCert(mu, pi, shift): the configuration at mu+pi looks exactly
  like the one at mu moved `shift` cells right (same state, right half-tapes
  equal under the shift), the head never dips below its mu position inside
  the window and no step in the window hit the cell-0 edge clamp.  The run
  then replays forever shifted right, every cell is eventually constant, and
  the omega-limit is the tape left behind: the pre-window prefix followed by
  the wake of one cycle repeating.

A block steps on ints, not on `Real`s.  Each track is its start `Real` plus
one int `delta` of the cells flipped since the block began, and one int
`cur` of its cells now: a window of the start, grown as the head reaches its
end, with `delta` flipped in.  A step reads one code, track t's bit under
the head at bit t (a 3-track block reads a constant 0 as its fourth track),
and finds its slot as `layout_by_code(states, tracks)[state][code]`, which
is `layout`'s slot for (state, read).  The rule's write is a code too, so
the tracks the step flips are `(code ^ write_code) & writable`, with a real
oracle's read-only track left out of `writable`, and the cells it turns to 1
are those flips where the read code had a 0.  A flip toggles one bit of the
track's `cur` and `delta`.  Each step stores the row (state, head, *deltas).
The start tracks are fixed within a block, so two configurations are equal
iff their rows are: the row is the exact repeat key, with no canonical form.
The per-track union of the rows j .. i that both rules need is row j's
tracks plus every cell a later step turned to 1, one `Real.flipped` per
track; the read-only oracle track keeps delta 0 and is never rebuilt.  The
snapshots of a block are built from its rows on the first read of
`BlockSummary.explicit`, and `verify_certificate` re-checks each certificate
by stepping on `Real`s.

Limits of limits reuse the same idea one level up: block-start snapshots
recur, and a cell is 1 at the w^k-limit iff it is 1 somewhere inside
cofinally many level-(k-1) blocks, i.e. inside the certified cycle.
`run_transfinite` climbs the levels in one loop: each block's limit is
handed up through one frame per level in progress (origin, sub-block start
keys, ever-one sets) until some level sees no recurrence yet, and the next
block starts from the last limit.

A finished run keeps only what its result needs, because callers keep many
results (a survey, a jump, the universal dovetailer) and each full cyclic
garbage collection walks every container still alive.  Enumerated programs
end their blocks in few distinct ways, so a block that steps to a halt or to
a limit certificate is looked up, after stepping and before any union or
limit is built, in a weak-valued table.  A halt is keyed by its rows: the
start snapshot, stage included, then one row per step.  A repeat or
translation block is keyed by its rows, the program's limit state (the
limit snapshot's state) and the budget's depth (`limit_step` overflows at a
depth the key must not hide).  Equal blocks share one `BlockSummary`, with
its ever-one tuple, its `Real`s, its limit and its rows, and an entry lives
only while some result holds its block.  Stepping, with its query log, has
already happened, and an `ExceededCert` block is never shared.

The key is exact.  A halt's certificate, ever-one sets and snapshots, and a
repeat's first repeated row and limsup, are functions of the start and the
rows.  A translation's certificate also depends on its candidate list, which
an edge clamp clears and the rows do not record: a step that stays at cell 0
and one clamped there leave equal rows.  Two blocks with equal rows that
both end in a translation at step k still find the same candidate.  Their
lists gain the same rows (new head maxima) and lose the same rows (the head
falling below them), and a clamp empties a list, so at every step one list
is a tail of the other.  At a record row every cell from the head on is
still the start tape, so two record rows match iff they have the same state
and the start's suffixes from their heads are equal.  By
`Real.prefix_and_period` that holds iff both heads are at least `floor`, the
largest canonical prefix length of the start's tracks, and both rows have
the same key (state, head % `period`), with `period` the lcm of the tracks'
tail periods: an equivalence fixed by the start.  A list holds at most one
row per key, as a second would have matched the first and ended the block,
so `run_block` keeps the last row of each key and checks that it is still
on the list.  Say the blocks took j and j', the second list being a tail of
the first.  Then j' is on the first list with the key of j, so j' = j.  A
change to how candidates are kept or chosen must check this again.

`oracle.run_programs` shares whole results one level higher: within one
call it runs each distinct behaviour once, finding programs that agree on
every slot a run reads (`slots_read`).  This is exact for programs without
the query protocol, against any oracle or none.  Such a run depends on its
program through the track count and the start state (the start snapshot),
the halt state (the halt test), the limit state (every limit snapshot, and
so the block and loop keys) and, at each step, the rule at the slot (state,
read) of the row it steps from: the next state, the writes and the move.
An edge clamp is an `L` rule read at cell 0, and the head is in the row, so
the clamps and with them the translation candidates follow too.  The call
fixes the input, the budget and the oracle, and so the whole start
snapshot, oracle track included.  A real oracle's track is read-only, its
bit under the head is part of the slot, and the translation-candidate index
reads its `prefix_and_period` from the fixed start; a set oracle is
consulted only in the query state.  So a program with the same four header
fields and the same rules at every slot another program's run reads makes
the same first step, reads the same slot next, and so on: the same rows,
the same blocks (the same `BlockSummary`s by the key above), the same
limits and the same `LoopCert`.  Every field of the result is equal, and
each certificate re-checks under either program, since `verify_certificate`
steps through slots where the two tables agree.  The slots are read off the
result's rows, so a result cut by an ordinal overflow, which lacks the
block it was building, is never shared this way.

`approx.iterated_matrix` shares a one-block halt of one program across the
real oracles that agree on the cells it read (`cells_read`).  Under two
such oracles the run steps through identical rows, and a repeat found under
one is found under the other.  Beyond the head a block reads the oracle
only through its translation-candidate index, which only ever emits a
sound `TranslationCert`, one under which the run never halts.  So a run
that halts at step n under one oracle had no certificate before n under
either, and halts at n under both, with the same output track.  An
exceeded, repeat, translation or multi-block run can depend on the whole
oracle, so it is never shared this way.

A result is one frozen object: the blocks tuple, built when the run ends,
the limits above level 1 and, for a loop, the recurring limit.  A halt's
time is the block start's stage plus its step count and its output is one
track of the last row, so the last snapshot is never built unless read; the
output is the block's ever-one `Real` itself when the two are equal.

A run whose first block halts shares its whole result through that block,
which keeps a weak reference to the result it first made.  This is exact:
such a result has blocks (block,), no limits and no final limit, its time is
the start's stage (part of the block key) plus the block's step count, and
its output is read off the block's last row and ever-one set, so every field
is a function of the held block.  A halt after a limit is never shared: its
blocks tuple records the blocks before it, which its last block does not.
The result holds its block and the block only a weak reference to the
result, so no cycle forms, and dropping the last result frees both by
reference counting alone.  Small finite stages, `HaltAt` certificates,
oracle-free start snapshots and the empty limits tuple are shared too, so a
kept one-block halt whose block holds a live result adds no tracked object.
A new one adds three: the result, its blocks tuple and the block's weak
reference to it.  A new block adds five more: the summary, its ever-one
tuple, one `Real`, its rows and the table's weak reference.

A run diverges provably when a limit snapshot recurs in the strong sense: an
identical earlier limit snapshot such that no cell that is 0 in it was 1 at
any stage in between.  Such a run repeats that whole span of stages forever,
reproducing the snapshot at every higher limit, so a Loops verdict is sound.
Recurrence where some in-between cell was 1 is not a loop: the next limit
sets that cell and the computation escapes with a genuinely new snapshot.
"""

from __future__ import annotations

import functools
import hashlib
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from math import lcm

from .machine import Program, layout_by_code
from .ordinal import (Ordinal, ZERO as ZERO_ORD, cnf_add, from_int, successor,
                      limit_step, BudgetOrdinalOverflow)
from .reals import (Real, ZERO as ZERO_REAL, or_all, or_real, and_not,
                    shift_union)


class StepFromHalt(Exception):
    pass


class OracleProtocolError(Exception):
    pass


@dataclass(frozen=True)
class BudgetPolicy:
    depth: int = 3
    per_level_budget: int = 4096
    appearance_cap: int = 512

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.per_level_budget < 2:
            raise ValueError("per-level budget must be >= 2")
        if self.appearance_cap < 1:
            raise ValueError("appearance cap must be >= 1")

    def scaled(self, factor: int) -> "BudgetPolicy":
        return BudgetPolicy(self.depth, self.per_level_budget * factor,
                            self.appearance_cap)


DEFAULT_BUDGET = BudgetPolicy()


@dataclass(frozen=True, slots=True)
class Snapshot:
    state: str
    head: int
    tracks: tuple[Real, ...]
    stage: Ordinal

    def key(self):
        """Configuration identity: everything but the stage label."""
        return (self.state, self.head, self.tracks)

    def digest(self) -> str:
        body = "%s|%d|%s|%s" % (self.state, self.head,
                                ";".join(t.render() for t in self.tracks),
                                self.stage.render())
        return hashlib.sha256(body.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RepeatCert:
    mu: int
    pi: int


@dataclass(frozen=True)
class TranslationCert:
    mu: int
    pi: int
    shift: int


@dataclass(frozen=True)
class HaltAt:
    steps: int


_HALTS = [HaltAt(n) for n in range(256)]   # shared, like ordinal.from_int's


def _halt_at(steps: int) -> HaltAt:
    return _HALTS[steps] if steps < len(_HALTS) else HaltAt(steps)


@dataclass(frozen=True)
class ExceededCert:
    steps: int


class _WeakReferable:
    """A `__weakref__` slot for a slotted dataclass (`weakref_slot` needs
    Python 3.11)."""
    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class BlockSummary(_WeakReferable):
    certificate: object
    ever_one: tuple[Real, ...]
    limit: Snapshot | None
    rows: tuple     # the start snapshot, then (state, head, *deltas) per step
    _explicit: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)
    # a weak reference to the result of the one-block halt that ends here
    _result: weakref.ref | None = field(default=None, init=False, repr=False,
                                        compare=False)

    @property
    def start(self) -> Snapshot:
        return self.rows[0]

    @property
    def explicit(self) -> tuple[Snapshot, ...]:
        """The block's snapshots, built from its rows on the first read.
        Snapshot k > 0 has row k's state and head, the start tracks with row
        k's deltas flipped, and stage start.stage + k.  Consecutive snapshots
        share the `Real` of every track whose delta did not change."""
        if self._explicit is None:
            start = self.rows[0]
            snaps, prev = [start], (0,) * len(start.tracks)
            for k, (state, head, *deltas) in enumerate(self.rows[1:], 1):
                tracks = tuple([pt if pd == d else t.flipped(d) for t, pt, pd, d
                                in zip(start.tracks, snaps[-1].tracks, prev,
                                       deltas)])
                snaps.append(Snapshot(state, head, tracks,
                                      cnf_add(start.stage, from_int(k))))
                prev = deltas
            object.__setattr__(self, "_explicit", tuple(snaps))
        return self._explicit


# certified blocks by key (see `run_block`), shared while some result holds them
_BLOCKS: weakref.WeakValueDictionary[tuple, BlockSummary] = \
    weakref.WeakValueDictionary()


@dataclass(frozen=True)
class QueryRecord:
    stage: Ordinal
    real: Real
    answer: bool


@dataclass(frozen=True)
class LoopCert:
    first: Ordinal
    second: Ordinal


@dataclass(frozen=True, slots=True)
class RunResult(_WeakReferable):
    outcome: str                 # "halted" | "loops" | "exceeded"
    blocks: tuple                # BlockSummary per block, in run order
    limits: tuple = ()           # (level, Snapshot) for levels >= 2
    final_limit: Snapshot | None = None   # loops: the recurring limit
    time: Ordinal | None = None
    output: Real | None = None
    loop: LoopCert | None = None
    reason: str | None = None    # exceeded: "budget" | "ordinal-overflow"

    def __post_init__(self):
        # raised, not asserted, so that `python -O` keeps the check
        if self.outcome == "halted" and (self.time is None or self.time.is_limit()):
            raise AssertionError("halting times are never limit ordinals")

    @property
    def halted(self):
        return self.outcome == "halted"

    @property
    def trace(self) -> RunResult:
        """The result itself, for `perfbench`'s bench.py and tracer.py."""
        return self


def _oracle_kind(oracle):
    return getattr(oracle, "kind", None)


def initial_snapshot(p: Program, input_real: Real = ZERO_REAL, oracle=None) -> Snapshot:
    """The stage-0 snapshot, and the one check of the program-oracle
    pairing: any oracle needs a 4-track program, and a program that declares
    the query protocol needs a set oracle, not a real.  A mismatch raises
    `OracleProtocolError` before the run takes a step."""
    if oracle is None:
        return _start_snapshot(p.start_state, p.track_count, input_real)
    if p.track_count != 4:
        raise OracleProtocolError("oracle runs need a 4-track program")
    tracks = [input_real] + [ZERO_REAL] * 3
    if _oracle_kind(oracle) == "real":
        if p.query_state is not None:
            raise OracleProtocolError(
                "query protocol declared but the oracle is a real, not a set")
        tracks[3] = oracle.real
    return Snapshot(p.start_state, 0, tuple(tracks), ZERO_ORD)


@functools.lru_cache(maxsize=64)
def _start_snapshot(state: str, track_count: int, input_real: Real) -> Snapshot:
    """The oracle-free start, shared by every run that has it."""
    return Snapshot(state, 0, (input_real,) + (ZERO_REAL,) * (track_count - 1),
                    ZERO_ORD)


def _step(s: Snapshot, p: Program, oracle=None, query_log=None):
    """One successor step; returns (snapshot, clamped-at-edge)."""
    if s.state == p.halt_state:
        raise StepFromHalt("cannot step from the halt state")
    if p.query_state is not None and s.state == p.query_state:
        if _oracle_kind(oracle) != "set":
            raise OracleProtocolError("query state entered without a set oracle")
        q = oracle.canonical_query(s.tracks[3])
        ans = oracle.contains(q)
        if query_log is not None:
            query_log.append(QueryRecord(s.stage, q, ans))
        nxt = p.yes_state if ans else p.no_state
        return Snapshot(nxt, s.head, s.tracks, successor(s.stage)), False
    read = tuple(t.bit(s.head) for t in s.tracks)
    rule = p.rules[(s.state, read)]
    tracks = list(s.tracks)
    for idx, bit in enumerate(rule.write):
        if idx == 3 and _oracle_kind(oracle) == "real":
            continue  # the oracle track is read-only
        if tracks[idx].bit(s.head) != bit:
            tracks[idx] = tracks[idx].with_bit(s.head, bit)
    head, clamped = s.head, False
    if rule.move == "R":
        head += 1
    elif rule.move == "L":
        if head == 0:
            clamped = True
        else:
            head -= 1
    return Snapshot(rule.next_state, head, tuple(tracks), successor(s.stage)), clamped


def step(s: Snapshot, p: Program, oracle=None, query_log=None) -> Snapshot:
    return _step(s, p, oracle, query_log)[0]


# the tracks whose bits a code sets, by code
_TRACKS = tuple(tuple([t for t in range(4) if code >> t & 1])
                for code in range(16))


def run_block(start: Snapshot, p: Program, budget: BudgetPolicy,
              oracle=None, query_log=None) -> BlockSummary:
    """Step from a block start until halt or an exact limit certificate."""
    if start.state == p.halt_state:
        return BlockSummary(_halt_at(0), start.tracks, None, (start,))
    kind = _oracle_kind(oracle)
    tracks = start.tracks
    n = len(tracks)
    # the tracks a write may flip, as a code: the oracle track is read-only
    writable = 7 if n == 3 or kind == "real" else 15
    by_code, rules = layout_by_code(p.rules.states, n), p.rules.rules
    halt_state, query_state = p.halt_state, p.query_state
    state, head = start.state, start.head
    # cur[t]: cells 0 .. width-1 of track t now, and a constant 0 for the
    # fourth track of a 3-track block; delta[t]: cells flipped since the
    # start; ups: (step, track, cell) for each cell turned to 1
    width = head + 64
    cur = [t.window(0, width) for t in tracks] + [0] * (4 - n)
    delta = [0] * n
    ups = []
    rows = [(state, head, *delta)]
    seen = {rows[0]: 0}
    # translation candidates: rows at strict head maxima with no edge clamp
    # since and the head never below them since, lowest first
    records = [0]
    max_head = head
    # key -> the last candidate with that key (see the module docstring),
    # made at the first new maximum
    index = None

    def union(j):
        """Per-track union of rows j .. now: row j's tracks plus each cell a
        later step turned to 1 that is 0 in row j."""
        on = [0] * len(tracks)
        for k, t, cell in reversed(ups):
            if k <= j:
                break
            on[t] |= 1 << cell
        return tuple([t.flipped(dj ^ o & ~(c ^ d ^ dj)) for t, c, d, dj, o in
                      zip(tracks, cur, delta, rows[j][2:], on)])

    def held(cert):
        """The block held under this block's key, or a new one ending in
        `cert`, held from now on.  A halt is keyed by its rows alone; a limit
        also by the program's limit state and the budget's depth."""
        body = (start, *rows[1:])
        key = body if type(cert) is HaltAt else (body, p.limit_state, budget.depth)
        block = _BLOCKS.get(key)
        if block is None:
            ever, lim = union(0), None
            if type(cert) is RepeatCert:
                lim = union(cert.mu)
            elif type(cert) is TranslationCert:
                h0, d = rows[cert.mu][1], cert.shift
                ever = tuple(or_real(w, shift_union(c, h0, d))
                             for w, c in zip(ever, union(cert.mu)))
                lim = tuple(t.flipped(dn).cycled(h0, d)
                            for t, dn in zip(tracks, delta))
            if lim is not None:
                lim = Snapshot(p.limit_state, 0, lim,
                               limit_step(start.stage, 1, budget.depth))
            block = _BLOCKS[key] = BlockSummary(cert, ever, lim, body)
        return block

    for i in range(1, budget.per_level_budget + 1):
        clamped = False
        if state == query_state:
            if kind != "set":
                raise OracleProtocolError("query state entered without a set oracle")
            q = oracle.canonical_query(tracks[3].flipped(delta[3]))
            ans = oracle.contains(q)
            if query_log is not None:
                query_log.append(QueryRecord(
                    cnf_add(start.stage, from_int(i - 1)), q, ans))
            state = p.yes_state if ans else p.no_state
        else:
            if head >= width:
                grow = head + 64
                cur[:n] = [c | t.window(width, grow) << width
                           for c, t in zip(cur, tracks)]
                width += grow
            code = (cur[0] >> head & 1 | (cur[1] >> head & 1) << 1
                    | (cur[2] >> head & 1) << 2 | (cur[3] >> head & 1) << 3)
            rule = rules[by_code[state][code]]
            flip = (code ^ rule.write_code) & writable
            if flip:
                m = 1 << head
                for t in _TRACKS[flip]:
                    cur[t] ^= m
                    delta[t] ^= m
                for t in _TRACKS[flip & ~code]:
                    ups.append((i, t, head))
            if rule.move == "R":
                head += 1
            elif rule.move == "L":
                if head == 0:
                    clamped = True
                else:
                    head -= 1
            state = rule.next_state
        row = (state, head, *delta)
        rows.append(row)
        if state == halt_state:
            return held(_halt_at(i))
        mu = seen.setdefault(row, i)
        if mu != i:
            return held(RepeatCert(mu, i - mu))
        if clamped:
            records.clear()
        while records and rows[records[-1]][1] > head:
            records.pop()
        if head > max_head:
            if index is None:   # records is [0] or [] here
                floors, periods = zip(*[t.prefix_and_period() for t in tracks])
                floor, period = max(floors), lcm(*periods)
                index = {}
                if records and start.head >= floor:
                    index[start.state, start.head % period] = 0
            if head >= floor:
                key = (state, head % period)
                j = index.get(key)
                if j is not None:
                    k = bisect_left(records, j)
                    if k < len(records) and records[k] == j:
                        return held(TranslationCert(j, i - j, head - rows[j][1]))
                index[key] = i
            records.append(i)
            max_head = head
    return BlockSummary(ExceededCert(budget.per_level_budget), union(0),
                        None, (start, *rows[1:]))


def verify_certificate(p: Program, start: Snapshot, cert, oracle=None) -> bool:
    """Re-check an emitted certificate against only the snapshots it cites.
    A certificate with a negative step count or start, or a period below 1,
    certifies nothing and is rejected."""
    if isinstance(cert, ExceededCert):
        return cert.steps >= 0
    if isinstance(cert, HaltAt):
        if cert.steps < 0:
            return False
        steps = cert.steps
    elif isinstance(cert, (RepeatCert, TranslationCert)):
        if cert.mu < 0 or cert.pi < 1:
            return False
        steps = cert.mu + cert.pi
    else:
        raise ValueError("unknown certificate %r" % (cert,))
    snaps = [start]
    heads = [start.head]
    clamps = set()
    for i in range(steps):
        if snaps[-1].state == p.halt_state:
            return isinstance(cert, HaltAt) and i == cert.steps
        nxt, clamped = _step(snaps[-1], p, oracle)
        if clamped:
            clamps.add(i)
        snaps.append(nxt)
        heads.append(nxt.head)
    if isinstance(cert, HaltAt):
        return snaps[-1].state == p.halt_state and \
            all(s.state != p.halt_state for s in snaps[:-1])
    a, b = snaps[cert.mu], snaps[cert.mu + cert.pi]
    if isinstance(cert, RepeatCert):
        return a.key() == b.key()
    d = cert.shift                      # a TranslationCert
    h0 = heads[cert.mu]
    return (a.state == b.state
            and b.head - a.head == d and d >= 1
            and min(heads[cert.mu: cert.mu + cert.pi + 1]) >= h0
            and not any(t in clamps for t in range(cert.mu, cert.mu + cert.pi))
            and all(b.tracks[t].suffix(h0 + d) == a.tracks[t].suffix(h0)
                    for t in range(p.track_count)))


def _halt_output(block: BlockSummary) -> Real:
    """The output track of a halting block's last row, without building its
    snapshot; the block's ever-one Real itself when the two are equal."""
    ever, out = block.ever_one[2], block.start.tracks[2]
    if block.certificate.steps:
        out = out.flipped(block.rows[-1][4])
    return ever if out == ever else out


def slots_read(res: RunResult, limit: int) -> list | None:
    """The (state, read) slots a run without the query protocol read, in
    first-read order, or None when its blocks hold more than `limit` rows.
    Step k of a block reads row k-1: its state, and under its head each
    start track with the row's delta flipped, read from one int window per
    track.  A block's last row is never read within it: it halts, repeats a
    row read before, or becomes the next block's start.  A run cut by an
    ordinal overflow gives None too: the overflow can come while a block
    builds its limit, and the result does not hold that block, though the
    run read its slots."""
    if (res.reason == "ordinal-overflow"
            or sum([len(block.rows) for block in res.blocks]) > limit):
        return None
    order = {}
    for block in res.blocks:
        rows = block.rows
        if len(rows) == 1:
            continue
        start = rows[0]
        head = start.head
        cur = [t.window(0, head + len(rows)) for t in start.tracks]
        order[start.state, tuple([c >> head & 1 for c in cur])] = None
        for state, head, *deltas in rows[1:-1]:
            order[state, tuple([(c ^ d) >> head & 1
                                for c, d in zip(cur, deltas)])] = None
    return list(order)


def cells_read(res: RunResult) -> int:
    """How many cells from 0 a one-block run read: one past its highest head."""
    (block,) = res.blocks
    return 1 + max([block.start.head] + [row[1] for row in block.rows[1:]])


def _halted(blocks: list, limits: tuple) -> RunResult:
    """The result of a run whose last block halts.  A one-block halt's result
    is held through its block (see the module docstring)."""
    block = blocks[-1]
    one = len(blocks) == 1
    res = block._result() if one and block._result is not None else None
    if res is None:
        res = RunResult("halted", tuple(blocks), limits,
                        time=cnf_add(block.start.stage,
                                     from_int(block.certificate.steps)),
                        output=_halt_output(block))
        if one:
            object.__setattr__(block, "_result", weakref.ref(res))
    return res


def run_transfinite(p: Program, input_real: Real = ZERO_REAL,
                    budget: BudgetPolicy = DEFAULT_BUDGET,
                    oracle=None, query_log=None) -> RunResult:
    blocks = []
    limits = ()     # shared and empty until a level-2 limit
    registry = {}   # limit snapshot key -> (stage, number of blocks before it)
    n_tracks = p.track_count

    def check_loops(snap: Snapshot) -> LoopCert | None:
        # an older entry with the same key failed the check when this one
        # was registered, and the blocks since it only grow, so it fails now
        hit = registry.get(snap.key())
        if hit is None:
            return None
        first, n = hit
        for t in range(n_tracks):
            ever = or_all(b.ever_one[t] for b in blocks[n:])
            if not and_not(ever, snap.tracks[t]).is_zero():
                return None
        return LoopCert(first, snap.stage)

    # frames[k] for a level k >= 2 in progress: (origin snapshot, sub-block
    # start key -> index, ever-one sets).  A frame is made when its level
    # first receives a limit; its origin is where the run below it started.
    frames = {}
    cur = initial_snapshot(p, input_real, oracle)
    try:
        while True:
            summary = run_block(cur, p, budget, oracle, query_log)
            blocks.append(summary)
            cert = summary.certificate
            if isinstance(cert, HaltAt):
                return _halted(blocks, limits)
            if isinstance(cert, ExceededCert):
                return RunResult("exceeded", tuple(blocks), limits,
                                 reason="budget")
            lim, ever, level, origin = summary.limit, summary.ever_one, 1, cur
            while True:   # hand the level-`level` limit up
                loop = check_loops(lim)
                if loop is not None:
                    return RunResult("loops", tuple(blocks), limits, lim,
                                     loop=loop)
                key = lim.key()
                registry[key] = (lim.stage, len(blocks))
                if level > 1:
                    limits += ((level, lim),)
                if level + 1 not in frames:
                    frames[level + 1] = (origin, {origin.key(): 0}, [])
                origin, starts, evers = frames[level + 1]
                evers.append(ever)
                if key not in starts:
                    if len(evers) == budget.per_level_budget:
                        return RunResult("exceeded", tuple(blocks), limits,
                                         reason="budget")
                    starts[key] = len(evers)
                    break
                i = starts[key]
                del frames[level + 1]
                level += 1
                stage = limit_step(origin.stage, level, budget.depth)
                lim = Snapshot(p.limit_state, 0, tuple(
                    or_all(e[t] for e in evers[i:]) for t in range(n_tracks)), stage)
                ever = tuple(or_all(e[t] for e in evers) for t in range(n_tracks))
            cur = lim
    except BudgetOrdinalOverflow:
        return RunResult("exceeded", tuple(blocks), limits,
                         reason="ordinal-overflow")
