"""Approximation machinery over exact transfinite runs.

Everything here replays certified traces rather than re-deriving semantics:
the universal dovetailer logs each new distinct track content with the exact
stage it first appears; stabilization search walks a run once, reading one
cell or track at each snapshot and off each block's certificate, and answers
where it settles; the halting-set approximation stream is the exact sequence
of budgeted halting events; and the iterated-jump matrix replays the
transfinite-injury procedure event by event, erasing higher rows whenever a
lower row improves.

Translation-certified blocks need care: the wake keeps producing fresh track
contents below the block's limit, either forever (each cycle extends the
content) or not at all (the cycle is absorbed by the periodic background).
One cycle comparison decides which.  A track's wake is a function of its key
(`_wake_key`): the limit track, head, shift and window.  The dovetail walks
no tail step by step.  Each snapshot a run covers offers its tracks as
candidates for a real's first appearance, an absorbed tail repeats its
window and offers nothing new, and each distinct wake is built once from its
key and offered once, from its least reader.  So the log is exact up to the
appearance cap, truncation is always flagged with the first stage the log no
longer covers, and only the first appearances are sorted.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from .machine import Program
from .ordinal import (Ordinal, ZERO as ZERO_ORD, OMEGA, cnf_add,
                      element_of, from_int, pair_index, successor)
from .oracle import RealOracle
from .reals import Real, ZERO as ZERO_REAL, _real, from_support
from .runner import (BlockSummary, BudgetPolicy, DEFAULT_BUDGET, RepeatCert,
                     RunResult, TranslationCert, run_transfinite)


class TruncatedLog(Exception):
    """The appearance log does not cover the requested stage range."""


def _digest(r: Real) -> str:
    return hashlib.sha256(r.render().encode()).hexdigest()[:12]


# --- the translation wake --------------------------------------------------

def _wake_key(block: BlockSummary, t: int) -> tuple:
    """Everything of a translation block the wake of track t depends on: the
    limit track, the mu head position h0, the shift and the window suffixes
    from h0.  The wake functions read only this key, so blocks and tracks
    with equal keys have equal wakes, whatever their mu."""
    cert = block.certificate
    h0 = block.explicit[cert.mu].head
    return (block.limit.tracks[t], h0, cert.shift,
            tuple(block.explicit[cert.mu + i].tracks[t].suffix(h0)
                  for i in range(cert.pi)))


def _wake(key: tuple, k: int, i: int) -> Real:
    """The track at relative step mu + k*pi + i (k >= 1, 0 <= i < pi) of a
    translation block: the window snapshot at mu + i moved k*shift cells
    right from its mu head position on, with the limit's frozen cells
    below."""
    limit, h0, shift, window = key
    return limit.splice(h0 + k * shift, window[i])


def _absorbed(block: BlockSummary, key: tuple, t: int) -> bool:
    """Whether track t, of wake key `key`, is stationary past a translation
    block's window: the first wake cycle equals the window, and then so does
    every later one.  Otherwise every cycle changes the track."""
    mu = block.certificate.mu
    return all(_wake(key, 1, i) == block.explicit[mu + i].tracks[t]
               for i in range(block.certificate.pi))


def _wake_list(key: tuple, cap: int) -> list[Real]:
    """The track at the `cap` relative steps past a translation block's
    window: entry j is `_wake(key, k, i)` with k*pi + i = pi + 1 + j."""
    pi = len(key[3])
    return [_wake(key, *divmod(pi + 1 + j, pi)) for j in range(cap)]


# --- the universal dovetailer ----------------------------------------------

@dataclass(frozen=True)
class Appearance:
    stage: Ordinal
    program: int
    track: int
    real: Real
    digest: str


@dataclass(frozen=True)
class AppearanceLog:
    records: list[Appearance]        # in stage order
    complete_below: Ordinal | None   # None: covers every stage it claims

    @property
    def truncated(self) -> bool:
        return self.complete_below is not None

    def segment(self, upto_stage: Ordinal) -> list[Real]:
        """Distinct reals first appearing below upto_stage, in appearance
        order; refuses when truncation may hide earlier appearances."""
        if self.complete_below is not None and self.complete_below < upto_stage:
            raise TruncatedLog(
                "appearance log complete below %s only, need %s"
                % (self.complete_below.render(), upto_stage.render()))
        end = bisect_left(self.records, upto_stage, key=attrgetter("stage"))
        return [rec.real for rec in self.records[:end]]


def _exceeded_cut(res: RunResult) -> Ordinal:
    """The first stage an exceeded run does not cover.  Every block but an
    exceeded last one is certified, so the stages through the last block
    limit, or the last snapshot of a block without one, are covered and
    nothing later."""
    if not res.blocks:
        return ZERO_ORD
    last = res.blocks[-1]
    if last.limit is not None:
        return successor(last.limit.stage)
    return cnf_add(last.start.stage, from_int(len(last.rows)))


def universal_run(results: list[RunResult], budget: BudgetPolicy) -> AppearanceLog:
    """Dovetail the runs of every program on input all-zero, one step per
    master stage, logging each new distinct track content at its first
    appearance: its least (stage, program, track).

    Every explicit snapshot, block limit and final limit a run covers offers
    each of its tracks as a candidate, and a kept candidate gives way only
    to a smaller one.  The stages left are the tails of translation blocks,
    the relative steps mu+pi+1+j past the window, and they need no walk:

    * An absorbed track's value at mu+pi+1+j is the window's, that of
      explicit[mu + (j+1) % pi], which the same program and track offered at
      a smaller stage.  It never wins, so it is not offered.
    * A moving track's tail is the block's wake list (`_wake_list`), entry j
      at stage start + (mu+pi+1+j).  Coverage ends there: the run covers
      nothing from start + (mu+pi+1+cap) on, its horizon, so neither the
      block limit nor a later block is offered.
    * Many blocks and tracks read one wake: the wake functions read only
      its `_wake_key`, so equal keys have equal wakes.  Every block start is
      0 or a limit, so for finite n and n', start + n < start' + n' iff
      (start, n) < (start', n').  Among the readers of one wake, the least
      (start, mu+pi+1, program, track) is therefore the least candidate for
      every entry at once, and each distinct wake's `cap` entries are
      offered once, from its least reader, after every run has been read.

    Keys compare as (stage terms, program, track), since an ordinal's Cantor
    normal form terms order it.  While the runs are read, the runs come in
    program order and a run's candidates in stage order, so a candidate wins
    only at a strictly smaller stage.  A result met again (a shared
    one-block halt) is skipped: its candidates, at the same stages from a
    later program, never win, and its horizon is listed already."""
    cap = budget.appearance_cap
    first: dict[Real, tuple] = {}    # real -> (stage terms, program, track, stage)
    readers: dict[tuple, tuple] = {}   # wake key -> least reader, its start
    horizons = []
    read = set()
    for pid, res in enumerate(results):
        if id(res) in read:
            continue
        read.add(id(res))
        snaps = []
        horizon = None
        for block in res.blocks:
            snaps.extend(block.explicit)
            cert = block.certificate
            if isinstance(cert, TranslationCert):
                keys = [_wake_key(block, t)
                        for t in range(len(block.limit.tracks))]
                moving = [(t, key) for t, key in enumerate(keys)
                          if not _absorbed(block, key, t)]
                if moving:
                    start = block.start.stage
                    offset = cert.mu + cert.pi + 1
                    for t, key in moving:
                        reader = (start.terms, offset, pid, t)
                        if key not in readers or reader < readers[key][0]:
                            readers[key] = (reader, start)
                    horizon = cnf_add(start, from_int(offset + cap))
                    break
            if block.limit is not None:
                snaps.append(block.limit)
        else:
            if res.final_limit is not None:
                snaps.append(res.final_limit)
            if res.outcome == "exceeded":
                horizon = _exceeded_cut(res)
        for snap in snaps:
            terms = snap.stage.terms
            for t, real in enumerate(snap.tracks):
                seen = first.get(real)
                if seen is None or terms < seen[0]:
                    first[real] = (terms, pid, t, snap.stage)
        if horizon is not None:
            horizons.append(horizon)
    for key, ((_terms, offset, pid, t), start) in readers.items():
        for j, real in enumerate(_wake_list(key, cap)):
            stage = cnf_add(start, from_int(offset + j))
            candidate = (stage.terms, pid, t, stage)
            seen = first.get(real)
            if seen is None or candidate < seen:
                first[real] = candidate
    order = sorted(first.items(), key=lambda e: e[1])
    records = [Appearance(stage, pid, t, real, _digest(real))
               for real, (_terms, pid, t, stage) in order[:cap]]
    if len(order) > cap:
        horizons.append(order[cap][1][3])
    return AppearanceLog(records, min(horizons) if horizons else None)


class Diagonal:
    """The diagonal of a list of distinct reals, kept as the list changes.

    `position` maps each listed real to its index k, and bit k of `word` is
    1 - (k-th real).bit(k), so the diagonal differs from every listed real.
    Adding a real already listed changes nothing, and replacing a listed real
    by an unlisted one in place moves at most one bit."""

    __slots__ = ("position", "word")

    def __init__(self, reals=()):
        self.position: dict[Real, int] = {}
        self.word = 0
        for r in reals:
            self.add(r)

    def __contains__(self, r: Real) -> bool:
        return r in self.position

    def __len__(self) -> int:
        return len(self.position)

    def add(self, r: Real) -> None:
        """List r last, unless it is listed already."""
        if r not in self.position:
            k = self.position[r] = len(self.position)
            self.word |= (1 - r.bit(k)) << k

    def replace(self, old: Real, new: Real) -> None:
        """List the unlisted real `new` at the index of `old`."""
        if new in self.position:   # raised, not asserted, so `python -O` keeps it
            raise AssertionError("the replacement is listed already")
        k = self.position[new] = self.position.pop(old)
        self.word ^= (old.bit(k) ^ new.bit(k)) << k

    def real(self) -> Real:
        """The diagonal itself, with a zero tail.  It is fresh: it differs
        from the k-th listed real at bit k, so it equals none of them.  This
        is checked on every call, and a listed diagonal raises rather than
        asserts, so `python -O` keeps the check."""
        out = ZERO_REAL.flipped(self.word)
        if out in self.position:
            raise AssertionError("the diagonal equals a listed real")
        return out


def diagonal_against(reals) -> Real:
    """A real differing from the k-th distinct listed real at bit k, zero
    tail."""
    return Diagonal(reals).real()


def diagonalize_appearances(log: AppearanceLog, upto_stage: Ordinal) -> Real:
    """A real provably absent from every tape below upto_stage."""
    return diagonal_against(log.segment(upto_stage))


# --- stabilization and eventual writing ------------------------------------

def _stability(res: RunResult, read, wake_changes) -> tuple:
    """(status, stage, value) of one value read off a run's track tuples, in
    one walk over the run.

    An exceeded run answers "exceeded" unread.  Otherwise the value is read
    at each explicit snapshot, at the (relative step, value) changes that
    `wake_changes(block)` gives past a translation block's window, at each
    block limit and at the final limit.  A block whose certified cycle
    changes the value cofinally below its limit (a repeat cycle holding two
    values, or a translation whose `wake_changes` is None) leaves no value
    from its start on, so its limit's read is a change.  A loop's value is
    unstable when it changes strictly between the loop's two stages, as it
    does in the explicit snapshots of every cofinal block from the first
    stage on: a repeat cycle holds two values, and a moving track is not
    constant over explicit[mu .. mu+pi], or its first wake cycle would equal
    the window.  Otherwise it is stable at the stage and value of its last
    change."""
    if res.outcome == "exceeded":
        return ("exceeded", None, None)
    loop = res.loop   # None unless the run loops
    reads = []
    for block in res.blocks:
        base, cert = block.start.stage, block.certificate
        reads += [(s.stage, read(s.tracks)) for s in block.explicit]
        changes = []
        if isinstance(cert, TranslationCert):
            changes = wake_changes(block)
        elif isinstance(cert, RepeatCert):
            cycle = block.explicit[cert.mu: cert.mu + cert.pi]
            if len({read(s.tracks) for s in cycle}) > 1:
                changes = None
        if changes is None:
            reads.append((base, None))
        else:
            reads += [(cnf_add(base, from_int(rel)), v) for rel, v in changes]
        if block.limit is not None:
            reads.append((block.limit.stage, read(block.limit.tracks)))
    if res.final_limit is not None:
        reads.append((res.final_limit.stage, read(res.final_limit.tracks)))
    stage, value = ZERO_ORD, None
    for at, v in reads:
        if v != value:
            if loop is not None and loop.first < at < loop.second:
                return ("unstable", None, None)
            stage, value = at, v
    return ("stable", stage, value)


@dataclass(frozen=True)
class Stabilization:
    status: str                 # "stable" | "unstable" | "exceeded"
    stage: Ordinal | None
    value: int | None


def stabilization_stage(p: Program, cell: tuple[int, int],
                        budget: BudgetPolicy = DEFAULT_BUDGET) -> Stabilization:
    """Least stage from which the cell's value, on input 0, is constant
    through the certified horizon, or a proof of cofinal oscillation."""
    track, index = cell
    def wake_changes(block):
        # the cell freezes at its limit value once the head range passes
        # it, which takes at most index // shift + 1 cycles past the window
        cert = block.certificate
        key = _wake_key(block, track)
        return [(cert.mu + k * cert.pi + i, _wake(key, k, i).bit(index))
                for k in range(1, index // cert.shift + 2)
                for i in range(cert.pi) if k > 1 or i > 0]
    res = run_transfinite(p, ZERO_REAL, budget)
    return Stabilization(*_stability(
        res, lambda tracks: tracks[track].bit(index), wake_changes))


@dataclass(frozen=True)
class EventuallyWritten:
    status: str                 # "stable" | "unstable" | "exceeded"
    real: Real | None
    stage: Ordinal | None


def eventually_written(p: Program, budget: BudgetPolicy = DEFAULT_BUDGET
                       ) -> EventuallyWritten:
    """Output-track content if it is constant from some certified stage on."""
    res = run_transfinite(p, ZERO_REAL, budget)
    status, stage, value = _stability(
        res, lambda tracks: tracks[2],
        lambda block: [] if _absorbed(block, _wake_key(block, 2), 2) else None)
    if status != "stable":
        return EventuallyWritten(status, None, None)
    return EventuallyWritten("stable", value if value is not None else ZERO_REAL,
                             stage)


# --- the halting-set approximation stream ----------------------------------

@dataclass(frozen=True)
class ApproximationStream:
    events: tuple[tuple[Ordinal, int], ...]
    exceeded: frozenset[int]
    diverges: frozenset[int]

    def snapshot_at(self, sigma: Ordinal) -> frozenset[int]:
        """Programs halted by stage sigma."""
        return frozenset(p for st, p in self.events if st <= sigma)

    def snapshots(self) -> list[tuple[Ordinal, frozenset[int]]]:
        out = []
        acc: set[int] = set()
        for st, p in self.events:
            acc.add(p)
            out.append((st, frozenset(acc)))
        return out

    def final(self) -> frozenset[int]:
        return frozenset(p for _st, p in self.events)

    def final_real(self) -> Real:
        return from_support(self.final())


def approximate_jump(results: list[RunResult]) -> ApproximationStream:
    """Exact event stream of budgeted halts, ordered by (stage, program).

    Bookkeeping is kept separate from jump_lightface so that agreement of
    the stream's final set with the jump is a real cross-check."""
    pending = []
    exceeded, diverges = set(), set()
    for pid, res in enumerate(results):
        if res.outcome == "halted":
            pending.append((res.time, pid))
        elif res.outcome == "loops":
            diverges.add(pid)
        else:
            exceeded.add(pid)
    events = tuple(sorted(pending))
    return ApproximationStream(events, frozenset(exceeded), frozenset(diverges))


# --- the iterated-jump injury matrix ----------------------------------------

@dataclass(frozen=True)
class ErasureEntry:
    stage: Ordinal
    rank: Ordinal
    cause: str          # always "lower-row-change"


@dataclass(frozen=True)
class ChangeEntry:
    stage: Ordinal
    rank: Ordinal
    program: int


@dataclass
class JumpMatrix:
    ranks: tuple[Ordinal, ...]
    rows: dict[Ordinal, Real]
    change_log: tuple[ChangeEntry, ...]
    erasure_log: tuple[ErasureEntry, ...]
    stabilization: dict[Ordinal, Ordinal]
    partial_reasons: tuple[str, ...]
    bound: int

    @property
    def partial(self) -> bool:
        return bool(self.partial_reasons)

    def limit_ranks(self):
        return [r for r in self.ranks if r.is_limit()]

    def successor_pairs(self):
        """(rank, rank+1) pairs with both rows materialized."""
        pairs = []
        have = set(self.ranks)
        for r in self.ranks:
            if successor(r) in have:
                pairs.append((r, successor(r)))
        return pairs


def materialized_ranks(alpha: Ordinal, cap: int) -> tuple[list[Ordinal], bool]:
    """Ascending ranks below alpha the desk construction materializes:
    each omega-run of successors is cut at `cap`.  Second result says
    whether ranks were omitted."""
    ranks: list[Ordinal] = []
    partial = False
    base = ZERO_ORD
    while base < alpha and len(ranks) < cap * cap:
        n = 0
        while n < cap:
            r = cnf_add(base, from_int(n))
            if not (r < alpha):
                break
            ranks.append(r)
            n += 1
        if n == cap and cnf_add(base, from_int(n)) < alpha:
            partial = True
        base = cnf_add(base, OMEGA)
    if base < alpha:
        partial = True
    return ranks, partial


# Bits a limit row may span.  A limit row pair-codes every row below it, the
# lower limit rows too, so widths compound up the order (row w*4 of w*5 would
# span about 75 million bits); a wider join stops the replay.
LIMIT_ROW_CAP = 1 << 24

DEFAULT_ROW_CAP = 8   # successor ranks materialized per omega-run


def join_size(rows: dict[Ordinal, Real], lam: Ordinal) -> int:
    """Bits `join_rows(rows, lam)` spans, computed without building it."""
    size = 0
    for beta, row in rows.items():
        bound = row.support_bound()
        if beta < lam and bound:
            size = max(size, pair_index(element_of(beta), bound - 1) + 1)
    return size


def _pair_code(beta: Ordinal, row: Real) -> int:
    """The row of rank beta as the bits it sets in a limit row above it: bit
    <n, m> for each 1-bit m of the row, n the position of beta."""
    bound = row.support_bound()
    if bound is None:
        raise ValueError("matrix rows must have finite support")
    if not bound:
        return 0
    n = element_of(beta)
    buf = bytearray((pair_index(n, bound - 1) >> 3) + 1)
    text = bin(row.window(0, bound))[:1:-1]   # bit m is text[m]
    m = text.find("1")
    while m >= 0:
        i = pair_index(n, m)
        buf[i >> 3] |= 1 << (i & 7)
        m = text.find("1", m + 1)
    return int.from_bytes(buf, "little")


def _join_codes(codes) -> Real:
    """The finite-support real whose 1-bits are those of the given codes."""
    word = 0
    for code in sorted(codes, key=int.bit_length):   # each OR copies the wider
        word |= code
    return _real(word, word.bit_length(), 0, 1)


def join_rows(rows: dict[Ordinal, Real], lam: Ordinal) -> Real:
    """The organized sum of the rows below a limit rank: bit <n, m> is on
    iff element n has a materialized rank below lam whose row has bit m."""
    return _join_codes(_pair_code(beta, row) for beta, row in rows.items()
                       if beta < lam)


def _halt_events(programs, budget: BudgetPolicy, row: Real,
                 halts: list[list]) -> tuple[tuple[Ordinal, int], ...]:
    """The events of `approximate_jump` for the programs run against the
    real oracle `row`: (time, program) for each halt, in that order.
    halts[pid] lists (cells, bits, time) for the one-block halts of program
    pid seen so far: the run read only oracle cells 0 .. cells-1, which held
    `bits`.  A row that agrees with an entry on those cells takes its time
    without a run (see `iterated_matrix`)."""
    oracle = RealOracle(row)
    events = []
    for pid, (p, seen) in enumerate(zip(programs, halts)):
        time = next((t for cells, bits, t in seen
                     if row.window(0, cells) == bits), None)
        if time is None:
            res = run_transfinite(p, ZERO_REAL, budget, oracle)
            if res.outcome != "halted":
                continue
            time = res.time
            if len(res.blocks) == 1:
                block = res.blocks[0]
                cells = 1 + max([block.start.head] +
                                [r[1] for r in block.rows[1:]])
                seen.append((cells, row.window(0, cells), time))
        events.append((time, pid))
    return tuple(sorted(events))


def iterated_matrix(alpha: Ordinal, programs, budget: BudgetPolicy = DEFAULT_BUDGET,
                    row_cap: int = DEFAULT_ROW_CAP) -> JumpMatrix:
    """Replay the transfinite-injury approximation of the iterated jump
    along the order alpha itself: no bits of a code for it are read.

    All rows run simultaneously against the current approximation below
    them; a new halt in row r updates that row at its exact stage and erases
    every materialized row above r, whose approximations restart against the
    updated lower rows.  Event ties break by (stage, rank, program).  A limit
    row wider than LIMIT_ROW_CAP bits stops the replay, and the matrix keeps
    only the ranks below it.

    Each program runs once per distinct set of oracle cells it reads.  The
    rows differ mostly in cells the programs never reach, so a one-block
    halt is kept as (cells read, their bits, time), and a later row that
    agrees on those cells takes the time without a run (`_halt_events`).
    This is exact.  A real oracle's track is read-only, and the start head
    and the input are fixed, so two rows that agree on the cells under the
    head step through identical rows, and a repeat found under one is found
    under the other.  The one place a block reads the oracle row beyond the
    head is its translation-candidate index, built from `prefix_and_period`
    of every track.  That index only ever emits a sound `TranslationCert`,
    one under which the run never halts.  So a run that halts at step n
    under one row had no certificate before n under either row, and halts at
    n under both.  The argument covers halts only: an exceeded, repeat,
    translation or multi-block run can depend on the whole row, so it is
    never kept, and `approximate_jump` reads nothing of a run but its
    outcome and time.  Events are also kept per whole row, for the rows met
    again after an erasure.

    A limit row is the OR of the pair codes of the rows below it
    (`join_rows`).  Each rank's code is made once per change of its row, on
    the first join that needs it, so a join re-codes only the rows changed
    since the last one.
    """
    progs = list(programs)
    ranks, partial = materialized_ranks(alpha, row_cap)
    reasons = ["ranks-omitted"] if partial else []
    rows: dict[Ordinal, Real] = {r: ZERO_REAL for r in ranks}
    change_log: list[ChangeEntry] = []
    erasure_log: list[ErasureEntry] = []
    stabilization: dict[Ordinal, Ordinal] = {r: ZERO_ORD for r in ranks}

    halts: list[list] = [[] for _ in progs]
    jump_cache: dict[Real, tuple[tuple[Ordinal, int], ...]] = {}
    def jump_events(oracle_real: Real):
        if oracle_real not in jump_cache:
            jump_cache[oracle_real] = _halt_events(progs, budget,
                                                   oracle_real, halts)
        return jump_cache[oracle_real]

    codes: dict[Ordinal, int] = {}   # rank -> pair code of its current row
    def set_row(q: Ordinal, row: Real):
        rows[q] = row
        codes.pop(q, None)

    def code(beta: Ordinal) -> int:
        if beta not in codes:
            codes[beta] = _pair_code(beta, rows[beta])
        return codes[beta]

    # the successor ranks run on from 0 or a limit, so a successor rank's
    # predecessor is the rank listed before it.  nexts[i] is the next event
    # of the rank at position i, kept while it has one: (stage terms, i,
    # program, stage, start, events, index of the event).  Positions are
    # unique and ascend with the ranks, and terms order stages, so the least
    # entry is the least (stage, rank, program)
    nexts: dict[int, tuple] = {}
    def schedule(i: int, start: Ordinal, events, idx: int = 0):
        if idx < len(events):
            t, pid = events[idx]
            stage = cnf_add(start, t)
            nexts[i] = (stage.terms, i, pid, stage, start, events, idx)
        else:
            nexts.pop(i, None)

    for i, r in enumerate(ranks):
        if r.is_successor():
            schedule(i, ZERO_ORD, jump_events(rows[ranks[i - 1]]))

    processed = 0
    while processed < budget.per_level_budget:
        if not nexts:
            break
        _terms, pos, pid, stage, start, events, idx = min(nexts.values())
        schedule(pos, start, events, idx + 1)
        rank = ranks[pos]
        set_row(rank, rows[rank].with_bit(pid, 1))
        change_log.append(ChangeEntry(stage, rank, pid))
        stabilization[rank] = stage
        # erase upwards: each limit row joins only rows below it, which are
        # final by the time it is reached; limit rows below rank keep theirs
        cut = None
        for i in range(pos + 1, len(ranks)):
            q = ranks[i]
            if q.is_limit():
                if join_size(rows, q) > LIMIT_ROW_CAP:
                    cut = i
                    break
                set_row(q, _join_codes(code(beta) for beta in ranks[:i]))
            else:
                set_row(q, ZERO_REAL)
                schedule(i, stage, jump_events(rows[ranks[i - 1]]))
            erasure_log.append(ErasureEntry(stage, q, "lower-row-change"))
            stabilization[q] = stage
        if cut is not None:
            reasons.append("limit-row-too-large")
            del ranks[cut:]
            break
        processed += 1
    else:
        reasons.append("event-budget")

    return JumpMatrix(tuple(ranks), {r: rows[r] for r in ranks},
                      tuple(change_log), tuple(erasure_log),
                      {r: stabilization[r] for r in ranks},
                      tuple(reasons), len(progs))


def validate_erasures(matrix: JumpMatrix) -> list[str]:
    """Justify every erasure entry from the logs alone: a row is erased only
    at a stage where a lower row changes.  The other rule, erasure at a limit
    of earlier erasures, never fires: a finite erasure log has a maximum
    below any stage."""
    problems = []
    lowest = {}    # change stage -> lowest rank changed at it
    for ch in matrix.change_log:
        if ch.stage not in lowest or ch.rank < lowest[ch.stage]:
            lowest[ch.stage] = ch.rank
    for k, entry in enumerate(matrix.erasure_log):
        if entry.cause != "lower-row-change":
            problems.append("erasure %d has unknown cause %r" % (k, entry.cause))
        elif not (entry.stage in lowest and lowest[entry.stage] < entry.rank):
            problems.append("erasure %d at %s lacks a same-stage lower-row change"
                            % (k, entry.stage.render()))
    return problems
