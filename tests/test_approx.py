import hashlib
import itertools

import pytest

from conftest import (looper, nonzero_halter, oracle_bit_halter,
                      random_tables, total_program, zero_halter)

from ittm.approx import (Diagonal, TruncatedLog, approximate_jump,
                         diagonal_against, iterated_matrix, join_rows,
                         materialized_ranks, universal_run, validate_erasures,
                         ErasureEntry)
from ittm.machine import Rule, extend_to_oracle_tracks, p_flip, p_halt, p_sweep
from ittm.oracle import RealOracle, run_programs
from ittm.ordinal import (OMEGA, ZERO as ZERO_ORD, cnf_add, element_of,
                          from_int, pair_index, parse_ordinal, successor)
from ittm.reals import ZERO as ZERO_REAL, Real, from_support, parse_real
from ittm.runner import (BudgetPolicy, ExceededCert, RepeatCert, TranslationCert,
                         run_transfinite)

B = BudgetPolicy(3, 64, 256)


# --- universal dovetailer ----------------------------------------------------

def test_universal_run_single_halter():
    log = universal_run(run_programs([p_halt()], B), B)
    hits = [(a.stage, a.track, a.real) for a in log.records]
    assert (from_int(1), 2, parse_real("1(0)*")) in hits
    assert not log.truncated and log.complete_below is None


def test_universal_run_empty():
    log = universal_run(run_programs([], B), B)
    assert log.records == [] and not log.truncated


def test_universal_run_flip_and_halt():
    log = universal_run(run_programs([p_halt(), p_flip()], B), B)
    scratch_one = [a for a in log.records if a.real == parse_real("1(0)*")]
    assert scratch_one and scratch_one[0].stage == from_int(1)
    again = universal_run(run_programs([p_halt(), p_flip()], B), B)
    assert [(a.stage, a.program, a.track, a.real) for a in log.records] == \
        [(a.stage, a.program, a.track, a.real) for a in again.records]
    assert log.complete_below is None    # halt + loop are both complete


def test_universal_run_sweeper_truncates():
    budget = BudgetPolicy(3, 64, 24)
    log = universal_run(run_programs([p_sweep()], budget), budget)
    assert log.truncated
    assert log.complete_below is not None
    assert len(log.records) <= 24


def test_first_appearance_order_is_by_stage():
    log = universal_run(run_programs([nonzero_halter(2), p_halt()], B), B)
    stages = [a.stage for a in log.records]
    assert stages == sorted(stages)


def dipping_drifter():
    """Walks right two cells, then repeats write-R, write-R, write-L, R:
    a translation with mu > 0, period 4 and shift 2 whose head dips inside
    the window, leaving a wake on all three tracks that grows each cycle."""
    overrides = {}
    for read in itertools.product((0, 1), repeat=3):
        i, s, o = read
        overrides[("start", read)] = Rule(read, "R", "a")
        overrides[("a", read)] = Rule(read, "R", "w1")
        overrides[("w1", read)] = Rule((i, 1, o), "R", "w2")
        overrides[("w2", read)] = Rule((i, s, 1), "R", "w3")
        overrides[("w3", read)] = Rule((1, s, o), "L", "w4")
        overrides[("w4", read)] = Rule(read, "R", "w1")
    return total_program(3, overrides)


def test_translation_wake_matches_stepping():
    from ittm.approx import _wake, _wake_key
    from ittm.oracle import enumeration_slice
    from ittm.runner import TranslationCert, initial_snapshot, run_block, step
    absorbed = enumeration_slice(52, 2, 3)[51]
    for p in (p_sweep(), dipping_drifter(), absorbed):
        blk = run_block(initial_snapshot(p), p, B)
        cert = blk.certificate
        assert isinstance(cert, TranslationCert)
        trail = [initial_snapshot(p)]
        for _ in range(cert.mu + 9 * cert.pi):
            trail.append(step(trail[-1], p))
        for k in range(1, 9):
            for i in range(cert.pi):
                tracks = trail[cert.mu + k * cert.pi + i].tracks
                for t, track in enumerate(tracks):
                    assert _wake(_wake_key(blk, t), k, i) == track
    cert = run_block(initial_snapshot(dipping_drifter()), dipping_drifter(),
                     B).certificate
    assert cert.mu > 0 and cert.pi == 4 and cert.shift == 2


def reference_wake(block, k, i):
    """All tracks at relative step mu + k*pi + i of a translation block, read
    off the block itself rather than a wake key: the reference walks' wake."""
    cert = block.certificate
    h0 = block.explicit[cert.mu].head
    return tuple(lim.splice(h0 + k * cert.shift, cur.suffix(h0))
                 for lim, cur in zip(block.limit.tracks,
                                     block.explicit[cert.mu + i].tracks))


def reference_translation_tail(block, cap):
    mu, pi = block.certificate.mu, block.certificate.pi
    if all(reference_wake(block, 1, i) == block.explicit[mu + i].tracks
           for i in range(pi)):
        return
    emitted = 0
    k = 1
    while True:
        for i in range(pi):
            rel = mu + k * pi + i
            if rel <= mu + pi:
                continue
            if emitted >= cap:
                yield (rel, None)
                return
            yield (rel, reference_wake(block, k, i))
            emitted += 1
        k += 1


def reference_content_events(res, cap):
    """The content stream's own walk over the blocks, kept to check the
    history walker against.  It needs at least one block."""
    events = []
    horizon = None
    last = {}
    def emit(stage, tracks):
        for t, content in enumerate(tracks):
            if last.get(t) != content:
                last[t] = content
                events.append((stage, t, content))
    for block in res.blocks:
        base = block.start.stage
        for snap in block.explicit:
            emit(snap.stage, snap.tracks)
        cert = block.certificate
        if isinstance(cert, ExceededCert):
            horizon = cnf_add(base, from_int(len(block.explicit)))
            break
        if isinstance(cert, TranslationCert):
            cut = None
            for rel, tracks in reference_translation_tail(block, cap):
                if tracks is None:
                    cut = cnf_add(base, from_int(rel))
                    break
                emit(cnf_add(base, from_int(rel)), tracks)
            if cut is not None:
                horizon = cut
                break
        if block.limit is not None:
            emit(block.limit.stage, block.limit.tracks)
    if res.final_limit is not None and horizon is None:
        emit(res.final_limit.stage, res.final_limit.tracks)
    if horizon is None and res.outcome == "exceeded":
        last = res.blocks[-1]
        covered = last.limit.stage if last.limit is not None else \
            cnf_add(last.start.stage, from_int(len(last.explicit) - 1))
        horizon = successor(covered)
    return events, horizon


def reference_universal_run(results, budget):
    """The dovetailer before it shared wakes: every program's events from
    the reference walker, all sorted by (stage, program, track), seen reals
    skipped."""
    merged = []
    horizons = []
    for pid, res in enumerate(results):
        if res.blocks:
            events, horizon = reference_content_events(res, budget.appearance_cap)
        else:
            events, horizon = [], ZERO_ORD
        merged.extend((stage, pid, t, real) for stage, t, real in events)
        if horizon is not None:
            horizons.append(horizon)
    merged.sort(key=lambda e: (e[0], e[1], e[2]))
    records = []
    seen = set()
    truncated = bool(horizons)
    cap_stage = None
    for stage, pid, t, real in merged:
        if real in seen:
            continue
        if len(records) >= budget.appearance_cap:
            truncated = True
            cap_stage = stage
            break
        seen.add(real)
        records.append((stage, pid, t, real,
                        hashlib.sha256(real.render().encode()).hexdigest()[:12]))
    bounds = list(horizons)
    if cap_stage is not None:
        bounds.append(cap_stage)
    return records, truncated, min(bounds) if bounds else None


def binary_counter():
    """Adds one to a binary counter on the scratch track in every block, so
    no block start recurs and the run exceeds its budget above block level."""
    overrides = {}
    for read in itertools.product((0, 1), repeat=3):
        i, s, o = read
        for st in ("start", "limit", "carry"):
            overrides[(st, read)] = Rule((i, 0, o), "R", "carry") if s else \
                Rule((i, 1, o), "S", "idle")
        overrides[("idle", read)] = Rule(read, "S", "idle")
    return total_program(3, overrides)


def check_universal_run(results, policy):
    log = universal_run(results, policy)
    got = [(a.stage, a.program, a.track, a.real, a.digest)
           for a in log.records]
    assert (got, log.truncated, log.complete_below) == \
        reference_universal_run(results, policy)
    return log


def test_content_events_match_the_reference_walker():
    # each run alone, so that no earlier program hides its stream: both
    # inputs over the slice, a sweep, a dipping drifter, an exceeded last
    # block, a run exceeded above block level, and one that overflows the
    # ordinal range in its first block and so has no blocks at all
    from ittm.oracle import enumeration_slice
    runs = [run_transfinite(p, x, BudgetPolicy(3, 256, 64))
            for x in (ZERO_REAL, parse_real("1(10)*"))
            for p in enumeration_slice(3000, 2, 3)]
    runs += [run_transfinite(p, ZERO_REAL, B) for p in (p_sweep(), dipping_drifter())]
    exceeded = run_transfinite(nonzero_halter(12), ZERO_REAL, BudgetPolicy(3, 4, 64))
    assert isinstance(exceeded.blocks[-1].certificate, ExceededCert)
    above = run_transfinite(binary_counter(), ZERO_REAL, BudgetPolicy(3, 8, 16))
    assert above.outcome == "exceeded" and above.blocks[-1].limit is not None
    empty = run_transfinite(p_flip(), ZERO_REAL, BudgetPolicy(1, 64, 64))
    assert empty.outcome == "exceeded" and empty.blocks == ()
    runs += [exceeded, above, empty]
    for cap in (1, 7, 64):
        policy = BudgetPolicy(3, 256, cap)
        logs = [check_universal_run([res], policy) for res in runs]
        # at every cap some streams are cut short and some are not
        assert 10 < sum(log.truncated for log in logs) < len(logs) - 10
    assert universal_run([empty], B).complete_below == ZERO_ORD


def cycler(track, cycle, lead=()):
    """Runs the (write, move) steps of `lead` once and then those of `cycle`
    forever, whatever it reads: write 1 sets `track` under the head, write 0
    leaves it.  The limit state stays put, so the run loops at w."""
    steps = list(lead) + list(cycle)
    names = ["start"] + ["c%d" % k for k in range(1, len(steps))]
    overrides = {}
    for read in itertools.product((0, 1), repeat=3):
        overrides[("limit", read)] = Rule(read, "S", "limit")
        for k, (write, move) in enumerate(steps):
            nxt = k + 1 if k + 1 < len(steps) else len(lead)
            tracks = tuple(1 if t == track and write else b
                           for t, b in enumerate(read))
            overrides[(names[k], read)] = Rule(tracks, move, names[nxt])
    return total_program(3, overrides)


def test_universal_run_matches_the_reference_dovetailer():
    from ittm.oracle import enumeration_slice
    budget = BudgetPolicy(3, 256, 64)
    progs = enumeration_slice(3000, 2, 3)
    lists = [run_programs(progs, budget, input_real=x)
             for x in (ZERO_REAL, parse_real("1(10)*"))]
    lists.append(run_programs([p_sweep(), dipping_drifter()], B))
    lists.append(run_programs(enumeration_slice(300, 2, 4), budget))
    # equal wakes on the scratch and output tracks, in either order, and
    # wakes that differ only in h0, only in the shift, or only in the last
    # window suffix
    sweep = [(1, "R")]
    lists.append(run_programs([cycler(1, sweep), cycler(2, sweep),
                               cycler(1, sweep, lead=sweep)], B))
    lists.append(run_programs([cycler(2, sweep, lead=sweep), cycler(2, sweep),
                               cycler(1, sweep)], B))
    stay_first = cycler(1, [(1, "S"), (0, "R")])
    lists.append(run_programs([stay_first, cycler(1, [(1, "R"), (1, "R")])], B))
    lists.append(run_programs([cycler(1, [(0, "S"), (1, "R")]), stay_first], B))
    # one wake read at a larger mu first: the later program's reading wins
    idle = [(0, "S")]
    lists.append(run_programs([cycler(1, sweep, lead=idle * 3),
                               cycler(1, sweep, lead=idle)], B))
    exceeded = run_transfinite(nonzero_halter(12), ZERO_REAL, BudgetPolicy(3, 4, 64))
    assert isinstance(exceeded.blocks[-1].certificate, ExceededCert)
    lists.append([exceeded, run_transfinite(p_sweep(), ZERO_REAL, B)])
    lists.append([])
    for cap in (1, 7, 64, 512):
        policy = BudgetPolicy(3, 256, cap)
        for results in lists:
            check_universal_run(results, policy)
    # the appearance cap cuts a sweep below its wake horizon, and an
    # exceeded run cuts the log below the cap stage
    capped = universal_run(lists[2][:1], BudgetPolicy(3, 256, 7))
    assert capped.truncated and capped.complete_below == from_int(7)
    assert len(capped.records) == 7
    both = universal_run(lists[-2], BudgetPolicy(3, 256, 7))
    assert both.truncated and both.complete_below < from_int(7)


def test_the_log_of_shared_results_equals_the_log_of_single_runs():
    """A batch hands one result to every program with its behaviour: loops,
    translations and multi-block halts included.  The dovetailer reads each
    result once, from its least program, and the log is the one that a
    result per program gives."""
    from ittm.oracle import enumeration_slice
    from ittm.runner import DEFAULT_BUDGET
    for progs, budget in ((enumeration_slice(2000, 2, 3), DEFAULT_BUDGET),
                          (random_tables(2000), BudgetPolicy(4, 256, 64))):
        shared = run_programs(progs, budget)
        single = [run_transfinite(p, ZERO_REAL, budget) for p in progs]
        assert len({id(res) for res in shared}) < len({id(res) for res in single})
        kinds = {type(block.certificate) for res in shared for block in res.blocks}
        assert {RepeatCert, TranslationCert} <= kinds
        log = universal_run(shared, budget)
        assert log == universal_run(single, budget)
        assert log.truncated


# --- diagonalization ---------------------------------------------------------

def test_diagonal_examples():
    assert diagonal_against([]) == ZERO_REAL
    out = diagonal_against([parse_real("0(0)*"), parse_real("1(0)*")])
    assert out == parse_real("11(0)*")


def test_diagonal_keeps_the_rule_under_adds():
    import random
    rng = random.Random(7)
    pool = [Real(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 9))),
                 tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4))))
            for _ in range(400)]
    diagonal, model = Diagonal(), []
    for _ in range(600):
        r = rng.choice(pool)
        diagonal.add(r)
        if r not in model:
            model.append(r)
        assert diagonal.position == {r: k for k, r in enumerate(model)}
        out = diagonal.real()
        assert out == Real(tuple(1 - r.bit(k) for k, r in enumerate(model)), (0,))
        assert out not in model
    assert diagonal_against(model + model[:5]) == diagonal.real()


def test_diagonal_extend_is_one_add_per_real():
    """`Diagonal(reals)`, `extend` and one `add` per real list each distinct
    real once, at its first index, duplicates included; `add` says whether
    its real was new."""
    import random
    rng = random.Random(11)
    pool = [Real(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 7))),
                 tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3))))
            for _ in range(60)]
    for _ in range(40):
        reals = [rng.choice(pool) for _ in range(rng.randint(0, 80))]
        model = list(dict.fromkeys(reals))
        word = sum((1 - r.bit(k)) << k for k, r in enumerate(model))
        one_by_one = Diagonal()
        new = [one_by_one.add(r) for r in reals]
        assert new == [r not in reals[:i] for i, r in enumerate(reals)]
        cut = rng.randint(0, len(reals))
        extended = Diagonal(reals[:cut])
        extended.extend(reals[cut:])
        for d in (Diagonal(reals), extended, one_by_one):
            assert list(d.position.items()) == [(r, k) for k, r in enumerate(model)]
            assert d.word == word


def test_segment_is_the_prefix_below_the_stage():
    from ittm.oracle import enumeration_slice
    budget = BudgetPolicy(3, 64, 384)
    log = universal_run(run_programs(enumeration_slice(120, 0, 3), budget), budget)
    stages = sorted({rec.stage for rec in log.records})
    probes = [ZERO_ORD, from_int(1), OMEGA, parse_ordinal("w*2")]
    probes += stages + [cnf_add(st, from_int(1)) for st in stages]
    for upto in probes:
        if log.complete_below is not None and log.complete_below < upto:
            with pytest.raises(TruncatedLog):
                log.segment(upto)
            continue
        assert log.segment(upto) == [rec.real for rec in log.records
                                     if rec.stage < upto]


def test_diagonal_of_a_segment_is_absent_from_it():
    log = universal_run(run_programs([p_halt(), p_flip(), zero_halter()], B), B)
    upto = parse_ordinal("w*2")
    out = diagonal_against(log.segment(upto))
    assert out not in set(log.segment(upto))


def test_diagonalize_refuses_truncated_segment():
    budget = BudgetPolicy(3, 64, 8)
    log = universal_run(run_programs([p_sweep()], budget), budget)
    assert log.truncated
    with pytest.raises(TruncatedLog):
        diagonal_against(log.segment(parse_ordinal("w*1")))
    # before the truncation horizon the diagonal is still sound
    small = diagonal_against(log.segment(from_int(1)))
    assert small not in set(log.segment(from_int(1)))


# --- the approximation stream ------------------------------------------------

def test_approximate_jump_examples():
    stream = approximate_jump(run_programs([p_halt(), p_flip()], B))
    assert stream.events == ((from_int(1), 0),)
    assert stream.snapshots() == [(from_int(1), frozenset({0}))]
    assert stream.final() == frozenset({0})

    assert approximate_jump(run_programs([], B)).events == ()

    with_loop = approximate_jump(
        run_programs([p_halt(), p_flip(), looper(1)], B))
    assert with_loop.events == stream.events


def test_stream_monotone_and_matches_jump():
    from ittm.oracle import jump_lightface
    progs = [zero_halter(), nonzero_halter(2), p_flip(), p_halt()]
    stream = approximate_jump(run_programs(progs, B))
    snaps = stream.snapshots()
    for (st1, h1), (st2, h2) in zip(snaps, snaps[1:]):
        assert st1 <= st2 and h1 <= h2
    assert stream.final() == jump_lightface(progs, None, B).halted_set()


# --- the iterated-jump matrix -------------------------------------------------

MATRIX_PROGS = [extend_to_oracle_tracks(p_halt()), oracle_bit_halter(1),
                extend_to_oracle_tracks(p_flip())]


def test_matrix_code_one_single_zero_row():
    m = iterated_matrix(from_int(1), MATRIX_PROGS, B)
    assert m.ranks == (ZERO_ORD,)
    assert m.rows[ZERO_ORD].is_zero()
    assert not m.partial and m.change_log == () and m.erasure_log == ()


def test_matrix_code_two_row_one_is_the_jump():
    progs = [extend_to_oracle_tracks(p_halt()), extend_to_oracle_tracks(p_flip())]
    m = iterated_matrix(from_int(2), progs, B)
    jump = approximate_jump(run_programs(progs, B, RealOracle(ZERO_REAL)))
    assert m.rows[from_int(1)] == jump.final_real()
    assert m.rows[from_int(1)] == parse_real("1(0)*")


def test_matrix_code_three_erasure_replay():
    m = iterated_matrix(from_int(3), MATRIX_PROGS, B)
    first_change_row1 = next(c.stage for c in m.change_log
                             if c.rank == from_int(1))
    erased = [e for e in m.erasure_log if e.rank == from_int(2)]
    assert erased and erased[0].stage == first_change_row1
    assert erased[0].cause == "lower-row-change"
    assert validate_erasures(m) == []
    # row 1 = zero-oracle halters; row 2 relative to row 1
    assert m.rows[from_int(1)] == from_support({0})
    assert m.rows[from_int(2)] == from_support({0, 1})


def test_matrix_successor_rows_recheck():
    m = iterated_matrix(from_int(3), MATRIX_PROGS, B)
    for lo, hi in m.successor_pairs():
        redo = approximate_jump(
            run_programs(MATRIX_PROGS, B, RealOracle(m.rows[lo])))
        assert m.rows[hi] == redo.final_real()


def test_matrix_limit_row_is_the_join():
    m = iterated_matrix(parse_ordinal("w*1+1"), MATRIX_PROGS, B, row_cap=4)
    assert m.partial and "ranks-omitted" in m.partial_reasons
    lam = OMEGA
    assert lam in m.rows
    expect = set()
    for beta in m.ranks:
        if not (beta < lam):
            continue
        n = element_of(beta)
        for mbit in range(8):
            if m.rows[beta].bit(mbit):
                expect.add(pair_index(n, mbit))
    assert m.rows[lam] == from_support(expect)
    assert m.rows[lam] == join_rows(m.rows, lam)


def reference_join(rows, lam):
    """The organized sum by testing every bit of every row below lam."""
    word = 0
    for beta, row in rows.items():
        if beta < lam:
            for m in range(row.support_bound()):
                if row.bit(m):
                    word |= 1 << pair_index(element_of(beta), m)
    return parse_real(format(word, "b")[::-1])


def test_join_rows_matches_the_per_bit_join_on_sparse_rows():
    import random
    rng = random.Random(12)
    ranks = [parse_ordinal(t) for t in
             ("0", "1", "2", "7", "w", "w+1", "w+5", "w*2", "w*2+3", "w*3")]
    limits = [OMEGA, parse_ordinal("w*2"), parse_ordinal("w*3"),
              parse_ordinal("w*4")]
    for _ in range(25):
        rows = {}
        for r in ranks:
            width = rng.choice((0, 1, 8, 70, 900))
            ones = rng.sample(range(width), min(width, rng.randint(0, 6)))
            rows[r] = from_support(ones)
        for lam in limits:
            assert join_rows(rows, lam) == reference_join(rows, lam)
    with pytest.raises(ValueError):
        join_rows({ZERO_ORD: parse_real("(1)*")}, OMEGA)


def oracle_seeker():
    """4-track; walks right to the first 1 on the oracle track and halts
    there, and halts at its first limit.  Against a row whose first 1 is cell
    j it halts at step j + 1 in one block; against a row of zeros it halts at
    w+1 after a translation; against a row whose first 1 lies past its budget
    and past the row's prefix it exceeds that budget."""
    overrides = {}
    for read in itertools.product((0, 1), repeat=4):
        overrides[("start", read)] = Rule(read, "S" if read[3] else "R",
                                          "halt" if read[3] else "start")
        overrides[("limit", read)] = Rule(read, "S", "halt")
    return total_program(4, overrides)


def fresh_runs(progs, budget, row):
    return [run_transfinite(p, ZERO_REAL, budget, RealOracle(row)) for p in progs]


def full_jump_events(progs, budget, row):
    return approximate_jump(fresh_runs(progs, budget, row)).events


def test_reused_halts_match_full_runs_on_random_periodic_rows(monkeypatch):
    import random
    from ittm import approx, oracle
    from ittm.oracle import enumeration_slice
    rng = random.Random(19)
    def bits(n):
        return [rng.randint(0, 1) for _ in range(n)]
    rows = [ZERO_REAL, Real([0] * 80, [0, 1]), Real([0] * 90, [1]),
            parse_real("0001(0)*"), parse_real("0001(10)*")]
    for _ in range(16):
        row = Real(bits(rng.choice((0, 1, 2, 3, 5, 8))), bits(rng.randint(1, 4)))
        # a twin that agrees on the first k cells only, with another period
        k = rng.randint(1, 6)
        twin = Real(row.bits(k) + tuple(bits(rng.randint(0, 3))),
                    bits(rng.randint(1, 5)))
        rows += [row, twin]
    progs = enumeration_slice(120, 1, 4) + [
        oracle_bit_halter(0), oracle_bit_halter(1), oracle_seeker(),
        extend_to_oracle_tracks(p_flip())]
    runs = []
    original = oracle.run_transfinite
    def counting(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(oracle, "run_transfinite", counting)
    halts = [[] for _ in progs]
    outcomes = {}
    for row in rows:
        results = fresh_runs(progs, B, row)
        assert approx._halt_events(progs, B, row, halts) == \
            approximate_jump(results).events
        for pid, res in enumerate(results):
            outcomes.setdefault(pid, (set(), set()))[0].add(res.outcome)
            outcomes[pid][1].add(len(res.blocks))
            if res.outcome != "halted" or len(res.blocks) > 1:
                # a row the program does not halt against in one block is
                # never served from its list
                assert not any(row.window(0, cells) == seen
                               for cells, seen, _t in halts[pid])
    # the seeker halts in one block, exceeds, and halts after a limit; the
    # bit halters halt or loop, each by oracle cell 0
    seeker = len(progs) - 2
    assert outcomes[seeker] == ({"halted", "exceeded"}, {1, 2})
    assert outcomes[seeker - 1][0] == outcomes[seeker - 2][0] == \
        {"halted", "loops"}
    assert all(entry[0] == 1 for entry in halts[seeker - 1] + halts[seeker - 2])
    # most lookups are served from the lists and the batches
    assert len(runs) < len(progs) * len(rows) // 10


def test_reused_halts_match_full_runs_on_the_cli_mix_order(monkeypatch, capsys):
    from ittm import approx
    from ittm.cli import main
    calls = []
    halt_events = approx._halt_events
    def recording(progs, budget, row, halts):
        events = halt_events(progs, budget, row, halts)
        calls.append((progs, budget, row, events))
        return events
    monkeypatch.setattr(approx, "_halt_events", recording)
    assert main(["matrix", "--order", "w*2", "--states", "0",
                 "--bound", "20"]) == 1
    capsys.readouterr()
    assert len(calls) == 161 and len({row for _p, _b, row, _e in calls}) == 161
    for progs, budget, row, events in calls:
        assert events == full_jump_events(progs, budget, row)


def test_matrix_stabilization_stages():
    m = iterated_matrix(from_int(3), MATRIX_PROGS, B)
    assert m.stabilization[ZERO_ORD] == ZERO_ORD          # row 0 never moves
    for rank in m.ranks:
        after = [c for c in m.change_log
                 if c.rank == rank and c.stage > m.stabilization[rank]]
        assert not after


def test_matrix_determinism():
    a = iterated_matrix(from_int(3), MATRIX_PROGS, B)
    b = iterated_matrix(from_int(3), MATRIX_PROGS, B)
    assert a.change_log == b.change_log
    assert a.erasure_log == b.erasure_log
    assert a.rows == b.rows


def test_materialized_ranks_shapes():
    ranks, partial = materialized_ranks(from_int(3), 8)
    assert ranks == [ZERO_ORD, from_int(1), from_int(2)] and not partial
    ranks, partial = materialized_ranks(OMEGA, 4)
    assert ranks == [from_int(k) for k in range(4)] and partial
    ranks, partial = materialized_ranks(parse_ordinal("w*1+1"), 4)
    assert ranks[-1] == OMEGA and partial
    ranks, partial = materialized_ranks(parse_ordinal("w*2"), 3)
    assert OMEGA in ranks and cnf_add(OMEGA, from_int(2)) in ranks


def test_is_limit_of_and_forged_rule_two_entries():
    # erasure at a limit of earlier erasures never fires on a finite log, so
    # an entry claiming it is rejected as an unknown cause
    m = iterated_matrix(from_int(3), MATRIX_PROGS, B)
    forged = m.erasure_log + (ErasureEntry(OMEGA, from_int(2),
                                           "limit-of-erasures"),)
    import dataclasses
    tampered = dataclasses.replace(m, erasure_log=forged)
    problems = validate_erasures(tampered)
    assert any("unknown cause 'limit-of-erasures'" in p for p in problems)
    # a known cause at a stage where no lower row changes
    assert len(m.erasure_log) == 1
    forged = m.erasure_log + (ErasureEntry(parse_ordinal("w*5"), from_int(2),
                                           "lower-row-change"),)
    tampered = dataclasses.replace(m, erasure_log=forged)
    assert validate_erasures(tampered) == [
        "erasure 1 at w*5 lacks a same-stage lower-row change"]


def test_diagonal_absent_across_survey_logs():
    from ittm.oracle import enumeration_slice
    budget = BudgetPolicy(3, 64, 384)
    for bound in (25, 73, 120):
        results = run_programs(enumeration_slice(bound, 0, 3), budget)
        log = universal_run(results, budget)
        for upto in (from_int(1), from_int(3), OMEGA, parse_ordinal("w*2")):
            if log.complete_below is not None and log.complete_below < upto:
                continue
            out = diagonal_against(log.segment(upto))
            assert out not in set(log.segment(upto))
