import collections
import dataclasses
import gc
import importlib
import itertools
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import (looper, omega_squared_clocker, query_probe, random_tables,
                      total_program, zero_halter)

from ittm import ordinal, reals, runner
from ittm.machine import (Program, Rule, extend_to_oracle_tracks, p_flip,
                          p_flip_lh, p_halt, p_sweep, parse_program)
from ittm.ordinal import OMEGA, ZERO as ZERO_ORD, cnf_add, from_int, parse_ordinal
from ittm.oracle import (RealOracle, SetOracle, enumeration_slice, run_programs,
                         run_with_oracle)
from ittm.reals import (Real, ZERO as ZERO_REAL, from_support, or_all, or_real,
                        parse_real, shift_union)
from ittm.runner import (BudgetPolicy, ExceededCert, HaltAt, LoopCert,
                         OracleProtocolError, RepeatCert, RunResult, Snapshot,
                         StepFromHalt, TranslationCert, initial_snapshot,
                         run_block, run_transfinite, step, verify_certificate)

B = BudgetPolicy(3, 64, 256)
# an acceptance-survey program that no budget up to 4096 certifies
HARD_10825 = Path(__file__).resolve().parents[1] / "perfbench" / "hard_set" / "10825.itm"


def test_step_examples():
    p = p_halt()
    s1 = step(initial_snapshot(p), p)
    assert s1.state == "halt" and s1.tracks[2].bit(0) == 1
    assert s1.stage == from_int(1)
    with pytest.raises(StepFromHalt):
        step(s1, p)

    p = p_flip()
    s1 = step(initial_snapshot(p), p)
    assert s1.tracks[1].bit(0) == 1 and s1.stage == from_int(1)

    mover = total_program(3, {("start", r): Rule(r, "L", "start")
                              for r in itertools.product((0, 1), repeat=3)})
    s1 = step(initial_snapshot(mover), mover)
    assert s1.head == 0          # left at the edge stays put


def test_run_block_flip_repeat_cert():
    p = p_flip()
    blk = run_block(initial_snapshot(p), p, B)
    assert blk.certificate == RepeatCert(0, 2)
    # limsup of 0,1,0,1,... is 1
    assert blk.limit.tracks[1] == parse_real("1(0)*")
    assert blk.limit.state == "limit" and blk.limit.head == 0
    assert blk.limit.stage == OMEGA


def test_run_block_halt():
    p = p_halt()
    blk = run_block(initial_snapshot(p), p, B)
    assert blk.certificate == HaltAt(1)
    assert blk.limit is None


def test_run_block_sweep_translation_cert():
    p = p_sweep()
    blk = run_block(initial_snapshot(p), p, B)
    assert blk.certificate == TranslationCert(0, 1, 1)
    assert blk.limit.tracks[1] == parse_real("(1)*")
    # spot-check the limit against pure stepping: cells fixed once passed
    s = initial_snapshot(p)
    for _ in range(40):
        s = step(s, p)
    for cell in range(30):
        assert blk.limit.tracks[1].bit(cell) == s.tracks[1].bit(cell)


def test_run_block_exceeded():
    p = p_sweep()
    tiny = BudgetPolicy(3, 2, 16)
    # two steps are too few to detect the drift
    blk = run_block(initial_snapshot(p), p, BudgetPolicy(3, 1 + 1, 16))
    del tiny
    assert isinstance(blk.certificate, (TranslationCert, ExceededCert))


def test_edge_clamp_blocks_a_translation():
    # moves L at cell 0 (clamped), then R: the configuration at step 2 is
    # the one at step 0 moved one cell right, but the clamp rules that out
    reads = list(itertools.product((0, 1), repeat=3))
    bouncer = total_program(3, {**{("start", r): Rule(r, "L", "s0") for r in reads},
                                **{("s0", r): Rule(r, "R", "start") for r in reads}})
    start = initial_snapshot(bouncer)
    assert run_block(start, bouncer, B).certificate == RepeatCert(1, 2)
    assert not verify_certificate(bouncer, start, TranslationCert(0, 2, 1))


def _fold(snaps):
    """Per-track OR of every snapshot: the reference for the block unions."""
    return tuple(or_all(s.tracks[t] for s in snaps)
                 for t in range(len(snaps[0].tracks)))


def scratch_eraser():
    """Marks the scratch cell, then erases it forever: RepeatCert(2, 1), with
    a 1 in the block's ever-one that its limit lacks."""
    reads = list(itertools.product((0, 1), repeat=3))
    return total_program(3, {
        **{("start", r): Rule((r[0], 1, r[2]), "S", "erase") for r in reads},
        **{("erase", r): Rule((r[0], 0, r[2]), "S", "erase") for r in reads}})


def test_block_unions_match_the_fold_over_every_snapshot():
    budget = BudgetPolicy(3, 256, 256)
    oracle_real = Real(tuple(int(k * k % 7 < 3) for k in range(200)), (1, 0, 0))
    sets = [(enumeration_slice(3000, 2, 3), None, budget),
            (enumeration_slice(300, 0, 4), RealOracle(oracle_real), budget),
            ([query_probe()], SetOracle(frozenset({from_support([0])})), budget),
            # six walking states cannot certify in four steps
            ([looper(6)], None, BudgetPolicy(3, 4, 64)),
            ([scratch_eraser()], None, budget)]
    kinds = set()
    for progs, oracle, bp in sets:
        for p, res in zip(progs, run_programs(progs, bp, oracle)):
            for blk in res.blocks:
                cert = blk.certificate
                kinds.add(type(cert))
                whole = _fold(blk.explicit)
                assert verify_certificate(p, blk.start, cert, oracle)
                if isinstance(cert, TranslationCert):
                    cycle = _fold(blk.explicit[cert.mu: cert.mu + cert.pi + 1])
                    h0 = blk.explicit[cert.mu].head
                    assert blk.ever_one == tuple(
                        or_real(w, shift_union(c, h0, cert.shift))
                        for w, c in zip(whole, cycle))
                    continue
                assert blk.ever_one == whole
                if isinstance(cert, RepeatCert):
                    assert blk.limit.tracks == _fold(
                        blk.explicit[cert.mu: cert.mu + cert.pi + 1])
    assert kinds == {HaltAt, RepeatCert, TranslationCert, ExceededCert}


def omega_cubed_clocker():
    """Sweeps the output track right after a transient scratch mark in every
    block, so block limits recur weakly and a w^2 limit sets the mark.  A
    w^2 start clears it behind a transient input mark, so w^2 limits recur
    weakly too, and at the w^3 limit, which has both marks, it halts.  Every
    block from w on starts from an output track 0(1)*."""
    overrides = {}
    for read in itertools.product((0, 1), repeat=3):
        i, s, o = read
        overrides[("start", read)] = Rule((0, 1, o), "S", "down")
        overrides[("limit", read)] = (Rule((0, 1, o), "S", "down") if s == 0 else
                                      Rule((1, 0, o), "S", "start") if i == 0 else
                                      Rule(read, "S", "halt"))
        overrides[("down", read)] = Rule((i, 0, o), "R", "sweep")
        overrides[("sweep", read)] = Rule((i, s, 1), "R", "sweep")
    return total_program(3, overrides)


def dipping_drifter(tracks):
    """The hard-set drifter 10828 on any input: it marks a cell of the output
    track, steps left, then right twice, so it drifts one cell right per
    three steps and never certifies.  Each mark copies the cell's input bit,
    or with four tracks its fourth-track bit, to the scratch track, and every
    step writes the fourth track's bit inverted, which a read-only oracle
    track must ignore."""
    overrides = {}
    for read in itertools.product((0, 1), repeat=tracks):
        i, s, o, *b = read
        rest = tuple([1 - x for x in b])
        overrides["start", read] = (
            Rule((i, b[0] if b else i, 1, *rest), "L", "start") if o == 0 else
            Rule((i, s, 1, *rest), "R", "start"))
    return total_program(tracks, overrides)


def dense_oracle():
    """A real oracle with a 3000-cell prefix and a period-3 tail."""
    return RealOracle(Real(tuple(int(k * k % 11 < 5) for k in range(3000)),
                           (1, 1, 0)))


def _check_explicit_against_stepping(p, res, budget, oracle=None):
    """Each block's explicit snapshots equal a chain of `step` from its start,
    read by iteration, every index, negative index and slice, and so do the
    snapshots of a fresh run of the block, whose first read is index -1.
    Returns the chains' query log and the certificate kinds seen."""
    log = []
    kinds = set()
    for blk in res.blocks:
        kinds.add(type(blk.certificate))
        chain = [blk.start]
        for _ in range(len(blk.explicit) - 1):
            chain.append(step(chain[-1], p, oracle, log))
        n = len(chain)
        assert len(blk.explicit) == n and list(blk.explicit) == chain
        assert [blk.explicit[k] for k in range(n)] == chain
        assert [blk.explicit[k] for k in range(-n, 0)] == chain
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(-3, None),
                    slice(None, None, 2), slice(n, None)):
            assert blk.explicit[cut] == tuple(chain[cut])
        fresh = run_block(blk.start, p, budget, oracle)
        assert fresh.certificate == blk.certificate
        assert fresh.explicit[-1] == chain[-1]
        assert list(fresh.explicit) == chain
        with pytest.raises(IndexError):
            blk.explicit[n]
        for k, snap in enumerate(chain):
            assert snap.stage == cnf_add(blk.start.stage, from_int(k))
    return log, kinds


def test_explicit_snapshots_match_stepping_from_each_block_start():
    kinds = set()
    small = BudgetPolicy(3, 24, 64)
    # six walking states cannot certify in four steps; a hard-set drifter
    # runs out of a longer budget
    for progs, budget in ((enumeration_slice(2000, 2, 3), small),
                          ([looper(6)], BudgetPolicy(3, 4, 64)),
                          ([parse_program(HARD_10825.read_text())],
                           BudgetPolicy(3, 400, 64))):
        for p in progs:
            kinds |= _check_explicit_against_stepping(
                p, run_transfinite(p, ZERO_REAL, budget), budget)[1]
    assert kinds == {HaltAt, RepeatCert, TranslationCert, ExceededCert}
    # start tapes with non-zero tails: the input, and limits at w, w^2, w^3
    odd = parse_real("1(10)*")
    for p in enumeration_slice(300, 2, 3):
        _check_explicit_against_stepping(p, run_transfinite(p, odd, small), small)
    p = omega_cubed_clocker()
    for depth in (3, 4):
        budget = BudgetPolicy(depth, 64, 64)
        for input_real in (ZERO_REAL, odd):
            res = run_transfinite(p, input_real, budget)
            levels = {blk.start.stage.degree() for blk in res.blocks}
            assert levels == {-1, *range(1, depth)}
            assert all(blk.start.tracks[2] == parse_real("0(1)*")
                       for blk in res.blocks[1:])
            _check_explicit_against_stepping(p, res, budget)
    # a read-only oracle track with a long prefix
    oracle = dense_oracle()
    for p in enumeration_slice(300, 0, 4):
        res = run_programs([p], small, oracle)[0]
        _check_explicit_against_stepping(p, res, small, oracle)


def test_explicit_snapshots_match_stepping_past_the_third_window():
    """`run_block` reads cells 0 .. 63 from one int window per track and
    grows the windows as the head reaches 64 and 192.  Heads past cell 192
    read the third window: on a non-zero input, against the dense oracle
    (whose track each snapshot keeps unflipped, though the drifter writes it
    inverted at every step) and in the hard-set drifter 10828."""
    odd = parse_real("1(10)*")
    oracle = dense_oracle()
    long, tables = BudgetPolicy(3, 700, 64), random_tables(490, 4)
    cases = [(dipping_drifter(3), odd, None, long),
             (dipping_drifter(4), ZERO_REAL, oracle, long),
             (tables[34], ZERO_REAL, oracle, BudgetPolicy(3, 400, 64)),
             (tables[489], ZERO_REAL, oracle, BudgetPolicy(3, 400, 64)),
             (parse_program(HARD_10825.with_name("10828.itm").read_text()),
              ZERO_REAL, None, long)]
    for p, input_real, oracle, budget in cases:
        res = run_transfinite(p, input_real, budget, oracle)
        assert max(row[1] for blk in res.blocks for row in blk.rows[1:]) > 192
        _check_explicit_against_stepping(p, res, budget, oracle)
        if oracle is not None:
            assert all(snap.tracks[3] == oracle.real
                       for blk in res.blocks for snap in blk.explicit)


def test_query_log_matches_stepping():
    budget = BudgetPolicy(3, 64, 256)
    one, one_one = from_support([0]), from_support([0, 1])
    for members, answers in ((frozenset(), (False, False)),
                             (frozenset({one}), (True, False)),
                             (frozenset({one, one_one}), (True, True))):
        oracle = SetOracle(members)
        res, log = run_with_oracle(query_probe(), ZERO_REAL, oracle, budget)
        stepped, _ = _check_explicit_against_stepping(query_probe(), res, budget,
                                                      oracle)
        assert list(log) == stepped
        assert [(q.stage, q.real, q.answer) for q in log] == [
            (from_int(1), one, answers[0]), (from_int(4), one_one, answers[1])]


def test_run_block_builds_reals_and_ordinals_per_block_not_per_step(monkeypatch):
    """A block builds Reals and Ordinals for its unions and limit only, so
    their counts do not grow with the number of steps."""
    p = parse_program(HARD_10825.read_text())
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(reals, "_canonical", counted("canonical", reals._canonical))
    monkeypatch.setattr(reals, "_real", counted("real", reals._real))
    monkeypatch.setattr(ordinal, "_ordinal", counted("ordinal", ordinal._ordinal))
    monkeypatch.setattr(ordinal.Ordinal, "__post_init__",
                        counted("ordinal", ordinal.Ordinal.__post_init__))
    counts = []
    for per_level in (1024, 4096):
        calls.clear()
        blk = run_block(initial_snapshot(p), p, BudgetPolicy(3, per_level, 256))
        assert blk.certificate == ExceededCert(per_level)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert all(n <= 8 for n in counts[0].values())


def reference_certificate(start, p, budget, oracle=None):
    """The certificate of the block from `start`, found by stepping on
    `Real`s and, at each new head maximum, comparing the suffixes from the
    heads with every candidate, lowest first.  `run_block`'s keyed lookup
    must find the same one."""
    if start.state == p.halt_state:
        return HaltAt(0)
    snaps, seen = [start], {start.key(): 0}
    records, max_head = [0], start.head
    for i in range(1, budget.per_level_budget + 1):
        snap, clamped = runner._step(snaps[-1], p, oracle)
        snaps.append(snap)
        if snap.state == p.halt_state:
            return HaltAt(i)
        mu = seen.setdefault(snap.key(), i)
        if mu != i:
            return RepeatCert(mu, i - mu)
        if clamped:
            records.clear()
        while records and snaps[records[-1]].head > snap.head:
            records.pop()
        if snap.head > max_head:
            for j in records:
                rec = snaps[j]
                if rec.state == snap.state and all(
                        now.suffix(snap.head) == then.suffix(rec.head)
                        for now, then in zip(snap.tracks, rec.tracks)):
                    return TranslationCert(j, i - j, snap.head - rec.head)
            records.append(i)
            max_head = snap.head
    return ExceededCert(budget.per_level_budget)


def _check_certificates_against_the_scan(progs, budget, input_real=ZERO_REAL,
                                         oracle=None):
    """Each block's certificate equals the scan's from the same start.
    Returns the number of distinct blocks of each certificate kind."""
    results = run_programs(progs, budget, oracle, input_real)
    kinds, checked = collections.Counter(), set()
    for p, res in zip(progs, results):
        for blk in res.blocks:
            if id(blk) not in checked:
                checked.add(id(blk))
                kinds[type(blk.certificate)] += 1
                assert reference_certificate(blk.start, p, budget, oracle) == \
                    blk.certificate
    return kinds


def test_keyed_translation_candidates_match_the_scan():
    small = BudgetPolicy(3, 64, 256)
    kinds = _check_certificates_against_the_scan(random_tables(1500), small)
    assert kinds[TranslationCert] > 100
    # start tapes with prefixes and tails of periods 2 and 3
    for text in ("1(10)*", "0110(100)*"):
        _check_certificates_against_the_scan(enumeration_slice(3000, 2, 3), small,
                                             parse_real(text))
        kinds = _check_certificates_against_the_scan(random_tables(500), small,
                                                     parse_real(text))
        assert kinds[TranslationCert] > 50
    # read-only oracle tracks: a long prefix, and tails of periods 1 and 3
    translations = 0
    for word in (Real(tuple(int(k * k % 11 < 5) for k in range(3000)), (1, 1, 0)),
                 Real((1, 0, 1), (1,)), Real((1,), (0, 1, 1))):
        for progs in (enumeration_slice(400, 1, 4), random_tables(1500, 4)):
            kinds = _check_certificates_against_the_scan(
                progs, small, parse_real("1(10)*"), RealOracle(word))
            translations += kinds[TranslationCert]
    assert translations > 20
    hard = sorted(HARD_10825.parent.glob("*.itm"))
    kinds = _check_certificates_against_the_scan(
        [parse_program(f.read_text()) for f in hard], BudgetPolicy(3, 1024, 256))
    assert kinds == {ExceededCert: 14}


def test_translation_candidates_are_looked_up_not_scanned(monkeypatch):
    """This run drifts right with shallow dips, so every block keeps each of
    its head maxima as a candidate.  A lookup by key reads no tape window per
    candidate, so the run reads fewer windows than it makes steps."""
    p = random_tables(268)[267]
    calls = collections.Counter()
    window = Real.window

    def counted(self, start, n):
        calls["window"] += 1
        return window(self, start, n)

    monkeypatch.setattr(Real, "window", counted)
    res = run_transfinite(p, ZERO_REAL, BudgetPolicy(3, 256, 256))
    steps = sum(len(blk.rows) - 1 for blk in res.blocks)
    assert (res.outcome, res.reason, steps) == ("exceeded", "budget", 25598)
    assert sum(isinstance(blk.certificate, TranslationCert)
               for blk in res.blocks) == len(res.blocks) - 1
    assert 0 < calls["window"] < steps


def test_level_two_block_budget_exhaustion_is_exceeded():
    # each block adds one to a binary counter on the scratch track and then
    # idles, so no block-start snapshot ever recurs and the w^2 limit cannot
    # be certified within the block budget
    overrides = {}
    for read in itertools.product((0, 1), repeat=3):
        i, s, o = read
        for st in ("start", "limit", "carry"):
            overrides[(st, read)] = Rule((i, 0, o), "R", "carry") if s else \
                Rule((i, 1, o), "S", "idle")
        overrides[("idle", read)] = Rule(read, "S", "idle")
    p = total_program(3, overrides)
    res = run_transfinite(p, ZERO_REAL, BudgetPolicy(3, 8, 16))
    assert res.outcome == "exceeded" and res.reason == "budget"
    assert len(res.blocks) == 8 and res.limits == ()
    assert all(isinstance(b.certificate, RepeatCert) for b in res.blocks)
    counts = [b.limit.tracks[1] for b in res.blocks]
    assert counts == [from_support(k for k in range(4) if n >> k & 1)
                      for n in range(1, 9)]


def test_run_transfinite_micro_facts():
    r = run_transfinite(p_halt(), ZERO_REAL, B)
    assert r.outcome == "halted" and r.time == from_int(1)
    assert r.output == parse_real("1(0)*")

    r = run_transfinite(p_flip_lh(), ZERO_REAL, B)
    assert r.outcome == "halted" and r.time == parse_ordinal("w*1+1")

    r = run_transfinite(p_flip(), ZERO_REAL, B)
    assert r.outcome == "loops"
    assert r.loop.first == OMEGA and r.loop.second == parse_ordinal("w*2")

    # random draws #39 and #79, and #79's loop past a level-2 limit
    tables = random_tables(80)
    p39, p79 = tables[39], tables[79]
    assert (p39.digest(), p79.digest()) == ("fab642f2988c99b2", "aea66d6c0999e896")
    loop = run_transfinite(p79, ZERO_REAL, BudgetPolicy(3, 64, 128)).loop
    assert (loop.first, loop.second) == (parse_ordinal("w*13"), parse_ordinal("w^2"))


def _check_halt_against_last_snapshot(res):
    """A halt's time and output are read off the last row of its last block
    without building that snapshot; they must be the snapshot's stage and
    output track, and the block's ever-one the fold over all its snapshots."""
    assert res.outcome == "halted"
    last = res.blocks[-1]
    assert isinstance(last.certificate, HaltAt)
    assert len(last.explicit) == last.certificate.steps + 1
    final = last.explicit[-1]
    assert res.time == final.stage and res.output == final.tracks[2]
    assert last.ever_one == _fold(last.explicit)


def test_halting_time_and_output_are_the_last_snapshot():
    budget = BudgetPolicy(3, 256, 256)
    halted = 0
    for p in enumeration_slice(5000, 2, 3):
        res = run_transfinite(p, ZERO_REAL, budget)
        if res.outcome == "halted":
            _check_halt_against_last_snapshot(res)
            halted += 1
    assert halted > 4900
    odd = parse_real("1(10)*")
    for p in enumeration_slice(300, 2, 3):
        res = run_transfinite(p, odd, budget)
        if res.outcome == "halted":
            _check_halt_against_last_snapshot(res)
    # a start state that is the halt state halts at the block start
    halt_first = Program(3, "halt", "limit", "halt", {
        ("limit", r): Rule(r, "S", "halt")
        for r in itertools.product((0, 1), repeat=3)})
    res = run_transfinite(halt_first, odd, budget)
    assert res.blocks[-1].certificate == HaltAt(0)
    assert res.time == from_int(0) and res.output == ZERO_REAL
    _check_halt_against_last_snapshot(res)
    # halts one step after a limit of level 1, 2 and 3
    for p, depth, input_real, time in (
            (p_flip_lh(), 3, ZERO_REAL, "w*1+1"),
            (omega_squared_clocker(), 3, ZERO_REAL, "w^2*1+1"),
            (omega_cubed_clocker(), 4, ZERO_REAL, "w^3*1+1"),
            (omega_cubed_clocker(), 4, odd, "w^3*1+1")):
        res = run_transfinite(p, input_real, BudgetPolicy(depth, 64, 64))
        assert res.time == parse_ordinal(time)
        _check_halt_against_last_snapshot(res)
    # a read-only oracle track
    oracle = RealOracle(Real(tuple(int(k * k % 7 < 3) for k in range(200)),
                             (1, 0, 0)))
    progs = enumeration_slice(300, 0, 4)
    results = run_programs(progs, budget, oracle)
    assert sum(res.outcome == "halted" for res in results) > 250
    for res in results:
        if res.outcome == "halted":
            _check_halt_against_last_snapshot(res)


def test_a_kept_one_step_halt_holds_at_most_nine_tracked_objects():
    """Every full garbage collection walks every tracked object still alive,
    so a kept result holds only what it needs: the result, its blocks tuple,
    the block summary, its ever-one tuple, one Real for the output (the
    ever-one's own), its rows, the table's weak reference to the block and
    the block's to the result.  Its time, certificate and start snapshot are
    shared."""
    p = p_halt()
    run_transfinite(p, ZERO_REAL, B)
    gc.collect()
    before = gc.get_objects()   # holds them, so no new object reuses an id
    seen = set(map(id, before))
    res = run_transfinite(p, ZERO_REAL, B)
    gc.collect()
    after = gc.get_objects()
    kept = [obj for obj in after
            if id(obj) not in seen and obj is not before and obj is not seen]
    assert len(kept) <= 9, [repr(obj)[:60] for obj in kept]
    assert res.output is res.blocks[0].ever_one[2]


def _tracked_objects_made_by(make):
    """The collector-tracked objects that `make()` leaves alive, and its
    return value."""
    gc.collect()
    before = gc.get_objects()   # holds them, so no new object reuses an id
    seen = set(map(id, before))
    made = make()
    gc.collect()
    after = gc.get_objects()
    return [obj for obj in after if id(obj) not in seen and
            obj is not before and obj is not seen and obj is not made], made


def test_a_second_equal_halt_adds_no_tracked_object():
    """An equal one-block halt shares the whole result through its block."""
    p = p_halt()
    first = run_transfinite(p, ZERO_REAL, B)
    kept, second = _tracked_objects_made_by(lambda: run_transfinite(p, ZERO_REAL, B))
    assert len(kept) == 0, [repr(obj)[:60] for obj in kept]
    assert second is first


def test_the_halting_block_table_empties_when_its_results_are_dropped(monkeypatch):
    table = weakref.WeakValueDictionary()
    monkeypatch.setattr(runner, "_BLOCKS", table)
    progs = enumeration_slice(500, 2, 3)
    results = [run_transfinite(p, ZERO_REAL, B) for p in progs]
    assert 0 < len(table) < sum(res.outcome == "halted" for res in results)
    del results
    gc.collect()
    assert len(table) == 0


def test_kept_survey_results_hold_at_most_half_a_tracked_object_each():
    budget = BudgetPolicy(3, 256, 256)
    progs = enumeration_slice(5000, 2, 3)
    for p in progs:   # fills the shared small ordinals, HaltAts and starts
        run_transfinite(p, ZERO_REAL, budget)
    kept, results = _tracked_objects_made_by(
        lambda: [run_transfinite(p, ZERO_REAL, budget) for p in progs])
    assert len(kept) <= 0.5 * len(results)


def test_dropped_results_free_their_blocks_without_the_collector(monkeypatch):
    """A block holds its one-block halt's result only weakly, so no cycle
    forms: dropping the results empties the table by reference counting."""
    table = weakref.WeakValueDictionary()
    monkeypatch.setattr(runner, "_BLOCKS", table)
    budget = BudgetPolicy(3, 256, 256)
    enabled = gc.isenabled()
    gc.disable()
    try:
        results = [run_transfinite(p, ZERO_REAL, budget)
                   for p in enumeration_slice(12000, 2, 3)]
        # loops, halts after a limit, and each way a run exceeds its budget
        results += [run_transfinite(p_flip(), ZERO_REAL, budget),
                    run_transfinite(p_sweep(), ZERO_REAL, budget),
                    run_transfinite(p_flip_lh(), ZERO_REAL, budget),
                    run_transfinite(omega_squared_clocker(), ZERO_REAL, budget),
                    run_transfinite(looper(6), ZERO_REAL, BudgetPolicy(3, 4, 64)),
                    run_transfinite(p_flip(), ZERO_REAL, BudgetPolicy(1, 64, 64))]
        assert {(res.outcome, res.reason) for res in results} == {
            ("halted", None), ("loops", None), ("exceeded", "budget"),
            ("exceeded", "ordinal-overflow")}
        assert len(table) > 0
        del results
        assert len(table) == 0
    finally:
        if enabled:
            gc.enable()


def _rerun_with_an_empty_table(p, input_real, budget, oracle=None):
    table = runner._BLOCKS
    runner._BLOCKS = weakref.WeakValueDictionary()
    try:
        if oracle is None:
            return run_transfinite(p, input_real, budget)
        return run_with_oracle(p, input_real, oracle, budget)[0]
    finally:
        runner._BLOCKS = table


def _check_result_against_a_fresh_run(p, res, input_real, budget, oracle=None):
    """Every field of `res` equals the field of a run made with the block
    table emptied, which shares nothing with it."""
    fresh = _rerun_with_an_empty_table(p, input_real, budget, oracle)
    assert fresh is not res
    for f in dataclasses.fields(RunResult):
        assert getattr(fresh, f.name) == getattr(res, f.name), f.name
    assert res.trace is res


def test_shared_halting_results_equal_results_run_with_an_empty_table():
    budget = BudgetPolicy(3, 256, 256)
    for input_real in (ZERO_REAL, parse_real("1(10)*")):
        results = []
        for p in enumeration_slice(3000, 2, 3):
            res = run_transfinite(p, input_real, budget)
            results.append(res)
            if res.halted:
                _check_result_against_a_fresh_run(p, res, input_real, budget)
        one_block = [res for res in results
                     if res.halted and len(res.blocks) == 1]
        assert len({id(res) for res in one_block}) < len(one_block) / 10
        for res in one_block:
            assert (res.blocks[0]._result(), res.limits, res.final_limit) == \
                (res, (), None)
    # a read-only oracle track with a long prefix
    oracle = RealOracle(Real(tuple(int(k * k % 13 < 6) for k in range(3000)),
                             (0, 1)))
    results = []
    for p in enumeration_slice(300, 0, 4):
        res = run_programs([p], budget, oracle)[0]
        results.append(res)
        if res.halted:
            _check_result_against_a_fresh_run(p, res, ZERO_REAL, budget, oracle)
    one_block = [res for res in results if res.halted and len(res.blocks) == 1]
    assert len({id(res) for res in one_block}) < len(one_block)


def test_a_shared_halting_result_keeps_each_run_its_own_query_log():
    budget = BudgetPolicy(3, 64, 256)
    one, one_one = from_support([0]), from_support([0, 1])
    for members in (frozenset(), frozenset({one}), frozenset({one, one_one})):
        oracle = SetOracle(members)
        runs = [run_with_oracle(query_probe(), ZERO_REAL, oracle, budget)
                for _ in range(2)]
        assert runs[1][0] is runs[0][0] and runs[1][1] is not runs[0][1]
        for res, log in runs:
            stepped, _ = _check_explicit_against_stepping(query_probe(), res,
                                                          budget, oracle)
            assert list(log) == stepped and len(stepped) == 2
            _check_result_against_a_fresh_run(query_probe(), res, ZERO_REAL,
                                              budget, oracle)


def test_results_that_are_not_one_block_halts_are_never_shared():
    from conftest import nonzero_halter
    from test_approx import binary_counter
    odd = parse_real("1(10)*")
    cases = [(p_flip_lh(), ZERO_REAL, B, "halted"),              # after a limit
             (omega_squared_clocker(), ZERO_REAL, B, "halted"),
             (p_flip(), ZERO_REAL, B, "loops"),
             (p_sweep(), ZERO_REAL, B, "loops"),
             (nonzero_halter(12), ZERO_REAL, BudgetPolicy(3, 4, 64), "exceeded"),
             (binary_counter(), ZERO_REAL, BudgetPolicy(3, 8, 16), "exceeded"),
             (p_flip(), ZERO_REAL, BudgetPolicy(1, 64, 64), "exceeded")]
    for p, input_real, budget, outcome in cases:
        first, second = (run_transfinite(p, input_real, budget) for _ in range(2))
        assert first.outcome == outcome
        assert second is not first and second == first
        assert first.blocks == () or first.blocks[-1]._result is None
        _check_result_against_a_fresh_run(p, second, input_real, budget)
    # the same table from another input, or against another oracle real
    p = p_halt()
    at_zero, at_odd = (run_transfinite(p, x, B) for x in (ZERO_REAL, odd))
    assert at_zero.blocks[0] is not at_odd.blocks[0] and at_zero != at_odd
    for res, x in ((at_zero, ZERO_REAL), (at_odd, odd)):
        assert run_transfinite(p, x, B) is res
        _check_result_against_a_fresh_run(p, res, x, B)
    p = enumeration_slice(1, 0, 4)[0]
    oracles = [RealOracle(Real((bit,), (0,))) for bit in (0, 1)]
    runs = [run_with_oracle(p, ZERO_REAL, o, B)[0] for o in oracles]
    assert all(res.halted and len(res.blocks) == 1 for res in runs)
    assert runs[0] is not runs[1]
    assert runs[0].blocks[0].start != runs[1].blocks[0].start
    for res, o in zip(runs, oracles):
        _check_result_against_a_fresh_run(p, res, ZERO_REAL, B, o)


def _check_shared_blocks_against_fresh_ones(p, res, budget, oracle=None):
    """Each certified block equals the block that `run_block` steps from its
    start with the table emptied: every field, and every snapshot read by
    index, negative index and iteration.  Its certificate re-checks.  Returns
    the certified blocks."""
    certified = [blk for blk in res.blocks
                 if not isinstance(blk.certificate, ExceededCert)]
    for blk in certified:
        table = runner._BLOCKS
        runner._BLOCKS = weakref.WeakValueDictionary()
        try:
            fresh = run_block(blk.start, p, budget, oracle)
        finally:
            runner._BLOCKS = table
        assert fresh is not blk
        assert (fresh.start, fresh.certificate, fresh.ever_one, fresh.limit,
                fresh.rows) == (blk.start, blk.certificate, blk.ever_one,
                                blk.limit, blk.rows)
        assert verify_certificate(p, blk.start, blk.certificate, oracle)
        snaps = list(fresh.explicit)
        n = len(snaps)
        assert len(blk.explicit) == n
        assert [blk.explicit[k] for k in range(-n, 0)] == snaps
        assert [blk.explicit[k] for k in range(n)] == snaps
        assert list(blk.explicit) == snaps
    return certified


def test_shared_halting_blocks_equal_blocks_stepped_with_an_empty_table():
    budget = BudgetPolicy(3, 256, 256)
    for input_real in (ZERO_REAL, parse_real("1(10)*")):
        certified = []
        for p in enumeration_slice(3000, 2, 3):
            certified += _check_shared_blocks_against_fresh_ones(
                p, run_transfinite(p, input_real, budget), budget)
        assert len({id(blk) for blk in certified}) < len(certified) / 10
        limits = [blk for blk in certified if blk.limit is not None]
        assert len({id(blk) for blk in limits}) < len(limits) / 2
    # a read-only oracle track with a long prefix
    oracle = RealOracle(Real(tuple(int(k * k % 13 < 6) for k in range(3000)),
                             (0, 1)))
    certified = []
    for p in enumeration_slice(300, 0, 4):
        res = run_programs([p], budget, oracle)[0]
        certified += _check_shared_blocks_against_fresh_ones(p, res, budget,
                                                             oracle)
    assert len({id(blk) for blk in certified}) < len(certified)
    # a run whose block comes from the table still logs its own queries
    one, one_one = from_support([0]), from_support([0, 1])
    for members in (frozenset(), frozenset({one}), frozenset({one, one_one})):
        oracle = SetOracle(members)
        runs = [run_with_oracle(query_probe(), ZERO_REAL, oracle, budget)
                for _ in range(2)]
        assert runs[1][0].blocks[-1] is runs[0][0].blocks[-1]
        for res, log in runs:
            stepped, _ = _check_explicit_against_stepping(query_probe(), res,
                                                          budget, oracle)
            assert list(log) == stepped and len(stepped) == 2
            _check_shared_blocks_against_fresh_ones(query_probe(), res, budget,
                                                    oracle)
    # the same tapes at stage 0 and at w are different blocks
    p = p_halt()
    tracks = initial_snapshot(p).tracks
    at_0, at_w = (run_block(Snapshot(p.start_state, 0, tracks, stage), p, budget)
                  for stage in (ZERO_ORD, OMEGA))
    assert at_0 is not at_w and at_0.rows[1:] == at_w.rows[1:]
    assert at_0.explicit[-1].stage == from_int(1)
    assert at_w.explicit[-1].stage == parse_ordinal("w*1+1")


def test_a_limit_block_is_not_shared_across_depths():
    """`limit_step` overflows at depth 1, so a block held at depth 3 must not
    turn a depth-1 run into a limit."""
    p = p_sweep()
    deep = run_transfinite(p, ZERO_REAL, BudgetPolicy(3, 64, 64))
    assert deep.blocks[0].limit is not None
    shallow = run_transfinite(p, ZERO_REAL, BudgetPolicy(1, 64, 64))
    assert (shallow.outcome, shallow.reason) == ("exceeded", "ordinal-overflow")
    assert shallow.blocks == ()
    again = run_transfinite(p, ZERO_REAL, BudgetPolicy(3, 64, 64))
    assert again.blocks[0] is deep.blocks[0]


def _renamed(p: Program, old: str, new: str) -> Program:
    def name(state):
        return new if state == old else state
    return Program(track_count=p.track_count, start_state=name(p.start_state),
                   limit_state=name(p.limit_state), halt_state=name(p.halt_state),
                   rules={(name(st), read): Rule(r.write, r.move, name(r.next_state))
                          for (st, read), r in p.rules.items()})


def test_programs_that_differ_in_the_limit_state_name_share_no_limit_block():
    budget = BudgetPolicy(3, 64, 64)
    for make in (p_sweep, p_flip):
        p = make()
        q = _renamed(p, "limit", "omega")
        first, second = (run_block(initial_snapshot(prog), prog, budget)
                         for prog in (p, q))
        assert first.rows == second.rows and first is not second
        assert first.certificate == second.certificate
        assert (first.limit.state, second.limit.state) == ("limit", "omega")
        assert run_block(initial_snapshot(q), q, budget) is second
    # a halting block reads no limit state, so it is shared
    p = p_halt()
    q = _renamed(p, "limit", "omega")
    assert run_block(initial_snapshot(q), q, budget) is \
        run_block(initial_snapshot(p), p, budget)


def test_a_clamp_that_leaves_the_rows_unchanged_keeps_the_translation():
    """Staying at cell 0 and being clamped there leave equal rows, though a
    clamp clears the translation candidates.  Both blocks find the same
    certificate, so the held one is right for either program."""
    reads = list(itertools.product((0, 1), repeat=3))
    def drifter(move):
        # write scratch 1 and stay at cell 0 (S) or be clamped there (L),
        # then march right: row 0 is a candidate only without the clamp
        return total_program(3, {
            ("start", (0, 0, 0)): Rule((0, 1, 0), move, "a"),
            **{("a", r): Rule(r, "R", "b") for r in reads},
            **{("b", r): Rule(r, "R", "b") for r in reads}})
    budget = BudgetPolicy(3, 64, 64)
    staying, clamped = drifter("S"), drifter("L")
    start = initial_snapshot(staying)
    assert start == initial_snapshot(clamped)
    for first, second in ((staying, clamped), (clamped, staying)):
        fresh = {}
        for p in (first, second):
            table = runner._BLOCKS
            runner._BLOCKS = weakref.WeakValueDictionary()
            try:
                fresh[p] = run_block(start, p, budget)
            finally:
                runner._BLOCKS = table
        held = run_block(start, first, budget)
        assert run_block(start, second, budget) is held
        for p in (first, second):
            assert fresh[p] is not held
            assert (fresh[p].certificate, fresh[p].ever_one, fresh[p].limit,
                    fresh[p].rows) == (held.certificate, held.ever_one,
                                       held.limit, held.rows)
            assert verify_certificate(p, start, held.certificate)
        assert held.certificate == TranslationCert(2, 1, 1)
        del held


def test_kept_survey_results_share_their_limit_blocks():
    # the first 5,000 programs make only 30 limit blocks; 12,000 make 685
    budget = BudgetPolicy(3, 256, 256)
    results = [run_transfinite(p, ZERO_REAL, budget)
               for p in enumeration_slice(12000, 2, 3)]
    limits = [blk for res in results for blk in res.blocks
              if blk.limit is not None]
    assert len(limits) > 500
    assert len({id(blk) for blk in limits}) < len(limits) / 10


# --- one run per distinct behaviour in a batch ------------------------------

def _counting_runs(monkeypatch):
    """The (program, oracle) of every run that `run_programs` makes."""
    oracle_module = importlib.import_module("ittm.oracle")
    original = oracle_module.run_transfinite
    calls = []
    def counting(p, input_real=ZERO_REAL, budget=B, oracle=None, query_log=None):
        calls.append((p, oracle))
        return original(p, input_real, budget, oracle, query_log)
    monkeypatch.setattr(oracle_module, "run_transfinite", counting)
    return calls


def _check_batch(progs, budget, input_real=ZERO_REAL, oracle=None):
    """A batch's results equal fresh runs field by field, and every block of
    a result that an earlier program holds re-checks under the later one."""
    results = run_programs(progs, budget, oracle, input_real)
    held = set()
    for p, res in zip(progs, results):
        assert res == run_transfinite(p, input_real, budget, oracle)
        if id(res) in held:
            for block in res.blocks:
                assert verify_certificate(p, block.start, block.certificate,
                                          oracle)
        held.add(id(res))
    return results


def test_batch_results_equal_fresh_runs_on_the_random_tables(monkeypatch):
    """At depth 1 every run that reaches a limit overflows while its first
    block builds that limit, and the result does not hold the block."""
    calls = _counting_runs(monkeypatch)
    progs = random_tables(2000)
    cases = [(ZERO_REAL, BudgetPolicy(4, 256, 256)),
             (parse_real("1(10)*"), BudgetPolicy(4, 256, 256)),
             (ZERO_REAL, BudgetPolicy(1, 64, 64))]
    for x, budget in cases:
        calls.clear()
        results = _check_batch(progs, budget, x)
        assert len(calls) < len(progs)
        assert len({id(res) for res in results}) <= len(calls)
    assert "ordinal-overflow" in {res.reason for res in results}
    assert _check_batch([p_flip(), p_halt()], BudgetPolicy(1, 64, 64))[1].halted


def test_programs_that_differ_only_at_a_slot_neither_reads_share_one_result(
        monkeypatch):
    calls = _counting_runs(monkeypatch)
    halt_first, flip = p_halt(), p_flip()
    unread = [total_program(3, {**dict(halt_first.rules),
                                ("start", (1, 1, 1)): Rule((1, 1, 1), "R", "start"),
                                ("limit", (0, 0, 0)): Rule((0, 1, 0), "S", "limit")}),
              total_program(3, {**dict(flip.rules),
                                ("start", (1, 0, 0)): Rule((0, 0, 0), "L", "halt")})]
    results = _check_batch([halt_first, flip] + unread, B)
    assert results[2] is results[0] and results[3] is results[1]
    assert [p for p, _ in calls] == [halt_first, flip]


def test_a_clamped_left_and_a_stay_at_cell_0_share_no_result(monkeypatch):
    """Equal rows, equal results, and still no shared result: the two
    programs read the same slots but find different rules there."""
    calls = _counting_runs(monkeypatch)
    reads = list(itertools.product((0, 1), repeat=3))
    def drifter(move):
        return total_program(3, {
            ("start", (0, 0, 0)): Rule((0, 1, 0), move, "a"),
            **{("a", r): Rule(r, "R", "b") for r in reads},
            **{("b", r): Rule(r, "R", "b") for r in reads}})
    staying, clamped = drifter("S"), drifter("L")
    results = _check_batch([staying, clamped, drifter("S"), drifter("L")], B)
    assert results[0] == results[1] and results[0] is not results[1]
    assert results[2] is results[0] and results[3] is results[1]
    assert results[0].blocks[0].certificate == TranslationCert(2, 1, 1)
    assert len(calls) == 2


def test_renaming_the_limit_or_the_halt_state_shares_nothing(monkeypatch):
    """Each pair reads the same slots and finds the same rules there, but
    names a different limit or halt state."""
    calls = _counting_runs(monkeypatch)
    reads = list(itertools.product((0, 1), repeat=3))
    flip = p_flip()
    # the limit state renamed, and `limit` kept as a work state
    omega = Program(track_count=3, start_state="start", limit_state="omega",
                    halt_state="halt",
                    rules={**dict(flip.rules), **{("omega", r): Rule(r, "S", "halt")
                                                  for r in reads}})
    halt_first = p_halt()
    # the halt state renamed, and `halt` kept as a work state
    stop = Program(track_count=3, start_state="start", limit_state="limit",
                   halt_state="stop",
                   rules={**dict(halt_first.rules),
                          **{("halt", r): Rule((1, 1, 1), "S", "stop")
                             for r in reads}})
    pairs = [(flip, omega), (flip, _renamed(flip, "limit", "omega")),
             (halt_first, stop), (halt_first, _renamed(halt_first, "halt", "stop"))]
    for p, q in pairs:
        calls.clear()
        first, second = _check_batch([p, q], B)
        assert first is not second and len(calls) == 2
    assert _check_batch([flip, omega], B)[1].halted


def test_batches_key_slots_by_state_and_read_across_layouts(monkeypatch):
    """`0a` sorts before `a`, so the slot (a, 000) sits at position 16 of one
    layout and 24 of the other, and position 16 holds the same rule in
    both."""
    calls = _counting_runs(monkeypatch)
    zero = (0, 0, 0)
    p = total_program(3, {("start", zero): Rule(zero, "S", "a"),
                          ("a", zero): Rule((0, 0, 1), "S", "halt")})
    q = total_program(3, {("start", zero): Rule(zero, "S", "a"),
                          ("0a", zero): Rule((0, 0, 1), "S", "halt"),
                          ("a", zero): Rule(zero, "S", "halt")})
    assert p.rules.rules[16] == q.rules.rules[16]
    assert p.rules.slots["a", zero] == 16 and q.rules.slots["a", zero] == 24
    first, second = _check_batch([p, q], B)
    assert first.output != second.output and len(calls) == 2


def test_oracle_batch_results_equal_fresh_runs(monkeypatch):
    """Against a real and a set oracle, on periodic rows, both inputs and at
    depth 1, where results are cut by an overflow."""
    calls = _counting_runs(monkeypatch)
    progs = enumeration_slice(1000, 1, 4) + random_tables(300, 4)
    rows = [parse_real(text) for text in ("(0)*", "1(0)*", "0(01)*", "101(110)*")]
    cases = [(ZERO_REAL, BudgetPolicy(4, 256, 256)),
             (parse_real("1(10)*"), BudgetPolicy(4, 256, 256)),
             (ZERO_REAL, BudgetPolicy(1, 64, 64))]
    reasons = set()
    for row in rows:
        for oracle in (RealOracle(row), SetOracle(frozenset({row}))):
            for x, budget in cases:
                calls.clear()
                results = _check_batch(progs, budget, x, oracle)
                assert len(calls) < len(progs)
                assert {o for _p, o in calls} == {oracle}
                reasons |= {res.reason for res in results}
    assert "ordinal-overflow" in reasons


def test_a_leaf_that_cannot_be_derived_gives_its_place_to_the_next_run(
        monkeypatch):
    """At depth 1 a run that reaches a limit is cut by an overflow, so its
    slots cannot be derived.  The next program whose walk reaches its leaf
    runs and is hung there in its place, so a batch makes as many runs in
    either order."""
    calls = _counting_runs(monkeypatch)
    budget = BudgetPolicy(1, 64, 64)
    tables, enumerated = random_tables(150, 4), enumeration_slice(300, 1, 4)
    for oracle, both in ((None, 266), (RealOracle(parse_real("(0)*")), 267)):
        for progs, runs in ((tables, 144), (enumerated, 144),
                            (tables + enumerated, both),
                            (enumerated + tables, both)):
            calls.clear()
            results = _check_batch(progs, budget, ZERO_REAL, oracle)
            assert len(calls) == runs
        assert "ordinal-overflow" in {res.reason for res in results}


def test_oracle_batches_share_runs_and_query_programs_always_run(monkeypatch):
    calls = _counting_runs(monkeypatch)
    progs = enumeration_slice(200, 0, 4)
    real = RealOracle(parse_real("1(0)*"))
    assert run_programs(progs, B, real) == [run_transfinite(p, ZERO_REAL, B, real)
                                            for p in progs]
    assert len(calls) == 57
    probes = [query_probe(), query_probe(), extend_to_oracle_tracks(p_halt()),
              query_probe()]
    for oracle in (None, SetOracle(frozenset({from_support([0])}))):
        calls.clear()
        results = run_programs(probes, B, oracle)
        assert [p for p, _ in calls] == probes
        assert all(o is not None for p, o in calls if p.query_state is not None)
        for p, res in zip(probes, results):
            if p.query_state is not None:
                answered = oracle or SetOracle(frozenset())
                fresh, log = run_with_oracle(p, ZERO_REAL, answered, B)
                assert res == fresh and len(log) == 2
                stepped, _ = _check_explicit_against_stepping(p, res, B, answered)
                assert list(log) == stepped
    # an oracle needs 4 tracks, whatever the batch ran before
    for batch in ([p_halt()], progs[:3] + [p_halt()]):
        with pytest.raises(OracleProtocolError):
            run_programs(batch, B, real)


def test_kept_batch_results_hold_few_tracked_objects():
    """12,000 programs make 142 distinct results, which hold 1,427 new
    tracked objects; a list of single runs holds 3,617.  The trie itself
    holds none once the call returns."""
    budget = BudgetPolicy(3, 256, 256)
    progs = enumeration_slice(12000, 2, 3)
    run_programs(progs, budget)   # fills the shared small ordinals and starts
    kept, results = _tracked_objects_made_by(lambda: run_programs(progs, budget))
    assert len(kept) <= 0.15 * len(results)


def test_soundness_checks_survive_python_O():
    """The checks are raised, not asserted, so `python -O` keeps them."""
    script = "\n".join([
        "from ittm import approx, oracle",
        "from ittm.ordinal import OMEGA",
        "from ittm.reals import ZERO",
        "from ittm.runner import RunResult",
        "assert False, 'asserts are on'",
        "try:",
        "    RunResult('halted', (), time=OMEGA, output=ZERO)",
        "except AssertionError as exc:",
        "    print(exc)",
        "oracle.default_rule = lambda state, tracks: None",
        "try:",
        "    next(oracle.enumerate_programs(0))",
        "except AssertionError as exc:",
        "    print(exc)",
        "d = approx.Diagonal([ZERO])",
        "d.word = 0",
        "try:",
        "    d.real()",
        "except AssertionError as exc:",
        "    print(exc)"])
    src = str(Path(ordinal.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["halting times are never limit ordinals",
                                        "the first option is not the default rule",
                                        "the diagonal equals a listed real"]


def test_halting_time_examples():
    assert run_transfinite(p_halt(), ZERO_REAL, B).time == from_int(1)
    assert run_transfinite(p_flip_lh(), ZERO_REAL, B).time == parse_ordinal("w*1+1")
    res = run_transfinite(p_flip(), ZERO_REAL, B)
    assert res.time is None and res.outcome != "exceeded"
    res = run_transfinite(p_sweep(), ZERO_REAL, B)
    assert res.time is None and res.outcome != "exceeded"   # sweeps loop at w*2
    from conftest import nonzero_halter
    res = run_transfinite(nonzero_halter(10), ZERO_REAL, BudgetPolicy(3, 4, 16))
    assert res.time is None and res.outcome == "exceeded"


def test_halted_time_never_limit():
    from ittm.runner import RunResult
    with pytest.raises(AssertionError):
        RunResult("halted", (), time=OMEGA, output=ZERO_REAL)


def test_loop_strong_sense_rejects_escaping_snapshot():
    # scratch cell 0 flips below every limit, but the machine escapes the
    # apparent repeat: after the limit it marches one cell right each block,
    # so block limits differ and no Loops verdict may fire early
    overrides = {}
    for read in itertools.product((0, 1), repeat=3):
        i, s, o = read
        overrides[("start", read)] = Rule((i, 1 - s, o), "S", "start")
        overrides[("limit", read)] = Rule((i, 0, o), "R", "mark")
        overrides[("mark", read)] = Rule((i, 1, o), "R", "walk")
        overrides[("walk", read)] = Rule((i, 1 - s, o), "S", "walk")
    p = total_program(3, overrides)
    r = run_transfinite(p, ZERO_REAL, BudgetPolicy(3, 48, 256))
    if r.outcome == "loops":
        assert r.loop.first != OMEGA


def test_exceeded_on_depth_one():
    r = run_transfinite(p_flip(), ZERO_REAL, BudgetPolicy(1, 64, 256))
    assert r.outcome == "exceeded" and r.reason == "ordinal-overflow"


def test_certificates_verify_and_tampered_ones_fail():
    for p in (p_flip(), p_sweep(), p_halt()):
        blk = run_block(initial_snapshot(p), p, B)
        assert verify_certificate(p, initial_snapshot(p), blk.certificate)
    blk = run_block(initial_snapshot(p_flip()), p_flip(), B)
    assert not verify_certificate(p_flip(), initial_snapshot(p_flip()),
                                  RepeatCert(0, 3))
    assert not verify_certificate(p_sweep(), initial_snapshot(p_sweep()),
                                  TranslationCert(0, 1, 2))
    assert not verify_certificate(p_halt(), initial_snapshot(p_halt()),
                                  HaltAt(2))


def test_vacuous_and_unknown_certificates_are_rejected():
    # p_halt halts at once, so no repeat or translation may be certified
    # from its start, however short the cited span
    p, start = p_halt(), initial_snapshot(p_halt())
    for cert in (RepeatCert(0, 0), RepeatCert(-1, 1), RepeatCert(0, -1),
                 TranslationCert(0, 0, 1), TranslationCert(-1, 1, 1),
                 HaltAt(-1), ExceededCert(-1)):
        assert not verify_certificate(p, start, cert), cert
    assert verify_certificate(p, start, HaltAt(1))
    for cert in (LoopCert(ZERO_ORD, OMEGA), None):
        with pytest.raises(ValueError, match="unknown certificate"):
            verify_certificate(p, start, cert)


def test_repeat_limit_matches_brute_limsup():
    # the certified w-limit equals per-cell OR over [mu, mu + 4*pi)
    for p in (p_flip(), p_flip_lh(), zero_halter()):
        blk = run_block(initial_snapshot(p), p, B)
        if not isinstance(blk.certificate, RepeatCert):
            continue
        mu, pi = blk.certificate.mu, blk.certificate.pi
        s = initial_snapshot(p)
        trail = [s]
        for _ in range(mu + 4 * pi):
            s = step(s, p)
            trail.append(s)
        for t in range(3):
            for cell in range(16):
                brute = max(snap.tracks[t].bit(cell)
                            for snap in trail[mu: mu + 4 * pi])
                assert blk.limit.tracks[t].bit(cell) == brute


def test_determinism_bitwise():
    a = run_transfinite(p_flip(), ZERO_REAL, B)
    b = run_transfinite(p_flip(), ZERO_REAL, B)
    assert a.outcome == b.outcome and a.loop == b.loop
    assert [blk.certificate for blk in a.blocks] == \
        [blk.certificate for blk in b.blocks]
    assert [blk.limit for blk in a.blocks] == \
        [blk.limit for blk in b.blocks]


def test_translation_ever_one_matches_brute_force():
    p = p_sweep()
    blk = run_block(initial_snapshot(p), p, B)
    cert = blk.certificate
    assert isinstance(cert, TranslationCert)
    steps = 60
    s = initial_snapshot(p)
    ever = [set() for _ in range(3)]
    for t in range(3):
        for cell in range(steps):
            if s.tracks[t].bit(cell):
                ever[t].add(cell)
    for _ in range(steps):
        s = step(s, p)
        for t in range(3):
            for cell in range(steps):
                if s.tracks[t].bit(cell):
                    ever[t].add(cell)
    h0 = blk.explicit[cert.mu].head
    safe = h0 + ((steps - cert.mu - cert.pi) // cert.pi) * cert.shift
    for t in range(3):
        for cell in range(safe):
            assert blk.ever_one[t].bit(cell) == (1 if cell in ever[t] else 0)


def test_certified_limits_are_within_ever_one_across_survey():
    from ittm.oracle import enumeration_slice
    from ittm.reals import and_not
    budget = BudgetPolicy(3, 64, 128)
    for p in enumeration_slice(300, 0, 3):
        res = run_transfinite(p, ZERO_REAL, budget)
        for blk in res.blocks:
            if blk.limit is None:
                continue
            for t in range(3):
                assert and_not(blk.limit.tracks[t], blk.ever_one[t]).is_zero()


def test_omega_squared_halting_time():
    p = omega_squared_clocker()
    res = run_transfinite(p, ZERO_REAL, BudgetPolicy(3, 64, 256))
    assert res.outcome == "halted"
    assert res.time == parse_ordinal("w^2*1+1")
    # the level-2 limit really was taken, with the transient cell set
    assert any(level == 2 and snap.tracks[1].bit(0) == 1
               for level, snap in res.limits)
    # and the block limits below it agree and have the transient clear
    s_omega = res.blocks[0].limit
    assert s_omega.tracks[1].bit(0) == 0 and s_omega.tracks[1].bit(1) == 1
    # at depth 2 the w^2 stage cannot be labeled
    shallow = run_transfinite(p, ZERO_REAL, BudgetPolicy(2, 64, 256))
    assert shallow.outcome == "exceeded" and shallow.reason == "ordinal-overflow"
