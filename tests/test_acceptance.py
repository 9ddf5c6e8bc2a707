"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated wall-clock bound.

The surveyed space is the first SURVEY_BOUND programs of the canonical
3-track enumeration with up to two work states, plus the four reference
machines; it mixes immediate halts, clockable times past the first limit,
repeat and translation certificates, loops, and budget exhaustion.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import pytest

from conftest import (looper, nonzero_halter, oracle_bit_halter, query_probe,
                      zero_halter)

from ittm.approx import (approximate_jump, iterated_matrix, join_rows,
                         validate_erasures)
from ittm.fm import (BY_DIVERGENCE, BY_WITNESS, check_event_log,
                     check_witness_hygiene, fm_construct)
from ittm.machine import (extend_to_oracle_tracks, p_flip, p_flip_lh, p_halt,
                          p_sweep)
from ittm.oracle import (RealOracle, enumeration_slice, jump_lightface,
                         run_programs)
from ittm.ordinal import (Ordinal, OMEGA, ZERO as ZERO_ORD, cnf_add, cnf_cmp,
                          element_of, encode_order, from_int, ordinal_at,
                          pair_index, parse_ordinal, unpair)
from ittm.reals import ZERO as ZERO_REAL, from_support
from ittm.runner import (BudgetPolicy, RepeatCert, TranslationCert,
                         run_transfinite, step)

SURVEY_BOUND = 60000
SURVEY_BUDGET = BudgetPolicy(3, 256, 256)
JUMP_EXHAUSTIVE_BOUND = 96
JUMP_SPOT_BOUNDS = (1000, 4000, 8000)


@pytest.fixture(scope="module")
def survey():
    started = time.time()
    programs = enumeration_slice(SURVEY_BOUND, 2, 3)
    programs += [p_halt(), p_flip(), p_flip_lh(), p_sweep(),
                 looper(3), nonzero_halter(5)]
    results = [run_transfinite(p, ZERO_REAL, SURVEY_BUDGET) for p in programs]
    return {"programs": programs, "results": results,
            "build_seconds": time.time() - started}


def test_criterion_1_limit_rule_exactness(survey):
    started = time.time()
    repeat_checked = translation_checked = 0
    for program, res in zip(survey["programs"], survey["results"]):
        for blk in res.blocks:
            cert = blk.certificate
            if isinstance(cert, RepeatCert) and cert.mu + cert.pi <= 1024:
                mu, pi = cert.mu, cert.pi
                s = blk.start
                trail = [s]
                for _ in range(mu + 4 * pi):
                    s = step(s, program)
                    trail.append(s)
                window = trail[mu: mu + 4 * pi]
                cells = 2 * (mu + 4 * pi) + 8
                for t in range(3):
                    for cell in range(cells):
                        brute = max(snap.tracks[t].bit(cell) for snap in window)
                        assert blk.limit.tracks[t].bit(cell) == brute, \
                            (program.digest(), cert, t, cell)
                repeat_checked += 1
            elif isinstance(cert, TranslationCert) and cert.mu + cert.pi <= 1024:
                # cells already passed by the drift are final: pure stepping
                # through k extra cycles must agree with the certified limit
                mu, pi, d = cert.mu, cert.pi, cert.shift
                h0 = blk.explicit[mu].head
                extra = mu + 6 * pi
                s = blk.start
                for _ in range(extra):
                    s = step(s, program)
                safe = h0 + ((extra - mu - pi) // pi) * d
                for t in range(3):
                    for cell in range(safe):
                        assert blk.limit.tracks[t].bit(cell) == s.tracks[t].bit(cell), \
                            (program.digest(), cert, t, cell)
                translation_checked += 1
    assert repeat_checked > 500 and translation_checked > 500
    elapsed = time.time() - started + survey["build_seconds"]
    print("ACCEPTANCE 1 limit-rule exactness     PASS (%.1fs incl. survey build;"
          " %d repeat + %d translation certificates)"
          % (elapsed, repeat_checked, translation_checked))
    assert elapsed < 60


def test_criterion_2_loop_soundness(survey):
    started = time.time()
    bigger = SURVEY_BUDGET.scaled(4)
    loops = 0
    for program, res in zip(survey["programs"], survey["results"]):
        if res.outcome != "loops":
            continue
        redo = run_transfinite(program, ZERO_REAL, bigger)
        assert redo.outcome != "halted", program.digest()
        assert redo.outcome == "loops" and redo.loop == res.loop
        loops += 1
    assert loops >= 50
    elapsed = time.time() - started
    print("ACCEPTANCE 2 loop-certificate soundness PASS (%.1fs; %d verdicts)"
          % (elapsed, loops))
    assert elapsed < 60


def test_criterion_3_clockable_micro_facts(survey):
    started = time.time()
    r = run_transfinite(p_halt(), ZERO_REAL, SURVEY_BUDGET)
    assert r.outcome == "halted" and r.time == from_int(1)
    r = run_transfinite(p_flip_lh(), ZERO_REAL, SURVEY_BUDGET)
    assert r.outcome == "halted" and r.time == parse_ordinal("w*1+1")
    r = run_transfinite(p_flip(), ZERO_REAL, SURVEY_BUDGET)
    assert r.outcome == "loops"
    elapsed = time.time() - started
    print("ACCEPTANCE 3 clockable micro-facts    PASS (%.1fs)" % elapsed)
    assert elapsed < 1
    for res in survey["results"]:
        if res.outcome == "halted":
            assert not res.time.is_limit()


def test_criterion_4_jump_coherence(survey):
    started = time.time()
    base = survey["programs"]
    for bound in list(range(JUMP_EXHAUSTIVE_BOUND + 1)) + list(JUMP_SPOT_BOUNDS):
        progs = base[:bound]
        stream = approximate_jump(run_programs(progs, SURVEY_BUDGET))
        snaps = stream.snapshots()
        for (st1, h1), (st2, h2) in zip(snaps, snaps[1:]):
            assert st1 <= st2 and h1 <= h2
        jump = jump_lightface(progs, None, SURVEY_BUDGET)
        assert stream.final() == jump.halted_set()
        assert dict((p, t) for t, p in stream.events) == dict(jump.halted)
    elapsed = time.time() - started
    print("ACCEPTANCE 4 jump coherence           PASS (%.1fs; bounds 0..%d and %s)"
          % (elapsed, JUMP_EXHAUSTIVE_BOUND, list(JUMP_SPOT_BOUNDS)))
    assert elapsed < 60


MATRIX_PROGRAMS = [extend_to_oracle_tracks(p_halt()), oracle_bit_halter(1),
                   extend_to_oracle_tracks(p_flip()), oracle_bit_halter(0),
                   extend_to_oracle_tracks(nonzero_halter(2))]
MATRIX_BUDGET = BudgetPolicy(3, 128, 256)


def test_criterion_5_matrix_invariants():
    started = time.time()
    orders = [from_int(1), from_int(2), from_int(3), OMEGA,
              parse_ordinal("w*1+1")]
    for alpha in orders:
        code = encode_order(alpha, 256)
        matrix = iterated_matrix(code, MATRIX_PROGRAMS, MATRIX_BUDGET, row_cap=5)
        assert validate_erasures(matrix) == [], alpha.render()
        for entry in matrix.erasure_log:
            assert entry.cause == "lower-row-change"
        for lo, hi in matrix.successor_pairs():
            results = run_programs(MATRIX_PROGRAMS, MATRIX_BUDGET,
                                   RealOracle(matrix.rows[lo]))
            redo = approximate_jump(results)
            assert matrix.rows[hi] == redo.final_real(), (alpha.render(), hi.render())
        for lam in matrix.limit_ranks():
            expect = set()
            for beta in matrix.ranks:
                if not (beta < lam):
                    continue
                n = element_of(beta)
                bound = matrix.rows[beta].support_bound()
                for m in range(bound):
                    if matrix.rows[beta].bit(m):
                        expect.add(pair_index(n, m))
            assert matrix.rows[lam] == from_support(expect)
            assert matrix.rows[lam] == join_rows(matrix.rows, lam)
        assert matrix.rows[ZERO_ORD].is_zero()
        if alpha <= from_int(3):
            assert not matrix.partial
    elapsed = time.time() - started
    print("ACCEPTANCE 5 matrix invariants        PASS (%.1fs)" % elapsed)
    assert elapsed < 120


FM_PROGRAMS = [query_probe(), zero_halter(), nonzero_halter(1),
               nonzero_halter(2), nonzero_halter(3), looper(0), looper(2)]
FM_BUDGET = BudgetPolicy(3, 128, 2048)


def test_criterion_6_fm_invariants():
    started = time.time()
    state, report = fm_construct(FM_PROGRAMS, FM_BUDGET)
    assert report is not None and report["flags"] == []
    assert check_event_log(state) == []
    assert check_witness_hygiene(state) == []
    classifications = {e["requirement"]: e["classification"]
                       for e in report["requirements"]}
    assert set(classifications.values()) <= {BY_WITNESS, BY_DIVERGENCE}
    assert classifications["R_0"] == BY_WITNESS
    assert classifications["S_0"] == BY_WITNESS
    assert classifications["R_5"] == BY_DIVERGENCE      # looper
    injured = [e for e in report["requirements"] if e["injuries"]]
    assert injured, "the scripted mix must exercise the injury machinery"
    for entry in report["requirements"]:
        for _stage, by in entry["injuries"]:
            assert by < entry["priority"]
    # determinism of the full event log
    state2, report2 = fm_construct(FM_PROGRAMS, FM_BUDGET)
    assert state.events == state2.events and report == report2
    elapsed = time.time() - started
    print("ACCEPTANCE 6 fm invariants            PASS (%.1fs; %d events,"
          " %d injuries)" % (elapsed, len(state.events), len(injured)))
    assert elapsed < 120


def _ind_lt(a: Ordinal, b: Ordinal) -> bool:
    width = max(a.degree(), b.degree(), 0) + 1
    ca, cb = dict(a.terms), dict(b.terms)
    return tuple(ca.get(e, 0) for e in range(width - 1, -1, -1)) < \
        tuple(cb.get(e, 0) for e in range(width - 1, -1, -1))


def _code_mask(alpha: Ordinal, width_bits: int) -> int:
    """Materialized code prefix as a bitmask, ranks compared independently."""
    mask = 0
    for k in range(width_bits):
        i, j = unpair(k)
        ri, rj = ordinal_at(i), ordinal_at(j)
        if i == j:
            if _ind_lt(ri, alpha):
                mask |= 1 << k
        elif _ind_lt(ri, rj) and _ind_lt(rj, alpha):
            mask |= 1 << k
    return mask


def test_criterion_7_ordinal_arithmetic_vs_coding_oracle():
    started = time.time()
    pool = []
    for c2 in range(4):
        for c1 in range(4):
            for c0 in range(4):
                pool.append(Ordinal(tuple(
                    (e, c) for e, c in ((2, c2), (1, c1), (0, c0)) if c)))
    width = 2048
    masks = {a: _code_mask(a, width) for a in pool}
    # bind the independent mask computation to the artifact's own codes
    for a in pool[:6] + pool[-2:]:
        code = encode_order(a, 256)
        for k in range(256):
            assert ((masks[a] >> k) & 1) == code.bit_at(k), (a, k)
    for a in pool:
        for b in pool:
            sub_ab = masks[a] & ~masks[b] == 0
            sub_ba = masks[b] & ~masks[a] == 0
            # identity embedding of materialized prefixes; strictness is
            # witnessed by the smaller ordinal's own domain-marker bit,
            # materialized at its exact pair position
            wa_in_b = _ind_lt(a, b)
            wb_in_a = _ind_lt(b, a)
            assert wa_in_b == bool(encode_order(b, 0).bit_at(
                pair_index(element_of(a), element_of(a))))
            if wa_in_b and not wb_in_a:
                oracle = -1
                assert sub_ab
            elif wb_in_a and not wa_in_b:
                oracle = 1
                assert sub_ba
            else:
                oracle = 0
                assert sub_ab and sub_ba and masks[a] == masks[b]
            assert cnf_cmp(a, b) == oracle, (a, b)
    for a in pool:
        for b in pool:
            for c in pool:
                assert cnf_add(cnf_add(a, b), c) == cnf_add(a, cnf_add(b, c))
    elapsed = time.time() - started
    print("ACCEPTANCE 7 ordinal order vs codes   PASS (%.1fs; %d ordinals)"
          % (elapsed, len(pool)))
    assert elapsed < 30


def test_criterion_8_byte_determinism(tmp_path):
    started = time.time()
    from ittm.cli import main
    recipes = {
        "survey": ["survey", "--states", "0", "--bound", "300", "--budget",
                   "128", "--cap", "128"],
        "jump": ["jump", "--states", "0", "--bound", "300", "--budget", "128"],
        "matrix": ["matrix", "--order", "3", "--states", "0", "--bound", "6",
                   "--budget", "96"],
        "fm": ["fm", "--states", "0", "--bound", "2", "--budget", "96"],
    }
    for name, argv in recipes.items():
        blobs = []
        for k in range(2):
            out = tmp_path / ("%s-%d.json" % (name, k))
            args = list(argv)
            if name == "fm":
                rep = tmp_path / ("%s-%d-report.json" % (name, k))
                args += ["--events", str(out), "--report", str(rep)]
                main(args)
                blobs.append(out.read_bytes() + rep.read_bytes())
            else:
                args += ["--out", str(out)]
                main(args)
                blobs.append(out.read_bytes())
        assert all(b == blobs[0] for b in blobs[1:]), name
    elapsed = time.time() - started
    print("ACCEPTANCE 8 byte determinism         PASS (%.1fs)" % elapsed)
    assert elapsed < 120
