import itertools
import re

import pytest

from ittm.ordinal import (Ordinal, OMEGA, ONE, ZERO, BudgetOrdinalOverflow,
                          cnf_add, cnf_cmp, element_of, encode_order, from_int,
                          limit_step, ordinal_at, pair_index, parse_ordinal,
                          successor, unpair)

W = OMEGA
W2 = Ordinal(((2, 1),))


def lex_triple(o: Ordinal):
    """Independent order on ordinals below w^3: lex on coefficient triples."""
    assert o.degree() <= 2
    coeff = {e: c for e, c in o.terms}
    return (coeff.get(2, 0), coeff.get(1, 0), coeff.get(0, 0))


def ind_lt(a: Ordinal, b: Ordinal) -> bool:
    """Independent comparison for any CNF ordinals: lex on the full
    coefficient vector, most significant power first."""
    width = max(a.degree(), b.degree(), 0) + 1
    ca, cb = dict(a.terms), dict(b.terms)
    ka = tuple(ca.get(e, 0) for e in range(width - 1, -1, -1))
    kb = tuple(cb.get(e, 0) for e in range(width - 1, -1, -1))
    return ka < kb


def small_universe(limit_coeff):
    out = []
    for c2 in range(limit_coeff + 1):
        for c1 in range(limit_coeff + 1):
            for c0 in range(limit_coeff + 1):
                terms = [(2, c2), (1, c1), (0, c0)]
                out.append(Ordinal(tuple((e, c) for e, c in terms if c)))
    return out


def test_cmp_examples():
    assert cnf_cmp(cnf_add(W, ONE), W) == 1          # successor exceeds base
    assert cnf_cmp(ZERO, ZERO) == 0
    assert cnf_cmp(parse_ordinal("w*2"), parse_ordinal("w*1+5")) == 1


def test_cmp_is_a_linear_order_on_the_small_universe():
    uni = small_universe(3)
    for a in uni:
        assert cnf_cmp(a, a) == 0
        for b in uni:
            c = cnf_cmp(a, b)
            assert c == -cnf_cmp(b, a)
            assert c == (-1 if lex_triple(a) < lex_triple(b)
                         else (0 if lex_triple(a) == lex_triple(b) else 1))


def test_add_examples():
    assert cnf_add(W, ONE) == parse_ordinal("w*1+1")
    assert cnf_add(ONE, W) == W                       # left absorption
    # (w+2) + w*3 = w*4: the finite tail dissolves into the first limit
    assert cnf_add(parse_ordinal("w*1+2"), parse_ordinal("w*3")) == parse_ordinal("w*4")


def _pred(o: Ordinal) -> Ordinal:
    assert o.is_successor()
    terms = list(o.terms)
    e, c = terms[-1]
    terms[-1] = (e, c - 1)
    if terms[-1][1] == 0:
        terms.pop()
    return Ordinal(tuple(terms))


def _fundamental(o: Ordinal, n: int):
    """Strictly increasing sample approaching a limit ordinal from below."""
    assert o.is_limit()
    head = list(o.terms)
    e, c = head.pop()
    if c > 1:
        head.append((e, c - 1))
    base = Ordinal(tuple(head))
    if e == 1:
        return [cnf_add(base, from_int(k)) for k in range(1, n + 1)]
    return [cnf_add(base, Ordinal(((e - 1, k),))) for k in range(1, n + 1)]


def _ind_key(o: Ordinal):
    coeff = dict(o.terms)
    return tuple(coeff.get(e, 0) for e in (2, 1, 0))


def _from_key(key):
    return Ordinal(tuple((2 - pos, c) for pos, c in enumerate(key) if c))


def _sup_of_increasing(vals):
    """Sup of a strictly increasing sample of a fundamental-sequence image:
    coefficient vectors share a prefix and exactly one coordinate climbs
    without bound, so the sup bumps the last shared coordinate."""
    keys = [_ind_key(v) for v in vals]
    for pos in range(3):
        col = [k[pos] for k in keys]
        if any(c != col[0] for c in col):
            assert all(y > x for x, y in zip(col, col[1:]))
            assert all(k[q] == 0 for k in keys for q in range(pos + 1, 3))
            assert pos >= 1
            prefix = list(keys[0][:pos])
            prefix[-1] += 1
            return _from_key(tuple(prefix) + (0,) * (3 - pos))
    raise AssertionError("samples do not increase")


def add_oracle(a: Ordinal, b: Ordinal, memo=None) -> Ordinal:
    """Ordinal sum by its defining recursion: identity at zero, iterated
    successor at successors, sup of a fundamental-sequence image at limits."""
    memo = {} if memo is None else memo
    if (a, b) in memo:
        return memo[(a, b)]
    if b.is_zero():
        out = a
    elif b.is_successor():
        out = successor(add_oracle(a, _pred(b), memo))
    else:
        out = _sup_of_increasing(
            [add_oracle(a, x, memo) for x in _fundamental(b, 8)])
    memo[(a, b)] = out
    return out


def test_add_agrees_with_the_recursion_oracle():
    inputs = small_universe(2)
    memo = {}
    for a in inputs:
        for b in inputs:
            assert cnf_add(a, b) == add_oracle(a, b, memo), (a, b)


def test_add_identity_and_associativity():
    uni = small_universe(2)
    for a in uni:
        assert cnf_add(a, ZERO) == a
        assert cnf_add(ZERO, a) == a
    for a, b, c in itertools.product(small_universe(1), repeat=3):
        assert cnf_add(cnf_add(a, b), c) == cnf_add(a, cnf_add(b, c))


def test_successor_and_limit_step_examples():
    assert successor(W) == parse_ordinal("w*1+1")
    assert limit_step(from_int(5), 1, 3) == W
    assert limit_step(parse_ordinal("w*2+3"), 2, 3) == W2
    assert limit_step(W, 1, 3) == parse_ordinal("w*2")
    assert limit_step(ZERO, 1, 3) == W


def test_limit_step_scan_check():
    # least multiple of w^level strictly above, cross-checked by scanning
    uni = sorted(small_universe(4), key=lex_triple)
    for a in small_universe(2):
        for level in (1, 2):
            want = next(u for u in uni
                        if cnf_cmp(u, a) == 1
                        and all(e >= level for e, _ in u.terms) and u.terms)
            assert limit_step(a, level, 5) == want


def test_limit_step_overflow():
    with pytest.raises(BudgetOrdinalOverflow):
        limit_step(parse_ordinal("w^2*4"), 2, 2)
    with pytest.raises(BudgetOrdinalOverflow):
        limit_step(ZERO, 3, 3)
    assert limit_step(parse_ordinal("w^2*4"), 2, 3) == parse_ordinal("w^2*5")
    with pytest.raises(ValueError):
        limit_step(ZERO, 0, 3)


def test_parse_and_render():
    for text in ["0", "1", "w*1", "w*1+1", "w^2*3+w*1+4"]:
        assert parse_ordinal(text).render() == text
    assert parse_ordinal("w^2+w+1") == parse_ordinal("w^2*1+w*1+1")
    with pytest.raises(ValueError):
        parse_ordinal("1+w")      # not in normal form
    with pytest.raises(ValueError):
        parse_ordinal("w*0")
    # exponents and coefficients are ASCII digit strings, and every
    # malformed term gets the same message
    for term in ["w^w", "w*", "3w", "w*1_0", "w^ 2", "w*\u0663", "w^-1", "ww",
                 "w*0"]:
        with pytest.raises(ValueError, match="^bad ordinal term %s$"
                           % re.escape(repr(term))):
            parse_ordinal(term)


def test_pairing_examples_and_bijection():
    assert pair_index(0, 0) == 0
    for i in range(40):
        for j in range(40):
            assert unpair(pair_index(i, j)) == (i, j)
    for n in range(1600):
        i, j = unpair(n)
        assert pair_index(i, j) == n


def test_global_numbering_round_trips():
    for n in range(400):
        assert element_of(ordinal_at(n)) == n
    assert ordinal_at(0) == ZERO
    assert ordinal_at(1) == ONE
    assert ordinal_at(2) == from_int(2)
    assert ordinal_at(3) == W


def test_encode_order_zero_is_empty():
    code = encode_order(ZERO, 16)
    assert code.prefix_bits() == (0,) * 16


def test_encode_order_three_is_the_three_chain():
    code = encode_order(from_int(3), 64)
    ones = {k for k in range(64) if code.bit_at(k)}
    expect = set()
    for i in range(3):
        expect.add(pair_index(i, i))                 # domain markers
        for j in range(i + 1, 3):
            expect.add(pair_index(i, j))             # 0 < 1 < 2
    assert ones == {k for k in expect if k < 64}


def test_encode_order_omega_prefix_is_a_linear_order():
    code = encode_order(W, 256)
    elems = code.elements_below(22)
    assert len(elems) >= 4
    def before(i, j):
        return code.bit_at(pair_index(i, j)) == 1
    for i in elems:
        assert code.bit_at(pair_index(i, i)) == 1
        for j in elems:
            if i == j:
                continue
            assert before(i, j) != before(j, i)      # linear
            # consistent with the natural order on represented elements
            assert before(i, j) == (i < j)
    for i, j, k in itertools.product(elems, repeat=3):
        if before(i, j) and before(j, k):
            assert before(i, k)                      # transitive


def test_restriction_matches_direct_encoding_bit_for_bit():
    # the code of b <= a is the code of a with the bits of every element of
    # rank b or more cleared
    ords = [ZERO, ONE, from_int(3), W, parse_ordinal("w*1+2"),
            parse_ordinal("w*2"), W2, parse_ordinal("w^2*1+w*1+1")]
    for a in ords:
        bits = encode_order(a, 200).prefix_bits()
        for b in ords:
            if cnf_cmp(b, a) == 1:
                continue
            below = [all(ordinal_at(n) < b for n in unpair(k))
                     for k in range(200)]
            assert encode_order(b, 200).prefix_bits() == \
                tuple(bit if keep else 0 for bit, keep in zip(bits, below))


def code_order_oracle(a: Ordinal, b: Ordinal) -> int:
    """Order via identity embedding of canonical codes: a <= b iff every
    materialized 1-bit of code(a) is a 1-bit of code(b); the domain marker
    of the smaller ordinal's own rank witnesses strictness.  Rank
    comparisons inside use the independent coefficient-vector order."""
    def bit(alpha, k):
        i, j = unpair(k)
        ri, rj = ordinal_at(i), ordinal_at(j)
        in_i = ind_lt(ri, alpha)
        in_j = ind_lt(rj, alpha)
        if i == j:
            return in_i
        return in_i and in_j and ind_lt(ri, rj)
    width = max(pair_index(element_of(a), element_of(a)),
                pair_index(element_of(b), element_of(b)), 256) + 1
    sub_ab = all(not bit(a, k) or bit(b, k) for k in range(width))
    sub_ba = all(not bit(b, k) or bit(a, k) for k in range(width))
    if sub_ab and sub_ba:
        return 0
    return -1 if sub_ab else 1


def test_cmp_agrees_with_code_embedding_small():
    pool = [ZERO, ONE, from_int(2), W, parse_ordinal("w*1+1"),
            parse_ordinal("w*2"), W2, parse_ordinal("w^2*1+1")]
    for a in pool:
        for b in pool:
            assert cnf_cmp(a, b) == code_order_oracle(a, b), (a, b)
