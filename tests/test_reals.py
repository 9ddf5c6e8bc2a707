from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from ittm.reals import (Real, ZERO, and_not, from_support, join, or_all,
                        or_real, parse_real, shift_union)


def test_canonical_forms_identify_equal_sequences():
    assert Real((1, 0, 1, 0), (1, 0)) == Real((), (1, 0))
    assert Real((0, 0, 0), (0,)) == ZERO
    assert Real((1,), (0, 0)) == Real((1,), (0,))
    assert Real((0, 1), (0, 1)) == Real((), (0, 1))
    assert Real((0, 1), (1, 0, 1)) == Real((), (0, 1, 1))


def test_tail_must_be_nonempty_and_binary():
    with pytest.raises(ValueError):
        Real((0,), ())
    with pytest.raises(ValueError):
        Real((2,), (0,))


def test_bit_indexing_and_suffix():
    r = parse_real("1101(10)*")
    assert [r.bit(i) for i in range(8)] == [1, 1, 0, 1, 1, 0, 1, 0]
    assert r.suffix(2) == parse_real("01(10)*")
    assert r.suffix(5) == parse_real("(01)*")
    assert r.suffix(0) == r


def test_with_bit_and_truncated():
    r = ZERO.with_bit(3, 1)
    assert r.render() == "0001(0)*"
    assert r.with_bit(3, 0).is_zero()
    periodic = parse_real("(01)*")
    assert periodic.truncated(4) == periodic
    spiky = parse_real("0001(0)*")
    assert spiky.truncated(2).is_zero()


def test_parse_render_round_trip():
    for text in ["(0)*", "1(0)*", "0001(0)*", "(01)*", "11(010)*"]:
        assert parse_real(text).render() == text
    with pytest.raises(ValueError):
        parse_real("10(")
    with pytest.raises(ValueError):
        parse_real("2(0)*")
    with pytest.raises(ValueError):
        parse_real("1()*")


def test_join_positionally_for_eight_bits():
    a = parse_real("10000000(0)*")
    b = parse_real("01000000(0)*")
    j = join(a, b)
    for n in range(8):
        assert j.bit(2 * n) == a.bit(n)
        assert j.bit(2 * n + 1) == b.bit(n)
    assert join(ZERO, ZERO).is_zero()


def test_join_injective_and_position_exact_on_grid():
    pool = [ZERO, parse_real("1(0)*"), parse_real("(01)*"), parse_real("011(1)*")]
    seen = {}
    for a in pool:
        for b in pool:
            j = join(a, b)
            for n in range(12):
                assert j.bit(2 * n) == a.bit(n)
                assert j.bit(2 * n + 1) == b.bit(n)
            assert j not in seen or seen[j] == (a, b)
            seen[j] = (a, b)
    assert len(seen) == len(pool) ** 2


def test_combiners():
    a = parse_real("1100(10)*")
    b = parse_real("1010(01)*")
    for n in range(24):
        assert or_real(a, b).bit(n) == (a.bit(n) | b.bit(n))
        assert and_not(a, b).bit(n) == (a.bit(n) & (1 - b.bit(n)))
    assert or_real(ZERO, ZERO).is_zero()


def test_support_bound():
    assert ZERO.support_bound() == 0
    assert parse_real("00101(0)*").support_bound() == 5
    assert parse_real("(01)*").support_bound() is None


def test_from_support():
    r = from_support({0, 3})
    assert r.render() == "1001(0)*"
    assert from_support(set()).is_zero()


def test_shift_union_against_brute_force():
    cases = [
        (parse_real("0110(0)*"), 1, 2),
        (parse_real("1(0)*"), 0, 1),
        (parse_real("001(100)*"), 2, 3),
        (parse_real("0001001(10)*"), 3, 2),
        (parse_real("(001)*"), 0, 2),
    ]
    for base, offset, delta in cases:
        got = shift_union(base, offset, delta)
        for x in range(160):
            want = any(x - k * delta >= offset and base.bit(x - k * delta)
                       for k in range(x // delta + 1))
            assert got.bit(x) == (1 if want else 0), (base, offset, delta, x)


def test_shift_union_period_four_shift_two():
    """A period-4 tail shifted by 2: the lcm-4 window reduces to period 2."""
    base = parse_real("1(0001)*")
    got = shift_union(base, 3, 2)
    assert got.render() == "000(01)*"
    for x in range(80):
        want = any(x - k * 2 >= 3 and base.bit(x - k * 2) for k in range(x // 2 + 1))
        assert got.bit(x) == int(want), x


# --- differential properties against a plain bit-list model ----------------
#
# A model is a (prefix, tail) pair of bit lists, not necessarily canonical.
# Two ultimately periodic sequences whose prefixes are at most P long and
# whose periods divide L agree everywhere once they agree on P + L bits, so
# every property compares on max(prefixes) + 2*lcm(periods) + n bits.

PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def models(draw):
    tail = draw(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=6))
    # some prefixes are long, the regime where per-bit canonicalization was slow
    n = draw(st.one_of(st.integers(0, 12), st.integers(2000, 2300)))
    word = draw(st.integers(0, 2 ** n - 1))
    head = [word >> i & 1 for i in range(n)]
    # end some prefixes in copies of the tail (or a rotation), which the
    # canonical form trims away
    copies = (tail * draw(st.integers(0, 3)))[draw(st.integers(0, len(tail))):]
    return head + copies, tail


def horizon(*ms, n=8):
    return (max(len(p) for p, _ in ms) + 2 * lcm(*(len(t) for _, t in ms)) + n)


def model_bits(m, n):
    prefix, tail = m
    return [prefix[i] if i < len(prefix) else tail[(i - len(prefix)) % len(tail)]
            for i in range(n)]


def real_of(m):
    return Real(tuple(m[0]), tuple(m[1]))


def assert_denotes(r, bits):
    """r agrees with the model bits and is in canonical form."""
    assert r.bits(len(bits)) == tuple(bits)
    prefix, tail = r.prefix, r.tail
    assert all(tail != tail[:d] * (len(tail) // d)
               for d in range(1, len(tail)) if len(tail) % d == 0)
    assert not prefix or prefix[-1] != tail[-1]


@PROPERTY
@given(models(), st.integers(0, 16))
def test_real_matches_the_model(m, n):
    r = real_of(m)
    bits = model_bits(m, horizon(m, n=n))
    assert_denotes(r, bits)
    assert [r.bit(i) for i in range(len(bits))] == bits
    assert r.bits(n) == tuple(bits[:n])
    text = "%s(%s)*" % ("".join(map(str, r.prefix)), "".join(map(str, r.tail)))
    assert r.render() == text and parse_real(text) == r
    assert r.is_zero() == (not any(bits))
    want = None if any(m[1]) else max((i + 1 for i, b in enumerate(m[0]) if b), default=0)
    assert r.support_bound() == want
    # other descriptions of the same sequence give an equal object and hash
    prefix, tail = tuple(m[0]), tuple(m[1])
    for other in (Real(prefix + tail, tail), Real(prefix, tail * 2),
                  Real(prefix + tail[:1], tail[1:] + tail[:1])):
        assert other == r and hash(other) == hash(r)


@PROPERTY
@example(0, 0)
@example(0, 5)
@example(5, 0)
@example(1, 1)
@example(5, 97)
@given(st.integers(0, 1 << 120), st.integers(0, 130))
def test_bit_text_matches_the_formatted_word(word, n):
    """`_to_text` writes bit i of the word at position i, padded with 0s to
    n bits: the zero-padded binary numeral reversed; n = 0 is empty."""
    from ittm.reals import _to_text
    assert _to_text(word, n) == (format(word, "0%db" % n)[::-1] if n else "")


@PROPERTY
@given(models(), models())
def test_reals_are_equal_exactly_when_their_bits_are(a, b):
    same = model_bits(a, horizon(a, b)) == model_bits(b, horizon(a, b))
    assert (real_of(a) == real_of(b)) == same
    if same:
        assert hash(real_of(a)) == hash(real_of(b))


@PROPERTY
@given(models(), st.integers(0, 2400), st.sampled_from((0, 1)), st.integers(0, 2400))
def test_with_bit_suffix_and_truncated_match_the_model(m, i, v, k):
    r = real_of(m)
    width = max(len(m[0]), i + 1)
    bits = model_bits(m, max(width, k) + horizon(m))
    written = bits[:i] + [v] + bits[i + 1:]
    assert_denotes(r.with_bit(i, v), written[:width + horizon(m)])
    assert_denotes(r.suffix(k), bits[k:])
    # the tail continues from k, or from the canonical prefix's end if later
    phase = max(k, len(r.prefix))
    truncated = (bits[:k], bits[phase: phase + len(r.tail)])
    assert_denotes(r.truncated(k), model_bits(truncated, horizon(truncated)))
    # a window from k, i bits wide: inside, across or past the prefix
    window = model_bits(m, k + i)[k:]
    assert r.window(k, i) == sum(x << j for j, x in enumerate(window))


@PROPERTY
@given(models(), st.sets(st.integers(0, 40), max_size=3),
       st.one_of(st.integers(0, 40), st.integers(1990, 2400)), st.integers(0, 3),
       st.booleans())
def test_flipped_and_the_suffix_lemma_match_the_model(m, ones, b, k, off):
    r = real_of(m)
    # a is b plus whole tail periods, give or take a cell
    a = b + k * len(m[1]) + off
    n = len(m[0]) + 2 * len(m[1]) + 8
    bits = model_bits(m, a + n)
    mask = sum(1 << x for x in ones)
    assert_denotes(r.flipped(mask), [x ^ (i in ones) for i, x in enumerate(bits)])
    floor, period = r.prefix_and_period()
    assert (floor, period) == (len(r.prefix), len(r.tail))
    lemma = a == b or (min(a, b) >= floor and (a - b) % period == 0)
    assert (r.suffix(a) == r.suffix(b)) == lemma == (bits[a:] == bits[b: b + n])


@PROPERTY
@given(models(), models(), st.integers(0, 2400), st.integers(1, 7))
def test_splice_and_cycled_match_the_model(m, rest, k, d):
    r = real_of(m)
    bits = model_bits(m, k + d)
    assert_denotes(r.splice(k, real_of(rest)), bits[:k] + model_bits(rest, horizon(rest)))
    cycled = (bits[:k], bits[k:])
    assert_denotes(r.cycled(k, d), model_bits(cycled, horizon(cycled)))


@PROPERTY
@given(models(), models(), st.lists(models(), max_size=3))
def test_combiners_and_join_match_the_model(a, b, more):
    n = horizon(a, b)
    x, y = model_bits(a, n), model_bits(b, n)
    ra, rb = real_of(a), real_of(b)
    assert_denotes(or_real(ra, rb), [p | q for p, q in zip(x, y)])
    assert_denotes(and_not(ra, rb), [p & (1 - q) for p, q in zip(x, y)])
    assert_denotes(join(ra, rb), [bit for pair in zip(x, y) for bit in pair])
    n = horizon(a, *more)
    columns = zip(*(model_bits(m, n) for m in [a] + more))
    assert_denotes(or_all(map(real_of, [a] + more)), [int(any(c)) for c in columns])


@PROPERTY
@given(models(), st.integers(0, 2400), st.integers(1, 7))
def test_shift_union_matches_the_model(m, offset, delta):
    n = max(len(m[0]), offset) + 2 * lcm(len(m[1]), delta) + 8
    bits = model_bits(m, n)
    hits = []
    for x in range(n):   # a 1 at x >= offset recurs at x + j*delta
        hits.append(int(x >= offset and bits[x] or x >= delta and hits[x - delta]))
    assert_denotes(shift_union(real_of(m), offset, delta), hits)


@PROPERTY
@given(st.sets(st.one_of(st.integers(0, 20), st.integers(0, 2500))))
def test_from_support_matches_the_model(ones):
    r = from_support(ones)
    n = max(ones, default=0) + 10
    assert_denotes(r, [int(i in ones) for i in range(n)])
    assert r.support_bound() == max(ones, default=-1) + 1
