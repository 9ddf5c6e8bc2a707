"""Ultimately periodic binary sequences.

Every tape track, oracle word and characteristic sequence in this package is
a point of Cantor space restricted to the ultimately periodic reals: a finite
explicit prefix followed by a repeating tail pattern.  The class of such
sequences is closed under everything the executors do (finitely many writes,
limsup limits of periodic runs, interleaving joins), which is what makes
exact transfinite simulation possible at desk scale.

Representation: the prefix and the tail are each stored as a Python int,
bit i being position i of the word, together with the word's length.  Every
operation is a few shifts, masks and ORs on those ints.

Canonical form: the tail is primitive (not a power of a shorter word) and the
prefix is as short as possible.  Two `Real`s are equal iff they denote the
same infinite sequence, and canonical forms make that int equality of the
four stored fields.  `prefix` and `tail` read back as bit tuples.
"""

from __future__ import annotations

from math import lcm

Bits = tuple[int, ...]


def _mask(n: int) -> int:
    return (1 << n) - 1


def _repeat(word: int, width: int, n: int) -> int:
    """The first n bits of the width-bit word repeated forever."""
    while width < n:
        word |= word << width
        width *= 2
    return word & _mask(n)


def _root(word: int, width: int) -> int:
    """Length of the shortest word w with word = w^k."""
    for d in range(1, width // 2 + 1):
        if width % d == 0 and word >> d == word & _mask(width - d):
            return d
    return width


def _to_bits(word: int, n: int) -> Bits:
    return tuple(map(int, _to_text(word, n)))


def _to_text(word: int, n: int) -> str:
    return bin(word)[:1:-1].ljust(n, "0") if n else ""


def _from_bits(bits) -> int:
    return int("".join("1" if b else "0" for b in reversed(bits)) or "0", 2)


def _real(prefix: int, n_prefix: int, tail: int, n_tail: int) -> "Real":
    """A Real from fields already in canonical form."""
    r = object.__new__(Real)
    r._p, r._np, r._t, r._nt, r._hash = prefix, n_prefix, tail, n_tail, None
    return r


def _canonical(prefix: int, n_prefix: int, tail: int, n_tail: int) -> "Real":
    """The canonical Real for prefix . tail^omega."""
    n_tail = _root(tail, n_tail)
    tail &= _mask(n_tail)
    # the sequence is n_tail-periodic from position k on exactly when no
    # bit at or past k differs from the bit n_tail later; the last such
    # difference lies in the prefix, so one XOR against the tail's backward
    # extension finds the shortest prefix
    seq = prefix | tail << n_prefix
    k = (prefix ^ (seq >> n_tail) & _mask(n_prefix)).bit_length()
    return _real(prefix & _mask(k), k, (seq >> k) & _mask(n_tail), n_tail)


class Real:
    __slots__ = ("_p", "_np", "_t", "_nt", "_hash")

    def __init__(self, prefix: Bits, tail: Bits):
        prefix, tail = tuple(prefix), tuple(tail)
        if not tail:
            raise ValueError("tail pattern must be nonempty")
        if not set(prefix + tail) <= {0, 1}:
            raise ValueError("bits must be 0 or 1")
        c = _canonical(_from_bits(prefix), len(prefix), _from_bits(tail), len(tail))
        self._p, self._np, self._t, self._nt = c._p, c._np, c._t, c._nt
        self._hash = None

    @property
    def prefix(self) -> Bits:
        return _to_bits(self._p, self._np)

    @property
    def tail(self) -> Bits:
        return _to_bits(self._t, self._nt)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Real):
            return NotImplemented
        return (self._np == other._np and self._nt == other._nt
                and self._p == other._p and self._t == other._t)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._np, self._p, self._nt, self._t))
        return self._hash

    def bit(self, n: int) -> int:
        if n < 0:
            raise IndexError("bit positions are naturals")
        if n < self._np:
            return self._p >> n & 1
        return self._t >> (n - self._np) % self._nt & 1

    def bits(self, n: int) -> Bits:
        """First n bits."""
        return _to_bits(self.window(0, n), n)

    def _phase(self, pos: int) -> int:
        """Tail pattern rotated so it continues the sequence from `pos`."""
        k = max(pos - self._np, 0) % self._nt
        return (self._t >> k | self._t << (self._nt - k)) & _mask(self._nt)

    def window(self, start: int, n: int) -> int:
        """Bits start .. start+n-1 as an int.  A window that ends inside the
        prefix is masked before it is shifted, so it copies start+n bits of
        the prefix, not all of it."""
        if start >= self._np:
            return _repeat(self._phase(start), self._nt, n) if self._t else 0
        held = self._np - start
        if n <= held or not self._t:
            return (self._p & _mask(start + n)) >> start
        return self._p >> start | _repeat(self._t, self._nt, n - held) << held

    def flipped(self, mask: int) -> "Real":
        """The sequence with the cells of the finite bit set `mask` inverted."""
        if not mask:
            return self
        if not self._t:     # a finite support stays one: its prefix ends at its last 1
            word = self._p ^ mask
            return _real(word, word.bit_length(), 0, 1)
        width = max(mask.bit_length(), self._np)
        return _canonical(self.window(0, width) ^ mask, width,
                          self._phase(width), self._nt)

    def with_bit(self, n: int, value: int) -> "Real":
        if value not in (0, 1):
            raise ValueError("bit value must be 0 or 1")
        return self.flipped((self.bit(n) ^ value) << n)

    def prefix_and_period(self) -> tuple[int, int]:
        """(N, P), the canonical prefix length and the primitive tail period:
        self.suffix(a) == self.suffix(b) iff a == b, or a, b >= N and
        a % P == b % P.  Past N a suffix is a rotation of the primitive tail,
        and a suffix from a < N has canonical prefix N - a > 0."""
        return self._np, self._nt

    def cycled(self, n: int, d: int) -> "Real":
        """The first n bits of self, then its next d bits repeated forever."""
        return _canonical(self.window(0, n), n, self.window(n, d), d)

    def splice(self, n: int, rest: "Real") -> "Real":
        """The first n bits of self, followed by the whole of rest."""
        return _canonical(self.window(0, n) | rest._p << n, n + rest._np,
                          rest._t, rest._nt)

    def suffix(self, n: int) -> "Real":
        """The sequence shifted left: bit(i) of result = bit(n + i)."""
        if n <= self._np:
            return _real(self._p >> n, self._np - n, self._t, self._nt)
        return _real(0, 0, self._phase(n), self._nt)

    def truncated(self, n: int) -> "Real":
        """First n bits, continued by the periodic tail phase at n.

        Equal to self whenever the canonical prefix fits in n bits; longer
        prefix structure is forgotten, which is the set-oracle query
        canonicalization.
        """
        return _canonical(self.window(0, n), n, self._phase(n), self._nt)

    def is_zero(self) -> bool:
        return self._np == 0 and self._t == 0

    def support_bound(self) -> int | None:
        """Index past the last 1 bit, or None if 1s occur in the tail."""
        if self._t != 0:
            return None
        return self._np

    def render(self) -> str:
        return "%s(%s)*" % (_to_text(self._p, self._np), _to_text(self._t, self._nt))

    def __repr__(self):
        return "Real[%s]" % self.render()


ZERO = _real(0, 0, 0, 1)


def from_support(ones) -> Real:
    """Finite-support real: 1 exactly at the given indices."""
    ones = list(ones)
    if not ones:
        return ZERO
    if min(ones) < 0:
        raise ValueError("support indices are naturals")
    buf = bytearray((max(ones) >> 3) + 1)
    for i in ones:
        buf[i >> 3] |= 1 << (i & 7)
    word = int.from_bytes(buf, "little")
    return _real(word, word.bit_length(), 0, 1)


def parse_real(text: str) -> Real:
    """Parse `prefix(tail)*` syntax; a bare bit string means a zero tail."""
    text = text.strip()
    if not text:
        raise ValueError("empty real literal")
    if "(" in text:
        if not text.endswith(")*"):
            raise ValueError("real literal must end in ')*': %r" % text)
        head, _, rest = text.partition("(")
        pat = rest[:-2]
        if not pat:
            raise ValueError("empty tail pattern: %r" % text)
    else:
        head, pat = text, "0"
    if any(c not in "01" for c in head + pat):
        raise ValueError("real literal bits must be 0/1: %r" % text)
    return _canonical(int(head[::-1] or "0", 2), len(head), int(pat[::-1], 2), len(pat))


def _aligned(a: Real, b: Real) -> tuple[int, int, int, int]:
    """Both reals as ints over head + lcm(periods) bits: (a, b, head, period),
    so that any bitwise op on them is exact with that head and period."""
    head = max(a._np, b._np)
    period = lcm(a._nt, b._nt)
    return a.window(0, head + period), b.window(0, head + period), head, period


def _split(word: int, head: int, period: int) -> Real:
    return _canonical(word & _mask(head), head, word >> head, period)


def or_real(a: Real, b: Real) -> Real:
    x, y, head, period = _aligned(a, b)
    return _split(x | y, head, period)


def and_not(a: Real, b: Real) -> Real:
    """Positions where a is 1 and b is 0."""
    x, y, head, period = _aligned(a, b)
    return _split(x & ~y, head, period)


def or_all(reals) -> Real:
    acc = ZERO
    for r in reals:
        acc = or_real(acc, r)
    return acc


def join(a: Real, b: Real) -> Real:
    """Interleave: bit 2n of the result is bit n of a, bit 2n+1 is bit n of b."""
    x, y, head, period = _aligned(a, b)
    n = head + period
    text = "".join(map("".join, zip(_to_text(x, n), _to_text(y, n))))
    return _split(int(text[::-1], 2), 2 * head, 2 * period)


def shift_union(base: Real, offset: int, delta: int) -> Real:
    """Union of base restricted to [offset, inf) shifted right by every
    multiple of delta, as an absolute-position real.

    Used for the ever-one closure of translation-certified blocks: a 1 at
    position x >= offset recurs at x + k*delta for every k >= 0.  The result
    is ultimately periodic with period lcm(delta, tail period) past the
    prefix, which the construction below materializes exactly.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    seg = base.suffix(offset)
    head = seg._np
    period = lcm(seg._nt, delta)
    n = head + 2 * period
    hits, reach = seg.window(0, n), delta
    while reach < n:   # OR in the copies shifted by every multiple below reach
        hits |= hits << reach
        reach *= 2
    head += period
    return _canonical((hits & _mask(head)) << offset, offset + head,
                      hits >> head & _mask(period), period)
