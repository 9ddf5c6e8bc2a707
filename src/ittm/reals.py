"""Ultimately periodic binary sequences.

Every tape track, oracle word and characteristic sequence in this package is
a point of Cantor space restricted to the ultimately periodic reals: a finite
explicit prefix followed by a repeating tail pattern.  The class of such
sequences is closed under everything the executors do (finitely many writes,
limsup limits of periodic runs, interleaving joins), which is what makes
exact transfinite simulation possible at desk scale.

Canonical form: the tail is primitive (not a power of a shorter word) and the
prefix is as short as possible.  Two `Real`s are equal iff they denote the
same infinite sequence, and canonical forms make that plain tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Bits = tuple[int, ...]


def _primitive(tail: Bits) -> Bits:
    """Shortest word w with tail = w^k."""
    n = len(tail)
    for d in range(1, n + 1):
        if n % d == 0 and tail == tail[:d] * (n // d):
            return tail[:d]
    return tail


def _canonical(prefix: Bits, tail: Bits) -> tuple[Bits, Bits]:
    tail = _primitive(tail)
    prefix = tuple(prefix)
    # p . (t0..tk-1)* == p[:-1] . (tk-1 t0..tk-2)*  whenever p ends in tk-1
    while prefix and prefix[-1] == tail[-1]:
        prefix = prefix[:-1]
        tail = tail[-1:] + tail[:-1]
    return prefix, _primitive(tail)


@dataclass(frozen=True)
class Real:
    prefix: Bits
    tail: Bits

    def __post_init__(self):
        if not self.tail:
            raise ValueError("tail pattern must be nonempty")
        if any(b not in (0, 1) for b in self.prefix + self.tail):
            raise ValueError("bits must be 0 or 1")
        p, t = _canonical(self.prefix, self.tail)
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "tail", t)

    def bit(self, n: int) -> int:
        if n < 0:
            raise IndexError("bit positions are naturals")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail[(n - len(self.prefix)) % len(self.tail)]

    def bits(self, n: int) -> Bits:
        """First n bits."""
        return tuple(self.bit(i) for i in range(n))

    def with_bit(self, n: int, value: int) -> "Real":
        if value not in (0, 1):
            raise ValueError("bit value must be 0 or 1")
        if self.bit(n) == value:
            return self
        width = max(n + 1, len(self.prefix))
        buf = list(self.bits(width))
        buf[n] = value
        return Real(tuple(buf), self._tail_at(width))

    def _tail_at(self, pos: int) -> Bits:
        """Tail pattern rotated so it continues the sequence from `pos`."""
        if pos <= len(self.prefix):
            return self.tail
        k = (pos - len(self.prefix)) % len(self.tail)
        return self.tail[k:] + self.tail[:k]

    def suffix(self, n: int) -> "Real":
        """The sequence shifted left: bit(i) of result = bit(n + i)."""
        if n <= len(self.prefix):
            return Real(self.prefix[n:], self.tail)
        return Real((), self._tail_at(n))

    def truncated(self, n: int) -> "Real":
        """First n bits, continued by the periodic tail phase at n.

        Equal to self whenever the canonical prefix fits in n bits; longer
        prefix structure is forgotten, which is the set-oracle query
        canonicalization.
        """
        return Real(self.bits(n), self._tail_at(n))

    def is_zero(self) -> bool:
        return not self.prefix and self.tail == (0,)

    def support_bound(self) -> int | None:
        """Index past the last 1 bit, or None if 1s occur in the tail."""
        if self.tail != (0,):
            return None
        last = -1
        for i, b in enumerate(self.prefix):
            if b:
                last = i
        return last + 1

    def render(self) -> str:
        return "%s(%s)*" % (
            "".join(str(b) for b in self.prefix),
            "".join(str(b) for b in self.tail),
        )

    def __repr__(self):
        return "Real[%s]" % self.render()


ZERO = Real((), (0,))


def from_support(ones, width: int = 0) -> Real:
    """Finite-support real: 1 exactly at the given indices."""
    ones = set(ones)
    n = max(max(ones, default=-1) + 1, width)
    return Real(tuple(1 if i in ones else 0 for i in range(n)), (0,))


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
        if any(c not in "01" for c in head + pat):
            raise ValueError("real literal bits must be 0/1: %r" % text)
        return Real(tuple(int(c) for c in head), tuple(int(c) for c in pat))
    if any(c not in "01" for c in text):
        raise ValueError("real literal bits must be 0/1: %r" % text)
    return Real(tuple(int(c) for c in text), (0,))


def _combine(a: Real, b: Real, op) -> Real:
    head = max(len(a.prefix), len(b.prefix))
    period = len(a.tail) * len(b.tail) // gcd(len(a.tail), len(b.tail))
    prefix = tuple(op(a.bit(i), b.bit(i)) for i in range(head))
    tail = tuple(op(a.bit(head + i), b.bit(head + i)) for i in range(period))
    return Real(prefix, tail)


def or_real(a: Real, b: Real) -> Real:
    return _combine(a, b, lambda x, y: x | y)


def and_not(a: Real, b: Real) -> Real:
    """Positions where a is 1 and b is 0."""
    return _combine(a, b, lambda x, y: x & (1 - y))


def or_all(reals) -> Real:
    acc = ZERO
    for r in reals:
        acc = or_real(acc, r)
    return acc


def join(a: Real, b: Real) -> Real:
    """Interleave: bit 2n of the result is bit n of a, bit 2n+1 is bit n of b."""
    head = 2 * max(len(a.prefix), len(b.prefix))
    period = 2 * (len(a.tail) * len(b.tail) // gcd(len(a.tail), len(b.tail)))
    def bit(i):
        return a.bit(i // 2) if i % 2 == 0 else b.bit(i // 2)
    return Real(tuple(bit(i) for i in range(head)),
                tuple(bit(head + i) for i in range(period)))


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
    la = len(seg.prefix)
    p = len(seg.tail) * delta // gcd(len(seg.tail), delta)
    def hit(x):
        return any(seg.bit(x - k * delta) for k in range(x // delta + 1))
    rel_prefix = tuple(1 if hit(x) else 0 for x in range(la + p))
    rel_tail = tuple(1 if hit(la + p + x) else 0 for x in range(p))
    rel = Real(rel_prefix, rel_tail)
    return Real(tuple(0 for _ in range(offset)) + rel.prefix, rel.tail)
