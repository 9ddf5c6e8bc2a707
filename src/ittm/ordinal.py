"""Cantor-normal-form ordinals below w^w and canonical well-order codes.

Ordinals are finite sums  w^e1*c1 + ... + w^ek*ck  with strictly decreasing
natural exponents and positive coefficients.  They label every stage of a
transfinite run, so comparison and addition here underlie all stage
bookkeeping elsewhere.

A fixed global numbering of ordinals as naturals (graded by term size, then
by ordinal order) turns each ordinal a into a canonical well-order code: the
bit sequence whose bit at Cantor pair index <i,j> says whether element i
precedes element j in the canonical order of type a.  Diagonal bits <i,i>
mark domain membership, so codes of distinct ordinals are distinct.  Every
code numbers the elements alike, so for b <= a the code of b is the code of
a with every bit of an element of rank b or more cleared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from math import isqrt

Terms = tuple[tuple[int, int], ...]


class BudgetOrdinalOverflow(Exception):
    """A stage label would reach w^D for the configured depth D."""


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    terms: Terms = ()

    def __post_init__(self):
        last = None
        for e, c in self.terms:
            if e < 0 or c < 1:
                raise ValueError("bad CNF term (%r, %r)" % (e, c))
            if last is not None and e >= last:
                raise ValueError("CNF exponents must strictly decrease")
            last = e
        object.__setattr__(self, "terms", tuple(tuple(t) for t in self.terms))

    def __lt__(self, other: "Ordinal") -> bool:
        return self.terms < other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] >= 1

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    def degree(self) -> int:
        """Leading exponent; -1 for zero."""
        return self.terms[0][0] if self.terms else -1

    def size(self) -> int:
        return sum(e + c for e, c in self.terms)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("w*%d" % c)
            else:
                parts.append("w^%d*%d" % (e, c))
        return "+".join(parts)

    def __repr__(self):
        return "Ordinal[%s]" % self.render()


def _ordinal(terms: Terms) -> Ordinal:
    """An Ordinal from a tuple of terms already in Cantor normal form."""
    o = object.__new__(Ordinal)
    object.__setattr__(o, "terms", terms)
    return o


ZERO = Ordinal()
ONE = Ordinal(((0, 1),))
OMEGA = Ordinal(((1, 1),))


# The finite ordinals below 256 are made once and shared, so a short run's
# halting time and its stages are table entries, not new objects that every
# full garbage collection walks again.
_SMALL = [ZERO, ONE] + [_ordinal(((0, n),)) for n in range(2, 256)]


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are nonnegative")
    if n < len(_SMALL):
        return _SMALL[n]
    return _ordinal(((0, n),))


# one term of a literal: w, w^e, w*c, w^e*c or n, digits ASCII only
_TERM = re.compile(r"w(?:\^([0-9]+))?(?:\*([0-9]+))?|([0-9]+)")


def parse_ordinal(text: str) -> Ordinal:
    """Parse `w^2*3+w*1+4` syntax (coefficient may be omitted, meaning 1)."""
    text = text.strip()
    if text == "0":
        return ZERO
    terms = []
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise ValueError("empty term in ordinal literal %r" % text)
        m = _TERM.fullmatch(part)
        if m is None:
            raise ValueError("bad ordinal term %r" % part)
        exp, coef, const = m.groups()
        if const is not None:
            e, c = 0, int(const)
        else:
            e, c = int(exp or 1), int(coef or 1)
        if c < 1:
            raise ValueError("bad ordinal term %r" % part)
        terms.append((e, c))
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if e2 >= e1:
            raise ValueError("ordinal literal not in normal form: %r" % text)
    return Ordinal(tuple(terms))


def cnf_cmp(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1 as a <, =, > b."""
    return -1 if a.terms < b.terms else (0 if a.terms == b.terms else 1)


def cnf_add(a: Ordinal, b: Ordinal) -> Ordinal:
    if not b.terms:
        return a
    if not a.terms:
        return b
    (lead, c), rest = b.terms[0], b.terms[1:]
    kept = a.terms
    n = len(kept)
    while n and kept[n - 1][0] < lead:    # terms below b's lead are absorbed
        n -= 1
    if n and kept[n - 1][0] == lead:
        return _ordinal(kept[:n - 1] + ((lead, kept[n - 1][1] + c),) + rest)
    return _ordinal(kept[:n] + b.terms)


def successor(a: Ordinal) -> Ordinal:
    return cnf_add(a, ONE)


def limit_step(a: Ordinal, level: int, depth: int) -> Ordinal:
    """Least multiple of w^level strictly above a."""
    if level < 1:
        raise ValueError("limit level must be >= 1")
    head = [t for t in a.terms if t[0] > level]
    at = [c for e, c in a.terms if e == level]
    head.append((level, at[0] + 1 if at else 1))
    result = _ordinal(tuple(head))
    if result.degree() >= depth:
        raise BudgetOrdinalOverflow(
            "stage %s reaches w^%d" % (result.render(), depth))
    return result


# --- Cantor pairing -------------------------------------------------------

def pair_index(i: int, j: int) -> int:
    if i < 0 or j < 0:
        raise ValueError("pair_index takes naturals")
    return (i + j) * (i + j + 1) // 2 + j


def unpair(n: int) -> tuple[int, int]:
    s = (isqrt(8 * n + 1) - 1) // 2
    j = n - s * (s + 1) // 2
    return s - j, j


# --- Global element numbering --------------------------------------------
#
# Ordinals below w^w enumerated by (size, ordinal order), where size is the
# sum of exponents and coefficients.  The numbering is a bijection with the
# naturals, shared by every code, so a canonical code cut down to the
# elements of rank below b is the canonical code of b.

_classes: list[list[Ordinal]] = []
_positions: list[dict[Terms, int]] = []


def _ordinals_of_size(s: int) -> list[Ordinal]:
    def gen(total: int, max_exp: int) -> list[Terms]:
        if total == 0:
            return [()]
        out = []
        for e in range(min(max_exp, total) - 1, -1, -1):
            for c in range(1, total - e + 1):
                for rest in gen(total - e - c, e):
                    out.append(((e, c),) + rest)
        return out
    if s == 0:
        return [ZERO]
    ords = [Ordinal(t) for t in gen(s, s + 1) if t]
    ords.sort()
    return ords


def _ensure_size(s: int) -> None:
    while len(_classes) <= s:
        cls = _ordinals_of_size(len(_classes))
        _classes.append(cls)
        _positions.append({o.terms: k for k, o in enumerate(cls)})


def element_of(a: Ordinal) -> int:
    """Position of a in the global enumeration."""
    s = a.size()
    _ensure_size(s)
    return sum(len(_classes[k]) for k in range(s)) + _positions[s][a.terms]


def ordinal_at(n: int) -> Ordinal:
    """Inverse of element_of."""
    if n < 0:
        raise ValueError("element index must be a natural")
    s = 0
    while True:
        _ensure_size(s)
        if n < len(_classes[s]):
            return _classes[s][n]
        n -= len(_classes[s])
        s += 1


# --- Canonical well-order codes -------------------------------------------

@dataclass(frozen=True)
class OrderCode:
    """Canonical code of the well-order of type `ordinal` on omega.

    Bit at pair index <i,j>: for i != j, 1 iff element i precedes element j
    (both of rank below `ordinal`); for i == j, 1 iff element i is in the
    domain at all.  Bits beyond the materialized prefix are still defined
    and computable via bit_at.
    """

    ordinal: Ordinal
    materialized_prefix_len: int

    def bit_at(self, k: int) -> int:
        i, j = unpair(k)
        ri, rj = ordinal_at(i), ordinal_at(j)
        if i == j:
            return 1 if ri < self.ordinal else 0
        return 1 if ri < rj < self.ordinal else 0

    def prefix_bits(self) -> tuple[int, ...]:
        return tuple(self.bit_at(k) for k in range(self.materialized_prefix_len))

    def elements_below(self, bound_elements: int) -> list[int]:
        """Domain members among the first bound_elements naturals."""
        return [n for n in range(bound_elements)
                if ordinal_at(n) < self.ordinal]


def encode_order(a: Ordinal, prefix_bits: int) -> OrderCode:
    if prefix_bits < 0:
        raise ValueError("prefix length must be a natural")
    return OrderCode(a, prefix_bits)
