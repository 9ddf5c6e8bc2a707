"""Shared scripted machines for the test suite.

These are the hand-built programs the higher-level suites survey: immediate
zero-output halters, delayed halters with nonzero output, loopers, machines
whose halting depends on oracle-tape bits, a two-query probe whose
certified query set provokes an organic injury in the priority construction,
a clocker of w^2+1, and random tables drawn by one fixed recipe.
"""

import itertools
import random

import pytest

from ittm import oracle
from ittm.machine import Rule, layout, total_program
from ittm.runner import BudgetPolicy


def zero_halter():
    """Halts on step one with all-zero output, whatever the input."""
    return total_program(3, {})


def nonzero_halter(delay=0):
    """Writes output bit `delay` to 1 after walking right `delay` cells."""
    overrides = {}
    chain = ["start"] + ["c%d" % i for i in range(1, delay + 1)]
    for pos, st in enumerate(chain):
        nxt = chain[pos + 1] if pos + 1 < len(chain) else "halt"
        for read in itertools.product((0, 1), repeat=3):
            i, s, o = read
            if pos + 1 < len(chain):
                overrides[(st, read)] = Rule((i, s, o), "R", nxt)
            else:
                overrides[(st, read)] = Rule((i, s, 1), "S", "halt")
    return total_program(3, overrides)


def looper(phase=0):
    """Flips the scratch bit under the head forever, after first walking
    right `phase` cells; never halts on any input."""
    overrides = {}
    chain = ["start"] + ["m%d" % k for k in range(1, phase + 1)]
    flip = chain[-1] if phase else "start"
    for read in itertools.product((0, 1), repeat=3):
        i, s, o = read
        for pos, st in enumerate(chain[:-1]):
            overrides[(st, read)] = Rule(read, "R", chain[pos + 1])
        overrides[(flip, read)] = Rule((i, 1 - s, o), "S", flip)
        overrides[("limit", read)] = Rule((i, 1 - s, o), "S", flip)
    return total_program(3, overrides)


def oracle_bit_halter(bit_value=1):
    """4-track; halts immediately iff oracle-track bit 0 equals bit_value,
    otherwise flips scratch forever."""
    overrides = {}
    for st in ("start", "limit"):
        for read in itertools.product((0, 1), repeat=4):
            i, s, o, b = read
            if st == "start" and b == bit_value:
                overrides[(st, read)] = Rule(read, "S", "halt")
            else:
                overrides[(st, read)] = Rule((i, 1 - s, o, b), "S", "start")
    return total_program(4, overrides)


def query_probe():
    """Two-query set-oracle machine.

    Writes 1 on the oracle track and queries it (answer ignored), then
    extends the oracle track to 11 and queries again.  A yes answer halts
    with all-zero output; on no, the machine halts with zero output iff
    input bit 1 is set, else flags output bit 1.  Against the priority
    construction's deterministic witnesses this certifies the query set
    {1(0)*, 11(0)*} and later provokes an injury.
    """
    overrides = {}
    for read in itertools.product((0, 1), repeat=4):
        i, s, o, b = read
        overrides[("start", read)] = Rule((i, s, o, 1), "S", "query")
        if s == 0:   # first answer: move right and build the second query
            overrides[("yes", read)] = Rule(read, "R", "w2")
            overrides[("no", read)] = Rule(read, "R", "w2")
        else:        # second answer, head at cell 1 with the scratch marker
            overrides[("yes", read)] = Rule(read, "S", "halt")
            if i == 1:
                overrides[("no", read)] = Rule(read, "S", "halt")
            else:
                overrides[("no", read)] = Rule((i, s, 1, b), "S", "halt")
        overrides[("w2", read)] = Rule((i, 1, o, 1), "S", "query")
    return total_program(4, overrides, query_state="query", yes_state="yes",
                         no_state="no")


def omega_squared_clocker():
    """Writes a transient scratch mark at cell 0 inside every block, then
    settles into a 2-cycle at cell 1.  Block limits erase the transient, so
    the limit snapshot recurs weakly (the mark was 1 in between): no loop
    verdict may fire, the w^2 limit sets the mark, and the machine halts
    one step later, clocking w^2+1."""
    overrides = {}
    for read in itertools.product((0, 1), repeat=3):
        i, s, o = read
        overrides[("flip", read)] = Rule((i, 1 - s, o), "S", "flip")
    for st in ("start", "limit"):
        overrides[(st, (0, 0, 0))] = Rule((0, 1, 0), "S", "down")
    overrides[("limit", (0, 1, 0))] = Rule((0, 1, 0), "S", "halt")
    overrides[("down", (0, 1, 0))] = Rule((0, 0, 0), "R", "flip")
    return total_program(3, overrides)


def random_tables(n, tracks=3):
    """The first n random total tables with two work states, from seed 11."""
    rng = random.Random(11)
    slots = layout(("start", "limit", "s0", "s1"), tracks)
    options = oracle._option_list(2, tracks)
    return [total_program(tracks, {s: rng.choice(options) for s in slots},
                          ("start", "limit", "s0", "s1")) for _ in range(n)]


@pytest.fixture
def small_budget():
    return BudgetPolicy(3, 64, 512)


@pytest.fixture
def tiny_budget():
    return BudgetPolicy(2, 32, 128)
