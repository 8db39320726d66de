"""Shared fixtures and independent brute-force oracles.

The 2x4 reference instance below is small enough to analyze fully by
hand: its six balanced allocations have value vectors (20,14), (31,9),
(32,7), (31,8), (32,6), (43,1); exactly four are EF1, exactly three are
fPO, and only ({1,3},{2,4}) is both.  Frozen expected values in the test
modules are recomputed from the enumeration oracles wherever stated.
"""

import itertools
import random
from fractions import Fraction

import pytest

from fairbalance.core import Instance, make_allocation, make_instance, utilitarian_value

REF_VALUES = [[10, 10, 21, 22], [0, 1, 6, 8]]


@pytest.fixture
def ref_instance() -> Instance:
    return make_instance(2, 4, REF_VALUES)


def alloc(*bundles):
    return make_allocation(bundles)


def permutation_enumerate(inst: Instance):
    """Independent balanced-allocation enumerator: distinct permutations
    of the agent multiset 1^k 2^k ... n^k, read as good -> agent maps."""
    base = []
    for agent in inst.agents():
        base.extend([agent] * inst.k)
    seen = set()
    for perm in itertools.permutations(base):
        if perm in seen:
            continue
        seen.add(perm)
        bundles = [set() for _ in range(inst.n)]
        for good, agent in enumerate(perm, start=1):
            bundles[agent - 1].add(good)
        yield make_allocation(bundles)


def brute_max_welfare(inst: Instance, alpha) -> Fraction:
    """Enumerated maximum of the weighted welfare (independent oracle)."""
    return max(utilitarian_value(inst, a, alpha) for a in permutation_enumerate(inst))


def random_instance(rng: random.Random, n: int, m: int, top: int = 9) -> Instance:
    return make_instance(n, m, [[rng.randint(0, top) for _ in range(m)] for _ in range(n)])


def random_two_type_instance(rng: random.Random, n: int, m: int, top: int = 9) -> Instance:
    u1 = [rng.randint(0, top) for _ in range(m)]
    u2 = [rng.randint(0, top) for _ in range(m)]
    n1 = rng.randint(1, n - 1)
    types = [1] * n1 + [2] * (n - n1)
    rng.shuffle(types)
    return make_instance(n, m, [u1 if t == 1 else u2 for t in types])


def random_bivalued_instance(rng: random.Random, n: int, k: int, top: int = 9) -> Instance:
    m = n * k
    rows = []
    for _ in range(n):
        low = rng.randint(0, top - 1)
        high = rng.randint(low + 1, top)
        rows.append([high if rng.random() < 0.5 else low for _ in range(m)])
    return make_instance(n, m, rows)


def high_counts(inst: Instance, alloc, viewer: int) -> list:
    """Per-agent count of goods the viewer values at their high value, on
    the instance's int rows (bivalued instances only)."""
    scale, rows = inst.scaled_values
    a = inst.value_pairs[viewer - 1][0]
    high = a.numerator * (scale // a.denominator)
    row = rows[viewer - 1]
    return [sum(row[j - 1] == high for j in alloc.bundle(i)) for i in inst.agents()]


def random_alpha(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
