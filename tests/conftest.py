"""Shared fixtures and independent brute-force oracles.

The 2x4 reference instance below is small enough to analyze fully by
hand: its six balanced allocations have value vectors (20,14), (31,9),
(32,7), (31,8), (32,6), (43,1); exactly four are EF1, exactly three are
fPO, and only ({1,3},{2,4}) is both.  Frozen expected values in the test
modules are recomputed from the enumeration oracles wherever stated.

The references below (welfare sums, the LP welfare primal and dual, the
slot rule entry by entry, the labelled arc view, the old Hungarian loop,
...) are code the package itself never runs; tests compare the package's
results with them.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fairbalance import lp
from fairbalance.core import (
    Allocation,
    Instance,
    InternalInvariantError,
    as_rational,
    bundle_value,
    check_allocation,
    integer_rows,
    make_allocation,
    make_instance,
)
from fairbalance.graph import ExchangeGraph, Potentials
from fairbalance.matching import BipartiteWeights, MatchingResult, check_certificate

REF_VALUES = [[10, 10, 21, 22], [0, 1, 6, 8]]


@pytest.fixture
def ref_instance() -> Instance:
    return make_instance(2, 4, REF_VALUES)


def alloc(*bundles):
    return make_allocation(bundles)


def assignment_string(allocation: Allocation) -> tuple:
    """Good -> agent tuple, the enumeration order key."""
    owner = allocation.owner_map()
    return tuple(owner[j] for j in sorted(owner))


def utilitarian_value(inst: Instance, allocation: Allocation, alpha=None) -> Fraction:
    """Sum of (optionally weighted) bundle values."""
    total = Fraction(0)
    for i in inst.agents():
        w = alpha[i - 1] if alpha is not None else Fraction(1)
        total += w * bundle_value(inst, i, allocation.bundle(i))
    return total


def nash_product(inst: Instance, allocation: Allocation) -> Fraction:
    """Product of the agents' bundle values (orders like the geometric mean)."""
    check_allocation(inst, allocation)
    prod = Fraction(1)
    for i in inst.agents():
        prod *= bundle_value(inst, i, allocation.bundle(i))
    return prod


def potentials_from_fractions(q, p) -> Potentials:
    """Potentials holding the Fraction (or int) vectors q and p, as ints
    over their least common denominator."""
    scale, (qs, ps) = integer_rows((q, p))
    return Potentials(scale=scale, qs=qs, ps=ps)


def dual_objective(pot: Potentials, k: int) -> Fraction:
    """k * sum(q) + sum(p): the welfare dual's objective."""
    return k * sum(pot.q, Fraction(0)) + sum(pot.p, Fraction(0))


def is_dual_feasible(inst: Instance, pot: Potentials, alpha) -> bool:
    """q_i + p_j >= alpha_i * v_ij on every pair, in Fractions."""
    return all(q + p >= a * v
               for q, a, row in zip(pot.q, alpha, inst.values)
               for p, v in zip(pot.p, row))


def is_nonnegative(pot: Potentials) -> bool:
    return all(v >= 0 for v in pot.q + pot.p)


def solve_primal(inst: Instance, alpha) -> tuple:
    """Maximize the alpha-weighted welfare over balanced fractional
    allocations with the simplex: each good is assigned once (m rows), then
    each agent gets k goods (n rows), over x_ij at (i - 1) * m + (j - 1).
    The returned vertex is always integral (the constraint matrix is
    totally unimodular), so it doubles as a balanced allocation.

    Returns ``(Allocation, value)``.
    """
    n, m = inst.n, inst.m
    c = [a * v for a, row in zip(alpha, inst.values) for v in row]
    rows = [[int(v % m == j) for v in range(n * m)] for j in range(m)]
    rows += [[int(v // m == i) for v in range(n * m)] for i in range(n)]
    res = lp.solve_lp(lp.LinearProgram(c=c, a=rows, b=[1] * m + [inst.k] * n))
    if any(v != 0 and v != 1 for v in res.x):
        raise InternalInvariantError("transportation vertex must be integral")
    allocation = make_allocation({j + 1 for j in range(m) if res.x[i * m + j] == 1}
                                 for i in range(n))
    if not allocation.is_balanced(inst):
        raise InternalInvariantError("transportation vertex must be a balanced allocation")
    return allocation, res.objective


def solve_dual(inst: Instance, alpha) -> Potentials:
    """Minimize k*sum(q) + sum(p) subject to q_i + p_j >= alpha_i v_ij.

    Solved directly as an LP with q, p >= 0 (a nonnegative optimum always
    exists), independently of the shortest-path construction in
    :mod:`fairbalance.graph`.
    """
    n, m, k = inst.n, inst.m, inst.k
    # variables: q (n), p (m), surplus s_ij (n*m) at n + m + (i - 1) * m + (j - 1)
    nv = n + m + n * m
    c = [-k] * n + [-1] * m + [0] * (n * m)
    rows = []
    b = []
    for i in range(n):
        for j in range(m):
            row = [0] * nv
            row[i] = row[n + j] = 1
            row[n + m + i * m + j] = -1
            rows.append(row)
            b.append(alpha[i] * inst.values[i][j])
    res = lp.solve_lp(lp.LinearProgram(c=c, a=rows, b=b))
    pot = potentials_from_fractions(res.x[:n], res.x[n:n + m])
    if not (is_nonnegative(pot) and is_dual_feasible(inst, pot, alpha)):
        raise InternalInvariantError("dual optimum must be nonnegative and feasible")
    return pot


def strip_dummies(allocation: Allocation, dummies: frozenset) -> Allocation:
    """Inverse of ``reduce_unconstrained`` on allocations."""
    return Allocation(tuple(b - dummies for b in allocation.bundles))


def balanced_allocation_count(inst: Instance) -> int:
    """m! / (k!)^n, the number of balanced allocations."""
    count = math.factorial(inst.m)
    kf = math.factorial(inst.k)
    for _ in range(inst.n):
        count //= kf
    return count


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
    high = inst.value_pairs[viewer - 1][0]
    row = inst.rows[viewer - 1]
    return [sum(row[j - 1] == high for j in alloc.bundle(i)) for i in inst.agents()]


def random_alpha(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))


def labelled_arcs(g: ExchangeGraph) -> tuple:
    """(tail, head, weight) triples with node labels and exact weights."""
    return tuple((g.label(u), g.label(v), Fraction(w, g.scale)) for u, v, w in g.int_arcs)


def slot_weight(params: tuple, s: int, value, scale: int) -> int:
    """The slot rule entry by entry: the weight of the edge between an
    agent's s-th slot and a good, where scale is K = n*k*(k+1): K + s for a
    high good, 0 for a low good."""
    a, b = params
    if not a > b >= 0:
        raise ValueError("need a > b >= 0")
    if value == a:
        return scale + s
    if value == b:
        return 0
    raise ValueError(f"value {value} is neither the high {a} nor the low {b}")


def make_weights(matrix) -> BipartiteWeights:
    """A square matrix as matching weights, entries as exact rationals."""
    size = len(matrix)
    if size < 1:
        raise ValueError("need at least one node per side")
    if any(len(row) != size for row in matrix):
        raise ValueError("weight matrix must be square (pad or slot-expand first)")
    rows = tuple(tuple(as_rational(x) for x in row) for row in matrix)
    return BipartiteWeights(size=size, weight=rows)


def reference_matching(weights: BipartiteWeights) -> MatchingResult:
    """The Hungarian method as the package ran it before its lazy-shift
    rewrite: every potential shift rebuilds the free right nodes' (slack,
    parent) pairs.  Same tie rules, so the result must be identical."""
    n = weights.size
    w = weights.weight
    u = [max(row) for row in w]
    v = [0] * n
    match_l = [None] * n  # left -> right (0-based)
    match_r = [None] * n  # right -> left

    for start in range(n):
        # grow an alternating tree rooted at `start` inside the tight graph
        in_tree_left = [False] * n
        in_tree_left[start] = True
        parent_right = [None] * n  # tree parent (a left node) of each right node
        min_slack = [(u[start] + v[r] - w[start][r], start) for r in range(n)]
        while True:
            best_r = None
            best = None
            for r in range(n):
                if parent_right[r] is not None:
                    continue
                if best is None or min_slack[r][0] < best:
                    best = min_slack[r][0]
                    best_r = r
            if best > 0:
                # shift potentials to make the chosen edge tight
                for l in range(n):
                    if in_tree_left[l]:
                        u[l] -= best
                for r in range(n):
                    if parent_right[r] is not None:
                        v[r] += best
                    else:
                        min_slack[r] = (min_slack[r][0] - best, min_slack[r][1])
            parent_right[best_r] = min_slack[best_r][1]
            other = match_r[best_r]
            if other is None:
                # augment along the tree back to the root
                r = best_r
                while r is not None:
                    l = parent_right[r]
                    prev = match_l[l]
                    match_l[l] = r
                    match_r[r] = l
                    r = prev
                break
            in_tree_left[other] = True
            for r in range(n):
                if parent_right[r] is None:
                    slack = u[other] + v[r] - w[other][r]
                    if slack < min_slack[r][0]:
                        min_slack[r] = (slack, other)

    value = sum(w[l][match_l[l]] for l in range(n))
    result = MatchingResult(
        assignment=tuple(match_l[l] + 1 for l in range(n)),
        value=value,
        u=tuple(u),
        v=tuple(v),
    )
    check_certificate(weights, result)
    return result


# --- seeded value rows by class, for checks over every balanced allocation ----

def int_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 4))


def ratio_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 6), rng.choice([1, 2, 3]))


VALUES = {"int": int_value, "ratio": ratio_value}


def bivalued_rows(rng, n, m, value):
    rows = []
    for _ in range(n):
        low = high = value(rng)
        while high == low:
            high = value(rng)
        rows.append([rng.choice((low, high)) for _ in range(m)])
    return rows


def two_type_rows(rng, n, m, value):
    u1, u2 = [value(rng) for _ in range(m)], [value(rng) for _ in range(m)]
    types = [u1, u2] + [rng.choice((u1, u2)) for _ in range(n - 2)]
    rng.shuffle(types)
    return types


def general_rows(rng, n, m, value):
    return [[value(rng) for _ in range(m)] for _ in range(n)]
