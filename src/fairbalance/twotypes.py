"""EF1 + fPO balanced allocations when agents have at most two valuation types.

Type-1 agents weigh 1 and type-2 agents weigh gamma.  Between consecutive
critical ratios the welfare-optimal split of goods between the types is
constant, and each type's goods are dealt round-robin to its agents in
descending order of that type's values.  Owned goods are tight and agents
of one type share a potential, so dual prices order each type's goods
exactly as its values do: the value deal is the price deal at every gamma
of the interval.  The solver returns the first split whose deal is EF1;
when there is none, it walks good swaps at a shared interval end where
price condition (a) holds on the left and (b) on the right.  Every deal
maximizes the gamma-weighted welfare, so it is fPO.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

from . import verify as verify_mod
from .core import (
    Allocation,
    FairDivisionError,
    Instance,
    InternalInvariantError,
    MoreThanTwoTypes,
    Solution,
    TwoType,
    _distinct_rows,
    as_rational,
    integer_rows,
    make_allocation,
)
from .graph import Potentials, compute_potentials
from .lp import verify_complementary_slackness


class AllValuesEqual(FairDivisionError):
    """Both type rows are constant; every balanced allocation is EF and fPO."""


class SweepExhausted(InternalInvariantError):
    """No sweep point satisfied both conditions (should be impossible)."""


class ExchangeExhausted(InternalInvariantError):
    """The exchange walk ended without an EF1 allocation (impossible)."""


# --- gamma grid ---------------------------------------------------------------

@dataclass(frozen=True)
class GammaGrid:
    """delta, the sorted critical ratios inside (delta, 1/delta), and the
    closed intervals they cut out."""

    delta: Fraction
    criticals: tuple

    @property
    def upper(self) -> Fraction:
        return 1 / self.delta

    @property
    def interval_count(self) -> int:
        return len(self.criticals) + 1

    def endpoint(self, index: int) -> Fraction:
        """gamma_index for index in 0..L+1 (0 is delta, L+1 is 1/delta)."""
        if index == 0:
            return self.delta
        if index == len(self.criticals) + 1:
            return self.upper
        return self.criticals[index - 1]

    def interval(self, ell: int) -> tuple:
        """Closed interval number ell, 1-based."""
        return self.endpoint(ell - 1), self.endpoint(ell)


@dataclass(frozen=True)
class Split:
    """Partition of the goods between the two agent types."""

    s: frozenset  # goods for type-1 agents, |s| = k*n1
    t: frozenset


def compute_delta(u1: Sequence, u2: Sequence) -> Fraction:
    """Smallest positive same-type value difference scaled by one plus the
    largest value; every interesting weight ratio lies in (delta, 1/delta)."""
    # in ints over a common denominator: g/(1+M) is (scale*g)/(scale + scale*M)
    scale, rows = integer_rows((u1, u2))
    # the smallest difference lies between neighbours in sorted order
    gaps = []
    for row in rows:
        values = sorted(set(row))
        gaps += [b - a for a, b in zip(values, values[1:])]
    if not gaps:
        raise AllValuesEqual("no two goods differ within either type")
    return Fraction(min(gaps), scale + max(max(row) for row in rows))


def critical_values(u1: Sequence, u2: Sequence) -> GammaGrid:
    """Ratios (u1j - u1j')/(u2j - u2j') over good pairs where both types
    strictly prefer j; only at these gammas can the optimal split change."""
    u1 = [as_rational(v) for v in u1]
    u2 = [as_rational(v) for v in u2]
    delta = compute_delta(u1, u2)
    # over a common denominator the ratio of differences is num/den of ints,
    # and delta < num/den < 1/delta cross-multiplies (den, num > 0)
    _, (a, b) = integer_rows((u1, u2))
    lo, hi = delta.numerator, delta.denominator
    found = set()
    for aj, bj in zip(a, b):
        for ajp, bjp in zip(a, b):
            num, den = aj - ajp, bj - bjp
            if num > 0 and den > 0 and lo * den < hi * num and lo * num < hi * den:
                g = gcd(num, den)
                found.add((num // g, den // g))
    return GammaGrid(delta=delta, criticals=tuple(sorted(Fraction(*r) for r in found)))


def optimal_split(u1: Sequence, u2: Sequence, gamma: Fraction, n1: int, k: int) -> Split:
    """The k*n1 goods with the largest score u1j - gamma*u2j go to type 1
    (ties toward type 1 by good index); this maximizes the gamma-weighted
    welfare over all balanced allocations."""
    u1 = [as_rational(v) for v in u1]
    u2 = [as_rational(v) for v in u2]
    gamma = as_rational(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    # minus each score times a positive integer (gamma's denominator and a
    # common denominator of the values): exact integers, same order and ties
    _, (a1, a2) = integer_rows((u1, u2))
    key = [gamma.numerator * b - gamma.denominator * a for a, b in zip(a1, a2)]
    order = sorted(range(1, len(u1) + 1), key=lambda j: key[j - 1])  # stable: ties by index
    return Split(s=frozenset(order[: k * n1]), t=frozenset(order[k * n1:]))


def round_robin_by_price(goods, prices: Sequence, agents: int, k: int) -> tuple:
    """Deal the goods cyclically to ``agents`` bundles in descending price
    order (good index breaks ties).  prices[j-1] is the price of good j."""
    goods = sorted(goods)
    if len(goods) != agents * k:
        raise ValueError(f"{len(goods)} goods cannot be dealt as {agents} x {k}")
    order = sorted(goods, key=lambda j: (-prices[j - 1], j))
    bundles = [set() for _ in range(agents)]
    for pos, j in enumerate(order):
        bundles[pos % agents].add(j)
    return tuple(frozenset(b) for b in bundles)


def _condition_gaps(view: TwoType, alloc: Allocation, p: Sequence) -> tuple:
    """How far conditions (a) and (b) hold for a dealt allocation at prices
    p: each is satisfied exactly when its gap is nonnegative.  A type's
    first member holds its richest bundle and its last member its poorest."""
    price, drop = verify_mod.price_sum, verify_mod.price_drop_top
    x, y = view.members1, view.members2
    return (price(p, alloc.bundle(x[-1])) - drop(p, alloc.bundle(y[0])),
            price(p, alloc.bundle(y[-1])) - drop(p, alloc.bundle(x[0])))


def conditions_ab(view: TwoType, alloc: Allocation, p: Sequence) -> tuple:
    """Condition (a): the poorest type-1 bundle still prices at least the
    richest type-2 bundle minus its best good; (b) is the mirror image.
    At least one always holds."""
    a_holds, b_holds = (gap >= 0 for gap in _condition_gaps(view, alloc, p))
    if not (a_holds or b_holds):
        raise InternalInvariantError("both price conditions failed at once")
    return a_holds, b_holds


# --- solver internals ---------------------------------------------------------

def _two_type_view(inst: Instance) -> TwoType:
    rows = _distinct_rows(inst)
    if len(rows) > 2:
        raise MoreThanTwoTypes(f"{len(rows)} distinct valuation rows")
    if len(rows) == 1:
        return TwoType(rows[0][0], (), rows[0][1], ())
    (u1, members1), (u2, members2) = rows
    return TwoType(u1, u2, members1, members2)


def _alpha_for(view: TwoType, n: int, gamma: Fraction) -> tuple:
    alpha = [Fraction(1)] * n
    for i in view.members2:
        alpha[i - 1] = gamma
    return tuple(alpha)


def _interval_split(inst: Instance, view: TwoType, grid: GammaGrid, ell: int) -> Split:
    """The optimal split on interval ell (taken at its midpoint)."""
    lo, hi = grid.interval(ell)
    return optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)


def _deal(inst: Instance, view: TwoType, split: Split) -> Allocation:
    """Deal each type's goods round-robin in descending value of that type,
    the richest bundle to the type's first member."""
    bundles = [None] * inst.n
    for goods, values, members in ((split.s, view.u1, view.members1),
                                   (split.t, view.u2, view.members2)):
        for agent, bundle in zip(members, round_robin_by_price(goods, values, len(members), inst.k)):
            bundles[agent - 1] = bundle
    return Allocation(tuple(bundles))


def _potentials_of(inst: Instance, view: TwoType, alloc: Allocation, gamma: Fraction) -> Potentials:
    """Bellman-Ford potentials of a dealt allocation at weight ratio gamma."""
    return compute_potentials(inst, alloc, _alpha_for(view, inst.n, gamma))


class _PriceModel:
    """The agent potentials q1, q2 as functions of gamma on one interval.

    With the split fixed, the shortest-path distances collapse to closed
    forms: each type's agent potential is the lower envelope of a direct
    two-edge term and relay terms through the other type.  Owned goods
    are tight, so a type-1 good prices u1j - q1 and a type-2 good
    gamma*u2j - q2.
    """

    def __init__(self, view: TwoType, split: Split):
        u1, u2 = view.u1, view.u2
        s_goods = sorted(split.s)
        t_goods = sorted(split.t)
        c11 = min(u1[j - 1] for j in s_goods)
        u2t = min(u2[j - 1] for j in t_goods)
        # affine functions are (slope, intercept) pairs over gamma
        self.q1_lines = [(Fraction(0), c11)] + [
            (u2t - u2[j - 1], u1[j - 1]) for j in s_goods
        ]
        self.q2_lines = [(u2t, Fraction(0))] + [
            (u2[j - 1], c11 - u1[j - 1]) for j in t_goods
        ]

    def q_values(self, gamma: Fraction) -> tuple:
        return tuple(min(s * gamma + b for s, b in lines) for lines in (self.q1_lines, self.q2_lines))

    def kinks(self, lo: Fraction, hi: Fraction) -> set:
        """Gammas in (lo, hi) where q1 or q2 changes its affine piece."""
        out = set()
        for side, lines in enumerate((self.q1_lines, self.q2_lines)):
            for (s1, b1), (s2, b2) in combinations(lines, 2):
                if s1 != s2:
                    g = (b2 - b1) / (s1 - s2)
                    if lo < g < hi and s1 * g + b1 == self.q_values(g)[side]:
                        out.add(g)
        return out


def case1_sweep(inst: Instance, grid: GammaGrid, ell: int) -> tuple:
    """The least gamma in interval ell where both price conditions hold,
    with the interval's deal and its potentials there.

    The deal is fixed on the interval and every price is a value minus
    its type's potential, so both condition gaps are affine between the
    kinks of q1 and q2.  The candidates are the interval ends, those
    kinks, and each gap's root on each piece; they are scanned in
    ascending order with Bellman-Ford potentials.
    """
    view = _two_type_view(inst)
    lo, hi = grid.interval(ell)
    split = _interval_split(inst, view, grid, ell)
    alloc = _deal(inst, view, split)
    points = sorted({lo, hi} | _PriceModel(view, split).kinks(lo, hi))
    pots = {g: _potentials_of(inst, view, alloc, g) for g in points}
    gaps = {g: _condition_gaps(view, alloc, pot.p) for g, pot in pots.items()}
    candidates = set(points)
    for left, right in zip(points, points[1:]):
        for g_left, g_right in zip(gaps[left], gaps[right]):
            if (g_left < 0) != (g_right < 0):
                candidates.add(left + (right - left) * g_left / (g_left - g_right))
    for gamma in sorted(candidates):
        pot = pots[gamma] if gamma in pots else _potentials_of(inst, view, alloc, gamma)
        if all(conditions_ab(view, alloc, pot.p)):
            return gamma, alloc, pot
    raise SweepExhausted(f"interval {ell} had no point satisfying both conditions")


def case2_exchange(inst: Instance, view: TwoType, split: Split, target: Split,
                   gamma: Fraction, pot: Potentials) -> Allocation:
    """Walk from ``split`` to ``target``, the splits of two intervals that
    share the end ``gamma``, one good swap at a time, re-dealing by value
    after each swap, and return the first EF1 allocation.

    ``pot`` are the potentials of the ``split`` deal at ``gamma``.  Every
    intermediate allocation is checked tight at them, hence stays fPO;
    potentials that are infeasible or not tight raise InternalInvariantError.
    """
    alpha = _alpha_for(view, inst.n, gamma)
    for _ in range(inst.m + 1):
        alloc = _deal(inst, view, split)
        try:
            tight = verify_complementary_slackness(inst, alloc, pot, alpha)
        except ValueError as exc:
            raise InternalInvariantError(f"exchange potentials are unusable: {exc}") from exc
        if not tight:
            raise InternalInvariantError("an exchange step lost tightness")
        if verify_mod.is_ef1(inst, alloc).holds:
            return alloc
        if split == target:
            break
        j_out = min(split.s - target.s)
        j_in = min(split.t - target.t)
        split = Split(s=split.s - {j_out} | {j_in}, t=split.t - {j_in} | {j_out})
    raise ExchangeExhausted(f"no EF1 allocation on the exchange walk at gamma {gamma}")


def _solution(inst: Instance, view: TwoType, alloc: Allocation, gamma: Fraction, pot: Potentials) -> Solution:
    return Solution(alloc, _alpha_for(view, inst.n, gamma), gamma, pot)


def _trivial_solution(inst: Instance, view: TwoType) -> Solution:
    """Single-type or constant-row case: deal by descending value."""
    bundles = round_robin_by_price(inst.goods(), list(view.u1), inst.n, inst.k)
    alloc = make_allocation(bundles)
    pot = _potentials_of(inst, view, alloc, Fraction(1))
    return _solution(inst, view, alloc, Fraction(1), pot)


def solve_two_types(inst: Instance) -> Solution:
    """Balanced EF1 + fPO allocation for a one- or two-type instance.

    The :class:`Solution`'s allocation maximizes the welfare weighted
    alpha = 1 on type-1 agents and gamma on type-2 agents, and its
    potentials are the optimal duals at that gamma.
    """
    view = _two_type_view(inst)
    inst.k  # fail fast on unbalanced shapes

    if view.n2 == 0:
        return _trivial_solution(inst, view)
    try:
        grid = critical_values(view.u1, view.u2)
    except AllValuesEqual:
        return _trivial_solution(inst, view)

    # Owned goods are tight and agents of one type share q, so on an
    # interval prices order each type's goods as that type's values do: the
    # dealt allocation depends on the split, not on gamma, and only the first
    # EF1 one needs duals (at its interval's lower end, where both adjacent
    # splits are optimal and give the same shortest-path potentials).
    splits = []  # splits[ell - 1] is interval ell's
    for ell in range(1, grid.interval_count + 1):
        split = _interval_split(inst, view, grid, ell)
        if split not in splits[-1:]:
            lo = grid.endpoint(ell - 1)
            alloc = _deal(inst, view, split)
            if verify_mod.is_ef1(inst, alloc).holds:
                pot = _potentials_of(inst, view, alloc, lo)
                conditions_ab(view, alloc, pot.p)  # raises if both fail
                return _solution(inst, view, alloc, lo, pot)
        splits.append(split)

    # No split deals an EF1 allocation, so case 1 cannot occur: where (a)
    # holds at an interval's lower end and (b) at its upper end, the paper's
    # sweep finds a gamma with both, whose deal is EF1 and is the interval's
    # deal.  Case 2 then holds at some shared end.
    for ell in range(1, grid.interval_count):
        shared = grid.endpoint(ell)
        left, right = splits[ell - 1], splits[ell]
        left_alloc = _deal(inst, view, left)
        pot = _potentials_of(inst, view, left_alloc, shared)  # one Bellman-Ford run per shared gamma
        if (conditions_ab(view, left_alloc, pot.p)[0]
                and conditions_ab(view, _deal(inst, view, right), pot.p)[1]):
            return _solution(inst, view, case2_exchange(inst, view, left, right, shared, pot), shared, pot)
    raise InternalInvariantError("neither sweep nor exchange case occurred")
