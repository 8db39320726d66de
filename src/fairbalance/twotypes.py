"""EF1 + fPO balanced allocations when agents have at most two valuation types.

Type-1 agents weigh 1 and type-2 agents weigh gamma.  Between consecutive
critical ratios the welfare-optimal split of goods between the types is
constant, and each type's goods are dealt round-robin to its agents in
descending order of that type's values.  Owned goods are tight and agents
of one type share a potential, so dual prices order each type's goods
exactly as its values do: the value deal is the price deal at every gamma
of the interval.  The solver walks gamma upward from delta over the points
where the split changes, never listing every critical ratio
(:func:`critical_values` builds that grid for inspection): a run of equal
splits ends at the upper end of its split's ``core.gamma_bounds``, and
``TwoType.weights`` builds every certificate's weights.  It returns the
first split whose deal is EF1; when there is none, it walks good swaps at
a gamma where the split changes and price condition (a) holds on the left
and (b) on the right.  Every deal maximizes the gamma-weighted welfare, so
it is fPO.
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
    Solution,
    TwoType,
    as_rational,
    gamma_bounds,
    integer_rows,
    make_allocation,
    two_type_view,
)
from .graph import compute_potentials
from .lp import verify_complementary_slackness


class AllValuesEqual(FairDivisionError):
    """Both type rows are constant; every balanced allocation is EF and fPO."""


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


def compute_delta(u1: Sequence, u2: Sequence) -> Fraction:
    """Smallest positive same-type value difference scaled by one plus the
    largest value; every interesting weight ratio lies in (delta, 1/delta)."""
    return _delta(*integer_rows((u1, u2)))


def _delta(scale: int, rows: Sequence) -> Fraction:
    """compute_delta on the two rows times ``scale``, as ints."""
    # in ints over a common denominator: g/(1+M) is (scale*g)/(scale + scale*M)
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


def optimal_split(u1: Sequence, u2: Sequence, gamma: Fraction, n1: int, k: int) -> frozenset:
    """The split: the k*n1 goods with the largest score u1j - gamma*u2j,
    which go to type 1 (ties toward type 1 by good index); this maximizes
    the gamma-weighted welfare over all balanced allocations."""
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
    return frozenset(order[: k * n1])


def _split_runs(inst: Instance, view: TwoType, delta: Fraction):
    """Yield each run of equal optimal splits as gamma rises from delta,
    as ``(split, its deal, gamma where the run starts)``: the split of
    :func:`optimal_split` on every grid interval, without building the grid.

    Just above a gamma, goods tied at it rank by ascending a2, so sorting
    the int rows by the score there, then a2, then index gives the split
    of the run that starts there.  Its ``gamma_bounds`` are (that gamma,
    the next change), with no lower end on the first run and no upper end
    (``hi2 == 0``) on the last, so the walk ends each run at ``hi1/hi2``,
    the one Fraction it builds per run.
    """
    a1, a2, size = view.row1, view.row2, view.n1 * inst.k
    start = delta
    while start is not None:
        num, den = start.numerator, start.denominator
        order = sorted(inst.goods(), key=lambda j: (num * a2[j - 1] - den * a1[j - 1], a2[j - 1], j))
        split = frozenset(order[:size])
        yield split, _deal(inst, view, split), start
        bounds = gamma_bounds(view, split)
        if bounds is None:
            raise InternalInvariantError(f"the split walked at gamma {start} is optimal at no gamma")
        hi1, hi2 = bounds[1]
        start = Fraction(hi1, hi2) if hi2 else None


def round_robin_by_price(goods, prices: Sequence, agents: int, k: int) -> tuple:
    """Deal the goods cyclically to ``agents`` bundles in descending price
    order (good index breaks ties).  prices[j-1] is the price of good j."""
    order = sorted(goods, key=lambda j: (-prices[j - 1], j))
    if len(order) != agents * k:
        raise ValueError(f"{len(order)} goods cannot be dealt as {agents} x {k}")
    bundles = [set() for _ in range(agents)]
    for pos, j in enumerate(order):
        bundles[pos % agents].add(j)
    return tuple(frozenset(b) for b in bundles)


def _condition_gaps(view: TwoType, alloc: Allocation, p: Sequence) -> tuple:
    """How far conditions (a) and (b) hold for a dealt allocation at prices
    p (Fractions, or ints over one scale): each is satisfied exactly when
    its gap is nonnegative.  A type's first member holds its richest bundle
    and its last member its poorest."""
    price, drop = verify_mod.price_sum, verify_mod.price_drop_top
    x, y = view.members1, view.members2
    return (price(p, alloc.bundle(x[-1])) - drop(p, alloc.bundle(y[0])),
            price(p, alloc.bundle(y[-1])) - drop(p, alloc.bundle(x[0])))


def conditions_ab(view: TwoType, alloc: Allocation, p: Sequence) -> tuple:
    """Condition (a): the poorest type-1 bundle still prices at least the
    richest type-2 bundle minus its best good; (b) is the mirror image.
    At least one always holds.  ``p`` is the prices as Fractions or as
    ints over one positive scale (``Potentials.ps``), which keeps every
    sign."""
    a_holds, b_holds = (gap >= 0 for gap in _condition_gaps(view, alloc, p))
    if not (a_holds or b_holds):
        raise InternalInvariantError("both price conditions failed at once")
    return a_holds, b_holds


# --- solver internals ---------------------------------------------------------

def _deal(inst: Instance, view: TwoType, split: frozenset) -> Allocation:
    """Deal the split to type 1 and every other good to type 2, each
    type's goods round-robin in descending value of that type, the richest
    bundle to the type's first member.  Each type is dealt by its int row,
    whose one positive scale keeps the values' order."""
    bundles = [None] * inst.n
    rest = [j for j in inst.goods() if j not in split]
    for goods, members, row in ((split, view.members1, view.row1),
                                (rest, view.members2, view.row2)):
        for agent, bundle in zip(members, round_robin_by_price(goods, row, len(members), inst.k)):
            bundles[agent - 1] = bundle
    return Allocation(tuple(bundles))


def _certify_deal(inst: Instance, view: TwoType, alloc: Allocation, gamma: Fraction) -> Solution:
    """A dealt allocation with its certificate at weight ratio gamma: the
    weights (1 per type-1 agent, gamma per type-2 agent) and their
    Bellman-Ford potentials."""
    alpha = view.weights(gamma)
    return Solution(alloc, alpha, gamma, compute_potentials(inst, alloc, alpha))


class _PriceModel:
    """The agent potentials q1, q2 as functions of gamma on one interval.

    With the split fixed, the shortest-path distances collapse to closed
    forms: each type's agent potential is the lower envelope of a direct
    two-edge term and relay terms through the other type.  Owned goods
    are tight, so a type-1 good prices u1j - q1 and a type-2 good
    gamma*u2j - q2.
    """

    def __init__(self, view: TwoType, split: frozenset):
        u1, u2 = view.u1, view.u2
        s_goods = sorted(split)
        t_goods = [j for j in range(1, len(u1) + 1) if j not in split]
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
    view = two_type_view(inst)
    lo, hi = grid.interval(ell)
    split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
    alloc = _deal(inst, view, split)
    points = sorted({lo, hi} | _PriceModel(view, split).kinks(lo, hi))
    pots = {g: _certify_deal(inst, view, alloc, g).potentials for g in points}
    gaps = {g: _condition_gaps(view, alloc, pot.p) for g, pot in pots.items()}
    candidates = set(points)
    for left, right in zip(points, points[1:]):
        for g_left, g_right in zip(gaps[left], gaps[right]):
            if (g_left < 0) != (g_right < 0):
                candidates.add(left + (right - left) * g_left / (g_left - g_right))
    for gamma in sorted(candidates):
        pot = pots[gamma] if gamma in pots else _certify_deal(inst, view, alloc, gamma).potentials
        if all(conditions_ab(view, alloc, pot.ps)):
            return gamma, alloc, pot
    raise InternalInvariantError(f"interval {ell} had no point satisfying both conditions")


def case2_exchange(inst: Instance, view: TwoType, split: frozenset, target: frozenset,
                   cert: Solution) -> Solution:
    """Walk from ``split`` to ``target``, the splits of two intervals that
    share the end ``cert.gamma``, one good swap at a time, re-dealing by
    value after each swap, and return ``cert`` with the first EF1
    allocation in place of its own.

    ``cert`` certifies the ``split`` deal at that gamma.  Every
    intermediate allocation is checked tight at its potentials, hence stays
    fPO; potentials that are infeasible or not tight raise
    InternalInvariantError.
    """
    for _ in range(inst.m + 1):
        alloc = _deal(inst, view, split)
        if not verify_complementary_slackness(inst, alloc, cert.potentials, cert.alpha):
            raise InternalInvariantError("an exchange step lost dual feasibility or tightness")
        if verify_mod.is_ef1(inst, alloc).holds:
            return Solution(alloc, cert.alpha, cert.gamma, cert.potentials)
        if split == target:
            break
        split = split - {min(split - target)} | {min(target - split)}
    raise InternalInvariantError(f"no EF1 allocation on the exchange walk at gamma {cert.gamma}")


def _trivial_solution(inst: Instance, view: TwoType) -> Solution:
    """Single-type or constant-row case: deal by descending value."""
    bundles = round_robin_by_price(inst.goods(), view.row1, inst.n, inst.k)
    return _certify_deal(inst, view, make_allocation(bundles), Fraction(1))


def solve_two_types(inst: Instance) -> Solution:
    """Balanced EF1 + fPO allocation for a one- or two-type instance.

    The :class:`Solution`'s allocation maximizes the welfare weighted
    alpha = 1 on type-1 agents and gamma on type-2 agents, and its
    potentials are the optimal duals at that gamma.
    """
    view = two_type_view(inst)
    if view.n2 == 0:
        return _trivial_solution(inst, view)
    try:
        delta = _delta(view.scale, (view.row1, view.row2))
    except AllValuesEqual:
        return _trivial_solution(inst, view)

    # Owned goods are tight and agents of one type share q, so on an
    # interval prices order each type's goods as that type's values do: the
    # dealt allocation depends on the split, not on gamma, and only the first
    # EF1 one needs duals (at its run's lower end, where both adjacent
    # splits are optimal and give the same shortest-path potentials).
    runs = []  # (split, its deal, gamma where the run starts), one per change of split
    for run in _split_runs(inst, view, delta):
        _, alloc, lo = run
        if verify_mod.is_ef1(inst, alloc).holds:
            sol = _certify_deal(inst, view, alloc, lo)
            conditions_ab(view, alloc, sol.potentials.ps)  # raises if both fail
            return sol
        runs.append(run)

    # No split deals an EF1 allocation, so case 1 cannot occur: where (a)
    # holds at an interval's lower end and (b) at its upper end, the paper's
    # sweep finds a gamma with both, whose deal is EF1 and is the interval's
    # deal.  Case 2 then holds at some shared end, and only ends between runs
    # need a look: at an end inside a run, (a) on the left and (b) on the
    # right would hold for one deal at one set of potentials, making it
    # price-EF1, hence EF1, and the scan would have returned it.
    for (left, left_alloc, _), (right, right_alloc, shared) in zip(runs, runs[1:]):
        cert = _certify_deal(inst, view, left_alloc, shared)  # one Bellman-Ford run per boundary
        ps = cert.potentials.ps
        if conditions_ab(view, left_alloc, ps)[0] and conditions_ab(view, right_alloc, ps)[1]:
            return case2_exchange(inst, view, left, right, cert)
    raise InternalInvariantError("neither sweep nor exchange case occurred")
