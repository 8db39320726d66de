"""EF1 + fPO balanced allocations when agents have at most two valuation types.

The solver walks a grid of weight ratios gamma (type-1 agents weigh 1,
type-2 agents weigh gamma).  Between consecutive critical ratios the
optimal type-1/type-2 good split is constant; within each interval the
goods are re-dealt to same-type agents in descending order of dual
prices.  Whenever the price-comparison conditions (a) and (b) both hold,
the dealt allocation is EF1; it is fPO at every step because it always
maximizes the gamma-weighted welfare.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import verify as verify_mod
from .core import (
    Allocation,
    FairDivisionError,
    Instance,
    InternalInvariantError,
    MoreThanTwoTypes,
    Solution,
    _distinct_rows,
    as_rational,
    make_allocation,
)
from .graph import Potentials, compute_potentials


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


@dataclass(frozen=True)
class TypedAllocation:
    """Bundles per type in deal order, with the gamma and potentials that
    produced them."""

    x_bundles: tuple
    y_bundles: tuple
    gamma: Fraction
    potentials: Potentials


def compute_delta(u1: Sequence, u2: Sequence) -> Fraction:
    """Smallest positive same-type value difference scaled by one plus the
    largest value; every interesting weight ratio lies in (delta, 1/delta)."""
    u1 = [as_rational(v) for v in u1]
    u2 = [as_rational(v) for v in u2]
    diffs = [
        abs(a - b)
        for row in (u1, u2)
        for a in row
        for b in row
        if a != b
    ]
    if not diffs:
        raise AllValuesEqual("no two goods differ within either type")
    return min(diffs) / (1 + max(max(u1), max(u2)))


def critical_values(u1: Sequence, u2: Sequence) -> GammaGrid:
    """Ratios (u1j - u1j')/(u2j - u2j') over good pairs where both types
    strictly prefer j; only at these gammas can the optimal split change."""
    u1 = [as_rational(v) for v in u1]
    u2 = [as_rational(v) for v in u2]
    delta = compute_delta(u1, u2)
    upper = 1 / delta
    found = set()
    m = len(u1)
    for j in range(m):
        for jp in range(m):
            if u1[j] > u1[jp] and u2[j] > u2[jp]:
                ratio = (u1[j] - u1[jp]) / (u2[j] - u2[jp])
                if delta < ratio < upper:
                    found.add(ratio)
    return GammaGrid(delta=delta, criticals=tuple(sorted(found)))


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
    scale = lcm(*(v.denominator for v in u1 + u2))
    key = [gamma.numerator * b.numerator * (scale // b.denominator)
           - gamma.denominator * a.numerator * (scale // a.denominator) for a, b in zip(u1, u2)]
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


def conditions_ab(t: TypedAllocation) -> tuple:
    """Condition (a): the poorest type-1 bundle still prices at least the
    richest type-2 bundle minus its best good; (b) is the mirror image.
    At least one always holds."""
    p = t.potentials.p
    price = lambda b: sum((p[j - 1] for j in b), Fraction(0))
    drop = lambda b: price(b) - max(p[j - 1] for j in b)
    a_holds = price(t.x_bundles[-1]) >= drop(t.y_bundles[0])
    b_holds = price(t.y_bundles[-1]) >= drop(t.x_bundles[0])
    if not (a_holds or b_holds):
        raise InternalInvariantError("both price conditions failed at once")
    return a_holds, b_holds


# --- solver internals ---------------------------------------------------------

@dataclass(frozen=True)
class _View:
    """A two-type reading of an instance."""

    u1: tuple
    u2: tuple
    members1: tuple
    members2: tuple

    @property
    def n1(self) -> int:
        return len(self.members1)

    @property
    def n2(self) -> int:
        return len(self.members2)


def _two_type_view(inst: Instance) -> _View:
    rows = _distinct_rows(inst)
    if len(rows) > 2:
        raise MoreThanTwoTypes(f"{len(rows)} distinct valuation rows")
    if len(rows) == 1:
        return _View(rows[0][0], (), rows[0][1], ())
    (u1, members1), (u2, members2) = rows
    return _View(u1, u2, members1, members2)


def _alpha_for(view: _View, n: int, gamma: Fraction) -> tuple:
    alpha = [Fraction(1)] * n
    for i in view.members2:
        alpha[i - 1] = gamma
    return tuple(alpha)


def _split_allocation(inst: Instance, view: _View, split: Split) -> Allocation:
    """Any balanced allocation realizing the split (used for potentials,
    which do not depend on the choice)."""
    k = inst.k
    bundles = [None] * inst.n
    s_sorted = sorted(split.s)
    for pos, agent in enumerate(view.members1):
        bundles[agent - 1] = set(s_sorted[pos * k:(pos + 1) * k])
    t_sorted = sorted(split.t)
    for pos, agent in enumerate(view.members2):
        bundles[agent - 1] = set(t_sorted[pos * k:(pos + 1) * k])
    return make_allocation(bundles)


def _deal(inst: Instance, view: _View, split: Split, gamma: Fraction, pot: Potentials) -> TypedAllocation:
    k = inst.k
    x_bundles = round_robin_by_price(split.s, pot.p, view.n1, k)
    y_bundles = round_robin_by_price(split.t, pot.p, view.n2, k)
    return TypedAllocation(x_bundles=x_bundles, y_bundles=y_bundles, gamma=gamma, potentials=pot)


def _assemble(view: _View, typed: TypedAllocation) -> Allocation:
    n = view.n1 + view.n2
    bundles = [None] * n
    for pos, agent in enumerate(view.members1):
        bundles[agent - 1] = typed.x_bundles[pos]
    for pos, agent in enumerate(view.members2):
        bundles[agent - 1] = typed.y_bundles[pos]
    return Allocation(tuple(bundles))


class _PriceModel:
    """Exact per-good dual prices as functions of gamma on one interval.

    With the split fixed, the shortest-path distances collapse to closed
    forms: each type's agent potential is the lower envelope of a direct
    two-edge term and relay terms through the other type, and each good
    price is the negated minimum of at most m+3 affine functions of gamma.
    """

    def __init__(self, view: _View, split: Split):
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
        self.good_lines = {}
        for j in range(1, len(u1) + 1):
            lines = [(Fraction(0), Fraction(0))]
            lines += [(s, b - u1[j - 1]) for s, b in self.q1_lines]
            lines += [(s - u2[j - 1], b) for s, b in self.q2_lines]
            self.good_lines[j] = lines

    @staticmethod
    def _min_at(lines, gamma: Fraction) -> Fraction:
        return min(s * gamma + b for s, b in lines)

    def q_values(self, gamma: Fraction) -> tuple:
        return self._min_at(self.q1_lines, gamma), self._min_at(self.q2_lines, gamma)

    def price(self, j: int, gamma: Fraction) -> Fraction:
        return -self._min_at(self.good_lines[j], gamma)

    def price_vector(self, gamma: Fraction, m: int) -> tuple:
        return tuple(self.price(j, gamma) for j in range(1, m + 1))

    def active_price_line(self, j: int, gamma: Fraction) -> tuple:
        """The negated affine piece that equals the price near gamma."""
        best = None
        for s, b in self.good_lines[j]:
            val = s * gamma + b
            if best is None or val < best[0]:
                best = (val, s, b)
        return -best[1], -best[2]

    def breakpoints(self, lo: Fraction, hi: Fraction, split: Split) -> set:
        """Gammas in (lo, hi) where a price's affine piece can change or
        two same-side prices can cross."""
        out = set()

        def cross(l1, l2):
            for s1, b1 in l1:
                for s2, b2 in l2:
                    if s1 != s2:
                        g = (b2 - b1) / (s1 - s2)
                        if lo < g < hi:
                            out.add(g)

        for j, lines in self.good_lines.items():
            cross(lines, lines)
        for side in (sorted(split.s), sorted(split.t)):
            for a_idx in range(len(side)):
                for b_idx in range(a_idx + 1, len(side)):
                    cross(self.good_lines[side[a_idx]], self.good_lines[side[b_idx]])
        return out


def _condition_lines(model: _PriceModel, view: _View, split: Split, k: int, gamma: Fraction):
    """Affine forms of both condition gaps, valid on the crossing-free
    segment around gamma.  Returns ((slope, intercept) for a, same for b)."""
    prices = {j: model.price(j, gamma) for j in split.s | split.t}
    price_seq = [Fraction(0)] * (max(split.s | split.t))
    for j, v in prices.items():
        price_seq[j - 1] = v
    x_bundles = round_robin_by_price(split.s, price_seq, view.n1, k)
    y_bundles = round_robin_by_price(split.t, price_seq, view.n2, k)

    def bundle_line(bundle, drop_top: bool):
        slope = Fraction(0)
        intercept = Fraction(0)
        top = max(bundle, key=lambda j: (prices[j], -j)) if drop_top else None
        for j in bundle:
            if j == top:
                continue
            s, b = model.active_price_line(j, gamma)
            slope += s
            intercept += b
        return slope, intercept

    xa = bundle_line(x_bundles[-1], drop_top=False)
    ya = bundle_line(y_bundles[0], drop_top=True)
    yb = bundle_line(y_bundles[-1], drop_top=False)
    xb = bundle_line(x_bundles[0], drop_top=True)
    line_a = (xa[0] - ya[0], xa[1] - ya[1])
    line_b = (yb[0] - xb[0], yb[1] - xb[1])
    return line_a, line_b


def case1_sweep(inst: Instance, grid: GammaGrid, ell: int) -> tuple:
    """Find gamma* inside interval ell where both price conditions hold.

    Candidate gammas are the interval endpoints, every point where a price
    changes its affine piece or two same-side prices cross, and the roots
    of the two condition gaps on each crossing-free segment.  Scanned in
    ascending order; the first candidate satisfying both conditions is
    returned together with its freshly computed allocation.
    """
    view = _two_type_view(inst)
    lo, hi = grid.interval(ell)
    if lo == hi:
        typed = _typed_at(inst, view, grid, ell, lo)
        return lo, typed
    mid = (lo + hi) / 2
    split = optimal_split(view.u1, view.u2, mid, view.n1, inst.k)
    model = _PriceModel(view, split)

    points = {lo, hi} | model.breakpoints(lo, hi, split)
    ordered = sorted(points)
    candidates = set(ordered)
    for left, right in zip(ordered, ordered[1:]):
        seg_mid = (left + right) / 2
        for slope, intercept in _condition_lines(model, view, split, inst.k, seg_mid):
            if slope != 0:
                root = -intercept / slope
                if left < root < right:
                    candidates.add(root)

    for gamma in sorted(candidates):
        typed = _deal(inst, view, split, gamma, _model_potentials(inst, view, model, gamma))
        a_holds, b_holds = conditions_ab(typed)
        if a_holds and b_holds:
            # recompute the certificate canonically before returning
            pot = _potentials_at(inst, view, split, gamma)
            assert pot.p == typed.potentials.p and pot.q == typed.potentials.q
            typed = _deal(inst, view, split, gamma, pot)
            return gamma, typed
    raise SweepExhausted(f"interval {ell} had no point satisfying both conditions")


def _model_potentials(inst: Instance, view: _View, model: _PriceModel, gamma: Fraction) -> Potentials:
    q1, q2 = model.q_values(gamma)
    q = [q1] * inst.n
    for i in view.members2:
        q[i - 1] = q2
    return Potentials(q=tuple(q), p=model.price_vector(gamma, inst.m))


def _potentials_at(inst: Instance, view: _View, split: Split, gamma: Fraction) -> Potentials:
    alloc = _split_allocation(inst, view, split)
    return compute_potentials(inst, alloc, _alpha_for(view, inst.n, gamma))


def _typed_at(inst: Instance, view: _View, grid: GammaGrid, ell: int, gamma: Fraction) -> TypedAllocation:
    mid = sum(grid.interval(ell), Fraction(0)) / 2
    split = optimal_split(view.u1, view.u2, mid, view.n1, inst.k)
    pot = _potentials_at(inst, view, split, gamma)
    return _deal(inst, view, split, gamma, pot)


def _assert_tight(inst: Instance, view: _View, typed: TypedAllocation, gamma: Fraction) -> None:
    """Complementary slackness of a dealt allocation at fixed potentials:
    every assigned pair must price exactly at its weighted value."""
    pot = typed.potentials
    for pos, agent in enumerate(view.members1):
        q = pot.q[agent - 1]
        for j in typed.x_bundles[pos]:
            if q + pot.p[j - 1] != inst.value(agent, j):
                raise InternalInvariantError("type-1 assignment lost tightness")
    for pos, agent in enumerate(view.members2):
        q = pot.q[agent - 1]
        for j in typed.y_bundles[pos]:
            if q + pot.p[j - 1] != gamma * inst.value(agent, j):
                raise InternalInvariantError("type-2 assignment lost tightness")


def case2_exchange(inst: Instance, grid: GammaGrid, ell: int) -> Allocation:
    """Walk from the interval-ell split to the interval-(ell+1) split one
    good swap at a time at the shared gamma, re-dealing by price after
    each swap, and return the first EF1 allocation.

    Every intermediate allocation keeps complementary slackness at the
    shared gamma's potentials, hence stays fPO.
    """
    view = _two_type_view(inst)
    gamma = grid.endpoint(ell)
    k = inst.k
    mid_here = sum(grid.interval(ell), Fraction(0)) / 2
    mid_next = sum(grid.interval(ell + 1), Fraction(0)) / 2
    split = optimal_split(view.u1, view.u2, mid_here, view.n1, k)
    target = optimal_split(view.u1, view.u2, mid_next, view.n1, k)
    pot = _potentials_at(inst, view, split, gamma)

    s, t = set(split.s), set(split.t)
    for _ in range(inst.m + 1):
        typed = TypedAllocation(
            x_bundles=round_robin_by_price(s, pot.p, view.n1, k),
            y_bundles=round_robin_by_price(t, pot.p, view.n2, k),
            gamma=gamma,
            potentials=pot,
        )
        _assert_tight(inst, view, typed, gamma)
        alloc = _assemble(view, typed)
        if verify_mod.is_ef1(inst, alloc).holds:
            return alloc
        if s == set(target.s):
            break
        j_out = min(s - target.s)
        j_in = min(t - target.t)
        s.remove(j_out)
        s.add(j_in)
        t.remove(j_in)
        t.add(j_out)
    raise ExchangeExhausted(f"no EF1 allocation between intervals {ell} and {ell + 1}")


def _solution(inst: Instance, view: _View, alloc: Allocation, gamma: Fraction, pot: Potentials) -> Solution:
    return Solution(alloc, _alpha_for(view, inst.n, gamma), gamma, pot)


def _trivial_solution(inst: Instance, view: _View) -> Solution:
    """Single-type or constant-row case: deal by descending value."""
    bundles = round_robin_by_price(inst.goods(), list(view.u1), inst.n, inst.k)
    alloc = make_allocation(bundles)
    pot = compute_potentials(inst, alloc, _alpha_for(view, inst.n, Fraction(1)))
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
    prev = None
    for ell in range(1, grid.interval_count + 1):
        lo, hi = grid.interval(ell)
        split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
        if split != prev:
            x = round_robin_by_price(split.s, view.u1, view.n1, inst.k)
            y = round_robin_by_price(split.t, view.u2, view.n2, inst.k)
            alloc = _assemble(view, TypedAllocation(x, y, lo, None))
            if verify_mod.is_ef1(inst, alloc).holds:
                typed = _deal(inst, view, split, lo, _potentials_at(inst, view, split, lo))
                if _assemble(view, typed) != alloc:
                    raise InternalInvariantError("prices must order each type's goods by value")
                conditions_ab(typed)  # raises if both price conditions fail
                return _solution(inst, view, alloc, lo, typed.potentials)
        prev = split

    # no split deals an EF1 allocation: price conditions (a) and (b) at every end
    evaluated = {}
    pot_cache = {}  # one Bellman-Ford run per grid point
    for ell in range(1, grid.interval_count + 1):
        lo, hi = grid.interval(ell)
        split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
        for gamma in (lo, hi):
            if gamma not in pot_cache:
                pot_cache[gamma] = _potentials_at(inst, view, split, gamma)
            evaluated[(ell, gamma)] = conditions_ab(_deal(inst, view, split, gamma, pot_cache[gamma]))

    for ell in range(1, grid.interval_count + 1):
        lo, hi = grid.interval(ell)
        if evaluated[(ell, lo)][0] and evaluated[(ell, hi)][1]:
            gamma, typed = case1_sweep(inst, grid, ell)
            alloc = _assemble(view, typed)
            if not verify_mod.is_ef1(inst, alloc).holds:
                raise InternalInvariantError("sweep result must be EF1")
            return _solution(inst, view, alloc, gamma, typed.potentials)

    for ell in range(1, grid.interval_count):
        shared = grid.endpoint(ell)
        if evaluated[(ell, shared)][0] and evaluated[(ell + 1, shared)][1]:
            alloc = case2_exchange(inst, grid, ell)
            return _solution(inst, view, alloc, shared, pot_cache[shared])
    raise InternalInvariantError("neither sweep nor exchange case occurred")
