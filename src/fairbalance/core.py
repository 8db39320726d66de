"""Problem instances, allocations, bundle values, the two-type view and
round robin.

All numeric quantities are exact.  An instance stores its values as ints
over one common denominator, the least one, so the solvers compare and add
ints; results, certificates and the Fraction view of the values
(``Instance.values``, built on first read) are ``fractions.Fraction``s.
No floating point is used anywhere in solver paths.  Agents and goods are
1-based in every public interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:
    from .graph import Potentials

RationalLike = Union[int, Fraction]


class FairDivisionError(Exception):
    """Base class for errors raised by this package."""


class NotBivalued(FairDivisionError):
    """Instance is not personalized bivalued."""


class MoreThanTwoTypes(FairDivisionError):
    """Instance has three or more distinct valuation rows."""


class NegativeCycleError(FairDivisionError):
    """The exchange graph has a negative cycle (allocation not optimal):
    ``cycle`` lists its nodes and ``weight`` is its exact total weight."""

    def __init__(self, cycle, weight):
        super().__init__(f"allocation is not weighted-welfare optimal: {cycle}")
        self.cycle = cycle
        self.weight = weight


class TooLargeError(FairDivisionError):
    """A size guard tripped: enumeration would exceed its state count, or a
    number is too long to print."""


class InternalInvariantError(FairDivisionError):
    """A property the algorithms guarantee failed to hold."""


def as_rational(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Instance:
    """An allocation problem: ``n`` agents, ``m`` goods, additive values.

    ``rows[i-1][j-1]`` is ``scale`` times agent ``i``'s value for good
    ``j``: nonnegative ints over ``scale``, the least common denominator of
    the values, so equal value matrices give equal instances.  Balanced
    allocations give every agent exactly ``k = m/n`` goods; ``m`` may be a
    non-multiple of ``n`` only for inputs to the unconstrained-to-balanced
    reduction, and accessing ``k`` then raises.  :func:`make_instance`
    builds one from Fractions.
    """

    n: int
    m: int
    scale: int
    rows: tuple

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one agent and one good")
        if len(self.rows) != self.n or any(len(r) != self.m for r in self.rows):
            raise ValueError("value matrix shape does not match (n, m)")
        entries = [v for row in self.rows for v in row]
        if type(self.scale) is not int or not all(type(v) is int for v in entries):
            raise TypeError("scale and rows must be ints; use make_instance")
        if self.scale < 1:
            raise ValueError("scale must be positive")
        if min(entries) < 0:
            raise ValueError("values must be nonnegative")
        if math.gcd(self.scale, *entries) != 1:
            raise ValueError(f"scale {self.scale} is not the least common denominator of the values")

    @property
    def k(self) -> int:
        if self.m % self.n != 0:
            raise ValueError(f"m={self.m} is not a multiple of n={self.n}")
        return self.m // self.n

    def _check_index(self, agent: int, good: int) -> None:
        if not 1 <= agent <= self.n:
            raise IndexError(f"agent {agent} out of range 1..{self.n}")
        if not 1 <= good <= self.m:
            raise IndexError(f"good {good} out of range 1..{self.m}")

    def value(self, agent: int, good: int) -> Fraction:
        """Value of ``good`` for ``agent`` (both 1-based)."""
        self._check_index(agent, good)
        return self.values[agent - 1][good - 1]

    @cached_property
    def values(self) -> tuple:
        """The value matrix as Fraction rows, built on first read: the
        solvers compare and add the int rows and never read it."""
        scale = self.scale
        return tuple(tuple(Fraction(v, scale) for v in row) for row in self.rows)

    @cached_property
    def types(self) -> tuple:
        """The distinct int rows in first-appearance order, each with the
        agents (1-based, ascending) that hold it."""
        members = {}
        for i, row in enumerate(self.rows, start=1):
            members.setdefault(row, []).append(i)
        return tuple((row, tuple(agents)) for row, agents in members.items())

    @cached_property
    def value_pairs(self) -> Optional[tuple]:
        """Per-agent (a_i, b_i) with a_i > b_i, ints over ``scale`` like
        ``rows``, or None when some row uses more than two distinct values.
        A constant row v counts every good as low: (v + scale, v)."""
        pairs = [None] * self.n
        for row, members in self.types:
            values = sorted(set(row))
            if len(values) > 2:
                return None
            pair = (values[1], values[0]) if len(values) == 2 else (values[0] + self.scale, values[0])
            for i in members:
                pairs[i - 1] = pair
        return tuple(pairs)

    @cached_property
    def _two_type(self) -> TwoType:
        """:func:`two_type_view`, built on first read."""
        rows = self.types
        if len(rows) > 2:
            raise MoreThanTwoTypes(f"{len(rows)} distinct valuation rows")
        (row1, members1), (row2, members2) = rows if len(rows) == 2 else (rows[0], ((), ()))
        return TwoType(self.scale, row1, row2, members1, members2)

    def agents(self) -> range:
        return range(1, self.n + 1)

    def goods(self) -> range:
        return range(1, self.m + 1)


def integer_rows(rows: Sequence[Sequence[RationalLike]]) -> tuple:
    """``(scale, int_rows)``: every entry times ``scale``, the least common
    denominator of all entries, so exact comparisons run on ints."""
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return scale, tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows)


def make_instance(n: int, m: int, values: Sequence[Sequence[RationalLike]]) -> Instance:
    """Build an :class:`Instance` from any int/Fraction matrix."""
    scale, rows = integer_rows([[as_rational(v) for v in row] for row in values])
    return Instance(n=n, m=m, scale=scale, rows=rows)


@dataclass(frozen=True)
class Allocation:
    """An ordered partition of the goods into one bundle per agent."""

    bundles: tuple

    def __post_init__(self):
        for b in self.bundles:
            if not isinstance(b, frozenset):
                raise TypeError("bundles must be frozensets; use make_allocation")

    @property
    def n(self) -> int:
        return len(self.bundles)

    def bundle(self, agent: int) -> frozenset:
        return self.bundles[agent - 1]

    def owner_map(self) -> dict:
        return {j: i for i, b in enumerate(self.bundles, start=1) for j in b}

    @cached_property
    def union(self) -> Optional[frozenset]:
        """The goods of all bundles, or None when two bundles overlap;
        scanned once per allocation, on first read."""
        seen = set()
        for b in self.bundles:
            if b & seen:
                return None
            seen |= b
        return frozenset(seen)

    def is_partition_of(self, m: int) -> bool:
        return self.union == _goods_upto(m)

    def is_balanced(self, inst: Instance) -> bool:
        k = inst.k
        return (
            len(self.bundles) == inst.n
            and self.is_partition_of(inst.m)
            and all(len(b) == k for b in self.bundles)
        )


@lru_cache(maxsize=16)
def _goods_upto(m: int) -> frozenset:
    """The goods 1..m, built once per m rather than once per check."""
    return frozenset(range(1, m + 1))


def make_allocation(bundles: Iterable[Iterable[int]]) -> Allocation:
    return Allocation(tuple(frozenset(b) for b in bundles))


def check_allocation(inst: Instance, alloc: Allocation, balanced: bool = False) -> None:
    if alloc.n != inst.n:
        raise ValueError(f"allocation has {alloc.n} bundles, instance has {inst.n} agents")
    if not alloc.is_partition_of(inst.m):
        raise ValueError("bundles do not partition the goods")
    if balanced and any(len(b) != inst.k for b in alloc.bundles):
        raise ValueError("allocation is not balanced")


@dataclass(frozen=True)
class Solution:
    """A solver's allocation with its fPO certificate.

    ``alpha`` (agent weights, all positive) and ``potentials`` (the optimal
    duals (q, p) of the alpha-weighted welfare LP) are None together when
    the allocation is uncertified; ``gamma`` is the type-2 weight of the
    two-type solver (1 on single-type instances), else None.
    """

    allocation: Allocation
    alpha: Optional[tuple]
    gamma: Optional[Fraction]
    potentials: Optional[Potentials]


# --- instance classification -------------------------------------------------

@dataclass(frozen=True)
class TwoType:
    """At most two distinct valuation rows; type 1 is the type of agent 1.
    ``row1`` and ``row2`` are the types' int rows over the instance's
    ``scale``; a single-row instance has row2 = members2 = ()."""

    scale: int
    row1: tuple
    row2: tuple
    members1: tuple
    members2: tuple

    @property
    def n1(self) -> int:
        return len(self.members1)

    @property
    def n2(self) -> int:
        return len(self.members2)

    @cached_property
    def u1(self) -> tuple:
        """Type 1's values as Fractions, built on first read."""
        return tuple(Fraction(v, self.scale) for v in self.row1)

    @cached_property
    def u2(self) -> tuple:
        """Type 2's values as Fractions, built on first read."""
        return tuple(Fraction(v, self.scale) for v in self.row2)

    def weights(self, gamma: Fraction) -> tuple:
        """Agent weights: 1 on each type-1 agent, gamma on each type-2 agent."""
        alpha = [Fraction(1)] * (self.n1 + self.n2)
        for i in self.members2:
            alpha[i - 1] = gamma
        return tuple(alpha)


def two_type_view(inst: Instance) -> TwoType:
    """The instance read as at most two types; MoreThanTwoTypes otherwise.
    Built on the first call and kept on the instance."""
    return inst._two_type


def gamma_bounds(view: TwoType, alloc: Allocation) -> Optional[tuple]:
    """The type-2 weights gamma > 0 at which a balanced allocation
    maximizes the welfare weighted by :meth:`TwoType.weights`, as int
    ratios ``((lo1, lo2), (hi1, hi2))``: every gamma with lo1/lo2 <= gamma
    <= hi1/hi2, where lo1 = 0 is no bound but gamma > 0 and hi2 = 0 is no
    upper bound (one type fits every gamma).  None when no gamma > 0 will
    do.  Builds no Fraction; :func:`gamma_range` reads the ratios.

    That welfare depends only on how much of each good each type gets.
    So with S the goods the type-1 agents hold and T the rest, the
    allocation maximizes it exactly when a1_j - a1_j' >= gamma (a2_j -
    a2_j') for every j in S and j' in T: one pass over those pairs on the
    int rows.  A pair with a2_j = a2_j' needs a1_j >= a1_j'.
    """
    lo1, lo2 = 0, 1  # the greatest lower bound so far as lo1/lo2; 0/1 is none yet
    hi1, hi2 = 1, 0  # the least upper bound so far as hi1/hi2; 1/0 is none yet
    if view.n2 == 0:
        return (lo1, lo2), (hi1, hi2)
    a1, a2 = view.row1, view.row2
    s = frozenset().union(*(alloc.bundle(i) for i in view.members1))
    t_rows = [(a1[j], a2[j]) for j in range(len(a1)) if j + 1 not in s]
    for j in s:
        x1, x2 = a1[j - 1], a2[j - 1]
        for y1, y2 in t_rows:
            d1, d2 = x1 - y1, x2 - y2
            if d2 > 0:  # gamma <= d1/d2
                if d1 <= 0:
                    return None
                if d1 * hi2 < hi1 * d2:
                    hi1, hi2 = d1, d2
            elif d2 < 0:  # gamma >= d1/d2, a bound only when d1 < 0 too
                if d1 < 0 and d1 * lo2 < lo1 * d2:
                    lo1, lo2 = -d1, -d2
            elif d1 < 0:
                return None
    if lo1 * hi2 > hi1 * lo2:
        return None
    return (lo1, lo2), (hi1, hi2)


def gamma_range(view: TwoType, alloc: Allocation) -> Optional[tuple]:
    """:func:`gamma_bounds` as ``(lo, hi)`` Fractions: every gamma with lo
    <= gamma <= hi, where lo None is no bound but gamma > 0 and hi None is
    no upper bound.  None when no gamma > 0 will do.  The two-type
    solver's walk ends each run of equal splits at ``hi``.
    """
    bounds = gamma_bounds(view, alloc)
    if bounds is None:
        return None
    (lo1, lo2), (hi1, hi2) = bounds
    return (Fraction(lo1, lo2) if lo1 else None), (Fraction(hi1, hi2) if hi2 else None)


def classify(inst: Instance) -> str:
    """The :func:`fairbalance.solve` algorithm for the instance's most
    specific class: "bivalued" for two or more distinct rows that each use
    at most two values, "two-types" for one or two distinct rows, else
    "general", which no certified solver covers."""
    if len(inst.types) > 1 and inst.value_pairs is not None:
        return "bivalued"
    if len(inst.types) <= 2:
        return "two-types"
    return "general"


# --- bundle values and round robin ------------------------------------------

def bundle_value(inst: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Additive value of a set of goods for one agent; empty set is 0.
    Sums the agent's int row and divides by the scale once."""
    total = 0
    for j in bundle:
        inst._check_index(agent, j)
        total += inst.rows[agent - 1][j - 1]
    return Fraction(total, inst.scale)


def round_robin_by_preference(inst: Instance) -> Allocation:
    """Classic round robin: agents 1..n repeatedly pick their favorite
    remaining good (ties to the lowest good index).  Always EF1."""
    remaining = set(inst.goods())
    bundles = [set() for _ in range(inst.n)]
    for _ in range(inst.k):
        for bundle, row in zip(bundles, inst.rows):
            best = max(remaining, key=lambda j: (row[j - 1], -j))
            bundle.add(best)
            remaining.remove(best)
    return make_allocation(bundles)


# --- unconstrained -> balanced reduction -------------------------------------

def reduce_unconstrained(inst: Instance) -> tuple:
    """Append m*(n-1) zero-valued dummy goods so the total is n*m and
    k = m; any balanced allocation of the result induces an allocation of
    the original goods by stripping the dummies.

    Returns ``(reduced instance, dummy good index set)``.
    """
    dummies = inst.m * (inst.n - 1)
    if dummies == 0:
        return inst, frozenset()
    new_m = inst.m + dummies
    rows = tuple(row + (0,) * dummies for row in inst.rows)
    reduced = Instance(n=inst.n, m=new_m, scale=inst.scale, rows=rows)
    return reduced, frozenset(range(inst.m + 1, new_m + 1))
