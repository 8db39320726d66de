"""Problem instances, allocations, bundle values and round robin.

All numeric quantities are exact rationals (``fractions.Fraction``); no
floating point is used anywhere in solver paths.  Agents and goods are
1-based in every public interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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

    ``values[i-1][j-1]`` is agent ``i``'s value for good ``j``.  Balanced
    allocations give every agent exactly ``k = m/n`` goods; ``m`` may be a
    non-multiple of ``n`` only for inputs to the unconstrained-to-balanced
    reduction, and accessing ``k`` then raises.
    """

    n: int
    m: int
    values: tuple

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one agent and one good")
        if len(self.values) != self.n or any(len(r) != self.m for r in self.values):
            raise ValueError("value matrix shape does not match (n, m)")
        for row in self.values:
            for v in row:
                if not isinstance(v, Fraction):
                    raise TypeError("values must be Fractions; use make_instance")
                if v.numerator < 0:
                    raise ValueError("values must be nonnegative")

    @property
    def k(self) -> int:
        if self.m % self.n != 0:
            raise ValueError(f"m={self.m} is not a multiple of n={self.n}")
        return self.m // self.n

    def value(self, agent: int, good: int) -> Fraction:
        """Value of ``good`` for ``agent`` (both 1-based)."""
        if not 1 <= agent <= self.n:
            raise IndexError(f"agent {agent} out of range 1..{self.n}")
        if not 1 <= good <= self.m:
            raise IndexError(f"good {good} out of range 1..{self.m}")
        return self.values[agent - 1][good - 1]

    @cached_property
    def scaled_values(self) -> tuple:
        """:func:`integer_rows` of the values: ``rows[i-1][j-1]`` is
        ``scale`` times agent ``i``'s value for good ``j``.  Computed once
        per instance and not a field, so equality, hashing and repr ignore
        it."""
        return integer_rows(self.values)

    @cached_property
    def types(self) -> tuple:
        """The distinct valuation rows in first-appearance order, each with
        the agents (1-based, ascending) that hold it.  Rows are grouped by
        their int rows, which one common scale keeps distinct exactly when
        the Fraction rows are."""
        members = {}
        for i, row in enumerate(self.scaled_values[1], start=1):
            members.setdefault(row, []).append(i)
        return tuple((self.values[agents[0] - 1], tuple(agents)) for agents in members.values())

    @cached_property
    def value_pairs(self) -> Optional[tuple]:
        """Per-agent (a_i, b_i) with a_i > b_i, or None when some row uses
        more than two distinct values.  A constant row v counts every good
        as low: (v + 1, v)."""
        scale, rows = self.scaled_values
        pairs = [None] * self.n
        for _, members in self.types:
            values = sorted(set(rows[members[0] - 1]))
            if len(values) > 2:
                return None
            low = Fraction(values[0], scale)
            pair = (Fraction(values[1], scale), low) if len(values) == 2 else (low + 1, low)
            for i in members:
                pairs[i - 1] = pair
        return tuple(pairs)

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
    rows = tuple(tuple(as_rational(v) for v in row) for row in values)
    return Instance(n=n, m=m, values=rows)


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

    def is_partition_of(self, m: int) -> bool:
        seen = set()
        for b in self.bundles:
            if b & seen:
                return False
            seen |= b
        return seen == set(range(1, m + 1))

    def is_balanced(self, inst: Instance) -> bool:
        k = inst.k
        return (
            len(self.bundles) == inst.n
            and self.is_partition_of(inst.m)
            and all(len(b) == k for b in self.bundles)
        )


def make_allocation(bundles: Iterable[Iterable[int]]) -> Allocation:
    return Allocation(tuple(frozenset(b) for b in bundles))


def check_allocation(inst: Instance, alloc: Allocation, balanced: bool = False) -> None:
    if alloc.n != inst.n:
        raise ValueError(f"allocation has {alloc.n} bundles, instance has {inst.n} agents")
    if not alloc.is_partition_of(inst.m):
        raise ValueError("bundles do not partition the goods")
    if balanced and not alloc.is_balanced(inst):
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
    A single-row instance has u2 = members2 = ()."""

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


def two_type_view(inst: Instance) -> TwoType:
    """The instance read as at most two types; MoreThanTwoTypes otherwise."""
    rows = inst.types
    if len(rows) > 2:
        raise MoreThanTwoTypes(f"{len(rows)} distinct valuation rows")
    (u1, members1), (u2, members2) = rows if len(rows) == 2 else (rows[0], ((), ()))
    return TwoType(u1, u2, members1, members2)


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
    """Additive value of a set of goods for one agent; empty set is 0."""
    total = Fraction(0)
    for j in bundle:
        total += inst.value(agent, j)
    return total


def round_robin_by_preference(inst: Instance) -> Allocation:
    """Classic round robin: agents 1..n repeatedly pick their favorite
    remaining good (ties to the lowest good index).  Always EF1."""
    remaining = set(inst.goods())
    bundles = [set() for _ in range(inst.n)]
    for _ in range(inst.k):
        for i in inst.agents():
            best = max(remaining, key=lambda j: (inst.value(i, j), -j))
            bundles[i - 1].add(best)
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
    rows = tuple(row + (Fraction(0),) * dummies for row in inst.values)
    reduced = Instance(n=inst.n, m=new_m, values=rows)
    return reduced, frozenset(range(inst.m + 1, new_m + 1))
