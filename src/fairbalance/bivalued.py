"""EF1 + fPO balanced allocations for personalized bivalued valuations.

Each agent values every good at either a_i or b_i with a_i > b_i >= 0.
The solver expands each agent into k slots, weights slot-good edges so
that a high-value good contributes the same normalized gain no matter who
receives it, adds a small slot-indexed perturbation that spreads high
goods evenly, and takes one maximum-weight perfect matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import matching as matching_mod
from . import verify as verify_mod
from .core import (
    Allocation,
    Instance,
    InternalInvariantError,
    NotBivalued,
    Solution,
    _distinct_rows,
    _value_pairs,
    as_rational,
    bundle_value,
    make_allocation,
)
from .graph import compute_potentials


@dataclass(frozen=True)
class SlotWeighting:
    """Perturbation size for the slot-expanded matching."""

    n: int
    k: int
    epsilon: Fraction

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InternalInvariantError("slot perturbation must be positive")
        total = self.n * Fraction(self.k * (self.k + 1), 2) * self.epsilon
        if total != Fraction(1, 2):
            raise InternalInvariantError("slot perturbations must sum to exactly 1/2")


def slot_epsilon(n: int, k: int) -> SlotWeighting:
    return SlotWeighting(n=n, k=k, epsilon=Fraction(1, n * k * (k + 1)))


def slot_weight(params: tuple, s: int, value, eps) -> Fraction:
    """Weight of the edge between an agent's s-th slot and a good.

    High goods score a_i/(a_i-b_i) plus s*eps, low goods b_i/(a_i-b_i).
    """
    a, b = (as_rational(x) for x in params)
    value = as_rational(value)
    eps = as_rational(eps)
    if not a > b >= 0:
        raise ValueError("need a > b >= 0")
    if value == a:
        return a / (a - b) + s * eps
    if value == b:
        return b / (a - b)
    raise ValueError(f"value {value} is neither the high {a} nor the low {b}")


def bivalued_pairs(inst: Instance) -> tuple:
    """(a_i, b_i) per agent; a constant row counts every good as low.
    Raises NotBivalued otherwise."""
    pairs = _value_pairs(inst)
    if pairs is not None:
        return pairs
    if len(_distinct_rows(inst)) == 1:
        raise NotBivalued("identical rows with more than two distinct values")
    raise NotBivalued("some agent uses more than two distinct values")


def certificate_alpha(pairs: Sequence[tuple]) -> tuple:
    """The weight vector 1/(a_i - b_i) whose maximizers are exactly the
    fPO balanced allocations on a bivalued instance."""
    return tuple(Fraction(1, 1) / (a - b) for a, b in pairs)


def _matching_to_allocation(inst: Instance, assignment: Sequence[int]) -> Allocation:
    k = inst.k
    bundles = [set() for _ in range(inst.n)]
    for row0, good in enumerate(assignment):
        agent = row0 // k + 1
        bundles[agent - 1].add(good)
    return make_allocation(bundles)


def solve_bivalued(inst: Instance) -> Solution:
    """Balanced EF1 + fPO allocation and its certificate.

    The :class:`Solution` carries alpha_i = 1/(a_i - b_i) and the optimal
    duals at alpha (gamma is None); the allocation maximizes the
    alpha-weighted welfare, which certifies fPO.
    """
    pairs = bivalued_pairs(inst)
    n, k = inst.n, inst.k
    weighting = slot_epsilon(n, k)
    eps = weighting.epsilon

    rows = []
    for i in inst.agents():
        for s in range(1, k + 1):
            rows.append(
                tuple(slot_weight(pairs[i - 1], s, inst.value(i, j), eps) for j in inst.goods())
            )
    result = matching_mod.max_weight_perfect_matching(
        matching_mod.BipartiteWeights(size=inst.m, weight=tuple(rows))
    )
    alloc = _matching_to_allocation(inst, result.assignment)

    alpha = certificate_alpha(pairs)
    base = sum(
        (alpha[i - 1] * bundle_value(inst, i, alloc.bundle(i)) for i in inst.agents()),
        Fraction(0),
    )
    drift = result.value - base
    if not (0 <= drift <= Fraction(1, 2)):
        raise InternalInvariantError(
            f"perturbation drift {drift} outside [0, 1/2]"
        )
    return Solution(alloc, alpha, None, compute_potentials(inst, alloc, alpha))


def high_counts(inst: Instance, alloc: Allocation, viewer: int, pairs: Sequence[tuple]) -> list:
    """Per-agent count of goods the viewer values at their high value."""
    a = pairs[viewer - 1][0]
    return [
        sum(1 for j in alloc.bundle(i) if inst.value(viewer, j) == a)
        for i in inst.agents()
    ]


def check_bivalued_fpo(inst: Instance, alloc: Allocation) -> bool:
    """fPO test specific to bivalued instances: the allocation is fPO iff
    it maximizes sum_i v_i(A_i)/(a_i-b_i), i.e. iff its exchange graph
    under those weights has no negative cycle."""
    pairs = bivalued_pairs(inst)
    return verify_mod.certify_fpo(inst, alloc, certificate_alpha(pairs)).holds
