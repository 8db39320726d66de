"""EF1 + fPO balanced allocations for personalized bivalued valuations.

Each agent values every good at either a_i or b_i with a_i > b_i >= 0.
The solver expands each agent into k slots and takes one maximum-weight
perfect matching on integer slot weights: a high good weighs
K + s = n*k*(k+1) + s in its owner's s-th slot and a low good weighs 0.
K makes every high good outweigh all slot bonuses together, so the
matching first maximizes the certificate welfare and then spreads high
goods evenly over the agents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import matching as matching_mod
from .core import (
    Allocation,
    Instance,
    InternalInvariantError,
    NotBivalued,
    Solution,
    make_allocation,
)
from .graph import compute_potentials


def slot_weight(params: tuple, s: int, value, scale: int) -> int:
    """Weight of the edge between an agent's s-th slot and a good, where
    scale is K = n*k*(k+1): K + s for a high good, 0 for a low good.

    The paper weighs high goods a/(a-b) + s/K and low goods b/(a-b).  Every
    slot takes one good, so dropping b/(a-b) from each of an agent's slots
    and scaling by K changes no perfect matching's rank: 1 + s/K -> K + s.
    """
    a, b = params
    if not a > b >= 0:
        raise ValueError("need a > b >= 0")
    if value == a:
        return scale + s
    if value == b:
        return 0
    raise ValueError(f"value {value} is neither the high {a} nor the low {b}")


def bivalued_pairs(inst: Instance) -> tuple:
    """(a_i, b_i) per agent; a constant row counts every good as low.
    Raises NotBivalued otherwise."""
    if inst.value_pairs is not None:
        return inst.value_pairs
    if len(inst.types) == 1:
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
    k = inst.k
    scale = inst.n * k * (k + 1)
    # high[i][j]: agent i + 1 values good j + 1 high; slot s then weighs K + s
    value_scale, values = inst.scaled_values
    high = [[v == a.numerator * (value_scale // a.denominator) for v in row]
            for (a, _), row in zip(pairs, values)]
    rows = [tuple(scale + s if h else 0 for h in mask) for mask in high for s in range(1, k + 1)]
    result = matching_mod.max_weight_perfect_matching(
        matching_mod.BipartiteWeights(size=inst.m, weight=tuple(rows))
    )
    alloc = _matching_to_allocation(inst, result.assignment)

    # the slot bonuses of all n*k slots sum to K/2, below one high good
    highs = sum(high[i - 1][j - 1] for i in inst.agents() for j in alloc.bundle(i))
    drift = result.value - scale * highs
    if not 0 <= drift <= scale // 2:
        raise InternalInvariantError(f"slot bonus drift {drift} outside [0, {scale // 2}]")
    alpha = certificate_alpha(pairs)
    return Solution(alloc, alpha, None, compute_potentials(inst, alloc, alpha))

