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


def bivalued_pairs(inst: Instance) -> tuple:
    """(a_i, b_i) per agent; a constant row counts every good as low.
    Raises NotBivalued otherwise."""
    if inst.value_pairs is not None:
        return inst.value_pairs
    if len(inst.types) == 1:
        raise NotBivalued("identical rows with more than two distinct values")
    raise NotBivalued("some agent uses more than two distinct values")


def certificate_alpha(inst: Instance) -> tuple:
    """The weight vector 1/(a_i - b_i) whose maximizers are exactly the
    fPO balanced allocations on a bivalued instance; the pairs are ints
    over ``inst.scale``, so alpha_i is ``scale / (a_i - b_i)``."""
    return tuple(Fraction(inst.scale, a - b) for a, b in bivalued_pairs(inst))


def slot_rows(inst: Instance) -> tuple:
    """The matching's weight rows, agent by agent and slot by slot: in
    agent i's s-th slot a good weighs K + s = n*k*(k+1) + s when i values it
    at its high a_i, and 0 otherwise.

    The paper weighs high goods a/(a-b) + s/K and low goods b/(a-b).  Every
    slot takes one good, so dropping b/(a-b) from each of an agent's slots
    and scaling by K changes no perfect matching's rank: 1 + s/K -> K + s.
    Raises NotBivalued unless the instance is personalized bivalued.
    """
    pairs = bivalued_pairs(inst)
    k = inst.k
    scale = inst.n * k * (k + 1)
    rows = []
    for (a, _), row in zip(pairs, inst.rows):
        rows += [tuple(scale + s if v == a else 0 for v in row) for s in range(1, k + 1)]
    return tuple(rows)


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
    rows = slot_rows(inst)
    result = matching_mod.max_weight_perfect_matching(
        matching_mod.BipartiteWeights(size=inst.m, weight=rows)
    )
    alloc = _matching_to_allocation(inst, result.assignment)

    # a matched high good weighs K plus its slot's bonus, and the bonuses
    # of all n*k slots sum to K/2, below one high good
    scale = inst.n * inst.k * (inst.k + 1)
    highs = sum(row[good - 1] != 0 for row, good in zip(rows, result.assignment))
    drift = result.value - scale * highs
    if not 0 <= drift <= scale // 2:
        raise InternalInvariantError(f"slot bonus drift {drift} outside [0, {scale // 2}]")
    alpha = certificate_alpha(inst)
    return Solution(alloc, alpha, None, compute_potentials(inst, alloc, alpha))

