"""One entry point over the solvers (classify, dispatch, return a
Solution) and one over the class certificates of a given allocation."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .bivalued import certificate_alpha, solve_bivalued
from .core import (
    Allocation,
    Instance,
    MoreThanTwoTypes,
    Solution,
    classify,
    gamma_range,
    round_robin_by_preference,
    two_type_view,
)
from .twotypes import solve_two_types
from .verify import certify_fpo


def solve(inst: Instance, algorithm: str = "auto") -> Solution:
    """Balanced EF1 allocation, with its fPO certificate when one exists.

    ``algorithm`` is one of "auto", "bivalued", "two-types" and
    "round-robin", as in the CLI's ``--algorithm``.  "auto" runs the solver
    that :func:`classify` names, and raises MoreThanTwoTypes when it names
    "general".  A named solver raises NotBivalued or MoreThanTwoTypes when
    the instance is outside its class.  Round robin is certified only on
    single-row instances, where it is the two-type solver's value deal
    (alpha = 1, gamma = 1); elsewhere it returns an uncertified Solution.
    """
    if algorithm == "auto":
        algorithm = classify(inst)
        if algorithm == "general":
            raise MoreThanTwoTypes(
                "no certified solver applies; rerun with --algorithm round-robin "
                "for an EF1-only allocation"
            )
    if algorithm == "bivalued":
        return solve_bivalued(inst)
    if algorithm == "two-types" or (algorithm == "round-robin" and len(inst.types) == 1):
        return solve_two_types(inst)
    if algorithm == "round-robin":
        return Solution(round_robin_by_preference(inst), None, None, None)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def class_certificate(inst: Instance, alloc: Allocation) -> Optional[tuple]:
    """Weights alpha of the instance's class at which the balanced
    allocation maximizes the alpha-weighted welfare, which proves it fPO;
    None when the class gives no such weights.

    A bivalued instance (as :func:`classify` names it) takes alpha_i =
    1/(a_i - b_i), and one or two valuation rows take
    :meth:`~fairbalance.core.TwoType.weights` at the gamma of
    :func:`gamma_range` nearest to 1 (every weight 1 on one row, which
    every gamma fits); a general instance has no class weights.  The proof
    is always :func:`certify_fpo` at the chosen weights (Bellman-Ford
    potentials); the class only picks them.  On a bivalued instance and on
    two agents of two types, None means the allocation is not fPO; with
    more agents per type it may still be fPO at weights that differ
    within a type, which only ``check_fpo``'s LP decides.
    """
    klass = classify(inst)
    if klass == "bivalued":
        alpha = certificate_alpha(inst)
    elif klass == "two-types":
        view = two_type_view(inst)
        bounds = gamma_range(view, alloc)
        if bounds is None:
            return None
        lo, hi = bounds
        gamma = Fraction(1)
        if hi is not None:
            gamma = min(gamma, hi)
        if lo is not None:
            gamma = max(gamma, lo)
        alpha = view.weights(gamma)
    else:
        return None
    return alpha if certify_fpo(inst, alloc, alpha).holds else None
