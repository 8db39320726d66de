"""One entry point over the solvers: classify, dispatch, return a Solution."""

from __future__ import annotations

from .bivalued import solve_bivalued
from .core import Instance, MoreThanTwoTypes, Solution, classify, round_robin_by_preference
from .twotypes import solve_two_types


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
