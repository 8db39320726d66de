"""Exact EF1 + fractionally Pareto-optimal balanced allocations.

Indivisible goods are split so that every agent receives the same number
of them.  The solvers cover personalized bivalued valuations and
instances with at most two valuation types; verifiers, dual certificates
and brute-force oracles make every claimed property checkable exactly
(all arithmetic is rational, never floating point).
"""

from .bivalued import solve_bivalued
from .core import (
    Allocation,
    Instance,
    Solution,
    TwoType,
    bundle_value,
    classify,
    make_allocation,
    make_instance,
    reduce_unconstrained,
    round_robin_by_preference,
)
from .graph import Potentials, build_exchange_graph, compute_potentials, detect_negative_cycle
from .lp import check_fpo, fpo_holds, verify_complementary_slackness
from .matching import max_weight_perfect_matching
from .oracle import enumerate_balanced, full_report, is_po_bruteforce
from .solver import class_certificate, solve
from .twotypes import (
    compute_delta,
    critical_values,
    optimal_split,
    round_robin_by_price,
    solve_two_types,
)
from .verify import certify_fpo, is_ef1, is_p_ef1

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Instance",
    "Potentials",
    "Solution",
    "TwoType",
    "build_exchange_graph",
    "bundle_value",
    "certify_fpo",
    "check_fpo",
    "class_certificate",
    "classify",
    "compute_delta",
    "compute_potentials",
    "critical_values",
    "detect_negative_cycle",
    "enumerate_balanced",
    "fpo_holds",
    "full_report",
    "is_ef1",
    "is_p_ef1",
    "is_po_bruteforce",
    "make_allocation",
    "make_instance",
    "max_weight_perfect_matching",
    "optimal_split",
    "reduce_unconstrained",
    "round_robin_by_preference",
    "round_robin_by_price",
    "solve",
    "solve_bivalued",
    "solve_two_types",
    "verify_complementary_slackness",
]
