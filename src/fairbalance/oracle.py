"""Brute-force reference implementations for property tests and reports.

Enumeration is exhaustive and exact, so anything here is usable as an
independent oracle for the polynomial-time solvers, at the price of only
working on desk-scale instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List

from . import lp as lp_mod
from . import verify as verify_mod
from .core import (
    Allocation,
    Instance,
    TooLargeError,
    balanced_allocation_count,
    bundle_value,
    make_allocation,
    nash_product,
    utilitarian_value,
)


def enumerate_balanced(inst: Instance, max_states: int = 10 ** 6) -> Iterator[Allocation]:
    """Yield every balanced allocation exactly once.

    Order is lexicographic in the good -> agent assignment string, i.e.
    good 1 prefers agent 1, then good 2, and so on.
    """
    total = balanced_allocation_count(inst)
    if total > max_states:
        raise TooLargeError(f"{total} balanced allocations exceed the guard of {max_states}")
    k = inst.k
    capacity = [k] * inst.n
    assignment = [0] * inst.m

    def rec(j: int) -> Iterator[Allocation]:
        if j == inst.m:
            bundles = [set() for _ in range(inst.n)]
            for good, agent in enumerate(assignment, start=1):
                bundles[agent - 1].add(good)
            yield make_allocation(bundles)
            return
        for agent in inst.agents():
            if capacity[agent - 1] > 0:
                capacity[agent - 1] -= 1
                assignment[j] = agent
                yield from rec(j + 1)
                capacity[agent - 1] += 1

    return rec(0)


def pareto_dominates(theirs, mine) -> bool:
    """Does value vector ``theirs`` Pareto-dominate ``mine``: at least as
    good for every agent and strictly better for one?"""
    return all(t >= v for t, v in zip(theirs, mine)) and any(t > v for t, v in zip(theirs, mine))


@dataclass(frozen=True)
class AllocationRecord:
    allocation: Allocation
    values: tuple
    ef1: bool
    po: bool
    fpo: bool
    nash: Fraction
    utilitarian: Fraction


@dataclass(frozen=True)
class EnumerationReport:
    records: tuple

    def ef1_set(self) -> List[Allocation]:
        return [r.allocation for r in self.records if r.ef1]

    def fpo_set(self) -> List[Allocation]:
        return [r.allocation for r in self.records if r.fpo]

    def po_set(self) -> List[Allocation]:
        return [r.allocation for r in self.records if r.po]

    def ef1_and_fpo_set(self) -> List[Allocation]:
        return [r.allocation for r in self.records if r.ef1 and r.fpo]


def full_report(inst: Instance, max_states: int = 10 ** 4) -> EnumerationReport:
    """Flags for every balanced allocation: EF1, PO, fPO, welfare stats.

    PO is decided by pairwise dominance inside the enumeration; fPO by the
    exact LP check.
    """
    allocations = list(enumerate_balanced(inst, max_states=max_states))
    value_vectors = [
        tuple(bundle_value(inst, i, a.bundle(i)) for i in inst.agents())
        for a in allocations
    ]
    distinct = set(value_vectors)

    records = []
    for alloc, vec in zip(allocations, value_vectors):
        records.append(
            AllocationRecord(
                allocation=alloc,
                values=vec,
                ef1=verify_mod.is_ef1(inst, alloc).holds,
                po=not any(pareto_dominates(other, vec) for other in distinct),
                fpo=lp_mod.check_fpo(inst, alloc).is_fpo,
                nash=nash_product(inst, alloc),
                utilitarian=utilitarian_value(inst, alloc),
            )
        )
    return EnumerationReport(records=tuple(records))
