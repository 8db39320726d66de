"""Brute-force reference implementations for property tests and reports.

Enumeration is exhaustive and exact, so anything here is usable as an
independent oracle for the polynomial-time solvers, at the price of only
working on desk-scale instances: the balanced-allocation enumeration,
Pareto dominance, the guarded brute-force PO check and the flag report.
The report's fPO flag is :func:`lp.fpo_holds`' verdict, which runs no LP
on one or two agents and the transfer-cone LP from three.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator

from . import lp as lp_mod
from . import verify as verify_mod
from .core import (
    Allocation,
    Instance,
    TooLargeError,
    check_allocation,
    make_allocation,
)


def enumerate_balanced(inst: Instance, max_states: int = 10 ** 6) -> Iterator[Allocation]:
    """Yield every balanced allocation exactly once.

    Order is lexicographic in the good -> agent assignment string, i.e.
    good 1 prefers agent 1, then good 2, and so on.  Raises TooLargeError
    at the call, before yielding, when there are more than ``max_states``.
    """
    # m!/(k!)^n one factor at a time: every partial product is a multinomial
    # coefficient, so it stays an int and never decreases.
    k, count = inst.k, 1
    for t in range(1, inst.m + 1):
        count = count * t // ((t - 1) % k + 1)
        if count > max_states:
            raise TooLargeError(f"more than {max_states} balanced allocations")
    return _balanced_in_order(inst.n, k)


def _balanced_in_order(n: int, k: int) -> Iterator[Allocation]:
    """Each permutation of the multiset 1^k 2^k ... n^k, least first: the
    next one swaps the last ascent with the last larger entry after it and
    reverses the tail."""
    assignment = [agent for agent in range(1, n + 1) for _ in range(k)]
    while True:
        bundles = [set() for _ in range(n)]
        for good, agent in enumerate(assignment, start=1):
            bundles[agent - 1].add(good)
        yield make_allocation(bundles)
        i = len(assignment) - 2
        while i >= 0 and assignment[i] >= assignment[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(assignment) - 1
        while assignment[j] <= assignment[i]:
            j -= 1
        assignment[i], assignment[j] = assignment[j], assignment[i]
        assignment[i + 1:] = reversed(assignment[i + 1:])


def _int_values(inst: Instance, alloc: Allocation) -> tuple:
    """Each agent's value for its bundle, as an int over ``inst.scale``."""
    return tuple(sum(row[j - 1] for j in bundle) for row, bundle in zip(inst.rows, alloc.bundles))


def pareto_dominates(theirs, mine) -> bool:
    """Does value vector ``theirs`` Pareto-dominate ``mine``: at least as
    good for every agent and strictly better for one?"""
    return all(t >= v for t, v in zip(theirs, mine)) and any(t > v for t, v in zip(theirs, mine))


def is_po_bruteforce(inst: Instance, alloc: Allocation, max_states: int = 10 ** 6) -> verify_mod.Verdict:
    """Pareto optimality by enumerating all balanced allocations.

    Deciding PO is intractable in general, so this is guarded: instances
    with more than ``max_states`` balanced allocations raise TooLargeError
    (from the enumeration).
    """
    check_allocation(inst, alloc, balanced=True)
    mine = _int_values(inst, alloc)
    for cand in enumerate_balanced(inst, max_states=max_states):
        theirs = _int_values(inst, cand)
        if pareto_dominates(theirs, mine):
            dominated_by = tuple(sorted(sorted(b) for b in cand.bundles))
            values = [tuple(Fraction(v, inst.scale) for v in vec) for vec in (mine, theirs)]
            return verify_mod.Verdict(False, {"dominated_by": dominated_by, "values": values[0],
                                              "dominating_values": values[1]})
    return verify_mod.Verdict(holds=True)


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


def full_report(inst: Instance, max_states: int = 10 ** 4) -> EnumerationReport:
    """Flags for every balanced allocation: EF1, PO, fPO, welfare stats.

    PO is decided by pairwise dominance inside the enumeration, on the
    value vectors as ints over ``inst.scale``; fPO by
    :func:`lp.fpo_holds`, the range of weight ratios of
    :func:`core.gamma_range` on two agents and the verdict-only LP on
    three or more.  The values, the Nash product and the utilitarian sum
    are read off each int vector.
    """
    allocations = list(enumerate_balanced(inst, max_states=max_states))
    value_vectors = [_int_values(inst, a) for a in allocations]
    distinct = set(value_vectors)

    records = []
    for alloc, vec in zip(allocations, value_vectors):
        records.append(
            AllocationRecord(
                allocation=alloc,
                values=tuple(Fraction(v, inst.scale) for v in vec),
                ef1=verify_mod.is_ef1(inst, alloc).holds,
                po=not any(pareto_dominates(other, vec) for other in distinct),
                fpo=lp_mod.fpo_holds(inst, alloc),
                nash=Fraction(prod(vec), inst.scale ** inst.n),
                utilitarian=Fraction(sum(vec), inst.scale),
            )
        )
    return EnumerationReport(records=tuple(records))
