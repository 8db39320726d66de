"""Brute-force reference implementations for property tests and reports.

Enumeration is exhaustive and exact, so anything here is usable as an
independent oracle for the polynomial-time solvers, at the price of only
working on desk-scale instances: the balanced-allocation enumeration,
Pareto dominance, the guarded brute-force PO check and the flag report.
The report keeps each allocation's values as ints over the instance's
scale; its PO flag is membership in the non-dominated set of those
vectors and its fPO flag :func:`lp.fpo_holds`' verdict, which runs no LP
on one or two agents and the transfer-cone LP from three.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    """One balanced allocation with its flags.  ``scaled_values`` holds
    each agent's value for its bundle as an int over ``scale``; ``values``,
    ``nash`` and ``utilitarian`` are their Fraction views, built on read."""

    allocation: Allocation
    scaled_values: tuple
    scale: int
    ef1: bool
    po: bool
    fpo: bool

    @cached_property
    def values(self) -> tuple:
        return tuple(Fraction(v, self.scale) for v in self.scaled_values)

    @cached_property
    def nash(self) -> Fraction:
        return Fraction(prod(self.scaled_values), self.scale ** len(self.scaled_values))

    @cached_property
    def utilitarian(self) -> Fraction:
        return Fraction(sum(self.scaled_values), self.scale)


@dataclass(frozen=True)
class EnumerationReport:
    records: tuple


def _non_dominated(vectors) -> set:
    """The vectors that no other one Pareto-dominates.  A dominating vector
    has the larger sum, so in order of descending sum each vector is
    compared only with the kept ones before it; a dropped one is dominated
    by a kept one, and dominance is transitive, so those suffice."""
    kept = []
    for vec in sorted(set(vectors), key=sum, reverse=True):
        if not any(pareto_dominates(other, vec) for other in kept):
            kept.append(vec)
    return set(kept)


def full_report(inst: Instance, max_states: int = 10 ** 4) -> EnumerationReport:
    """Flags for every balanced allocation: EF1, PO, fPO, welfare stats.

    Each record keeps its value vector as ints over ``inst.scale``.  PO
    is membership in the non-dominated set of those vectors, built once;
    fPO is :func:`lp.fpo_holds`, the range of weight ratios of
    :func:`core.gamma_bounds` on two agents and the verdict-only LP on
    three or more.  No Fraction is built here.
    """
    allocations = list(enumerate_balanced(inst, max_states=max_states))
    value_vectors = [_int_values(inst, a) for a in allocations]
    pareto = _non_dominated(value_vectors)
    scale = inst.scale
    records = tuple(
        AllocationRecord(
            allocation=alloc,
            scaled_values=vec,
            scale=scale,
            ef1=verify_mod.is_ef1(inst, alloc).holds,
            po=vec in pareto,
            fpo=lp_mod.fpo_holds(inst, alloc),
        )
        for alloc, vec in zip(allocations, value_vectors)
    )
    return EnumerationReport(records=records)
