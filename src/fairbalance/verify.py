"""Independent fairness and efficiency checkers with explicit witnesses.

EF1, price-EF1 and the fPO certificate check for a given alpha (read off
the shortest-path potentials of ``graph``, whose exchange graph names the
negative cycle when they do not exist); brute-force PO lives in
``oracle``.  Each check returns a :class:`Verdict`; when a check fails the
witness carries the exact rational quantities that break the definition,
so a failure is self-explanatory in reports and CLI output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import graph as graph_mod
from .core import Allocation, Instance, InternalInvariantError, NegativeCycleError, check_allocation


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.holds


def is_ef1(inst: Instance, alloc: Allocation) -> Verdict:
    """Envy-freeness up to one good.

    Agent i may envy agent i' only up to the single best good (for i) in
    i's view of the other bundle: v_i(A_i) >= v_i(A_i') - max_j v_ij.
    """
    check_allocation(inst, alloc)
    for i, row in enumerate(inst.rows, start=1):  # compare ints; Fractions only in a witness
        own = sum(row[j - 1] for j in alloc.bundle(i))
        for other in inst.agents():
            if other == i:
                continue
            their = [row[j - 1] for j in alloc.bundle(other)]
            if not their:
                continue
            rest = sum(their) - max(their)
            if own < rest:
                return Verdict(
                    holds=False,
                    witness={
                        "envier": i,
                        "envied": other,
                        "own_value": Fraction(own, inst.scale),
                        "their_value_minus_best": Fraction(rest, inst.scale),
                    },
                )
    return Verdict(holds=True)


def price_sum(prices: Sequence[Fraction], bundle) -> Fraction:
    """p(A): the total price of a bundle, summed in the prices' own type
    (Fractions, or ints over one scale); an empty bundle prices 0."""
    return sum(prices[j - 1] for j in bundle)


def price_drop_top(prices: Sequence[Fraction], bundle) -> Fraction:
    """p-hat: bundle price with its single highest-priced good removed."""
    if not bundle:
        raise ValueError("bundle must be non-empty")
    return price_sum(prices, bundle) - max(prices[j - 1] for j in bundle)


def is_p_ef1(prices: Sequence[Fraction], alloc: Allocation) -> Verdict:
    """EF1 stated on prices: p(A_i) >= p-hat(A_i') for every agent pair."""
    if any(not b for b in alloc.bundles):
        raise ValueError("price EF1 needs non-empty bundles")
    sums = [price_sum(prices, b) for b in alloc.bundles]
    hats = [price_drop_top(prices, b) for b in alloc.bundles]
    for i in range(alloc.n):
        for other in range(alloc.n):
            if i == other:
                continue
            if sums[i] < hats[other]:
                return Verdict(
                    holds=False,
                    witness={
                        "envier": i + 1,
                        "envied": other + 1,
                        "own_price": sums[i],
                        "their_price_drop_top": hats[other],
                    },
                )
    return Verdict(holds=True)


def certify_fpo(inst: Instance, alloc: Allocation, alpha: Sequence[Fraction]) -> Verdict:
    """Positive fPO certificate: the allocation maximizes the alpha-weighted
    welfare exactly when its exchange graph has no negative cycle, that is
    when shortest-path potentials exist.  When they do not, the witness is
    the exchange graph's cycle (the one :func:`graph.detect_negative_cycle`
    finds) and its exact weight; the one place a cycle is named."""
    try:
        graph_mod.compute_potentials(inst, alloc, alpha)
    except NegativeCycleError:
        g = graph_mod.build_exchange_graph(inst, alloc, alpha)
        cycle = graph_mod.detect_negative_cycle(g)
        if cycle is None:
            raise InternalInvariantError("the agent graph has a negative cycle that the exchange graph lacks")
        weight = graph_mod.cycle_weight(g, cycle)
        return Verdict(holds=False, witness={"negative_cycle": cycle, "cycle_weight": weight})
    return Verdict(holds=True)
