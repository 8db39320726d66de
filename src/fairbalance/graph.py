"""Exchange graph over an allocation and its shortest-path potentials.

The graph has one node per agent, one per good, and a root.  Arc weights
encode weighted values; a balanced allocation maximizes the weighted
utilitarian welfare exactly when this graph has no negative cycle, and in
that case shortest-path distances from the root yield optimal dual
potentials (q per agent, p per good).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    Allocation,
    Instance,
    InternalInvariantError,
    NegativeCycleError,
    check_allocation,
)

ROOT = ("root",)


def agent_node(i: int) -> tuple:
    return ("agent", i)


def good_node(j: int) -> tuple:
    return ("good", j)


@dataclass(frozen=True)
class ExchangeGraph:
    """Weighted digraph on agents, goods and a root node.

    Arcs: agent i -> good j with weight -alpha_i * v_ij for every pair,
    good j -> its owner i with weight +alpha_i * v_ij, and root -> good j
    with weight 0.
    """

    n: int
    m: int
    arcs: tuple  # (tail, head, weight) triples in deterministic order

    def node_count(self) -> int:
        return self.n + self.m + 1


@dataclass(frozen=True)
class Potentials:
    """Dual pair certifying weighted-welfare optimality.

    Feasibility means q_i + p_j >= alpha_i * v_ij for every agent/good
    pair; both vectors are nonnegative.
    """

    q: tuple
    p: tuple

    def price(self, good: int) -> Fraction:
        return self.p[good - 1]

    def objective(self, k: int) -> Fraction:
        return k * sum(self.q, Fraction(0)) + sum(self.p, Fraction(0))

    def is_feasible(self, inst: Instance, alpha: Sequence[Fraction]) -> bool:
        for i in inst.agents():
            for j in inst.goods():
                if self.q[i - 1] + self.p[j - 1] < alpha[i - 1] * inst.value(i, j):
                    return False
        return True

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.q) and all(v >= 0 for v in self.p)


def _check_alpha(inst: Instance, alpha: Sequence[Fraction]) -> None:
    if len(alpha) != inst.n:
        raise ValueError("alpha length must equal the number of agents")
    if any(a <= 0 for a in alpha):
        raise ValueError("alpha must be strictly positive")


def build_exchange_graph(inst: Instance, alloc: Allocation, alpha: Sequence[Fraction]) -> ExchangeGraph:
    """Exchange graph of a balanced allocation under weights alpha."""
    check_allocation(inst, alloc, balanced=True)
    _check_alpha(inst, alpha)
    arcs = []
    for j in inst.goods():
        arcs.append((ROOT, good_node(j), Fraction(0)))
    for i in inst.agents():
        ai = alpha[i - 1]
        for j in inst.goods():
            arcs.append((agent_node(i), good_node(j), -ai * inst.value(i, j)))
    owner = alloc.owner_map()
    for j in inst.goods():
        i = owner[j]
        arcs.append((good_node(j), agent_node(i), alpha[i - 1] * inst.value(i, j)))
    return ExchangeGraph(n=inst.n, m=inst.m, arcs=tuple(arcs))


def _bellman_ford(g: ExchangeGraph):
    """Distances from the root, plus one arc that still relaxes (if any).

    Returns (dist, pred, relaxable_arc).  Every node is reachable from the
    root, so distances are always finite.
    """
    dist = {ROOT: Fraction(0)}
    pred = {}
    rounds = g.node_count() - 1
    for _ in range(rounds):
        changed = False
        for u, v, w in g.arcs:
            du = dist.get(u)
            if du is None:
                continue
            nd = du + w
            dv = dist.get(v)
            if dv is None or nd < dv:
                dist[v] = nd
                pred[v] = u
                changed = True
        if not changed:
            break
    for u, v, w in g.arcs:
        du = dist.get(u)
        if du is not None and du + w < dist.get(v):
            return dist, pred, (u, v, w)
    return dist, pred, None


def _extract_cycle(g: ExchangeGraph, pred: dict, relaxed_head) -> list:
    # walk predecessors far enough to be inside the cycle, then cut it out
    node = relaxed_head
    for _ in range(g.node_count()):
        node = pred[node]
    cycle = [node]
    cur = pred[node]
    while cur != node:
        cycle.append(cur)
        cur = pred[cur]
    cycle.reverse()
    return cycle


def detect_negative_cycle(g: ExchangeGraph) -> Optional[list]:
    """A simple negative-weight cycle as a node list, or None.

    The cycle is returned so that consecutive nodes (wrapping around) are
    arcs of the graph.
    """
    dist, pred, bad = _bellman_ford(g)
    if bad is None:
        return None
    return _extract_cycle(g, pred, bad[1])


def cycle_weight(g: ExchangeGraph, cycle: list) -> Fraction:
    """Total weight of a node cycle; raises if some hop is not an arc."""
    weight_of = {(u, v): w for u, v, w in g.arcs}
    total = Fraction(0)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        total += weight_of[(a, b)]
    return total


def compute_potentials(inst: Instance, alloc: Allocation, alpha: Sequence[Fraction]) -> Potentials:
    """Potentials from shortest root-to-node distances.

    Requires ``alloc`` to maximize the alpha-weighted welfare over balanced
    allocations; otherwise the graph has a negative cycle and
    NegativeCycleError is raised.  q_i is the distance to agent i and p_j
    the negated distance to good j; the pair is dual-feasible, nonnegative
    and complementary-slack with the allocation.
    """
    g = build_exchange_graph(inst, alloc, alpha)
    dist, pred, bad = _bellman_ford(g)
    if bad is not None:
        raise NegativeCycleError(_extract_cycle(g, pred, bad[1]))
    q = tuple(dist[agent_node(i)] for i in inst.agents())
    p = tuple(-dist[good_node(j)] for j in inst.goods())
    pot = Potentials(q=q, p=p)
    if not pot.is_nonnegative():
        raise InternalInvariantError("shortest-path potentials must be nonnegative")
    for i in inst.agents():
        for j in alloc.bundle(i):
            if q[i - 1] + p[j - 1] != alpha[i - 1] * inst.value(i, j):
                raise InternalInvariantError("owned pairs must be tight")
    return pot
