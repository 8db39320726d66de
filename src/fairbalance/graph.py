"""Exchange graph over an allocation and its shortest-path potentials.

The exchange graph has one node per agent, one per good, and a root.  Arc
weights encode weighted values; a balanced allocation maximizes the
weighted utilitarian welfare exactly when this graph has no negative
cycle, and in that case shortest-path distances from the root yield
optimal dual potentials (q per agent, p per good).

:func:`compute_potentials` eliminates the goods and runs Bellman-Ford on
the agent graph, whose arcs sum the exchange graph's two-arc paths through
a good; it builds the exchange graph only to name a negative cycle.  All
weights are kept as ints over one positive common denominator, so both
Bellman-Ford loops add and compare Python ints only.  Potentials stay ints
over one scale (their Fraction views are built on first read); a cycle
weight divides by the graph's scale to give an exact Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .core import (
    Allocation,
    Instance,
    InternalInvariantError,
    NegativeCycleError,
    check_allocation,
    integer_rows,
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
    with weight 0.  Every weight is stored as an int over the common
    denominator ``scale``, on node ids 0 (root), i (agent i) and n + j
    (good j); ``label`` names a node id.
    """

    n: int
    m: int
    scale: int
    int_arcs: tuple  # (tail id, head id, weight * scale) in deterministic order

    def node_count(self) -> int:
        return self.n + self.m + 1

    def label(self, node: int) -> tuple:
        if node == 0:
            return ROOT
        return agent_node(node) if node <= self.n else good_node(node - self.n)

    def node_id(self, label: tuple) -> int:
        if label == ROOT:
            return 0
        kind, index = label
        return {"agent": index, "good": self.n + index}[kind]


@dataclass(frozen=True)
class Potentials:
    """Dual pair certifying weighted-welfare optimality, as ints over one
    scale: q_i is ``qs[i-1] / scale`` and p_j is ``ps[j-1] / scale``.

    ``scale`` is positive and ``gcd(scale, *qs, *ps) == 1``, so equal
    potentials give equal, equally hashed objects.  Feasibility means
    q_i + p_j >= alpha_i * v_ij for every agent/good pair;
    :func:`compute_potentials` gives nonnegative vectors.  The Fraction
    views ``q`` and ``p`` are built on first read.
    """

    scale: int
    qs: tuple
    ps: tuple

    def __post_init__(self):
        entries = (*self.qs, *self.ps)
        if type(self.scale) is not int or not all(type(v) is int for v in entries):
            raise TypeError("scale, qs and ps must be ints")
        if self.scale < 1:
            raise ValueError("scale must be positive")
        if math.gcd(self.scale, *entries) != 1:
            raise ValueError(f"scale {self.scale} is not the least common denominator of the potentials")

    @cached_property
    def q(self) -> tuple:
        """The agent potentials as Fractions."""
        return tuple(Fraction(v, self.scale) for v in self.qs)

    @cached_property
    def p(self) -> tuple:
        """The good potentials (prices) as Fractions."""
        return tuple(Fraction(v, self.scale) for v in self.ps)


def scaled_alpha(inst: Instance, alpha: Sequence[Fraction]) -> tuple:
    """``(scale, alpha_ints)``: alpha_i * v_ij times ``scale`` is the int
    ``alpha_ints[i-1] * inst.rows[i-1][j-1]``, where ``scale`` is
    lcm(alpha denominators) times the instance's value scale.  Raises
    ValueError unless alpha is one positive weight per agent.
    """
    if len(alpha) != inst.n:
        raise ValueError("alpha length must equal the number of agents")
    alpha_scale, (alpha_ints,) = integer_rows((alpha,))
    if min(alpha_ints) <= 0:
        raise ValueError("alpha must be strictly positive")
    return alpha_scale * inst.scale, alpha_ints


def build_exchange_graph(inst: Instance, alloc: Allocation, alpha: Sequence[Fraction]) -> ExchangeGraph:
    """Exchange graph of a balanced allocation under weights alpha, on the
    scale of :func:`scaled_alpha`, which raises ValueError unless alpha is
    one positive weight per agent.
    """
    check_allocation(inst, alloc, balanced=True)
    scale, alpha_ints = scaled_alpha(inst, alpha)
    n, m = inst.n, inst.m
    weights = [[a * v for v in row] for a, row in zip(alpha_ints, inst.rows)]
    arcs = [(0, n + j, 0) for j in inst.goods()]
    for i, row in enumerate(weights, start=1):
        arcs += [(i, n + j, -w) for j, w in enumerate(row, start=1)]
    owner = alloc.owner_map()
    arcs += [(n + j, owner[j], weights[owner[j] - 1][j - 1]) for j in inst.goods()]
    return ExchangeGraph(n=n, m=m, scale=scale, int_arcs=tuple(arcs))


def _bellman_ford(g: ExchangeGraph):
    """Distances (times g.scale) from the root by node id, predecessor ids,
    and one arc that still relaxes (if any).

    Every node is reachable from the root, so distances are always finite.
    """
    dist = [None] * g.node_count()
    dist[0] = 0
    pred = [None] * g.node_count()
    for _ in range(g.node_count() - 1):
        changed = False
        for u, v, w in g.int_arcs:
            du = dist[u]
            if du is None:
                continue
            nd = du + w
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                pred[v] = u
                changed = True
        if not changed:
            break
    for arc in g.int_arcs:
        u, v, w = arc
        if dist[u] is not None and dist[u] + w < dist[v]:
            return dist, pred, arc
    return dist, pred, None


def _extract_cycle(g: ExchangeGraph, pred: list, relaxed_head: int) -> list:
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
    return [g.label(v) for v in cycle]


def detect_negative_cycle(g: ExchangeGraph) -> Optional[list]:
    """A simple negative-weight cycle as a node list, or None.

    The cycle is returned so that consecutive nodes (wrapping around) are
    arcs of the graph; it is the cycle that compute_potentials raises.
    """
    dist, pred, bad = _bellman_ford(g)
    if bad is None:
        return None
    return _extract_cycle(g, pred, bad[1])


def cycle_weight(g: ExchangeGraph, cycle: list) -> Fraction:
    """Total weight of a node cycle; raises if some hop is not an arc."""
    weight_of = {(u, v): w for u, v, w in g.int_arcs}
    ids = [g.node_id(label) for label in cycle]
    total = sum(weight_of[(a, b)] for a, b in zip(ids, ids[1:] + ids[:1]))
    return Fraction(total, g.scale)


def _agent_potentials(weights: list, bundles: list) -> Optional[tuple]:
    """Shortest-path potentials ``(qs, ps)`` as int lists over the scale of
    ``weights`` (W_ij at ``weights[i][j]``, 0-based, and ``bundles[i]`` the
    0-based goods of agent i), or None when there is a negative cycle.

    The agent graph is the exchange graph with its goods eliminated: root ->
    i weighs min over j in A_i of W_ij and h -> i weighs min over j in A_i
    of (W_ij - W_hj).  q_i is the distance to agent i, and the good j's
    price p_j = -min(0, min_h (q_h - W_hj)) is minus its distance.
    """
    qs = [min(row[j] for j in own) for row, own in zip(weights, bundles)]
    arcs = [(h, i, min(row[j] - other[j] for j in own))
            for i, (row, own) in enumerate(zip(weights, bundles))
            for h, other in enumerate(weights) if h != i]
    # simple paths from the root have at most n arcs, and qs starts at the
    # one-arc paths: a change in round n means a negative cycle
    for _ in weights:
        changed = False
        for h, i, w in arcs:
            d = qs[h] + w
            if d < qs[i]:
                qs[i] = d
                changed = True
        if not changed:
            break
    else:
        return None
    # p_j = max(0, max_h (W_hj - q_h)), one column of the shifted rows at a time
    ps = list(map(max, [0] * len(weights[0]), *[[w - q for w in row] for row, q in zip(weights, qs)]))
    return qs, ps


def compute_potentials(inst: Instance, alloc: Allocation, alpha: Sequence[Fraction]) -> Potentials:
    """Potentials from shortest root-to-node distances in the exchange
    graph, as ints over the scale of :func:`scaled_alpha` divided by their
    common factor; Bellman-Ford runs on the agent graph.

    Requires ``alloc`` to maximize the alpha-weighted welfare over balanced
    allocations; otherwise the exchange graph has a negative cycle, and
    NegativeCycleError is raised with that graph's cycle (the one that
    :func:`detect_negative_cycle` finds) and its weight.  q_i is the
    distance to agent i and p_j the negated distance to good j; the pair is
    dual-feasible, nonnegative and complementary-slack with the allocation.
    """
    check_allocation(inst, alloc, balanced=True)
    scale, alpha_ints = scaled_alpha(inst, alpha)
    weights = [[a * v for v in row] for a, row in zip(alpha_ints, inst.rows)]
    bundles = [[j - 1 for j in own] for own in alloc.bundles]
    found = _agent_potentials(weights, bundles)
    if found is None:
        g = build_exchange_graph(inst, alloc, alpha)
        cycle = detect_negative_cycle(g)
        if cycle is None:
            raise InternalInvariantError("the agent graph has a negative cycle that the exchange graph lacks")
        raise NegativeCycleError(cycle, cycle_weight(g, cycle))
    qs, ps = found
    if min(qs) < 0 or min(ps) < 0:
        raise InternalInvariantError("shortest-path potentials must be nonnegative")
    if any(qs[i] + ps[j] != weights[i][j] for i, own in enumerate(bundles) for j in own):
        raise InternalInvariantError("owned pairs must be tight")
    common = math.gcd(scale, *qs, *ps)
    return Potentials(
        scale=scale // common,
        qs=tuple(q // common for q in qs),
        ps=tuple(p // common for p in ps),
    )
