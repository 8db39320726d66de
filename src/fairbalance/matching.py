"""Exact maximum-weight perfect matching on complete bipartite graphs.

Hungarian algorithm over exact numbers (int or Fraction; the result keeps
the weights' type), maintaining feasible potentials (u per left node, v per
right node with u_l + v_r >= w(l, r)).  The final potentials are tight on
matched edges, which certifies optimality.

This is the O(n^3) form of Kuhn's method (1955) with the lazy dual updates
of Jonker and Volgenant (1987).  Each phase grows an alternating tree from
the next left node in index order and ends by augmenting along it.  Ties
are resolved deterministically, so equal-weight optima always resolve the
same way:

- each step takes the right node outside the tree with the least slack,
  the lowest index among equals;
- a right node's tree parent is the first tree left node that reached its
  least slack (a later one must be strictly smaller to replace it).

Potentials shift only by a positive amount.  Within a phase the slack of
each right node outside the tree is stored as its true slack plus the
phase's shift so far, so a shift changes one number; u and v are shifted
once per tree node when the phase ends, by the shift made since the node
joined the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InternalInvariantError, RationalLike


@dataclass(frozen=True)
class BipartiteWeights:
    """Square weight matrix of ints or Fractions; weight[l-1][r-1] is the
    edge (l, r) weight."""

    size: int
    weight: tuple


@dataclass(frozen=True)
class MatchingResult:
    """assignment[l-1] is the right node matched to left node l (1-based)."""

    assignment: tuple
    value: RationalLike
    u: tuple
    v: tuple


def max_weight_perfect_matching(weights: BipartiteWeights) -> MatchingResult:
    """Optimal assignment plus certifying duals, with the tie rules and
    the lazy shifts described in the module docstring."""
    n = weights.size
    w = weights.weight
    u = [max(row) for row in w]
    v = [0] * n
    match_l = [None] * n  # left -> right (0-based)
    match_r = [None] * n  # right -> left

    for start in range(n):
        # stored slack = true slack + delta, the phase's shift so far
        slack = [u[start] + vr - wr for vr, wr in zip(v, w[start])]
        parent = [start] * n  # tree parent (a left node) of each right node
        free = list(range(n))  # right nodes outside the tree, ascending
        best_r = min(free, key=slack.__getitem__)  # the first of the least
        joined_left = [(start, 0)]  # (left node, delta when it joined)
        joined_right = []
        delta = 0
        while True:
            best = slack[best_r]
            if best > delta:
                delta = best  # shift by the true slack best - delta > 0
            free.remove(best_r)
            joined_right.append((best_r, delta))
            other = match_r[best_r]
            if other is None:
                # augment along the tree back to the root
                r = best_r
                while r is not None:
                    l = parent[r]
                    prev = match_l[l]
                    match_l[l] = r
                    match_r[r] = l
                    r = prev
                break
            joined_left.append((other, delta))
            # other's u and every free v are still unshifted in this phase
            base = u[other] + delta
            row = w[other]
            best = None
            for r in free:
                s = base + v[r] - row[r]
                t = slack[r]
                if s < t:
                    slack[r] = t = s
                    parent[r] = other
                if best is None or t < best:
                    best = t
                    best_r = r
        # a node no shift reached keeps its potential untouched (an int 0 in
        # v stays an int beside Fraction weights)
        for l, joined in joined_left:
            if delta != joined:
                u[l] -= delta - joined
        for r, joined in joined_right:
            if delta != joined:
                v[r] += delta - joined

    value = sum(w[l][match_l[l]] for l in range(n))
    result = MatchingResult(
        assignment=tuple(match_l[l] + 1 for l in range(n)),
        value=value,
        u=tuple(u),
        v=tuple(v),
    )
    check_certificate(weights, result)
    return result


def check_certificate(weights: BipartiteWeights, result: MatchingResult) -> None:
    """Raise InternalInvariantError unless the duals are feasible, tight on
    every matched edge and sum to the matching's value."""
    w, u, v = weights.weight, result.u, result.v
    if sum(u) + sum(v) != result.value:
        raise InternalInvariantError("duals must sum to the value")
    for ul, r, row in zip(u, result.assignment, w):
        if ul + v[r - 1] != row[r - 1]:
            raise InternalInvariantError("matched edges must be tight")
    if any(ul + vr < wr for ul, row in zip(u, w) for vr, wr in zip(v, row)):
        raise InternalInvariantError("duals must be feasible")
