"""Exact maximum-weight perfect matching on complete bipartite graphs.

Hungarian algorithm over exact numbers (int or Fraction; the result keeps
the weights' type), maintaining feasible potentials (u per left node, v per
right node with u_l + v_r >= w(l, r)).  The final potentials are tight on
matched edges, which certifies optimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import InternalInvariantError, RationalLike, as_rational


@dataclass(frozen=True)
class BipartiteWeights:
    """Square weight matrix of ints or Fractions; weight[l-1][r-1] is the
    edge (l, r) weight."""

    size: int
    weight: tuple

    def w(self, l: int, r: int) -> RationalLike:
        return self.weight[l - 1][r - 1]


def make_weights(matrix: Sequence[Sequence]) -> BipartiteWeights:
    size = len(matrix)
    if size < 1:
        raise ValueError("need at least one node per side")
    if any(len(row) != size for row in matrix):
        raise ValueError("weight matrix must be square (pad or slot-expand first)")
    rows = tuple(tuple(as_rational(x) for x in row) for row in matrix)
    return BipartiteWeights(size=size, weight=rows)


@dataclass(frozen=True)
class MatchingResult:
    """assignment[l-1] is the right node matched to left node l (1-based)."""

    assignment: tuple
    value: RationalLike
    u: tuple
    v: tuple


def max_weight_perfect_matching(weights: BipartiteWeights) -> MatchingResult:
    """Optimal assignment plus certifying duals.

    Ties are resolved deterministically: when several right nodes attain
    the minimum slack, the lowest index is taken, so equal-weight optima
    always resolve the same way.
    """
    n = weights.size
    w = weights.weight
    u = [max(row) for row in w]
    v = [0] * n
    match_l = [None] * n  # left -> right (0-based)
    match_r = [None] * n  # right -> left

    for start in range(n):
        # grow an alternating tree rooted at `start` inside the tight graph
        in_tree_left = [False] * n
        in_tree_left[start] = True
        parent_right = [None] * n  # tree parent (a left node) of each right node
        min_slack = [(u[start] + v[r] - w[start][r], start) for r in range(n)]
        while True:
            best_r = None
            best = None
            for r in range(n):
                if parent_right[r] is not None:
                    continue
                if best is None or min_slack[r][0] < best:
                    best = min_slack[r][0]
                    best_r = r
            if best > 0:
                # shift potentials to make the chosen edge tight
                for l in range(n):
                    if in_tree_left[l]:
                        u[l] -= best
                for r in range(n):
                    if parent_right[r] is not None:
                        v[r] += best
                    else:
                        min_slack[r] = (min_slack[r][0] - best, min_slack[r][1])
            parent_right[best_r] = min_slack[best_r][1]
            other = match_r[best_r]
            if other is None:
                # augment along the tree back to the root
                r = best_r
                while r is not None:
                    l = parent_right[r]
                    prev = match_l[l]
                    match_l[l] = r
                    match_r[r] = l
                    r = prev
                break
            in_tree_left[other] = True
            for r in range(n):
                if parent_right[r] is None:
                    slack = u[other] + v[r] - w[other][r]
                    if slack < min_slack[r][0]:
                        min_slack[r] = (slack, other)

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
    n, w, u, v = weights.size, weights.weight, result.u, result.v
    if sum(u) + sum(v) != result.value:
        raise InternalInvariantError("duals must sum to the value")
    for l, r in enumerate(result.assignment):
        if u[l] + v[r - 1] != w[l][r - 1]:
            raise InternalInvariantError("matched edges must be tight")
    if any(u[l] + v[r] < w[l][r] for l in range(n) for r in range(n)):
        raise InternalInvariantError("duals must be feasible")
