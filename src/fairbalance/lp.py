"""Exact simplex over rationals, the fPO decision LP built on it, and the
complementary-slackness check of a dual certificate.

Everything is solved in standard equality form (max c.x, Ax = b, x >= 0)
with a two-phase tableau method.  Pivoting starts with the largest-
coefficient rule and switches to Bland's rule at the first repeated basis
(a repeat under Bland's rule raises), so every solve terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    Allocation,
    Instance,
    InternalInvariantError,
    as_rational,
    bundle_value,
    check_allocation,
)
from .graph import Potentials, scaled_alpha


@dataclass(frozen=True)
class LinearProgram:
    """max c.x subject to A x = b, x >= 0, all entries int or Fraction, b >= 0.

    Entries are stored as Fractions, so the simplex divides exactly; an
    int is converted and a float raises TypeError."""

    c: tuple
    a: tuple
    b: tuple

    def __post_init__(self):
        rational = lambda row: tuple(as_rational(v) for v in row)
        object.__setattr__(self, "c", rational(self.c))
        object.__setattr__(self, "a", tuple(rational(row) for row in self.a))
        object.__setattr__(self, "b", rational(self.b))
        if any(len(row) != len(self.c) for row in self.a):
            raise ValueError("constraint width does not match objective length")
        if len(self.a) != len(self.b):
            raise ValueError("constraint count does not match rhs length")
        if any(v < 0 for v in self.b):
            raise ValueError("right-hand side must be nonnegative")


@dataclass(frozen=True)
class SimplexResult:
    x: tuple
    objective: Fraction


_ZERO, _ONE = Fraction(0), Fraction(1)


def _eliminate(row: list, coef: Fraction, prow: list) -> list:
    """``row - coef * prow`` as a new list; each entry where ``prow`` is
    zero is kept as it is."""
    return [a - coef * b if b else a for a, b in zip(row, prow)]


def _entering(z: list, ncols: int, bland: bool) -> Optional[int]:
    """The column of the largest positive reduced cost among the first
    ``ncols``, ties to the lowest index, or under Bland's rule the first
    positive one; None when none is positive (the basis is optimal)."""
    enter, best = None, _ZERO
    for j in range(ncols):
        if z[j] > best:
            if bland:
                return j
            enter, best = j, z[j]
    return enter


def solve_lp(lp: LinearProgram) -> SimplexResult:
    """Two-phase simplex; returns an optimal vertex and its objective.

    Phase I starts from one artificial column per row; phase II drops
    those columns and pivots on the structural ones alone.  The pivot is a
    function of the basis, so a basis that repeats before the objective
    rises would repeat forever: there the phase switches to Bland's rule.
    Raises InternalInvariantError on infeasibility or unboundedness (the
    package's LPs are feasible and bounded by construction: either is a
    caller bug) and on a basis repeated under Bland's rule (it cannot cycle).
    """
    nstruct = len(lp.c)
    nrows = len(lp.a)
    tableau = []
    for i in range(nrows):
        row = list(lp.a[i]) + [_ZERO] * nrows + [lp.b[i]]
        row[nstruct + i] = Fraction(1)
        tableau.append(row)
    # basis entries >= nstruct are artificial columns, also in phase II
    basis = [nstruct + i for i in range(nrows)]

    def run_phase(costs):
        # reduced-cost row for the given costs (one per tableau column) under
        # the current basis, its last entry minus the objective value; a
        # basic artificial outside the columns costs 0
        ncols = len(costs)
        # phase II: a zero-level basic artificial with a nonzero entering
        # coefficient would drift off zero, so it leaves first (degenerate,
        # feasible pivot); in phase I artificials may re-enter
        expel = ncols == nstruct
        z = list(costs) + [_ZERO]
        for r in range(nrows):
            if basis[r] < ncols and costs[basis[r]] != 0:
                z = _eliminate(z, costs[basis[r]], tableau[r])

        bland = False
        seen = set()  # the bases since the objective last rose
        while True:
            enter = _entering(z, ncols, bland)
            if enter is None:
                return -z[-1]

            # leaving row: minimum ratio, ties to the smaller basis index
            leave = None
            best_ratio = None
            for r in range(nrows):
                coef = tableau[r][enter]
                if expel and basis[r] >= nstruct and tableau[r][ncols] == 0 and coef != 0:
                    leave = r
                    break
                if coef > 0:
                    ratio = tableau[r][ncols] / coef
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = r
            if leave is None:
                raise InternalInvariantError("objective unbounded")

            # pivot
            prow = tableau[leave]
            piv = prow[enter]
            if piv != 1:
                inv = 1 / piv
                tableau[leave] = prow = [x * inv for x in prow]
            for r in range(nrows):
                coef = tableau[r][enter]
                if r != leave and coef != 0:
                    tableau[r] = _eliminate(tableau[r], coef, prow)
            z = _eliminate(z, z[enter], prow)
            basis[leave] = enter

            if prow[-1]:  # a nondegenerate pivot: the objective rose
                seen.clear()
            key = tuple(basis)
            if key in seen:
                if bland:
                    raise InternalInvariantError("the simplex cycled under Bland's rule")
                # forget the cycle: Bland's rule may pass its bases once more
                bland, seen = True, set()
            seen.add(key)

    # Phase I: drive artificials to zero; they may re-enter here
    if run_phase([_ZERO] * nstruct + [Fraction(-1)] * nrows) != 0:
        raise InternalInvariantError("infeasible constraint system")

    # Phase II: optimize the real objective on the structural columns
    for r in range(nrows):
        tableau[r] = tableau[r][:nstruct] + tableau[r][-1:]
    objective = run_phase(list(lp.c))

    x = [_ZERO] * nstruct
    for r in range(nrows):
        if basis[r] < nstruct:
            x[basis[r]] = tableau[r][nstruct]
    return SimplexResult(x=tuple(x), objective=objective)


# --- the fPO decision LP and the slackness check ----------------------------

@dataclass(frozen=True)
class FpoResult:
    """Outcome of the fPO check: either optimal, or a dominating n x m
    matrix of Fractions (a tuple of agent rows, column sums 1)."""

    is_fpo: bool
    dominating: Optional[tuple]
    improvement: Fraction


def check_fpo(inst: Instance, alloc: Allocation, mode: str = "balanced") -> FpoResult:
    """Is the allocation fractionally Pareto optimal?

    Maximizes the total utility surplus over fractional allocations that
    give every agent at least their current utility.  The allocation is
    fPO exactly when the optimum is 0; otherwise the maximizer Pareto-
    dominates it and is returned.  ``mode="unconstrained"`` drops the
    per-agent cardinality constraint (for reduction round trips).
    """
    if mode not in ("balanced", "unconstrained"):
        raise ValueError(f"unknown mode {mode!r}")
    balanced = mode == "balanced"
    check_allocation(inst, alloc, balanced=balanced)
    if inst.n == 1:  # one agent owns every good, so nothing can be moved
        return FpoResult(is_fpo=True, dominating=None, improvement=_ZERO)
    n, m = inst.n, inst.m
    nv = n * m + n  # x_ij at (i - 1) * m + (j - 1), then z_i at n * m + (i - 1)
    c = [_ZERO] * (n * m) + [_ONE] * n
    rows = []
    b = []
    for i, values in enumerate(inst.values):  # utility bookkeeping: v_i . x_i - z_i = v_i(A_i)
        row = [_ZERO] * nv
        row[i * m:(i + 1) * m] = values
        row[n * m + i] = -_ONE
        rows.append(row)
        b.append(bundle_value(inst, i + 1, alloc.bundle(i + 1)))
    # each good is assigned once, then, when balanced, each agent gets k goods
    rows += [[_ONE if v < n * m and v % m == j else _ZERO for v in range(nv)] for j in range(m)]
    b += [_ONE] * m
    if balanced:
        rows += [[_ONE if i * m <= v < (i + 1) * m else _ZERO for v in range(nv)] for i in range(n)]
        b += [Fraction(inst.k)] * n
    res = solve_lp(LinearProgram(c=c, a=rows, b=b))
    if res.objective < 0:
        raise InternalInvariantError("the current allocation is feasible, so the surplus is >= 0")
    if res.objective == 0:
        return FpoResult(is_fpo=True, dominating=None, improvement=_ZERO)
    dominating = tuple(res.x[i * m:(i + 1) * m] for i in range(n))  # agent rows of x
    return FpoResult(is_fpo=False, dominating=dominating, improvement=res.objective)


def verify_complementary_slackness(
    inst: Instance,
    alloc: Allocation,
    pot: Potentials,
    alpha: Sequence[Fraction],
) -> bool:
    """True iff alpha > 0, q_i + p_j >= alpha_i v_ij on every pair (dual
    feasibility) and q_i + p_j = alpha_i v_ij on every pair with good j in
    agent i's bundle: an exact proof that the allocation is fPO.  Raises
    ValueError when alpha, q or p has the wrong length or the allocation
    is not a balanced partition of the goods.
    """
    check_allocation(inst, alloc, balanced=True)
    if len(pot.qs) != inst.n or len(pot.ps) != inst.m or len(alpha) != inst.n:
        raise ValueError(f"potentials and alpha must have {inst.n} agent "
                         f"and {inst.m} good entries")
    if any(a <= 0 for a in alpha):
        return False
    # both sides times pot.scale * the weight scale, so ints compare
    scale, alpha_ints = scaled_alpha(inst, alpha)
    qs, ps = [q * scale for q in pot.qs], [p * scale for p in pot.ps]
    rs = [a * pot.scale for a in alpha_ints]
    for q, r, row in zip(qs, rs, inst.rows):
        for p, w in zip(ps, row):
            if q + p < r * w:
                return False
    for q, r, row, bundle in zip(qs, rs, inst.rows, alloc.bundles):
        for j in bundle:
            if q + ps[j - 1] != r * row[j - 1]:
                return False
    return True
