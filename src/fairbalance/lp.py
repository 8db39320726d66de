"""Exact simplex over rationals and the allocation LPs built on it.

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
    make_allocation,
)
from .graph import Potentials, check_alpha


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


_ZERO = Fraction(0)


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


# --- allocation LPs ----------------------------------------------------------

def _xvar(inst: Instance, i: int, j: int) -> int:
    return (i - 1) * inst.m + (j - 1)


def _assignment_rows(inst: Instance, width: int, balanced: bool) -> tuple:
    """Rows over the n*m x variables (padded to ``width``): each good is
    assigned once, then, when ``balanced``, each agent gets k goods.
    Returns ``(rows, rhs)``."""
    rows = []
    b = []
    for j in inst.goods():
        row = [_ZERO] * width
        for i in inst.agents():
            row[_xvar(inst, i, j)] = Fraction(1)
        rows.append(tuple(row))
        b.append(Fraction(1))
    if balanced:
        for i in inst.agents():
            row = [_ZERO] * width
            for j in inst.goods():
                row[_xvar(inst, i, j)] = Fraction(1)
            rows.append(tuple(row))
            b.append(Fraction(inst.k))
    return rows, b


def _x_matrix(inst: Instance, x: Sequence[Fraction]) -> tuple:
    """The n x m matrix of the x variables of an LP solution, as row tuples."""
    return tuple(tuple(x[i * inst.m:(i + 1) * inst.m]) for i in range(inst.n))


def _primal_program(inst: Instance, alpha: Sequence[Fraction]) -> LinearProgram:
    nv = inst.n * inst.m
    c = [_ZERO] * nv
    for i in inst.agents():
        for j in inst.goods():
            c[_xvar(inst, i, j)] = alpha[i - 1] * inst.value(i, j)
    rows, b = _assignment_rows(inst, nv, balanced=True)
    return LinearProgram(c=tuple(c), a=tuple(rows), b=tuple(b))


def solve_primal(inst: Instance, alpha: Sequence[Fraction]) -> tuple:
    """Maximize the alpha-weighted welfare over balanced fractional
    allocations.  The returned vertex is always integral (the constraint
    matrix is totally unimodular), so it doubles as a balanced allocation.

    Returns ``(Allocation, value)``.
    """
    check_alpha(inst, alpha)
    res = solve_lp(_primal_program(inst, alpha))
    if any(v != 0 and v != 1 for v in res.x):
        raise InternalInvariantError("transportation vertex must be integral")
    alloc = make_allocation({j for j, v in enumerate(row, start=1) if v == 1}
                            for row in _x_matrix(inst, res.x))
    if not alloc.is_balanced(inst):
        raise InternalInvariantError("transportation vertex must be a balanced allocation")
    return alloc, res.objective


def solve_dual(inst: Instance, alpha: Sequence[Fraction]) -> Potentials:
    """Minimize k*sum(q) + sum(p) subject to q_i + p_j >= alpha_i v_ij.

    Solved directly as an LP with q, p >= 0 (a nonnegative optimum always
    exists), independently of the shortest-path construction in
    :mod:`fairbalance.graph`.
    """
    check_alpha(inst, alpha)
    n, m, k = inst.n, inst.m, inst.k
    # variables: q (n), p (m), surplus s_ij (n*m)
    nv = n + m + n * m
    c = [_ZERO] * nv
    for i in range(n):
        c[i] = Fraction(-k)
    for j in range(m):
        c[n + j] = Fraction(-1)
    rows = []
    b = []
    for i in inst.agents():
        for j in inst.goods():
            row = [_ZERO] * nv
            row[i - 1] = Fraction(1)
            row[n + j - 1] = Fraction(1)
            row[n + m + _xvar(inst, i, j)] = Fraction(-1)
            rows.append(tuple(row))
            b.append(alpha[i - 1] * inst.value(i, j))
    res = solve_lp(LinearProgram(c=tuple(c), a=tuple(rows), b=tuple(b)))
    pot = Potentials(q=tuple(res.x[:n]), p=tuple(res.x[n:n + m]))
    if not (pot.is_nonnegative() and pot.is_feasible(inst, alpha)):
        raise InternalInvariantError("dual optimum must be nonnegative and feasible")
    return pot


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
    nv = n * m + n  # x variables then z variables
    c = [_ZERO] * nv
    for i in range(n):
        c[n * m + i] = Fraction(1)
    rows = []
    b = []
    for i in inst.agents():  # utility bookkeeping: v_i . x_i - z_i = v_i(A_i)
        row = [_ZERO] * nv
        for j in inst.goods():
            row[_xvar(inst, i, j)] = inst.value(i, j)
        row[n * m + i - 1] = Fraction(-1)
        rows.append(tuple(row))
        b.append(bundle_value(inst, i, alloc.bundle(i)))
    assign_rows, assign_b = _assignment_rows(inst, nv, balanced)
    res = solve_lp(LinearProgram(c=tuple(c), a=tuple(rows + assign_rows), b=tuple(b + assign_b)))
    if res.objective < 0:
        raise InternalInvariantError("the current allocation is feasible, so the surplus is >= 0")
    if res.objective == 0:
        return FpoResult(is_fpo=True, dominating=None, improvement=_ZERO)
    return FpoResult(is_fpo=False, dominating=_x_matrix(inst, res.x), improvement=res.objective)


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
    scaled = pot.scaled_if_feasible(inst, alpha)
    if scaled is None or any(a <= 0 for a in alpha):
        return False
    qs, ps, rs, rows = scaled
    for q, r, row, bundle in zip(qs, rs, rows, alloc.bundles):
        for j in bundle:
            if q + ps[j - 1] != r * row[j - 1]:
                return False
    return True
