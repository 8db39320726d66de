"""Exact simplex over rationals and the allocation LPs built on it.

Everything is solved in standard equality form (max c.x, Ax = b, x >= 0)
with a two-phase tableau method.  Pivoting starts with the largest-
coefficient rule and switches to Bland's rule after a degenerate stall,
so termination is guaranteed while typical solves stay fast.
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
from .graph import Potentials, _check_alpha


class LPError(Exception):
    pass


@dataclass(frozen=True)
class LinearProgram:
    """max c.x subject to A x = b, x >= 0, all entries Rational, b >= 0.

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


def solve_lp(lp: LinearProgram) -> SimplexResult:
    """Two-phase simplex; returns an optimal vertex and its objective.

    Phase I starts from one artificial column per row; phase II drops
    those columns and pivots on the structural ones alone.  Raises LPError
    on infeasibility or unboundedness (the LPs in this package are
    feasible and bounded by construction, so either signals a caller bug).
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
    # a fixed limit for both phases, so the switch to Bland's rule does not
    # depend on the width of the tableau
    stall_limit = 4 * (nstruct + 2 * nrows) + 32

    def run_phase(costs, expel_artificials):
        # reduced-cost row for the given costs (one per tableau column) under
        # the current basis; a basic artificial outside the columns costs 0
        ncols = len(costs)
        z = list(costs)
        zval = _ZERO
        for r in range(nrows):
            if basis[r] >= ncols:
                continue
            cb = costs[basis[r]]
            if cb != 0:
                trow = tableau[r]
                for j in range(ncols):
                    if trow[j] != 0:
                        z[j] -= cb * trow[j]
                zval += cb * trow[ncols]

        bland = False
        stall = 0
        while True:
            enter = None
            if bland:
                for j in range(ncols):
                    if z[j] > 0:
                        enter = j
                        break
            else:
                best = _ZERO
                for j in range(ncols):
                    if z[j] > best:
                        best = z[j]
                        enter = j
            if enter is None:
                return zval

            # leaving row: minimum ratio; in phase II a zero-level basic
            # artificial with a nonzero entering coefficient would drift
            # off zero, so expel it first (degenerate, feasible pivot)
            leave = None
            best_ratio = None
            for r in range(nrows):
                coef = tableau[r][enter]
                if (
                    expel_artificials
                    and basis[r] >= nstruct
                    and tableau[r][ncols] == 0
                    and coef != 0
                ):
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
                raise LPError("objective unbounded")

            # pivot
            prow = tableau[leave]
            piv = prow[enter]
            if piv != 1:
                inv = 1 / piv
                tableau[leave] = prow = [x * inv for x in prow]
            for r in range(nrows):
                if r == leave:
                    continue
                coef = tableau[r][enter]
                if coef != 0:
                    trow = tableau[r]
                    tableau[r] = [a - coef * b for a, b in zip(trow, prow)]
            coef = z[enter]
            old_zval = zval
            if coef != 0:
                for j in range(ncols):
                    if prow[j] != 0:
                        z[j] -= coef * prow[j]
                zval += coef * prow[ncols]
            basis[leave] = enter

            if not bland:
                if zval > old_zval:
                    stall = 0
                else:
                    stall += 1
                    if stall > stall_limit:
                        bland = True

    # Phase I: drive artificials to zero; they may re-enter here
    if run_phase([_ZERO] * nstruct + [Fraction(-1)] * nrows, expel_artificials=False) != 0:
        raise LPError("infeasible constraint system")

    # Phase II: optimize the real objective on the structural columns
    for r in range(nrows):
        tableau[r] = tableau[r][:nstruct] + tableau[r][-1:]
    zval = run_phase(list(lp.c), expel_artificials=True)

    x = [_ZERO] * nstruct
    for r in range(nrows):
        if basis[r] < nstruct:
            x[basis[r]] = tableau[r][nstruct]
    return SimplexResult(x=tuple(x), objective=zval)


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
    _check_alpha(inst, alpha)
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
    _check_alpha(inst, alpha)
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
    """True iff q_i + p_j = alpha_i v_ij on every pair with good j in
    agent i's bundle.

    The allocation must be balanced and the potentials dual feasible;
    violations raise ValueError (they are a different failure than broken
    slackness).
    """
    _check_alpha(inst, alpha)
    check_allocation(inst, alloc, balanced=True)
    if not pot.is_feasible(inst, alpha):
        raise ValueError("potentials are not dual feasible")
    qs, ps, rs, rows = pot.scaled(inst, alpha)
    for q, r, row, bundle in zip(qs, rs, rows, alloc.bundles):
        for j in bundle:
            if q + ps[j - 1] != r * row[j - 1]:
                return False
    return True
