"""Exact simplex over rationals, the two fPO LPs built on it, and the
complementary-slackness check of a dual certificate.

The fPO deciders serve two kinds of caller.  ``fpo_holds`` returns the
verdict alone; the enumeration report and an uncertified solve read only
that.  It needs no LP for one or two agents (two agents: the closed range
of weight ratios of ``core.gamma_bounds``) and from three agents solves the
small LP over the moves away from the allocation (2n + 1 rows).
``check_fpo`` solves the full LP over fractional allocations (2n + m rows
when balanced) and returns a dominating allocation as the witness that
``check --fpo`` prints.

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
    gamma_bounds,
    two_type_view,
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


_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


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


# --- the fPO LPs and the slackness check ------------------------------------

@dataclass(frozen=True)
class FpoResult:
    """Outcome of the fPO check: either optimal, or a dominating n x m
    matrix of Fractions (a tuple of agent rows, column sums 1)."""

    is_fpo: bool
    dominating: Optional[tuple]
    improvement: Fraction


def fpo_holds(inst: Instance, alloc: Allocation) -> bool:
    """Is the balanced allocation fPO?  The verdict alone, no witness.

    A balanced fractional allocation differs from this one by moving parts
    of goods from their owners: lambda_ij >= 0 of good j to each non-owner
    i, with every agent receiving as much as it gives.  The allocation is
    fPO exactly when no such move gains for some agent and loses for none.

    One agent can move nothing.  Two agents can only swap, part of a good
    of agent 1 against as much of a good of agent 2, and by Stiemke's
    lemma no mix of swaps gains for one and loses for none exactly when
    some gamma > 0 lets no swap gain at weights (1, gamma): the
    allocation is fPO when :func:`~fairbalance.core.gamma_bounds` is not
    None (two equal rows are one type, which every weight fits), and no
    LP is run and no Fraction built.
    From three agents the LP maximizes the total gain sum z over moves
    with gain_i = z_i >= 0 and sum lambda <= 1, so its optimum is 0
    exactly when the allocation is fPO.  Its 2n + 1 rows and (n - 1)m +
    n + 1 columns make it smaller than :func:`check_fpo`'s, which also
    returns a dominating allocation.
    """
    check_allocation(inst, alloc, balanced=True)
    n, rows = inst.n, inst.rows
    if n == 1:  # one agent owns every good, so nothing can be moved
        return True
    if n == 2:  # two agents are at most two types; equal rows fit every weight
        return gamma_bounds(two_type_view(inst), alloc) is not None
    # each column's entries in the n gain rows (gain_i - z_i = 0) and the n
    # count rows (received - given = 0): lambda_ij by good, then by
    # non-owner i; then z_i; then s, which is zero in all of them.  Entries
    # are Fractions, the zeros and ones shared, as LinearProgram would
    # otherwise build one per int entry.
    owner = alloc.owner_map()
    columns = []
    for j in range(inst.m):
        o = owner[j + 1] - 1
        for i in range(n):
            if i != o:
                column = [_ZERO] * (2 * n)
                column[i], column[o] = Fraction(rows[i][j]), Fraction(-rows[o][j])
                column[n + i], column[n + o] = _ONE, _MINUS_ONE
                columns.append(column)
    moves = len(columns)
    columns += [[_MINUS_ONE if r == i else _ZERO for r in range(2 * n)] for i in range(n)]
    columns.append([_ZERO] * (2 * n))
    normalization = [_ONE] * moves + [_ZERO] * n + [_ONE]  # sum lambda + s = 1
    c = [_ZERO] * moves + [_ONE] * n + [_ZERO]
    a = [*zip(*columns), normalization]
    res = solve_lp(LinearProgram(c=c, a=a, b=[_ZERO] * (2 * n) + [_ONE]))
    if res.objective < 0:
        raise InternalInvariantError("moving nothing is feasible, so the total gain is >= 0")
    return res.objective == 0


def check_fpo(inst: Instance, alloc: Allocation, mode: str = "balanced") -> FpoResult:
    """Is the allocation fractionally Pareto optimal, and if not, which
    fractional allocation dominates it?  The witness LP.

    Maximizes the total utility surplus over fractional allocations that
    give every agent at least their current utility.  The allocation is
    fPO exactly when the optimum is 0; otherwise the maximizer Pareto-
    dominates it and is returned.  ``mode="unconstrained"`` drops the
    per-agent cardinality constraint (for reduction round trips).  A
    caller that reads only the verdict of a balanced allocation uses
    :func:`fpo_holds`, whose LP is smaller, and ``check --fpo`` runs this
    LP on a balanced allocation only when ``solver.class_certificate``
    finds no weights of the instance's class that prove it fPO.
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
