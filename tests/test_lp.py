import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import fairbalance
from fairbalance import lp
from fairbalance.core import (
    Allocation,
    InternalInvariantError,
    bundle_value,
    make_instance,
)
from fairbalance.graph import compute_potentials
from fairbalance.lp import (
    LinearProgram,
    SimplexResult,
    check_fpo,
    solve_lp,
    verify_complementary_slackness,
)

from conftest import (
    alloc,
    brute_max_welfare,
    dual_objective,
    is_dual_feasible,
    is_nonnegative,
    permutation_enumerate,
    potentials_from_fractions,
    random_alpha,
    random_instance,
    solve_dual,
    solve_primal,
    utilitarian_value,
)

ONE = (Fraction(1), Fraction(1))
HALVES = [Fraction(v, 2) for v in range(-4, 5)]


class TestSimplexCore:
    def test_tiny_problem(self):
        # max x + y subject to x + y = 1
        lp = LinearProgram(
            c=(Fraction(1), Fraction(1)),
            a=((Fraction(1), Fraction(1)),),
            b=(Fraction(1),),
        )
        res = solve_lp(lp)
        assert res.objective == 1

    def test_negative_rhs_raises(self):
        one = Fraction(1)
        with pytest.raises(ValueError, match="nonnegative"):
            LinearProgram(c=(one, one), a=((one, -one),), b=(Fraction(-1),))

    def test_int_entries_solve_in_fractions(self):
        res = solve_lp(LinearProgram(c=(1, 1), a=((2, 3),), b=(1,)))
        assert res.x == (Fraction(1, 2), 0)
        assert res.objective == Fraction(1, 2)
        assert all(isinstance(v, Fraction) for v in res.x + (res.objective,))

    def test_float_entry_raises(self):
        one = Fraction(1)
        with pytest.raises(TypeError, match="float"):
            LinearProgram(c=(one, 0.5), a=((one, one),), b=(one,))

    def test_redundant_rows(self):
        # x + y = 1 stated twice plus x - y = 0
        one = Fraction(1)
        lp = LinearProgram(
            c=(one, Fraction(0)),
            a=((one, one), (one, one), (one, -one)),
            b=(one, one, Fraction(0)),
        )
        res = solve_lp(lp)
        assert res.objective == Fraction(1, 2)
        assert res.x == (Fraction(1, 2), Fraction(1, 2))

    def test_infeasible_raises(self):
        # x + y = 1 and x + y = 2: phase I ends with a positive artificial sum
        with pytest.raises(InternalInvariantError, match="infeasible constraint system"):
            solve_lp(LinearProgram(c=(1, 1), a=((1, 1), (1, 1)), b=(1, 2)))

    def test_unbounded_raises(self):
        # max x subject to x - y = 0: x = y grows without limit
        with pytest.raises(InternalInvariantError, match="objective unbounded"):
            solve_lp(LinearProgram(c=(1, 0), a=((1, -1),), b=(0,)))

    def test_cycling_example_terminates(self):
        # the largest-coefficient rule cycles through degenerate bases here,
        # so the solve finishes only after the switch to Bland's rule
        res = solve_lp(_chvatal_cycling_example())
        assert res.objective == 1
        assert res.x == (1, 0, 1, 0, 2, 0, 0)

    def test_cycling_example_switches_at_first_repeated_basis(self, monkeypatch):
        # the reduced costs are a function of the basis, so the first scan
        # under Bland's rule sees the reduced costs of an earlier scan
        real = lp._entering
        scans = []

        def spy(z, ncols, bland):
            scans.append((tuple(z), bland))
            return real(z, ncols, bland)

        monkeypatch.setattr(lp, "_entering", spy)
        assert solve_lp(_chvatal_cycling_example()).objective == 1
        flags = [bland for _, bland in scans]
        assert len(scans) == 16
        assert sum(not a and b for a, b in zip(flags, flags[1:])) == 1
        first = flags.index(True)
        assert all(flags[first:])
        before = [z for z, _ in scans[:first]]
        assert len(set(before)) == len(before)
        assert scans[first][0] in before

    def test_cycling_under_blands_rule_raises(self, monkeypatch):
        # an entering rule that ignores the switch cycles forever; the
        # repeated basis under "Bland's rule" turns that into an error
        real = lp._entering
        monkeypatch.setattr(lp, "_entering", lambda z, ncols, bland: real(z, ncols, False))
        with pytest.raises(InternalInvariantError, match="cycled under Bland's rule"):
            solve_lp(_chvatal_cycling_example())


def _chvatal_cycling_example() -> LinearProgram:
    """Chvatal, Linear Programming (1983), ch. 3, in equality form: max
    10x1 - 57x2 - 9x3 - 24x4 over three rows, two of them degenerate."""
    h = Fraction(1, 2)
    return LinearProgram(
        c=(10, -57, -9, -24, 0, 0, 0),
        a=((h, -11 * h, -5 * h, 9, 1, 0, 0),
           (h, -3 * h, -h, 1, 0, 1, 0),
           (1, 0, 0, 0, 0, 0, 1)),
        b=(0, 0, 1),
    )


def _solve_square(mat, rhs):
    """x with mat x = rhs, or None when mat is singular (Gauss-Jordan)."""
    n = len(mat)
    aug = [list(row) + [v] for row, v in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [u - f * v for u, v in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


def _basic_solutions(a, b):
    """Every basic solution of A x = b: for each set of len(a) columns with
    a nonsingular submatrix, the x that is zero off those columns.  Empty
    exactly when A is not of full row rank."""
    out = []
    for cols in itertools.combinations(range(len(a[0])), len(a)):
        xb = _solve_square([[row[j] for j in cols] for row in a], b)
        if xb is not None:
            x = [Fraction(0)] * len(a[0])
            for j, v in zip(cols, xb):
                x[j] = v
            out.append(x)
    return out


def _random_bounded_system(rng):
    """(A, b, basic solutions): 1-3 random rows over 2-5 x columns with
    entries in -2..2 by halves and a mostly zero rhs, then the bounding row
    sum(x) + s = M on one more column s, drawn again until of full row rank."""
    while True:
        nx = rng.randint(2, 5)
        rows = [[rng.choice(HALVES) for _ in range(nx)] + [Fraction(0)]
                for _ in range(rng.randint(1, 3))]
        rhs = [Fraction(0) if rng.random() < 0.6 else Fraction(rng.randint(1, 4)) for _ in rows]
        rows.append([Fraction(1)] * (nx + 1))
        rhs.append(Fraction(rng.randint(1, 3)))
        bases = _basic_solutions(rows, rhs)
        if bases:
            return rows, rhs, bases


class TestSimplexAgainstBases:
    """solve_lp against exhaustive basis enumeration on small degenerate LPs.

    The bounding row makes every feasible LP bounded, so it is infeasible
    exactly when no basic solution is nonnegative, and otherwise its optimum
    is the best nonnegative basic solution.  A repeated row keeps an
    artificial basic at level zero after phase I, which phase II's expel
    rule must hold there."""

    def test_matches_best_basic_solution(self):
        rng = random.Random(13)
        dot = lambda u, v: sum(p * q for p, q in zip(u, v))
        seen = {"feasible": 0, "infeasible": 0, "repeated row": 0}
        for _ in range(400):
            rows, rhs, bases = _random_bounded_system(rng)
            costs = [rng.choice(HALVES) for _ in rows[0]]
            feasible = [x for x in bases if min(x) >= 0]
            a, b = list(rows), list(rhs)
            if rng.random() < 0.3:
                src, at = rng.randrange(len(rows)), rng.randrange(len(rows) + 1)
                a.insert(at, rows[src])
                b.insert(at, rhs[src])
                seen["repeated row"] += bool(feasible)
            program = LinearProgram(c=costs, a=a, b=b)
            if not feasible:
                seen["infeasible"] += 1
                with pytest.raises(InternalInvariantError, match="infeasible constraint system"):
                    solve_lp(program)
                continue
            seen["feasible"] += 1
            res = solve_lp(program)
            assert res.objective == max(dot(costs, x) for x in feasible)
            assert all(v >= 0 for v in res.x)
            assert all(dot(row, res.x) == v for row, v in zip(a, b))
            assert dot(costs, res.x) == res.objective
        assert seen["feasible"] >= 200 and seen["infeasible"] >= 100, seen
        assert seen["repeated row"] >= 50, seen


class TestSolvePrimal:
    def test_reference_unit_weights(self, ref_instance):
        _, value = solve_primal(ref_instance, ONE)
        assert value == 44 == brute_max_welfare(ref_instance, ONE)

    def test_all_zero(self):
        inst = make_instance(2, 2, [[0, 0], [0, 0]])
        _, value = solve_primal(inst, ONE)
        assert value == 0

    def test_reference_weighted(self, ref_instance):
        alpha = (Fraction(1), Fraction(2))
        best, value = solve_primal(ref_instance, alpha)
        assert value == 49 == brute_max_welfare(ref_instance, alpha)
        assert best.bundles == (frozenset({1, 3}), frozenset({2, 4}))

    def test_vertex_is_integral_randomized(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2, 3])
            inst = random_instance(rng, n, m)
            alpha = random_alpha(rng, n)
            a, value = solve_primal(inst, alpha)  # integrality asserted inside
            assert isinstance(a, Allocation) and a.is_balanced(inst)
            assert utilitarian_value(inst, a, alpha) == value == brute_max_welfare(inst, alpha)


class TestSolveDual:
    def test_all_zero(self):
        inst = make_instance(2, 2, [[0, 0], [0, 0]])
        pot = solve_dual(inst, ONE)
        assert dual_objective(pot, inst.k) == 0

    def test_single_agent(self):
        inst = make_instance(1, 2, [[3, 7]])
        pot = solve_dual(inst, (Fraction(1),))
        assert dual_objective(pot, inst.k) == 10
        assert is_dual_feasible(inst, pot, (Fraction(1),)) and is_nonnegative(pot)

    def test_reference_matches_potentials(self, ref_instance):
        pot = solve_dual(ref_instance, ONE)
        assert dual_objective(pot, ref_instance.k) == 44
        via_graph = compute_potentials(ref_instance, alloc({3, 4}, {1, 2}), ONE)
        assert dual_objective(via_graph, ref_instance.k) == dual_objective(pot, ref_instance.k)

    def test_strong_duality_randomized(self):
        rng = random.Random(43)
        for _ in range(20):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2])
            inst = random_instance(rng, n, m)
            alpha = random_alpha(rng, n)
            _, primal_value = solve_primal(inst, alpha)
            pot = solve_dual(inst, alpha)
            assert dual_objective(pot, inst.k) == primal_value


class TestCheckFpo:
    def test_po_but_not_fpo(self, ref_instance):
        res = check_fpo(ref_instance, alloc({1, 4}, {2, 3}))
        assert not res.is_fpo
        x = res.dominating
        assert all(0 <= v <= 1 for row in x for v in row)
        assert all(sum(x[i - 1][j - 1] for i in (1, 2)) == 1 for j in ref_instance.goods())
        assert all(sum(row) == ref_instance.k for row in x)
        mine = [bundle_value(ref_instance, i, {1, 4} if i == 1 else {2, 3}) for i in (1, 2)]
        theirs = [
            sum(x[i - 1][j - 1] * ref_instance.value(i, j) for j in ref_instance.goods())
            for i in (1, 2)
        ]
        assert all(t >= m for t, m in zip(theirs, mine))
        assert any(t > m for t, m in zip(theirs, mine))
        assert sum(theirs) - sum(mine) == res.improvement

    def test_unique_intersection_allocation(self, ref_instance):
        assert check_fpo(ref_instance, alloc({1, 3}, {2, 4})).is_fpo

    def test_single_type_always_fpo(self):
        inst = make_instance(2, 4, [[3, 1, 4, 1]] * 2)
        for a in permutation_enumerate(inst):
            assert check_fpo(inst, a).is_fpo

    def test_agrees_with_integral_domination(self):
        # fPO implies no dominating balanced allocation exists; a dominating
        # result must actually dominate
        rng = random.Random(47)
        for _ in range(10):
            n = 2
            m = n * rng.choice([2, 3])
            inst = random_instance(rng, n, m, top=6)
            for a in permutation_enumerate(inst):
                mine = [bundle_value(inst, i, a.bundle(i)) for i in inst.agents()]
                res = check_fpo(inst, a)
                if res.is_fpo:
                    for other in permutation_enumerate(inst):
                        theirs = [bundle_value(inst, i, other.bundle(i)) for i in inst.agents()]
                        assert not (
                            all(t >= m_ for t, m_ in zip(theirs, mine))
                            and any(t > m_ for t, m_ in zip(theirs, mine))
                        )
                else:
                    x = res.dominating
                    theirs = [
                        sum(x[i - 1][j - 1] * inst.value(i, j) for j in inst.goods())
                        for i in inst.agents()
                    ]
                    assert all(t >= m_ for t, m_ in zip(theirs, mine))
                    assert any(t > m_ for t, m_ in zip(theirs, mine))

    def test_unconstrained_mode(self):
        # balanced split is forced to share, unconstrained domination gives
        # everything to whoever values it
        inst = make_instance(2, 2, [[5, 5], [0, 0]])
        a = alloc({1}, {2})
        assert check_fpo(inst, a, mode="balanced").is_fpo
        res = check_fpo(inst, a, mode="unconstrained")
        assert not res.is_fpo
        x = res.dominating
        assert sum(x[0][j - 1] * 5 for j in (1, 2)) > 5

    def test_rejects_unknown_mode(self, ref_instance):
        with pytest.raises(ValueError):
            check_fpo(ref_instance, alloc({1, 3}, {2, 4}), mode="other")

    @pytest.mark.parametrize("mode", ["balanced", "unconstrained"])
    def test_one_agent_is_fpo_without_an_lp(self, monkeypatch, mode):
        # the one agent owns every good, so no transfer exists to find
        def no_lp(program):
            raise AssertionError("one agent needs no LP")

        monkeypatch.setattr(lp, "solve_lp", no_lp)
        inst = make_instance(1, 300, [[j % 7 for j in range(300)]])
        res = check_fpo(inst, alloc(set(range(1, 301))), mode=mode)
        assert res == lp.FpoResult(is_fpo=True, dominating=None, improvement=Fraction(0))
        with pytest.raises(ValueError):
            check_fpo(inst, alloc(set(range(1, 300))), mode=mode)


class TestComplementarySlackness:
    def test_optimal_pair_passes(self, ref_instance):
        best, _ = solve_primal(ref_instance, ONE)
        pot = solve_dual(ref_instance, ONE)
        assert verify_complementary_slackness(ref_instance, best, pot, ONE)

    def test_suboptimal_integral_fails(self, ref_instance):
        pot = compute_potentials(ref_instance, alloc({3, 4}, {1, 2}), ONE)
        assert not verify_complementary_slackness(ref_instance, alloc({1, 2}, {3, 4}), pot, ONE)

    def test_all_zero_trivially_passes(self):
        inst = make_instance(2, 2, [[0, 0], [0, 0]])
        pot = potentials_from_fractions((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
        assert verify_complementary_slackness(inst, alloc({1}, {2}), pot, ONE)

    @pytest.mark.parametrize("good", [1, 2, 3, 4])
    def test_one_slack_owned_pair_fails(self, ref_instance, good):
        # raising one price keeps the duals feasible; of the pairs it loosens,
        # only the owner's is checked, so exactly one owned pair turns slack
        a = alloc({3, 4}, {1, 2})
        pot = compute_potentials(ref_instance, a, ONE)
        assert verify_complementary_slackness(ref_instance, a, pot, ONE)
        p = list(pot.p)
        p[good - 1] += 1
        raised = potentials_from_fractions(pot.q, p)
        assert is_dual_feasible(ref_instance, raised, ONE)
        assert not verify_complementary_slackness(ref_instance, a, raised, ONE)

    def test_failing_certificate_is_false_bad_partition_raises(self, ref_instance):
        pot = compute_potentials(ref_instance, alloc({3, 4}, {1, 2}), ONE)
        with pytest.raises(ValueError, match="partition"):
            verify_complementary_slackness(ref_instance, alloc({1, 2}, {2, 3}), pot, ONE)
        bad_pot = potentials_from_fractions((Fraction(0), Fraction(0)), (Fraction(0),) * 4)
        assert not verify_complementary_slackness(ref_instance, alloc({3, 4}, {1, 2}), bad_pot, ONE)
        assert not verify_complementary_slackness(ref_instance, alloc({3, 4}, {1, 2}), pot, (Fraction(1), Fraction(0)))

    @pytest.mark.parametrize("bundles,message", [
        (({1, 2, 3, 4},), "1 bundles"),
        (({1, 2}, {3, 4}, set()), "3 bundles"),
        (({1, 2, 3}, {4}), "not balanced"),
    ], ids=["too-few-bundles", "too-many-bundles", "unequal-sizes"])
    def test_unbalanced_allocations_raise(self, ref_instance, bundles, message):
        pot = compute_potentials(ref_instance, alloc({3, 4}, {1, 2}), ONE)
        with pytest.raises(ValueError, match=message):
            verify_complementary_slackness(ref_instance, alloc(*bundles), pot, ONE)


def _fake_solve_lp(x, objective=Fraction(0)):
    """A solve_lp stand-in returning x (padded with zeros) as the optimum."""
    def fake(program):
        padded = tuple(x) + (Fraction(0),) * (len(program.c) - len(x))
        return SimplexResult(x=padded, objective=objective)
    return fake


class TestInvariantsRaise:
    """A wrong simplex answer raises InternalInvariantError, also under -O."""

    def test_fractional_primal_vertex(self, ref_instance, monkeypatch):
        monkeypatch.setattr(lp, "solve_lp", _fake_solve_lp([Fraction(1, 2)] * 8))
        with pytest.raises(InternalInvariantError, match="integral"):
            solve_primal(ref_instance, ONE)

    def test_infeasible_primal_vertex(self, ref_instance, monkeypatch):
        monkeypatch.setattr(lp, "solve_lp", _fake_solve_lp([Fraction(0)] * 8))
        with pytest.raises(InternalInvariantError, match="balanced"):
            solve_primal(ref_instance, ONE)

    @pytest.mark.parametrize("x", [[Fraction(0)] * 6, [Fraction(-1)] + [Fraction(22)] * 5])
    def test_infeasible_dual(self, ref_instance, monkeypatch, x):
        # zero prices miss every positive value; a negative q breaks q >= 0
        monkeypatch.setattr(lp, "solve_lp", _fake_solve_lp(x))
        with pytest.raises(InternalInvariantError, match="dual optimum"):
            solve_dual(ref_instance, ONE)

    def test_negative_surplus(self, ref_instance, monkeypatch):
        monkeypatch.setattr(lp, "solve_lp", _fake_solve_lp([], objective=Fraction(-1)))
        with pytest.raises(InternalInvariantError, match="surplus"):
            check_fpo(ref_instance, alloc({1, 3}, {2, 4}))

    def test_negative_surplus_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        code = (
            "from fractions import Fraction\n"
            "from fairbalance import lp\n"
            "from fairbalance.core import InternalInvariantError, make_allocation, make_instance\n"
            "lp.solve_lp = lambda program: lp.SimplexResult(\n"
            "    x=(Fraction(0),) * len(program.c), objective=Fraction(-1))\n"
            "inst = make_instance(2, 4, [[10, 10, 21, 22], [0, 1, 6, 8]])\n"
            "try:\n"
            "    lp.check_fpo(inst, make_allocation([{1, 3}, {2, 4}]))\n"
            "except InternalInvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('accepted')\n"
        )
        src = str(pathlib.Path(fairbalance.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
