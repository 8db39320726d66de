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
    utilitarian_value,
)
from fairbalance.graph import Potentials, compute_potentials
from fairbalance.lp import (
    LinearProgram,
    SimplexResult,
    check_fpo,
    solve_dual,
    solve_lp,
    solve_primal,
    verify_complementary_slackness,
)

from conftest import alloc, brute_max_welfare, permutation_enumerate, random_alpha, random_instance

ONE = (Fraction(1), Fraction(1))


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
        assert pot.objective(inst.k) == 0

    def test_single_agent(self):
        inst = make_instance(1, 2, [[3, 7]])
        pot = solve_dual(inst, (Fraction(1),))
        assert pot.objective(inst.k) == 10
        assert pot.is_feasible(inst, (Fraction(1),)) and pot.is_nonnegative()

    def test_reference_matches_potentials(self, ref_instance):
        pot = solve_dual(ref_instance, ONE)
        assert pot.objective(ref_instance.k) == 44
        via_graph = compute_potentials(ref_instance, alloc({3, 4}, {1, 2}), ONE)
        assert via_graph.objective(ref_instance.k) == pot.objective(ref_instance.k)

    def test_strong_duality_randomized(self):
        rng = random.Random(43)
        for _ in range(20):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2])
            inst = random_instance(rng, n, m)
            alpha = random_alpha(rng, n)
            _, primal_value = solve_primal(inst, alpha)
            pot = solve_dual(inst, alpha)
            assert pot.objective(inst.k) == primal_value


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
        pot = Potentials(q=(Fraction(0), Fraction(0)), p=(Fraction(0), Fraction(0)))
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
        raised = Potentials(q=pot.q, p=tuple(p))
        assert raised.is_feasible(ref_instance, ONE)
        assert not verify_complementary_slackness(ref_instance, a, raised, ONE)

    def test_infeasible_inputs_raise(self, ref_instance):
        pot = compute_potentials(ref_instance, alloc({3, 4}, {1, 2}), ONE)
        with pytest.raises(ValueError, match="partition"):
            verify_complementary_slackness(ref_instance, alloc({1, 2}, {2, 3}), pot, ONE)
        bad_pot = Potentials(q=(Fraction(0), Fraction(0)), p=(Fraction(0),) * 4)
        with pytest.raises(ValueError, match="dual feasible"):
            verify_complementary_slackness(ref_instance, alloc({3, 4}, {1, 2}), bad_pot, ONE)
        with pytest.raises(ValueError, match="positive"):
            verify_complementary_slackness(ref_instance, alloc({3, 4}, {1, 2}), pot, (Fraction(1), Fraction(0)))

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
