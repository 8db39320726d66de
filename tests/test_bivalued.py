import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import fairbalance
from fairbalance.bivalued import (
    SlotWeighting,
    bivalued_pairs,
    check_bivalued_fpo,
    high_counts,
    slot_epsilon,
    slot_weight,
    solve_bivalued,
)
from fairbalance.core import InternalInvariantError, NotBivalued, make_instance
from fairbalance.lp import check_fpo
from fairbalance.verify import certify_fpo, is_ef1

from conftest import permutation_enumerate, random_bivalued_instance


class TestSlotWeight:
    def test_high_good(self):
        assert slot_weight((2, 1), 1, 2, Fraction(1, 4)) == Fraction(9, 4)

    def test_low_good_worth_nothing(self):
        assert slot_weight((3, 0), 2, 0, Fraction(1, 36)) == 0

    def test_high_good_with_offset(self):
        assert slot_weight((5, 2), 3, 5, Fraction(1, 36)) == Fraction(7, 4)

    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            slot_weight((5, 2), 1, 3, Fraction(1, 36))

    def test_epsilon_normalization(self):
        for n in (1, 2, 3, 5):
            for k in (1, 2, 3, 4):
                w = slot_epsilon(n, k)
                assert w.epsilon == Fraction(1, n * k * (k + 1))
                assert n * Fraction(k * (k + 1), 2) * w.epsilon == Fraction(1, 2)

    @pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(0), Fraction(-1, 12)])
    def test_rejects_wrong_epsilon(self, epsilon):
        with pytest.raises(InternalInvariantError):
            SlotWeighting(2, 2, epsilon)

    def test_rejects_wrong_epsilon_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        code = (
            "from fractions import Fraction\n"
            "from fairbalance.bivalued import SlotWeighting\n"
            "from fairbalance.core import InternalInvariantError\n"
            "try:\n"
            "    SlotWeighting(2, 2, Fraction(1))\n"
            "except InternalInvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('accepted')\n"
        )
        src = str(pathlib.Path(fairbalance.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestBivaluedPairs:
    def test_regular(self):
        inst = make_instance(2, 2, [[2, 1], [3, 0]])
        assert bivalued_pairs(inst) == ((2, 1), (3, 0))

    def test_single_type_constant(self):
        inst = make_instance(2, 2, [[4, 4], [4, 4]])
        assert bivalued_pairs(inst) == ((5, 4), (5, 4))

    def test_rejects_three_values(self):
        inst = make_instance(2, 4, [[1, 2, 3, 1], [0, 0, 0, 0]])
        with pytest.raises(NotBivalued):
            bivalued_pairs(inst)


class TestSolveBivalued:
    def test_two_by_two_tie(self):
        inst = make_instance(2, 2, [[2, 1], [3, 0]])
        sol = solve_bivalued(inst)
        alloc, alpha = sol.allocation, sol.alpha
        # both matchings tie at 9/4; the deterministic rule takes the
        # lexicographically smallest, good 1 to agent 1
        assert alloc.bundles == (frozenset({1}), frozenset({2}))
        assert alpha == (Fraction(1), Fraction(1, 3))
        for a in permutation_enumerate(inst):
            assert is_ef1(inst, a).holds and check_fpo(inst, a).is_fpo

    def test_identical_rows(self):
        inst = make_instance(3, 6, [[7, 7, 2, 2, 7, 2]] * 3)
        alloc = solve_bivalued(inst).allocation
        assert alloc.is_balanced(inst)
        assert is_ef1(inst, alloc).holds
        assert check_fpo(inst, alloc).is_fpo

    def test_split_high_goods_evenly(self):
        inst = make_instance(2, 4, [[5, 5, 2, 2], [5, 2, 5, 2]])
        sol = solve_bivalued(inst)
        alloc, alpha = sol.allocation, sol.alpha
        pairs = bivalued_pairs(inst)
        counts1 = high_counts(inst, alloc, 1, pairs)
        counts2 = high_counts(inst, alloc, 2, pairs)
        assert abs(counts1[0] - counts2[1]) <= 1  # own-view high counts
        assert is_ef1(inst, alloc).holds
        assert check_fpo(inst, alloc).is_fpo
        # oracle: the output must be in the enumerated EF1-and-fPO set
        good = [
            a.bundles
            for a in permutation_enumerate(inst)
            if is_ef1(inst, a).holds and check_fpo(inst, a).is_fpo
        ]
        assert alloc.bundles in good

    def test_boundary_perturbation_sum(self):
        # every slot can host a high good: the drift reaches exactly 1/2
        inst = make_instance(2, 4, [[9, 9, 0, 0], [0, 0, 9, 9]])
        alloc = solve_bivalued(inst).allocation
        assert alloc.bundles == (frozenset({1, 2}), frozenset({3, 4}))

    def test_rejects_wider_value_ranges(self):
        inst = make_instance(2, 4, [[1, 2, 3, 1], [0, 0, 0, 0]])
        with pytest.raises(NotBivalued):
            solve_bivalued(inst)


class TestCheckBivaluedFpo:
    def test_solver_output_passes(self):
        rng = random.Random(3)
        for _ in range(15):
            inst = random_bivalued_instance(rng, rng.choice([2, 3]), rng.choice([1, 2]))
            alloc = solve_bivalued(inst).allocation
            assert check_bivalued_fpo(inst, alloc)

    def test_tied_singletons(self):
        inst = make_instance(2, 2, [[3, 0], [3, 0]])
        for a in permutation_enumerate(inst):
            assert check_bivalued_fpo(inst, a)

    def test_agrees_with_lp_check(self):
        rng = random.Random(5)
        shapes = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (2, 4)]
        for _ in range(12):
            n, k = rng.choice(shapes)
            inst = random_bivalued_instance(rng, n, k)
            for a in permutation_enumerate(inst):
                assert check_bivalued_fpo(inst, a) == check_fpo(inst, a).is_fpo


class TestSolverPropertySweep:
    def test_randomized_outputs(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.choice([2, 3])
            k = rng.choice([1, 2, 3])
            inst = random_bivalued_instance(rng, n, k)
            sol = solve_bivalued(inst)
            alloc, alpha = sol.allocation, sol.alpha
            pairs = bivalued_pairs(inst)
            assert alloc.is_balanced(inst)
            assert is_ef1(inst, alloc).holds
            assert check_bivalued_fpo(inst, alloc)
            assert check_fpo(inst, alloc).is_fpo
            assert certify_fpo(inst, alloc, alpha).holds
            # high goods spread within one unit, from every agent's view
            for viewer in inst.agents():
                counts = high_counts(inst, alloc, viewer, pairs)
                own = counts[viewer - 1]
                assert all(own >= c - 1 for c in counts)
