import dataclasses
import random
from fractions import Fraction

import pytest

from fairbalance import bivalued, matching
from fairbalance.bivalued import bivalued_pairs, certificate_alpha, slot_rows, solve_bivalued
from fairbalance.core import InternalInvariantError, NotBivalued, make_instance
from fairbalance.lp import check_fpo
from fairbalance.matching import BipartiteWeights, max_weight_perfect_matching
from fairbalance.verify import certify_fpo, is_ef1

from conftest import (
    high_counts,
    make_weights,
    permutation_enumerate,
    random_bivalued_instance,
    slot_weight,
)


class TestSlotWeight:
    # K = n*k*(k+1): 12 for n = k = 2, 36 for n = 3, k = 3
    def test_high_good(self):
        assert slot_weight((2, 1), 1, 2, 12) == 13

    def test_low_good_worth_nothing(self):
        assert slot_weight((3, 0), 2, 0, 36) == 0

    def test_high_good_with_offset(self):
        # a and b drop out: only the slot index is added to K
        assert slot_weight((5, 2), 3, 5, 36) == 39
        assert slot_weight((Fraction(7, 2), Fraction(1, 3)), 3, Fraction(7, 2), 36) == 39

    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            slot_weight((5, 2), 1, 3, 36)
        with pytest.raises(ValueError):
            slot_weight((2, 2), 1, 2, 36)

    def test_epsilon_normalization(self):
        # the paper's epsilon is 1/K; the bonuses of all n*k slots sum to
        # K/2, so together they never outweigh one high good
        for n in (1, 2, 3, 5):
            for k in (1, 2, 3, 4):
                scale = n * k * (k + 1)
                bonuses = n * sum(slot_weight((2, 1), s, 2, scale) - scale for s in range(1, k + 1))
                assert 2 * bonuses == scale


def _paper_instance(rng: random.Random, n: int, k: int):
    """A bivalued instance mixing rational values, b = 0 and constant rows,
    with the set of row kinds it used."""
    m = n * k
    rows = []
    kinds = set()
    for _ in range(n):
        kind = rng.choice(["int", "rational", "zero-low", "constant"])
        kinds.add(kind)
        if kind == "rational":
            value = lambda: Fraction(rng.randint(0, 12), rng.randint(1, 5))
        else:
            value = lambda: Fraction(rng.randint(0, 9))
        if kind == "constant":
            rows.append([value()] * m)
            continue
        low = Fraction(0) if kind == "zero-low" else value()
        high = low + (value() or Fraction(1))
        rows.append([high if rng.random() < 0.5 else low for _ in range(m)])
    return make_instance(n, m, rows), kinds


class TestIntegerRuleReference:
    def test_matches_paper_rational_weights(self, monkeypatch):
        # the paper's weights: a/(a-b) + s*eps for a high good in slot s,
        # b/(a-b) for a low one, eps = 1/(n*k*(k+1)); one matching each
        passed = []
        monkeypatch.setattr(matching, "max_weight_perfect_matching",
                            lambda w: passed.append(w.weight) or max_weight_perfect_matching(w))
        rng = random.Random(2026)
        kinds = set()
        for t in range(240):
            n, k = 1 + t % 4, 1 + (t // 4) % 4  # every shape up to 4 x 4
            inst, used = _paper_instance(rng, n, k)
            kinds |= used
            # the pairs are ints over the instance's scale; the paper's rule reads values
            pairs = tuple((Fraction(a, inst.scale), Fraction(b, inst.scale)) for a, b in bivalued_pairs(inst))
            eps = Fraction(1, n * k * (k + 1))
            paper = []
            for i in inst.agents():
                a, b = pairs[i - 1]
                for s in range(1, k + 1):
                    paper.append([a / (a - b) + s * eps if inst.values[i - 1][j - 1] == a else b / (a - b)
                                  for j in inst.goods()])
            reference = max_weight_perfect_matching(make_weights(paper))
            bundles = [set() for _ in range(n)]
            for row0, good in enumerate(reference.assignment):
                bundles[row0 // k].add(good)
            passed.clear()
            assert [set(b) for b in solve_bivalued(inst).allocation.bundles] == bundles

            scale = n * k * (k + 1)
            ints = tuple(tuple(slot_weight(pairs[row0 // k], row0 % k + 1, inst.values[row0 // k][j - 1], scale)
                               for j in inst.goods()) for row0 in range(inst.m))
            # the solver's slot rows are slot_weight's, entry for entry
            assert passed == [ints] and slot_rows(inst) == ints
            integer = max_weight_perfect_matching(BipartiteWeights(size=inst.m, weight=ints))
            assert integer.assignment == reference.assignment
            assert type(integer.value) is int
            offset = sum(k * b / (a - b) for a, b in pairs)
            assert reference.value == offset + Fraction(integer.value, scale)
        assert kinds == {"int", "rational", "zero-low", "constant"}


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
        with pytest.raises(NotBivalued):
            certificate_alpha(inst)


# scale 6: pairs (1/2, 1/3), (5/3, 0) and the constant row 3/2 as (5/2, 3/2)
RATIONAL = [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)], [0, Fraction(5, 3), 0], [Fraction(3, 2)] * 3]


class TestIntPairs:
    """The pairs are ints over the instance's scale; alpha is the one
    Fraction the bivalued solver builds."""

    def test_certificate_alpha_over_the_scale(self):
        inst = make_instance(3, 3, RATIONAL)
        assert bivalued_pairs(inst) == ((3, 2), (10, 0), (15, 9))
        assert certificate_alpha(inst) == (6, Fraction(3, 5), 1)
        assert all(type(a) is Fraction for a in certificate_alpha(inst))

    def test_solve_builds_only_alpha(self, monkeypatch):
        built = []
        monkeypatch.setattr(bivalued, "Fraction", lambda *args: built.append(args) or Fraction(*args))
        inst = make_instance(3, 3, RATIONAL)
        sol = solve_bivalued(inst)
        assert built == [(6, 1), (6, 10), (6, 6)]
        assert sol.alpha == (6, Fraction(3, 5), 1)
        assert "values" not in inst.__dict__
        assert certify_fpo(inst, sol.allocation, sol.alpha).holds


class TestSolveBivalued:
    def test_two_by_two_tie(self):
        inst = make_instance(2, 2, [[2, 1], [3, 0]])
        sol = solve_bivalued(inst)
        alloc, alpha = sol.allocation, sol.alpha
        # both matchings tie (9/4 in the paper's weights, 5 in the integer
        # ones); the deterministic rule takes good 1 to agent 1
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
        counts1 = high_counts(inst, alloc, 1)
        counts2 = high_counts(inst, alloc, 2)
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
        # every slot can host a high good: the slot bonuses reach exactly K/2
        inst = make_instance(2, 4, [[9, 9, 0, 0], [0, 0, 9, 9]])
        alloc = solve_bivalued(inst).allocation
        assert alloc.bundles == (frozenset({1, 2}), frozenset({3, 4}))

    @pytest.mark.parametrize("shift", [-1, 7])
    def test_slot_bonus_drift_raises(self, monkeypatch, shift):
        # K = 2*2*3 = 12: the bonuses of a matching lie in [0, 6]; a value
        # 1 below the high goods' K*H or 7 above it cannot come from a matching
        inst = make_instance(2, 4, [[9, 9, 0, 0], [0, 0, 9, 9]])
        real = matching.max_weight_perfect_matching

        def off_by(weights):
            res = real(weights)
            return dataclasses.replace(res, value=12 * 4 + shift)

        monkeypatch.setattr(matching, "max_weight_perfect_matching", off_by)
        with pytest.raises(InternalInvariantError, match="drift"):
            solve_bivalued(inst)

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
            assert certify_fpo(inst, alloc, certificate_alpha(inst)).holds

    def test_tied_singletons(self):
        inst = make_instance(2, 2, [[3, 0], [3, 0]])
        for a in permutation_enumerate(inst):
            assert certify_fpo(inst, a, certificate_alpha(inst)).holds

    def test_agrees_with_lp_check(self):
        rng = random.Random(5)
        shapes = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (2, 4)]
        for _ in range(12):
            n, k = rng.choice(shapes)
            inst = random_bivalued_instance(rng, n, k)
            alpha = certificate_alpha(inst)
            for a in permutation_enumerate(inst):
                assert certify_fpo(inst, a, alpha).holds == check_fpo(inst, a).is_fpo


class TestSolverPropertySweep:
    def test_randomized_outputs(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.choice([2, 3])
            k = rng.choice([1, 2, 3])
            inst = random_bivalued_instance(rng, n, k)
            sol = solve_bivalued(inst)
            alloc, alpha = sol.allocation, sol.alpha
            assert alloc.is_balanced(inst)
            assert is_ef1(inst, alloc).holds
            assert alpha == certificate_alpha(inst)
            assert certify_fpo(inst, alloc, alpha).holds
            assert check_fpo(inst, alloc).is_fpo
            # high goods spread within one unit, from every agent's view
            for viewer in inst.agents():
                counts = high_counts(inst, alloc, viewer)
                own = counts[viewer - 1]
                assert all(own >= c - 1 for c in counts)
