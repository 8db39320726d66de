import random
from fractions import Fraction

import pytest

from fairbalance import graph
from fairbalance.core import InternalInvariantError, TooLargeError, make_instance
from fairbalance.graph import compute_potentials
from fairbalance.lp import check_fpo
from fairbalance.oracle import is_po_bruteforce
from fairbalance.verify import certify_fpo, is_ef1, is_p_ef1

from conftest import (
    alloc,
    permutation_enumerate,
    random_alpha,
    random_instance,
    random_two_type_instance,
    solve_primal,
)

ONE = (Fraction(1), Fraction(1))


class TestIsEf1:
    def test_reference_holds(self, ref_instance):
        assert is_ef1(ref_instance, alloc({1, 3}, {2, 4})).holds

    def test_reference_fails_with_witness(self, ref_instance):
        v = is_ef1(ref_instance, alloc({1, 2}, {3, 4}))
        assert not v.holds
        w = v.witness
        assert (w["envier"], w["envied"]) == (1, 2)
        # re-check the witness against the definition: 20 < 43 - 22
        assert w["own_value"] == 20
        assert w["their_value_minus_best"] == 21
        assert w["own_value"] < w["their_value_minus_best"]

    def test_single_agent(self):
        inst = make_instance(1, 2, [[5, 7]])
        assert is_ef1(inst, alloc({1, 2})).holds

    def test_all_six_reference_verdicts(self, ref_instance):
        expected = {
            (1, 2): False,  # (20, 14)
            (1, 3): True,   # (31, 9)
            (1, 4): True,   # (32, 7)
            (2, 3): True,   # (31, 8)
            (2, 4): True,   # (32, 6)
            (3, 4): False,  # (43, 1)
        }
        for pair, verdict in expected.items():
            a = alloc(set(pair), {1, 2, 3, 4} - set(pair))
            assert is_ef1(ref_instance, a).holds is verdict


def reference_ef1(inst, a):
    """EF1 verdict and witness summed in Fractions, straight from the definition."""
    for i in inst.agents():
        own = sum((inst.values[i - 1][j - 1] for j in a.bundle(i)), Fraction(0))
        for other in inst.agents():
            their = [inst.values[i - 1][j - 1] for j in a.bundle(other)]
            if other == i or not their:
                continue
            rest = sum(their, Fraction(0)) - max(their)
            if own < rest:
                return False, {"envier": i, "envied": other, "own_value": own,
                               "their_value_minus_best": rest}
    return True, None


class TestIsEf1AgainstFractions:
    VALUES = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 4),
              Fraction(7, 3), Fraction(3), Fraction(22, 7)]

    def test_same_verdict_and_witness(self):
        rng = random.Random(4409)
        verdicts = {True: 0, False: 0}
        for trial in range(600):
            n = rng.randint(1, 4)
            balanced = trial % 2 == 0
            m = n * rng.randint(1, 3) if balanced else rng.randint(1, 8)
            palette = rng.sample(self.VALUES, rng.randint(2, 4))  # few values: many ties
            inst = make_instance(n, m, [[rng.choice(palette) for _ in range(m)] for _ in range(n)])
            owners = [i for i in range(n) for _ in range(m // n)] if balanced else \
                [rng.randrange(n) for _ in range(m)]  # unbalanced owners leave bundles empty
            rng.shuffle(owners)
            a = alloc(*[{j + 1 for j, o in enumerate(owners) if o == i} for i in range(n)])
            holds, witness = reference_ef1(inst, a)
            v = is_ef1(inst, a)
            assert (v.holds, v.witness) == (holds, witness)
            if witness is not None:
                assert type(v.witness["own_value"]) is Fraction
                assert type(v.witness["their_value_minus_best"]) is Fraction
            verdicts[holds] += 1
        assert min(verdicts.values()) >= 100


class TestIsPEf1:
    def test_uniform_prices_balanced(self):
        prices = [Fraction(2)] * 4
        assert is_p_ef1(prices, alloc({1, 2}, {3, 4})).holds

    def test_worked_example(self):
        prices = [Fraction(4), Fraction(3), Fraction(2), Fraction(1)]
        assert is_p_ef1(prices, alloc({1}, {2, 3, 4})).holds

    def test_singletons(self):
        prices = [Fraction(10), Fraction(1)]
        assert is_p_ef1(prices, alloc({2}, {1})).holds

    def test_fails_with_witness(self):
        prices = [Fraction(9), Fraction(9), Fraction(0), Fraction(0)]
        v = is_p_ef1(prices, alloc({3, 4}, {1, 2}))
        assert not v.holds
        assert v.witness["own_price"] == 0
        assert v.witness["their_price_drop_top"] == 9

    def test_rejects_empty_bundle(self):
        with pytest.raises(ValueError):
            is_p_ef1([Fraction(1), Fraction(1)], alloc({1, 2}, set()))


class TestIsPoBruteforce:
    def test_po_but_not_fpo_allocation(self, ref_instance):
        assert is_po_bruteforce(ref_instance, alloc({1, 4}, {2, 3})).holds

    def test_dominated_allocation(self, ref_instance):
        v = is_po_bruteforce(ref_instance, alloc({2, 4}, {1, 3}))
        assert not v.holds
        assert v.witness["values"] == (32, 6)
        assert v.witness["dominating_values"] == (32, 7)

    def test_single_agent_always_po(self):
        inst = make_instance(1, 3, [[1, 2, 3]])
        assert is_po_bruteforce(inst, alloc({1, 2, 3})).holds

    def test_guard(self, ref_instance):
        with pytest.raises(TooLargeError):
            is_po_bruteforce(ref_instance, alloc({1, 3}, {2, 4}), max_states=5)


class TestCertifyFpo:
    def test_never_certifiable_allocation(self, ref_instance):
        # PO-but-not-fPO: no positive weights can make it optimal, so every
        # attempted alpha exhibits a negative cycle
        target = alloc({1, 4}, {2, 3})
        assert not check_fpo(ref_instance, target).is_fpo
        grid = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                Fraction(12, 7), Fraction(7, 4), Fraction(11, 6), Fraction(2), Fraction(3)]
        for g in grid:
            v = certify_fpo(ref_instance, target, (Fraction(1), g))
            assert not v.holds
            assert v.witness["cycle_weight"] < 0

    def test_optimal_allocation_certified(self, ref_instance):
        assert certify_fpo(ref_instance, alloc({3, 4}, {1, 2}), ONE).holds

    @pytest.mark.parametrize("bundles, alpha, message", [
        (({1}, {2, 3, 4}), ONE, "allocation is not balanced"),
        (({1, 2}, {3, 4}), (Fraction(1), Fraction(0)), "alpha must be strictly positive"),
        (({1, 2}, {3, 4}), (Fraction(1),), "alpha length must equal the number of agents"),
        (({1, 2}, {3, 4}), (Fraction(1),) * 3, "alpha length must equal the number of agents"),
    ], ids=["unbalanced", "zero-alpha", "short-alpha", "long-alpha"])
    def test_rejects_bad_input(self, ref_instance, bundles, alpha, message):
        # the checks run before any certificate is sought, through compute_potentials
        with pytest.raises(ValueError) as info:
            certify_fpo(ref_instance, alloc(*bundles), alpha)
        assert str(info.value) == message

    def test_cycle_the_exchange_graph_lacks_raises(self, ref_instance, monkeypatch):
        # an agent-graph cycle on an optimal allocation is a broken invariant,
        # raised rather than reported as a witness with no cycle
        monkeypatch.setattr(graph, "_agent_potentials", lambda weights, bundles: None)
        with pytest.raises(InternalInvariantError, match="exchange graph lacks"):
            certify_fpo(ref_instance, alloc({3, 4}, {1, 2}), ONE)

    def test_implies_lp_check(self):
        rng = random.Random(59)
        for _ in range(15):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2])
            inst = random_instance(rng, n, m)
            alpha = random_alpha(rng, n)
            a, _ = solve_primal(inst, alpha)
            assert certify_fpo(inst, a, alpha).holds
            assert check_fpo(inst, a).is_fpo


class TestPriceEf1ImpliesEf1:
    def test_on_random_optimal_allocations(self):
        rng = random.Random(67)
        for _ in range(40):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2, 3])
            inst = random_two_type_instance(rng, n, m) if rng.random() < 0.5 else random_instance(rng, n, m)
            alpha = random_alpha(rng, n)
            a, _ = solve_primal(inst, alpha)
            pot = compute_potentials(inst, a, alpha)
            if is_p_ef1(pot.p, a).holds:
                assert is_ef1(inst, a).holds


class TestFpoImpliesPo:
    def test_containment_on_enumeration(self):
        rng = random.Random(83)
        for _ in range(8):
            inst = random_instance(rng, 2, 4, top=6)
            for a in permutation_enumerate(inst):
                if check_fpo(inst, a).is_fpo:
                    assert is_po_bruteforce(inst, a).holds
