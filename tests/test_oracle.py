import random
from fractions import Fraction

import pytest

from fairbalance.bivalued import solve_bivalued
from fairbalance.core import TooLargeError, make_instance
from fairbalance.oracle import enumerate_balanced, full_report
from fairbalance.twotypes import solve_two_types

from conftest import (
    alloc,
    assignment_string,
    balanced_allocation_count,
    nash_product,
    permutation_enumerate,
    random_bivalued_instance,
    random_two_type_instance,
    utilitarian_value,
)


class TestEnumerateBalanced:
    def test_reference_count(self, ref_instance):
        allocations = list(enumerate_balanced(ref_instance))
        assert len(allocations) == 6 == balanced_allocation_count(ref_instance)

    def test_single_agent(self):
        inst = make_instance(1, 3, [[1, 2, 3]])
        assert list(enumerate_balanced(inst)) == [alloc({1, 2, 3})]

    def test_two_singletons(self):
        inst = make_instance(2, 2, [[1, 0], [0, 1]])
        assert len(list(enumerate_balanced(inst))) == 2

    def test_lexicographic_order(self, ref_instance):
        strings = [assignment_string(a) for a in enumerate_balanced(ref_instance)]
        assert strings == sorted(strings)
        assert strings[0] == (1, 1, 2, 2)

    def test_matches_independent_enumeration(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2])
            inst = make_instance(n, m, [[rng.randint(0, 5) for _ in range(m)] for _ in range(n)])
            ours = {a.bundles for a in enumerate_balanced(inst)}
            theirs = {a.bundles for a in permutation_enumerate(inst)}
            assert ours == theirs
            assert len(ours) == balanced_allocation_count(inst)

    def test_guard(self, ref_instance):
        with pytest.raises(TooLargeError):
            list(enumerate_balanced(ref_instance, max_states=3))

    def test_guard_trips_exactly_past_the_count(self):
        for n, k in [(1, 5), (2, 3), (3, 2), (4, 3), (5, 1)]:
            inst = make_instance(n, n * k, [[1] * (n * k)] * n)
            total = balanced_allocation_count(inst)
            enumerate_balanced(inst, max_states=total)
            with pytest.raises(TooLargeError, match=f"^more than {total - 1} balanced allocations$"):
                enumerate_balanced(inst, max_states=total - 1)

    def test_guard_never_formats_the_count(self):
        # C(16000, 8000) has more digits than Python's int-to-str limit
        inst = make_instance(2, 16000, [[1] * 16000] * 2)
        with pytest.raises(TooLargeError, match="^more than 1000000 balanced allocations$"):
            enumerate_balanced(inst)

    def test_many_goods_for_one_agent(self):
        inst = make_instance(1, 1100, [[1] * 1100])
        assert list(enumerate_balanced(inst)) == [alloc(range(1, 1101))]


class TestFullReport:
    def test_reference_flag_sets(self, ref_instance):
        report = full_report(ref_instance)
        ef1 = {r.allocation.bundles for r in report.records if r.ef1}
        fpo = {r.allocation.bundles for r in report.records if r.fpo}
        assert ef1 == {
            alloc({2, 4}, {1, 3}).bundles,
            alloc({2, 3}, {1, 4}).bundles,
            alloc({1, 4}, {2, 3}).bundles,
            alloc({1, 3}, {2, 4}).bundles,
        }
        assert fpo == {
            alloc({3, 4}, {1, 2}).bundles,
            alloc({1, 3}, {2, 4}).bundles,
            alloc({1, 2}, {3, 4}).bundles,
        }
        both = [r.allocation for r in report.records if r.ef1 and r.fpo]
        assert len(both) == 1 and both[0].bundles == alloc({1, 3}, {2, 4}).bundles

    def test_reference_po_set(self, ref_instance):
        report = full_report(ref_instance)
        po = {r.allocation.bundles for r in report.records if r.po}
        assert alloc({1, 4}, {2, 3}).bundles in po
        assert alloc({2, 4}, {1, 3}).bundles not in po
        assert {r.allocation.bundles for r in report.records if r.fpo} <= po

    def test_all_zero_values(self):
        inst = make_instance(2, 2, [[0, 0], [0, 0]])
        report = full_report(inst)
        assert all(r.ef1 and r.po and r.fpo for r in report.records)

    def test_nash_and_utilitarian_columns(self, ref_instance):
        report = full_report(ref_instance)
        by_bundles = {r.allocation.bundles: r for r in report.records}
        r = by_bundles[alloc({1, 2}, {3, 4}).bundles]
        assert r.nash == 280 and r.values == (20, 14)
        assert max(rec.nash for rec in report.records) == 280
        assert max(rec.utilitarian for rec in report.records) == 44

    def test_nash_and_utilitarian_match_the_core_functions(self):
        # the report reads both off each value vector; nash_product and the
        # test reference utilitarian_value, which read every bundle again,
        # are the references
        rng = random.Random(8)
        for _ in range(12):
            n, m = rng.choice([(2, 2), (2, 4), (3, 3)])
            inst = make_instance(n, m, [[Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(m)]
                                        for _ in range(n)])
            for r in full_report(inst).records:
                assert type(r.nash) is Fraction and r.nash == nash_product(inst, r.allocation)
                assert type(r.utilitarian) is Fraction and r.utilitarian == utilitarian_value(inst, r.allocation)

    def test_solver_containment(self):
        rng = random.Random(6)
        for _ in range(8):
            inst = random_bivalued_instance(rng, 2, 2)
            report = full_report(inst)
            good = {r.allocation.bundles for r in report.records if r.ef1 and r.fpo}
            assert good, "bivalued instances always admit an EF1 and fPO allocation"
            out = solve_bivalued(inst).allocation
            assert out.bundles in good
        for _ in range(8):
            inst = random_two_type_instance(rng, rng.choice([2, 3]), 4 if rng.random() < 0.5 else 6)
            if inst.m % inst.n:
                continue
            report = full_report(inst)
            good = {r.allocation.bundles for r in report.records if r.ef1 and r.fpo}
            assert good, "two-type instances always admit an EF1 and fPO allocation"
            out = solve_two_types(inst).allocation
            assert out.bundles in good
