import random

import pytest

from fairbalance.bivalued import solve_bivalued
from fairbalance.core import TooLargeError, balanced_allocation_count, make_instance
from fairbalance.oracle import enumerate_balanced, full_report
from fairbalance.twotypes import solve_two_types

from conftest import (
    alloc,
    permutation_enumerate,
    random_bivalued_instance,
    random_two_type_instance,
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
        strings = [a.assignment_string() for a in enumerate_balanced(ref_instance)]
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


class TestFullReport:
    def test_reference_flag_sets(self, ref_instance):
        report = full_report(ref_instance)
        ef1 = {a.bundles for a in report.ef1_set()}
        fpo = {a.bundles for a in report.fpo_set()}
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
        both = report.ef1_and_fpo_set()
        assert len(both) == 1 and both[0].bundles == alloc({1, 3}, {2, 4}).bundles

    def test_reference_po_set(self, ref_instance):
        report = full_report(ref_instance)
        po = {a.bundles for a in report.po_set()}
        assert alloc({1, 4}, {2, 3}).bundles in po
        assert alloc({2, 4}, {1, 3}).bundles not in po
        assert {a.bundles for a in report.fpo_set()} <= po

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

    def test_solver_containment(self):
        rng = random.Random(6)
        for _ in range(8):
            inst = random_bivalued_instance(rng, 2, 2)
            report = full_report(inst)
            good = {a.bundles for a in report.ef1_and_fpo_set()}
            assert good, "bivalued instances always admit an EF1 and fPO allocation"
            out = solve_bivalued(inst).allocation
            assert out.bundles in good
        for _ in range(8):
            inst = random_two_type_instance(rng, rng.choice([2, 3]), 4 if rng.random() < 0.5 else 6)
            if inst.m % inst.n:
                continue
            report = full_report(inst)
            good = {a.bundles for a in report.ef1_and_fpo_set()}
            assert good, "two-type instances always admit an EF1 and fPO allocation"
            out = solve_two_types(inst).allocation
            assert out.bundles in good
