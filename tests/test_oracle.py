import random
from fractions import Fraction
from math import prod

import pytest

from fairbalance import core, lp, oracle, verify
from fairbalance.bivalued import solve_bivalued
from fairbalance.core import TooLargeError, make_instance
from fairbalance.oracle import enumerate_balanced, full_report, pareto_dominates
from fairbalance.twotypes import solve_two_types

from conftest import (
    VALUES,
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


# --- PO from the non-dominated set, and the records' int values ----------------

PO_SHAPES = [(2, 2), (2, 4), (3, 3), (2, 6), (4, 4)]


def po_instances(seed):
    """Seeded instances from 2x2 to 4x4: int and p/q values, an all-zero
    row, and repeated rows, which give duplicate value vectors and ties."""
    rng = random.Random(seed)
    for index, (n, m) in enumerate(PO_SHAPES * 2):
        value = VALUES[("int", "ratio")[index // len(PO_SHAPES)]]
        rows = [[value(rng) for _ in range(m)] for _ in range(n)]
        if index % 3 == 0:
            rows[-1] = [0] * m
        if index % 3 == 1:
            rows[0] = rows[-1]
        yield make_instance(n, m, rows)


def pairwise_po(vectors):
    """The reference: a vector is PO when no vector of the enumeration
    Pareto-dominates it."""
    distinct = set(vectors)
    return [not any(pareto_dominates(other, vec) for other in distinct) for vec in vectors]


def int_vector(inst, allocation):
    return tuple(sum(inst.rows[i][j - 1] for j in b) for i, b in enumerate(allocation.bundles))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_non_dominated_set_is_the_pairwise_scan(seed):
    duplicates = ties = 0
    for inst in po_instances(seed):
        vectors = [int_vector(inst, a) for a in enumerate_balanced(inst)]
        kept = oracle._non_dominated(vectors)
        assert [vec in kept for vec in vectors] == pairwise_po(vectors)
        duplicates += len(vectors) - len(set(vectors))
        ties += len(vectors) - len({sum(v) for v in vectors})
    assert duplicates and ties


def test_non_dominated_set_on_tied_and_repeated_vectors():
    rng = random.Random(12)
    for _ in range(300):
        width = rng.randint(1, 4)
        vectors = [tuple(rng.randint(0, 2) for _ in range(width)) for _ in range(rng.randint(1, 12))]
        kept = oracle._non_dominated(vectors)
        assert [vec in kept for vec in vectors] == pairwise_po(vectors)
    assert oracle._non_dominated([(0, 0), (0, 0)]) == {(0, 0)}
    assert oracle._non_dominated([(1, 0), (0, 1), (1, 1), (0, 1)]) == {(1, 1)}


def test_report_po_flags_are_the_pairwise_scan():
    for inst in po_instances(4):
        if inst.n > 2:  # the fPO LPs of n >= 3 add nothing to this check
            continue
        records = full_report(inst).records
        assert [r.po for r in records] == pairwise_po([r.scaled_values for r in records])


def test_records_hold_ints_and_read_fractions():
    for inst in po_instances(5):
        if inst.n > 2:
            continue
        for r, allocation in zip(full_report(inst).records, enumerate_balanced(inst)):
            assert r.allocation == allocation and r.scale == inst.scale
            assert r.scaled_values == int_vector(inst, allocation)
            assert all(type(v) is int for v in r.scaled_values)
            assert all(type(v) is Fraction for v in r.values)
            assert r.values == tuple(Fraction(v, inst.scale) for v in r.scaled_values)
            assert type(r.nash) is Fraction and r.nash == prod(r.values)
            assert type(r.utilitarian) is Fraction and r.utilitarian == sum(r.values)


def test_report_builds_no_fraction(monkeypatch):
    # an EF1 witness may build Fractions (verify), so the instance is EF1
    # throughout: all-equal values
    def refuse(*args):
        raise AssertionError("built a Fraction")

    inst = make_instance(2, 4, [[Fraction(1, 2)] * 4, [3] * 4])
    with monkeypatch.context() as patched:
        for module in (core, oracle, lp):
            patched.setattr(module, "Fraction", refuse)
        records = full_report(inst).records
    assert all(r.ef1 and r.po and r.fpo for r in records)
    assert records[0].nash == Fraction(6)


def test_one_ef1_and_one_fpo_call_per_allocation(monkeypatch):
    calls = {"is_ef1": [], "fpo_holds": []}
    for module, name in ((verify, "is_ef1"), (lp, "fpo_holds")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda inst, a, _real=real, _name=name:
                            calls[_name].append(a.bundles) or _real(inst, a))
    for inst in (make_instance(2, 6, [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]]),
                 make_instance(3, 3, [[1, 2, 3], [3, 1, 2], [2, 3, 1]])):
        for name in calls:
            calls[name].clear()
        bundles = [r.allocation.bundles for r in full_report(inst).records]
        assert calls == {"is_ef1": bundles, "fpo_holds": bundles}


def test_two_type_view_is_built_once_per_instance():
    inst = make_instance(2, 4, [[1, 2, 3, 4], [4, 3, 2, 1]])
    assert core.two_type_view(inst) is core.two_type_view(inst)
