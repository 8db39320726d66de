import dataclasses
import functools
import math
import random
from fractions import Fraction

import pytest

from fairbalance import core
from fairbalance.core import (
    Instance,
    TwoType,
    bundle_value,
    classify,
    make_instance,
    reduce_unconstrained,
    round_robin_by_preference,
    two_type_view,
)
from fairbalance.solver import solve
from fairbalance.verify import is_ef1

from conftest import (
    alloc,
    assignment_string,
    nash_product,
    permutation_enumerate,
    random_bivalued_instance,
    random_two_type_instance,
    strip_dummies,
    utilitarian_value,
)


class TestRationalArithmetic:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(500):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert (a + b) - b == a
            assert (a * b) / b == a if b != 0 else True

    def test_canonical_form(self):
        x = Fraction(22, 8)
        assert x.numerator == 11 and x.denominator == 4
        assert Fraction(-3, -6) == Fraction(1, 2)
        assert Fraction(4, -6).denominator > 0


class TestInstance:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_instance(2, 4, [[1, 2, 3, 4]])
        with pytest.raises(ValueError):
            make_instance(2, 4, [[1, 2, 3, 4], [1, 2, -1, 4]])

    def test_unbalanced_shape_delays_k(self):
        inst = make_instance(2, 3, [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            inst.k

    def test_indexing_is_one_based(self, ref_instance):
        assert bundle_value(ref_instance, 1, {4}) == 22
        assert bundle_value(ref_instance, 2, {1}) == 0
        with pytest.raises(IndexError):
            bundle_value(ref_instance, 0, {1})
        with pytest.raises(IndexError):
            bundle_value(ref_instance, 1, {5})


class TestScaledValues:
    """An instance stores ints over the least common denominator of its
    values; the Fraction matrix is built only when read."""

    def test_rows_are_values_times_least_common_denominator(self):
        inst = make_instance(2, 3, [[0, Fraction(1, 2), Fraction(2, 3)], [0, 0, 0]])
        assert (inst.scale, inst.rows) == (6, ((0, 3, 4), (0, 0, 0)))

    def test_integer_and_all_zero_values_keep_scale_one(self, ref_instance):
        assert (ref_instance.scale, ref_instance.rows) == (1, ((10, 10, 21, 22), (0, 1, 6, 8)))
        inst = make_instance(1, 2, [[0, 0]])
        assert (inst.scale, inst.rows) == (1, ((0, 0),))

    def test_randomized_rationals(self):
        rng = random.Random(17)
        for _ in range(50):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            values = [[Fraction(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(m)]
                      for _ in range(n)]
            inst = make_instance(n, m, values)
            scale, rows = inst.scale, inst.rows
            assert scale == math.lcm(*(v.denominator for row in values for v in row))
            assert type(scale) is int and type(rows) is tuple
            for row, scaled in zip(values, rows):
                assert type(scaled) is tuple and all(type(w) is int for w in scaled)
                assert [Fraction(w, scale) for w in scaled] == row
            assert inst.values == tuple(map(tuple, values))
            assert all(type(v) is Fraction for row in inst.values for v in row)

    def test_computed_once_per_instance(self, ref_instance, monkeypatch):
        calls = []
        lcm = math.lcm
        monkeypatch.setattr(core.math, "lcm", lambda *args: calls.append(args) or lcm(*args))
        body = Instance.values.func
        built = []
        spy = functools.cached_property(lambda inst: built.append(inst) or body(inst))
        spy.__set_name__(Instance, "values")
        monkeypatch.setattr(Instance, "values", spy)
        twin = make_instance(2, 4, [list(row) for row in ref_instance.rows])
        assert len(calls) == 1  # the scale, once, when the instance is made
        assert "values" not in twin.__dict__
        view = twin.values
        assert twin.values is view
        assert view == tuple(tuple(map(Fraction, row)) for row in ref_instance.rows)
        assert built == [twin] and len(calls) == 1
        # an equal instance builds its own matrix
        assert ref_instance.values == view and ref_instance.values is not view
        assert len(built) == 2

    def test_not_a_field(self, ref_instance):
        assert [f.name for f in dataclasses.fields(Instance)] == ["n", "m", "scale", "rows"]
        fresh = make_instance(2, 4, [list(row) for row in ref_instance.rows])
        before = (repr(fresh), hash(fresh))
        assert "values" not in fresh.__dict__
        ref_instance.values, ref_instance.types, ref_instance.value_pairs
        assert ref_instance == fresh
        assert (repr(ref_instance), hash(ref_instance)) == before
        for name in ("values", "types", "pairs", "Fraction"):
            assert name not in repr(ref_instance)

    def test_equal_matrices_give_equal_instances(self):
        halves = make_instance(1, 2, [[Fraction(1, 2), 1]])
        assert halves == Instance(1, 2, 2, ((1, 2),))
        assert hash(halves) == hash(Instance(1, 2, 2, ((1, 2),)))
        assert make_instance(1, 2, [[Fraction(4, 2), 6]]) == Instance(1, 2, 1, ((2, 6),))

    @pytest.mark.parametrize("scale, rows, error", [
        (2, ((2, 4),), ValueError),  # not the least common denominator
        (3, ((0, 0),), ValueError),  # all zero: the scale is 1
        (1, ((True, 1),), TypeError),
        (1, ((1.0, 1),), TypeError),
        (1, ((Fraction(1), 1),), TypeError),
        (1, ((1, -1),), ValueError),
        (True, ((1, 1),), TypeError),
        (0, ((1, 1),), ValueError),
        (1, ((1,),), ValueError),  # shape
    ], ids=["non-minimal-scale", "zero-rows-scale-3", "bool", "float", "fraction", "negative",
            "bool-scale", "zero-scale", "shape"])
    def test_rejects_bad_rows(self, scale, rows, error):
        with pytest.raises(error):
            Instance(1, 2, scale, rows)


class TestBundleValue:
    def test_reference_values(self, ref_instance):
        assert bundle_value(ref_instance, 1, {1, 3}) == 31
        assert bundle_value(ref_instance, 2, {2, 4}) == 9

    def test_empty_bundle(self, ref_instance):
        assert bundle_value(ref_instance, 1, set()) == 0

    def test_index_errors(self, ref_instance):
        with pytest.raises(IndexError):
            bundle_value(ref_instance, 3, {1})
        with pytest.raises(IndexError):
            bundle_value(ref_instance, 1, {9})


class TestClassify:
    def test_reference_is_two_type(self, ref_instance):
        assert classify(ref_instance) == "two-types"
        view = two_type_view(ref_instance)
        assert view.members1 == (1,) and view.members2 == (2,)

    def test_identical_rows(self):
        inst = make_instance(3, 3, [[1, 2, 3]] * 3)
        assert classify(inst) == "two-types"
        view = two_type_view(inst)
        assert view == TwoType(scale=1, row1=(1, 2, 3), row2=(), members1=(1, 2, 3), members2=())
        assert (view.u1, view.u2) == ((1, 2, 3), ())

    def test_bivalued_scan(self):
        inst = make_instance(3, 3, [[2, 1, 2], [0, 3, 3], [5, 5, 0]])
        assert classify(inst) == "bivalued"
        assert inst.value_pairs == ((2, 1), (3, 0), (5, 0))

    def test_constant_row_counts_as_bivalued(self):
        inst = make_instance(2, 2, [[4, 4], [1, 0]])
        assert classify(inst) == "bivalued"
        assert inst.value_pairs[0] == (5, 4)  # all goods low for the constant agent

    def test_value_pairs_are_ints_over_the_scale(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        inst = make_instance(3, 3, [[half, third, half], [0, Fraction(5, 3), 0], [Fraction(3, 2)] * 3])
        assert classify(inst) == "bivalued"
        assert inst.scale == 6 and inst.rows[0] == (3, 2, 3)
        # the constant row 3/2 is (5/2, 3/2): (9 + 6, 9) over the scale
        assert inst.value_pairs == ((3, 2), (10, 0), (15, 9))
        assert all(type(v) is int for pair in inst.value_pairs for v in pair)
        assert "values" not in inst.__dict__

    def test_bivalued_preferred_over_two_type(self):
        inst = make_instance(2, 2, [[2, 1], [3, 0]])
        assert classify(inst) == "bivalued"

    def test_general(self):
        inst = make_instance(3, 3, [[1, 2, 3], [3, 1, 2], [2, 3, 1]])
        assert classify(inst) == "general"

    def test_stable_under_agent_permutation(self):
        rng = random.Random(3)
        for _ in range(50):
            n, m = 3, 3
            rows = [[rng.randint(0, 4) for _ in range(m)] for _ in range(n)]
            inst = make_instance(n, m, rows)
            perm = rows[:]
            rng.shuffle(perm)
            assert classify(make_instance(n, m, perm)) == classify(inst)

    def test_names_a_solver_that_auto_runs(self):
        rng = random.Random(5)
        names = set()
        for _ in range(30):
            n, k = rng.randint(2, 3), rng.randint(1, 3)
            for inst in (random_bivalued_instance(rng, n, k), random_two_type_instance(rng, n, n * k)):
                name = classify(inst)
                names.add(name)
                assert name in ("bivalued", "two-types", "general")
                assert solve(inst) == solve(inst, name)
        assert names == {"bivalued", "two-types"}


def _reference_distinct_rows(inst):
    """Rows grouped by their Fraction entries, first appearance first."""
    members = {}
    for i, row in enumerate(inst.values, start=1):
        members.setdefault(row, []).append(i)
    return tuple((row, tuple(agents)) for row, agents in members.items())


def _reference_value_pairs(inst):
    """(a_i, b_i) from each row's Fraction values; a constant row is (v + 1, v)."""
    pairs = []
    for row in inst.values:
        vals = sorted(set(row))
        if len(vals) > 2:
            return None
        pairs.append((vals[1], vals[0]) if len(vals) == 2 else (vals[0] + 1, vals[0]))
    return tuple(pairs)


def _reference_classify(inst):
    rows = _reference_distinct_rows(inst)
    if len(rows) > 1 and _reference_value_pairs(inst) is not None:
        return "bivalued"
    return "two-types" if len(rows) <= 2 else "general"


def _reference_two_type_view(inst):
    """(u1, u2, members1, members2) from the Fraction rows."""
    rows = _reference_distinct_rows(inst)
    if len(rows) == 1:
        return rows[0][0], (), rows[0][1], ()
    (u1, members1), (u2, members2) = rows
    return u1, u2, members1, members2


def _scaled(row, scale):
    """A Fraction row times ``scale``, checked to be ints."""
    out = tuple(v * scale for v in row)
    assert all(v.denominator == 1 for v in out)
    return tuple(map(int, out))


class TestRowReading:
    """`Instance.types`, `Instance.value_pairs` and `two_type_view` read
    the int rows; the references above read the Fraction rows directly."""

    @staticmethod
    def _row(rng, kind, m):
        pool = [Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 6))) for _ in range(3)]
        if kind == "constant":
            return [pool[0]] * m
        if kind == "two":
            return [rng.choice(pool[:2]) for _ in range(m)]
        return [rng.choice(pool) for _ in range(m)]

    def test_matches_fraction_reference(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(600):
            m, distinct = rng.randint(1, 5), rng.randint(1, 3)
            base = [self._row(rng, rng.choice(("constant", "two", "any")), m) for _ in range(distinct)]
            rows = base + [rng.choice(base) for _ in range(rng.randint(0, 3))]
            rng.shuffle(rows)
            inst = make_instance(len(rows), m, rows)
            scale = inst.scale
            assert inst.types == tuple((_scaled(row, scale), members)
                                       for row, members in _reference_distinct_rows(inst))
            assert all(type(v) is int for row, _ in inst.types for v in row)
            pairs = _reference_value_pairs(inst)
            assert inst.value_pairs == (None if pairs is None else tuple(_scaled(p, scale) for p in pairs))
            name = classify(inst)
            assert name == _reference_classify(inst)
            if len(inst.types) <= 2:
                u1, u2, members1, members2 = _reference_two_type_view(inst)
                view = two_type_view(inst)
                assert view == TwoType(scale=scale, row1=_scaled(u1, scale), row2=_scaled(u2, scale),
                                       members1=members1, members2=members2)
                assert (view.u1, view.u2) == (u1, u2)
                assert all(type(v) is Fraction for v in view.u1 + view.u2)
            seen.add((name, len(inst.types)))
            seen |= {"rational" for row in rows for v in row if v.denominator > 1}
            seen |= {"constant" for row in rows if len(set(row)) == 1}
            seen |= {"repeated" for _, members in inst.types if len(members) > 1}
        assert seen >= {("two-types", 1), ("two-types", 2), ("bivalued", 2), ("bivalued", 3),
                        ("general", 3), "rational", "constant", "repeated"}

    def test_each_body_runs_once_per_solve(self, monkeypatch):
        calls = []
        for name in ("types", "value_pairs"):
            body = getattr(Instance, name).func
            spy = functools.cached_property(lambda inst, body=body, name=name: calls.append(name) or body(inst))
            spy.__set_name__(Instance, name)
            monkeypatch.setattr(Instance, name, spy)
        for rows in ([[2, 1, 2, 1], [3, 0, 0, 3]], [[10, 10, 21, 22], [0, 1, 6, 8]]):
            calls.clear()
            solve(make_instance(2, 4, rows))
            assert sorted(calls) == ["types", "value_pairs"]


class TestReduceUnconstrained:
    def test_two_agents_three_goods(self):
        inst = make_instance(2, 3, [[1, 2, 3], [4, 5, 6]])
        reduced, dummies = reduce_unconstrained(inst)
        assert reduced.m == 6 and reduced.k == 3
        assert dummies == frozenset({4, 5, 6})
        assert all(reduced.values[i - 1][j - 1] == 0 for i in reduced.agents() for j in dummies)

    def test_single_agent_unchanged(self):
        inst = make_instance(1, 3, [[1, 2, 3]])
        reduced, dummies = reduce_unconstrained(inst)
        assert reduced is inst and dummies == frozenset()

    def test_three_agents_two_goods(self):
        inst = make_instance(3, 2, [[1, 2], [3, 4], [5, 6]])
        reduced, dummies = reduce_unconstrained(inst)
        assert reduced.m == 6 and reduced.k == 2
        assert dummies == frozenset({3, 4, 5, 6})

    def test_strip_is_inverse(self):
        inst = make_instance(2, 3, [[1, 2, 3], [4, 5, 6]])
        reduced, dummies = reduce_unconstrained(inst)
        balanced = alloc({1, 4, 5}, {2, 3, 6})
        stripped = strip_dummies(balanced, dummies)
        assert stripped.bundles == (frozenset({1}), frozenset({2, 3}))
        # original goods keep their values in the reduced instance
        for i in inst.agents():
            for j in inst.goods():
                assert reduced.values[i - 1][j - 1] == inst.values[i - 1][j - 1]


class TestNashProduct:
    def test_reference_values(self, ref_instance):
        assert nash_product(ref_instance, alloc({1, 2}, {3, 4})) == 280
        assert nash_product(ref_instance, alloc({1, 3}, {2, 4})) == 279

    def test_zero_factor(self):
        inst = make_instance(2, 2, [[1, 1], [0, 5]])
        assert nash_product(inst, alloc({2}, {1})) == 0

    def test_maximum_over_enumeration(self, ref_instance):
        products = [nash_product(ref_instance, a) for a in permutation_enumerate(ref_instance)]
        assert max(products) == 280


class TestAllocation:
    def test_partition_validation(self, ref_instance):
        bad = alloc({1, 2}, {2, 3, 4})
        assert not bad.is_partition_of(4)
        assert alloc({1, 2}, {3, 4}).is_balanced(ref_instance)
        assert not alloc({1}, {2, 3, 4}).is_balanced(ref_instance)

    @pytest.mark.parametrize("bundles, balanced, message", [
        (({1, 2},), False, "allocation has 1 bundles, instance has 2 agents"),
        (({1, 2}, {2, 3, 4}), False, "bundles do not partition the goods"),
        (({1, 2}, {3}), True, "bundles do not partition the goods"),
        (({1}, {2, 3, 4}), True, "allocation is not balanced"),
    ], ids=["bundle-count", "overlap", "missing", "unbalanced"])
    def test_check_allocation_messages(self, ref_instance, bundles, balanced, message):
        with pytest.raises(ValueError) as info:
            core.check_allocation(ref_instance, alloc(*bundles), balanced=balanced)
        assert str(info.value) == message

    def test_balanced_check_scans_the_partition_once(self, ref_instance, monkeypatch):
        calls = []
        real = core.Allocation.is_partition_of
        monkeypatch.setattr(core.Allocation, "is_partition_of",
                            lambda self, m: calls.append(m) or real(self, m))
        core.check_allocation(ref_instance, alloc({1, 2}, {3, 4}), balanced=True)
        with pytest.raises(ValueError, match="not balanced"):
            core.check_allocation(ref_instance, alloc({1}, {2, 3, 4}), balanced=True)
        assert calls == [4, 4]

    def test_assignment_string(self):
        a = alloc({1, 3}, {2, 4})
        assert assignment_string(a) == (1, 2, 1, 2)


class TestRoundRobinByPreference:
    def test_balanced_and_ef1(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2, 3])
            inst = make_instance(n, m, [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)])
            a = round_robin_by_preference(inst)
            assert a.is_balanced(inst)
            assert is_ef1(inst, a).holds

    def test_every_reduced_allocation_projects_back(self):
        inst = make_instance(2, 3, [[1, 2, 3], [9, 1, 1]])
        reduced, dummies = reduce_unconstrained(inst)
        for balanced in permutation_enumerate(reduced):
            back = strip_dummies(balanced, dummies)
            covered = set()
            for b in back.bundles:
                assert not (b & covered)
                covered |= b
            assert covered == set(inst.goods())


def test_utilitarian_value(ref_instance):
    assert utilitarian_value(ref_instance, alloc({3, 4}, {1, 2})) == 44
    assert utilitarian_value(ref_instance, alloc({1, 3}, {2, 4}), (Fraction(1), Fraction(2))) == 49
