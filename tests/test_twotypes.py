import dataclasses
import json
import pathlib
import random
from fractions import Fraction

import pytest

from fairbalance import core, twotypes
from fairbalance.core import (
    InternalInvariantError,
    MoreThanTwoTypes,
    make_instance,
    two_type_view,
)
from fairbalance.lp import check_fpo, verify_complementary_slackness
from fairbalance.twotypes import (
    AllValuesEqual,
    _PriceModel,
    _certify_deal,
    _deal,
    _interval_split,
    case1_sweep,
    case2_exchange,
    compute_delta,
    conditions_ab,
    critical_values,
    optimal_split,
    round_robin_by_price,
    solve_two_types,
)
from fairbalance.verify import is_ef1, price_drop_top

from conftest import potentials_from_fractions, random_two_type_instance, solve_primal

SWEEP_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "case1_sweep_golden.json").read_text(encoding="utf-8")
)
EXCHANGE_CASES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "exchange_path.json").read_text(encoding="utf-8")
)


def potentials_at(inst, view, dealt, gamma):
    """The potentials that certify a deal at weight ratio gamma."""
    return _certify_deal(inst, view, dealt, gamma).potentials


REF_U1 = [10, 10, 21, 22]
REF_U2 = [0, 1, 6, 8]
SEEDED_VALUES = [0, 0, 1, 2, 3, 7, Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(9, 4)]


def seeded_rows(rng):
    """Two value rows of one random length, with ties, zeros and fractions."""
    m = rng.randint(2, 10)
    return ([rng.choice(SEEDED_VALUES) for _ in range(m)],
            [rng.choice(SEEDED_VALUES) for _ in range(m)])


class TestComputeDelta:
    def test_reference_rows(self):
        assert compute_delta(REF_U1, REF_U2) == Fraction(1, 23)

    def test_identical_binary_rows(self):
        assert compute_delta([1, 0], [1, 0]) == Fraction(1, 2)

    def test_only_one_type_varies(self):
        assert compute_delta([4, 4], [7, 2]) == Fraction(5, 8)

    def test_all_equal_raises(self):
        with pytest.raises(AllValuesEqual):
            compute_delta([3, 3], [5, 5])

    def test_fraction_formula_on_seeded_rows(self):
        # the smallest same-type gap over one plus the largest value, in Fractions
        def reference_delta(u1, u2):
            gaps = [a - b for row in (u1, u2) for a in row for b in row if a > b]
            return min(gaps) / (1 + max(u1 + u2))

        rng = random.Random(6263)
        checked = 0
        for _ in range(300):
            u1, u2 = ([Fraction(v) for v in row] for row in seeded_rows(rng))
            if len(set(u1)) == len(set(u2)) == 1:
                with pytest.raises(AllValuesEqual):
                    compute_delta(u1, u2)
                continue
            delta = compute_delta(u1, u2)
            assert type(delta) is Fraction and delta == reference_delta(u1, u2)
            checked += 1
        assert checked >= 250


class TestCriticalValues:
    def test_reference_rows(self):
        grid = critical_values(REF_U1, REF_U2)
        assert grid.criticals == (
            Fraction(1, 2),
            Fraction(3, 2),
            Fraction(12, 7),
            Fraction(11, 6),
            Fraction(11, 5),
        )
        assert grid.delta == Fraction(1, 23)
        assert grid.interval_count == 6
        assert grid.endpoint(0) == Fraction(1, 23)
        assert grid.endpoint(6) == 23

    def test_opposed_preferences_give_empty_grid(self):
        grid = critical_values([1, 0], [0, 1])
        assert grid.criticals == ()
        assert grid.interval_count == 1

    def test_single_pair(self):
        assert critical_values([2, 1], [4, 2]).criticals == (Fraction(1, 2),)

    def test_all_inside_open_range(self):
        rng = random.Random(8)
        for _ in range(40):
            m = rng.choice([2, 4, 6])
            u1 = [rng.randint(0, 9) for _ in range(m)]
            u2 = [rng.randint(0, 9) for _ in range(m)]
            try:
                grid = critical_values(u1, u2)
            except AllValuesEqual:
                continue
            for g in grid.criticals:
                assert grid.delta < g < grid.upper


def reference_criticals(u1, u2, delta):
    """The grid's ratios by the pair formula, in Fractions."""
    ratios = {(a - ap) / (b - bp) for a, b in zip(u1, u2) for ap, bp in zip(u1, u2)
              if a > ap and b > bp}
    return tuple(sorted(r for r in ratios if delta < r < 1 / delta))


class TestCriticalValuesAgainstFractions:
    def test_pair_formula_on_seeded_rows(self):
        rng = random.Random(6271)
        nonempty = 0
        for _ in range(300):
            u1, u2 = seeded_rows(rng)
            try:
                grid = critical_values(u1, u2)
            except AllValuesEqual:
                continue
            assert grid.delta == compute_delta(u1, u2)
            assert grid.criticals == reference_criticals(
                [Fraction(v) for v in u1], [Fraction(v) for v in u2], grid.delta)
            assert all(type(g) is Fraction for g in grid.criticals)
            nonempty += bool(grid.criticals)
        assert nonempty >= 100

    def test_ratios_equal_to_delta_or_its_inverse_are_excluded(self, monkeypatch):
        # compute_delta keeps every ratio strictly inside, so pin delta to a ratio
        rng = random.Random(6277)
        hits = 0
        for _ in range(200):
            u1, u2 = seeded_rows(rng)
            try:
                full = critical_values(u1, u2).criticals
            except AllValuesEqual:
                continue
            if len(full) < 3:
                continue
            for delta in (full[0], 1 / full[-1], full[1], 1 / full[-2]):
                monkeypatch.setattr(twotypes, "compute_delta", lambda *rows, d=delta: d)
                got = critical_values(u1, u2).criticals
                assert got == reference_criticals(
                    [Fraction(v) for v in u1], [Fraction(v) for v in u2], delta)
                assert delta not in got and 1 / delta not in got
                hits += 1
            monkeypatch.undo()
        assert hits >= 100


class TestOptimalSplit:
    def test_reference_at_one(self):
        assert optimal_split(REF_U1, REF_U2, Fraction(1), 1, 2).s == frozenset({3, 4})

    def test_reference_at_two(self):
        assert optimal_split(REF_U1, REF_U2, Fraction(2), 1, 2).s == frozenset({1, 3})

    def test_zero_second_type_reduces_to_top_values(self):
        split = optimal_split([5, 3, 9, 1], [0, 0, 0, 0], Fraction(7), 1, 2)
        assert split.s == frozenset({1, 3})

    def test_split_attains_lp_optimum(self):
        rng = random.Random(12)
        for _ in range(15):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2])
            inst = random_two_type_instance(rng, n, m)
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            gamma = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            split = optimal_split(view.u1, view.u2, gamma, view.n1, inst.k)
            welfare = sum(view.u1[j - 1] for j in split.s) + gamma * sum(
                view.u2[j - 1] for j in split.t
            )
            alpha = tuple(
                Fraction(1) if i in view.members1 else gamma for i in inst.agents()
            )
            _, best = solve_primal(inst, alpha)
            assert welfare == best

    def test_matches_rational_scores(self):
        # the exact score order, ties by index, on rational rows with ties
        rng = random.Random(14)
        for _ in range(300):
            m = rng.randint(2, 12)
            u1 = [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(m)]
            u2 = [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(m)]
            gamma = Fraction(rng.randint(1, 30), rng.randint(1, 7))
            size = rng.randint(0, m)
            order = sorted(range(1, m + 1), key=lambda j: (-(u1[j - 1] - gamma * u2[j - 1]), j))
            split = optimal_split(u1, u2, gamma, 1, size)
            assert split.s == frozenset(order[:size])
            assert split.t == frozenset(order[size:])


class TestRoundRobinByPrice:
    def test_strict_descending(self):
        bundles = round_robin_by_price({1, 2, 3, 4}, [Fraction(4), Fraction(3), Fraction(2), Fraction(1)], 2, 2)
        assert bundles == (frozenset({1, 3}), frozenset({2, 4}))

    def test_index_tie_break(self):
        bundles = round_robin_by_price({7, 9}, [Fraction(0)] * 9, 2, 1)
        assert bundles == (frozenset({7}), frozenset({9}))

    def test_price_chain_example(self):
        prices = [Fraction(5), Fraction(5), Fraction(3), Fraction(1)]
        x1, x2 = round_robin_by_price({1, 2, 3, 4}, prices, 2, 2)
        assert x1 == frozenset({1, 3}) and x2 == frozenset({2, 4})
        p = lambda b: sum(prices[j - 1] for j in b)
        assert p(x1) == 8 >= p(x2) == 6 >= price_drop_top(prices, x1) == 3 >= price_drop_top(prices, x2) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            round_robin_by_price({1, 2, 3}, [Fraction(1)] * 3, 2, 2)

    def test_full_chain_randomized(self):
        rng = random.Random(77)
        for _ in range(300):
            agents = rng.randint(1, 4)
            k = rng.randint(1, 4)
            count = agents * k
            prices = [Fraction(rng.randint(0, 30), rng.randint(1, 3)) for _ in range(count)]
            bundles = round_robin_by_price(range(1, count + 1), prices, agents, k)
            sums = [sum(prices[j - 1] for j in b) for b in bundles]
            hats = [price_drop_top(prices, b) for b in bundles]
            chain = sums + hats
            assert all(a >= b for a, b in zip(chain, chain[1:]))


class TestConditions:
    def test_singletons_both_hold(self):
        inst = make_instance(2, 2, [[3, 1], [2, 5]])
        sol = solve_two_types(inst)
        alloc_out, gamma, pot = sol.allocation, sol.gamma, sol.potentials
        view = two_type_view(inst)
        grid = critical_values(view.u1, view.u2)
        for ell in range(1, grid.interval_count + 1):
            lo, hi = grid.interval(ell)
            mid = (lo + hi) / 2
            split = optimal_split(view.u1, view.u2, mid, view.n1, inst.k)
            dealt = _deal(inst, view, split)
            for g in (lo, hi):
                a_holds, b_holds = conditions_ab(view, dealt, potentials_at(inst, view, dealt, g).p)
                # with k = 1 the dropped-top price is always zero
                assert a_holds and b_holds

    def test_disjunction_across_grid(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            m = n * rng.choice([1, 2])
            if m > 8:
                continue
            inst = random_two_type_instance(rng, n, m)
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            for ell in range(1, grid.interval_count + 1):
                lo, hi = grid.interval(ell)
                split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
                dealt = _deal(inst, view, split)
                for g in (lo, hi):
                    pot = potentials_at(inst, view, dealt, g)
                    a_holds, b_holds = conditions_ab(view, dealt, pot.p)  # raises if both fail
                    assert a_holds or b_holds


class TestDealPlacement:
    """Literal bundles and verdicts on interleaved types: each type's
    bundles go to that type's members in ascending order, richest first."""

    A = [9, 1, 5, 0, 2, 2, 7, 3]
    B = [4, 4, 4, 0, 1, 7, 6, 2]

    def setup_method(self):
        self.inst = make_instance(4, 8, [self.B, self.A, self.B, self.A])  # types 1, 2, 1, 2
        self.view = two_type_view(self.inst)
        self.grid = critical_values(self.view.u1, self.view.u2)

    def dealt(self, ell):
        return _deal(self.inst, self.view, _interval_split(self.inst, self.view, self.grid, ell))

    def test_bundles_per_agent(self):
        assert (self.view.members1, self.view.members2) == ((1, 3), (2, 4))
        assert self.grid.interval_count == 12
        for ell, bundles in (
            (1, [[2, 6], [1, 5], [3, 7], [4, 8]]),
            (7, [[2, 6], [1, 8], [4, 7], [3, 5]]),
            (12, [[5, 6], [1, 3], [2, 4], [7, 8]]),
        ):
            assert [sorted(b) for b in self.dealt(ell).bundles] == bundles

    def test_conditions_at_the_grid_ends(self):
        for ell, gamma, verdict in (
            (1, self.grid.delta, (True, False)),
            (12, self.grid.upper, (False, True)),
        ):
            dealt = self.dealt(ell)
            pot = potentials_at(self.inst, self.view, dealt, gamma)
            assert conditions_ab(self.view, dealt, pot.p) == verdict


class TestPriceModel:
    def test_matches_bellman_ford(self):
        # closed-form potentials (two-edge and relay paths) against the
        # graph computation, across whole intervals
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            n = rng.choice([2, 3, 4])
            m = n * rng.choice([1, 2])
            inst = random_two_type_instance(rng, n, m)
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            ell = rng.randint(1, grid.interval_count)
            lo, hi = grid.interval(ell)
            split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
            model = _PriceModel(view, split)
            for frac in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
                gamma = lo + (hi - lo) * frac
                pot = potentials_at(inst, view, _deal(inst, view, split), gamma)
                q1, q2 = model.q_values(gamma)
                assert all(pot.q[i - 1] == q1 for i in view.members1)
                assert all(pot.q[i - 1] == q2 for i in view.members2)
                # owned goods are tight: a price is a value minus its type's q
                for j in split.s:
                    assert pot.p[j - 1] == view.u1[j - 1] - q1
                for j in split.t:
                    assert pot.p[j - 1] == gamma * view.u2[j - 1] - q2
            checked += 1


class TestSolveTwoTypes:
    def test_reference_instance(self, ref_instance):
        sol = solve_two_types(ref_instance)
        allocation, gamma, pot = sol.allocation, sol.gamma, sol.potentials
        assert allocation.bundles == (frozenset({1, 3}), frozenset({2, 4}))
        alpha = (Fraction(1), gamma)
        assert sol.alpha == alpha
        assert verify_complementary_slackness(ref_instance, allocation, pot, alpha)

    def test_single_type_round_robin(self):
        inst = make_instance(2, 4, [[4, 3, 2, 1]] * 2)
        sol = solve_two_types(inst)
        allocation, gamma, pot = sol.allocation, sol.gamma, sol.potentials
        assert allocation.bundles == (frozenset({1, 3}), frozenset({2, 4}))
        assert is_ef1(inst, allocation).holds
        assert check_fpo(inst, allocation).is_fpo

    def test_constant_rows_trivial(self):
        inst = make_instance(2, 2, [[3, 3], [5, 5]])
        sol = solve_two_types(inst)
        allocation, gamma, pot = sol.allocation, sol.gamma, sol.potentials
        assert is_ef1(inst, allocation).holds
        assert check_fpo(inst, allocation).is_fpo

    def test_rejects_three_types(self):
        inst = make_instance(3, 3, [[1, 2, 3], [3, 1, 2], [2, 3, 1]])
        with pytest.raises(MoreThanTwoTypes):
            solve_two_types(inst)

    def test_interleaved_membership(self):
        inst = make_instance(3, 6, [[9, 1, 5, 0, 2, 2], [4, 4, 4, 0, 1, 7], [9, 1, 5, 0, 2, 2]])
        sol = solve_two_types(inst)
        allocation, gamma, pot = sol.allocation, sol.gamma, sol.potentials
        assert is_ef1(inst, allocation).holds
        assert check_fpo(inst, allocation).is_fpo

    def test_randomized_against_oracle(self):
        rng = random.Random(2718)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            m = n * rng.choice([1, 2])
            if m > 8:
                continue
            inst = random_two_type_instance(rng, n, m)
            sol = solve_two_types(inst)
            allocation, gamma, pot = sol.allocation, sol.gamma, sol.potentials
            assert allocation.is_balanced(inst)
            assert is_ef1(inst, allocation).holds
            assert check_fpo(inst, allocation).is_fpo
            view = two_type_view(inst)
            alpha = tuple(Fraction(1) if i in view.members1 else gamma for i in inst.agents())
            assert verify_complementary_slackness(inst, allocation, pot, alpha)


class TestIntervalStructure:
    def test_interval_stability(self):
        # the split chosen at the midpoint stays optimal at both endpoints
        rng = random.Random(41)
        for _ in range(12):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2])
            inst = random_two_type_instance(rng, n, m)
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            for ell in range(1, grid.interval_count + 1):
                lo, hi = grid.interval(ell)
                split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
                for gamma in (lo, hi):
                    welfare = sum(view.u1[j - 1] for j in split.s) + gamma * sum(
                        view.u2[j - 1] for j in split.t
                    )
                    alpha = tuple(
                        Fraction(1) if i in view.members1 else gamma for i in inst.agents()
                    )
                    _, best = solve_primal(inst, alpha)
                    assert welfare == best

    def test_potentials_agree_at_shared_endpoints(self):
        rng = random.Random(53)
        checked = 0
        while checked < 10:
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2])
            inst = random_two_type_instance(rng, n, m)
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            if grid.interval_count < 2:
                continue
            for ell in range(1, grid.interval_count):
                shared = grid.endpoint(ell)
                lo1, hi1 = grid.interval(ell)
                lo2, hi2 = grid.interval(ell + 1)
                split_left = optimal_split(view.u1, view.u2, (lo1 + hi1) / 2, view.n1, inst.k)
                split_right = optimal_split(view.u1, view.u2, (lo2 + hi2) / 2, view.n1, inst.k)
                pot_left = potentials_at(inst, view, _deal(inst, view, split_left), shared)
                pot_right = potentials_at(inst, view, _deal(inst, view, split_right), shared)
                assert pot_left == pot_right
            checked += 1

    def test_deal_follows_values_at_both_ends(self):
        # tight owned goods: Bellman-Ford prices order each type's goods as
        # its values do, so dealing by price gives the value deal at either end
        rng = random.Random(59)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            inst = random_two_type_instance(rng, n, n * rng.choice([1, 2, 3]))
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            for ell in range(1, grid.interval_count + 1):
                lo, hi = grid.interval(ell)
                split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
                by_value = (
                    round_robin_by_price(split.s, view.u1, view.n1, inst.k),
                    round_robin_by_price(split.t, view.u2, view.n2, inst.k),
                )
                dealt = _deal(inst, view, split)
                assert tuple(tuple(dealt.bundle(i) for i in members)
                             for members in (view.members1, view.members2)) == by_value
                for gamma in (lo, hi):
                    pot = potentials_at(inst, view, dealt, gamma)
                    by_price = (
                        round_robin_by_price(split.s, pot.p, view.n1, inst.k),
                        round_robin_by_price(split.t, pot.p, view.n2, inst.k),
                    )
                    assert by_price == by_value

    def test_endpoint_conditions_when_not_ef1(self):
        # at the extreme gammas, a failed EF1 check forces the matching
        # one-sided condition
        rng = random.Random(61)
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            m = n * rng.choice([1, 2])
            if m > 8:
                continue
            inst = random_two_type_instance(rng, n, m)
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            for ell, gamma, which in (
                (1, grid.delta, 0),
                (grid.interval_count, grid.upper, 1),
            ):
                lo, hi = grid.interval(ell)
                split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
                dealt = _deal(inst, view, split)
                if not is_ef1(inst, dealt).holds:
                    assert conditions_ab(view, dealt, potentials_at(inst, view, dealt, gamma).p)[which]


def _grid_conditions(inst, view, grid):
    conds = {}
    for ell in range(1, grid.interval_count + 1):
        lo, hi = grid.interval(ell)
        split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
        dealt = _deal(inst, view, split)
        for g in (lo, hi):
            conds[(ell, g)] = conditions_ab(view, dealt, potentials_at(inst, view, dealt, g).p)
    return conds


class TestCaseDrivers:
    def test_case1_sweep_under_precondition(self):
        rng = random.Random(71)
        exercised = 0
        while exercised < 20:
            n = rng.choice([2, 3, 4])
            k = rng.choice([1, 2, 3])
            m = n * k
            if m > 8:
                continue
            inst = random_two_type_instance(rng, n, m)
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            conds = _grid_conditions(inst, view, grid)
            for ell in range(1, grid.interval_count + 1):
                lo, hi = grid.interval(ell)
                if conds[(ell, lo)][0] and conds[(ell, hi)][1]:
                    gamma, dealt, pot = case1_sweep(inst, grid, ell)
                    assert lo <= gamma <= hi
                    a_holds, b_holds = conditions_ab(view, dealt, pot.p)
                    assert a_holds and b_holds
                    assert is_ef1(inst, dealt).holds
                    assert check_fpo(inst, dealt).is_fpo
                    exercised += 1
                    break

    def test_case2_exchange_under_precondition(self):
        rng = random.Random(73)
        exercised = 0
        while exercised < 20:
            n = rng.choice([2, 3, 4])
            k = rng.choice([1, 2, 3])
            m = n * k
            if m > 8:
                continue
            inst = random_two_type_instance(rng, n, m)
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            conds = _grid_conditions(inst, view, grid)
            for ell in range(1, grid.interval_count):
                shared = grid.endpoint(ell)
                if conds[(ell, shared)][0] and conds[(ell + 1, shared)][1]:
                    left = _interval_split(inst, view, grid, ell)
                    right = _interval_split(inst, view, grid, ell + 1)
                    cert = _certify_deal(inst, view, _deal(inst, view, left), shared)
                    allocation = case2_exchange(inst, view, left, right, cert).allocation
                    assert is_ef1(inst, allocation).holds
                    assert check_fpo(inst, allocation).is_fpo
                    exercised += 1
                    break

    def test_case1_sweep_golden(self):
        # gamma* and the bundles, frozen from the earlier sweep that followed
        # every good's price through gamma and dealt by price
        for case in SWEEP_GOLDEN:
            spec = case["instance"]
            inst = make_instance(spec["n"], spec["m"], [[Fraction(v) for v in row] for row in spec["valuations"]])
            view = two_type_view(inst)
            gamma, dealt, _ = case1_sweep(inst, critical_values(view.u1, view.u2), case["ell"])
            assert gamma == Fraction(case["gamma"])
            assert [sorted(dealt.bundle(i)) for i in view.members1] == case["x_bundles"]
            assert [sorted(dealt.bundle(i)) for i in view.members2] == case["y_bundles"]

    def test_case1_precondition_means_scan_succeeds(self, monkeypatch):
        # (a) at an interval's lower end and (b) at its upper end make its
        # value deal EF1, so solve_two_types, which tries every split's deal
        # first, never needs a sweep
        def unreachable(*args):
            raise AssertionError("solve_two_types left the scan")

        monkeypatch.setattr(twotypes, "case1_sweep", unreachable)
        monkeypatch.setattr(twotypes, "case2_exchange", unreachable)
        rng = random.Random(79)
        exercised = 0
        for _ in range(300):
            n = rng.choice([2, 3, 4])
            inst = random_two_type_instance(rng, n, n * rng.choice([1, 2, 3]), top=3)
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            conds = _grid_conditions(inst, view, grid)
            hits = 0
            for ell in range(1, grid.interval_count + 1):
                lo, hi = grid.interval(ell)
                if conds[(ell, lo)][0] and conds[(ell, hi)][1]:
                    split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
                    assert is_ef1(inst, _deal(inst, view, split)).holds
                    hits += 1
            if hits:
                sol = solve_two_types(inst)
                assert is_ef1(inst, sol.allocation).holds
                exercised += 1
        assert exercised >= 100


    def test_equal_splits_at_a_shared_end_mean_scan_succeeds(self):
        # at an end inside a run of equal splits, (a) on the left and (b) on
        # the right hold for one deal at one set of potentials; that deal is
        # EF1, so the exchange fallback only needs the ends between runs
        rng = random.Random(83)
        exercised = 0
        for _ in range(300):
            n = rng.choice([2, 3, 4])
            inst = random_two_type_instance(rng, n, n * rng.choice([1, 2, 3]), top=rng.choice([3, 9]))
            view = two_type_view(inst)
            if view.n2 == 0:
                continue
            try:
                grid = critical_values(view.u1, view.u2)
            except AllValuesEqual:
                continue
            splits = [_interval_split(inst, view, grid, ell) for ell in range(1, grid.interval_count + 1)]
            for ell in range(1, grid.interval_count):
                if splits[ell - 1] != splits[ell]:
                    continue
                dealt = _deal(inst, view, splits[ell])
                pot = potentials_at(inst, view, dealt, grid.endpoint(ell))
                if all(conditions_ab(view, dealt, pot.p)):
                    assert is_ef1(inst, dealt).holds
                    exercised += 1
        assert exercised >= 200

    @pytest.mark.parametrize("case", EXCHANGE_CASES, ids=lambda c: f"trial{c['trial']}")
    def test_fallback_visits_only_split_changes(self, case, monkeypatch):
        # the exchange fallback runs Bellman-Ford at most once per boundary
        # between runs of equal splits, never at an end inside a run
        spec = case["instance"]
        inst = make_instance(spec["n"], spec["m"], spec["valuations"])
        view = two_type_view(inst)
        grid = critical_values(view.u1, view.u2)
        splits = {_interval_split(inst, view, grid, ell) for ell in range(1, grid.interval_count + 1)}
        calls = []
        real = twotypes._certify_deal
        monkeypatch.setattr(twotypes, "_certify_deal", lambda *args: calls.append(args) or real(*args))
        solve_two_types(inst)
        assert 1 <= len(calls) <= len(splits) - 1

    @pytest.mark.parametrize("rows", [
        EXCHANGE_CASES[0]["instance"]["valuations"],
        [[10, 10, 21, 22], [0, 1, 6, 8]],
        [[3, 1, 2, 5]] * 2,
    ], ids=["exchange", "scan", "one-type"])
    def test_each_certificate_builds_alpha_once(self, rows, monkeypatch):
        # every path certifies through _certify_deal, and only it builds alpha
        alphas, certified = [], []
        real_alpha, real_certify = core.TwoType.weights, twotypes._certify_deal
        monkeypatch.setattr(core.TwoType, "weights", lambda *args: alphas.append(args) or real_alpha(*args))
        monkeypatch.setattr(twotypes, "_certify_deal", lambda *args: certified.append(args) or real_certify(*args))
        sol = solve_two_types(make_instance(len(rows), len(rows[0]), rows))
        assert len(alphas) == len(certified) >= 1
        assert certified[-1][3] == sol.gamma


class TestExchangeTightness:
    """case2_exchange re-checks every step with the slackness check of
    `lp`; unusable potentials are an internal invariant failure."""

    EXCHANGE = json.loads(
        (pathlib.Path(__file__).parent / "fixtures" / "exchange_path.json").read_text(encoding="utf-8")
    )[0]["instance"]

    def exchange_args(self, monkeypatch):
        inst = make_instance(self.EXCHANGE["n"], self.EXCHANGE["m"], self.EXCHANGE["valuations"])
        seen = []
        real = twotypes.case2_exchange
        monkeypatch.setattr(twotypes, "case2_exchange", lambda *args: seen.append(args) or real(*args))
        solve_two_types(inst)
        (args,) = seen
        return args

    def test_untouched_potentials_pass(self, monkeypatch):
        *walk, cert = self.exchange_args(monkeypatch)
        sol = case2_exchange(*walk, cert)
        assert is_ef1(walk[0], sol.allocation).holds
        assert (sol.alpha, sol.gamma, sol.potentials) == (cert.alpha, cert.gamma, cert.potentials)

    def test_potentials_not_tight_raise(self, monkeypatch):
        # raising every q keeps the duals feasible but no owned pair tight
        *walk, cert = self.exchange_args(monkeypatch)
        pot = cert.potentials
        loose = potentials_from_fractions([q + 1 for q in pot.q], pot.p)
        with pytest.raises(InternalInvariantError, match="lost dual feasibility or tightness"):
            case2_exchange(*walk, dataclasses.replace(cert, potentials=loose))

    def test_infeasible_potentials_raise(self, monkeypatch):
        *walk, cert = self.exchange_args(monkeypatch)
        pot = cert.potentials
        cheap = potentials_from_fractions(pot.q, [p - 1 for p in pot.p])
        with pytest.raises(InternalInvariantError, match="lost dual feasibility or tightness"):
            case2_exchange(*walk, dataclasses.replace(cert, potentials=cheap))
