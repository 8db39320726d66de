import random
from fractions import Fraction

import pytest

from fairbalance import Solution, check_fpo, is_ef1, solve, solve_two_types
from fairbalance.core import (
    MoreThanTwoTypes,
    NotBivalued,
    make_instance,
    round_robin_by_preference,
)
from fairbalance.lp import verify_complementary_slackness

BIVALUED = [[5, 2, 5, 2], [1, 0, 0, 1]]
TWO_TYPES = [[10, 10, 21, 22], [0, 1, 6, 8]]
SINGLE = [[4, 3, 2, 1]] * 2
GENERAL = [[1, 2, 3], [3, 1, 2], [2, 3, 1]]


def certified(inst, sol: Solution) -> bool:
    return verify_complementary_slackness(inst, sol.allocation, sol.potentials, sol.alpha)


@pytest.mark.parametrize("rows,gamma", [
    (BIVALUED, None),
    (TWO_TYPES, Fraction(3, 2)),
    (SINGLE, Fraction(1)),
])
def test_auto_returns_a_certified_solution(rows, gamma):
    inst = make_instance(len(rows), len(rows[0]), rows)
    sol = solve(inst)
    assert sol.gamma == gamma
    assert sol.allocation.is_balanced(inst)
    assert is_ef1(inst, sol.allocation).holds
    assert certified(inst, sol)
    assert check_fpo(inst, sol.allocation).is_fpo


def test_bivalued_alpha_is_the_certificate_weight():
    sol = solve(make_instance(2, 4, BIVALUED), "bivalued")
    assert sol.alpha == (Fraction(1, 3), Fraction(1))


def test_round_robin_is_uncertified_off_single_type():
    inst = make_instance(3, 3, GENERAL)
    sol = solve(inst, "round-robin")
    assert (sol.alpha, sol.gamma, sol.potentials) == (None, None, None)
    assert is_ef1(inst, sol.allocation).holds


def test_inapplicable_and_unknown_algorithms_raise():
    inst = make_instance(3, 3, GENERAL)
    with pytest.raises(MoreThanTwoTypes, match="no certified solver applies"):
        solve(inst)
    with pytest.raises(NotBivalued):
        solve(inst, "bivalued")
    with pytest.raises(MoreThanTwoTypes, match="3 distinct valuation rows"):
        solve(inst, "two-types")
    with pytest.raises(ValueError, match="unknown algorithm"):
        solve(inst, "simplex")


def test_round_robin_on_one_row_is_the_two_type_value_deal():
    # rational values with ties: every path must return the same certificate
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = n * rng.randint(1, 4)
        row = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(m)]
        inst = make_instance(n, m, [row] * n)
        sol = solve(inst, "round-robin")
        assert sol == solve(inst) == solve_two_types(inst)
        assert sol.allocation == round_robin_by_preference(inst)
        assert (sol.alpha, sol.gamma) == ((Fraction(1),) * n, Fraction(1))
        assert certified(inst, sol)
