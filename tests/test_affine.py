"""Affine-invariance oracles: checks that need no enumeration.

Every balanced fractional allocation gives each agent total mass k, so
under a per-agent map v_i -> s_i * v_i + c_i with s_i > 0 (values kept
>= 0) agent i's utility becomes s_i * u_i + k * c_i on every allocation at
once.  Pareto comparisons and the alpha-weighted welfare (with weights
alpha_i / s_i) are then unchanged up to a constant, which gives four exact
oracles past brute-force sizes:

- ``check_fpo``'s verdict does not change;
- ``certify_fpo`` holds at alpha_i / s_i exactly when it holds at alpha;
- the bivalued solver reads only which goods are high, so its allocation
  does not move;
- a certificate maps exactly: alpha_i / s_i, q_i + alpha_i * c_i / s_i and
  the same p pass complementary slackness on the mapped instance.
"""

import random
from fractions import Fraction

from fairbalance import certify_fpo, check_fpo, make_allocation, make_instance, solve
from fairbalance.lp import verify_complementary_slackness

from conftest import (
    potentials_from_fractions,
    random_alpha,
    random_bivalued_instance,
    random_instance,
    random_two_type_instance,
)


def random_map(rng: random.Random, row) -> tuple:
    """(s, c) with s > 0 and s * v + c >= 0 on the row; c is often negative."""
    s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return s, max(c, -s * min(row))


def agent_maps(rng: random.Random, inst) -> list:
    return [random_map(rng, row) for row in inst.values]


def type_maps(rng: random.Random, inst) -> list:
    """One map per distinct row, so a two-type instance stays two-type."""
    by_row = {}
    return [by_row.setdefault(row, random_map(rng, row)) for row in inst.values]


def mapped(inst, maps):
    return make_instance(inst.n, inst.m,
                         [[s * v + c for v in row] for (s, c), row in zip(maps, inst.values)])


def random_allocation(rng: random.Random, inst):
    """A uniformly shuffled balanced allocation."""
    owners = [i for i in inst.agents() for _ in range(inst.k)]
    rng.shuffle(owners)
    return make_allocation({j for j, o in enumerate(owners, start=1) if o == i} for i in inst.agents())


SMALL_SHAPES = [(2, 4), (2, 6), (2, 8), (3, 6), (4, 4), (4, 8)]


def small_instance(rng: random.Random, family: str, n: int, m: int):
    if family == "general":
        return random_instance(rng, n, m)
    if family == "two-types":
        return random_two_type_instance(rng, n, m)
    return random_bivalued_instance(rng, n, m // n)


def test_check_fpo_verdict_is_invariant():
    rng = random.Random(101)
    verdicts = {True: 0, False: 0}
    for trial in range(36):
        n, m = SMALL_SHAPES[trial % len(SMALL_SHAPES)]
        family = ("general", "two-types", "bivalued")[trial % 3]
        inst = small_instance(rng, family, n, m)
        # the solver's allocations are fPO; shuffled ones mostly are not
        if family != "general" and rng.random() < 0.5:
            allocation = solve(inst, family).allocation
        else:
            allocation = random_allocation(rng, inst)
        verdict = check_fpo(inst, allocation).is_fpo
        assert check_fpo(mapped(inst, agent_maps(rng, inst)), allocation).is_fpo == verdict
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 8, verdicts


def test_certify_fpo_holds_at_scaled_alpha_exactly_when_at_alpha():
    rng = random.Random(103)
    verdicts = {True: 0, False: 0}
    for trial in range(300):
        n, m = SMALL_SHAPES[trial % len(SMALL_SHAPES)]
        family = ("two-types", "bivalued")[trial % 2]
        inst = small_instance(rng, family, n, m)
        sol = solve(inst, family)
        if rng.random() < 0.5:
            allocation, alpha = sol.allocation, sol.alpha
        else:
            allocation, alpha = random_allocation(rng, inst), random_alpha(rng, n)
        maps = agent_maps(rng, inst)
        scaled = tuple(a / s for a, (s, _) in zip(alpha, maps))
        holds = certify_fpo(inst, allocation, alpha).holds
        assert certify_fpo(mapped(inst, maps), allocation, scaled).holds == holds
        verdicts[holds] += 1
    assert min(verdicts.values()) >= 100, verdicts


def mapped_certificate(sol, maps) -> tuple:
    """(alpha_i / s_i, the potentials q_i + alpha_i * c_i / s_i and p)."""
    alpha = tuple(a / s for a, (s, _) in zip(sol.alpha, maps))
    q = tuple(q + a * c / s for q, a, (s, c) in zip(sol.potentials.q, sol.alpha, maps))
    return alpha, potentials_from_fractions(q, sol.potentials.p)


# bivalued shapes up to 8 x 64 (k = 8); two-type shapes up to 6 x 36
BIVALUED_SHAPES = [(2, 2), (2, 8), (3, 4), (4, 4), (5, 3), (6, 6), (8, 8)]
TWO_TYPE_SHAPES = [(2, 4), (2, 12), (3, 9), (4, 8), (5, 10), (6, 36)]


def test_bivalued_allocation_and_certificate_are_invariant():
    rng = random.Random(107)
    shifted = 0
    for trial in range(42):
        n, k = BIVALUED_SHAPES[trial % len(BIVALUED_SHAPES)]
        inst = random_bivalued_instance(rng, n, k)
        maps = agent_maps(rng, inst)
        image = mapped(inst, maps)
        sol = solve(inst, "bivalued")
        assert solve(image, "bivalued").allocation == sol.allocation
        alpha, pot = mapped_certificate(sol, maps)
        assert verify_complementary_slackness(image, sol.allocation, pot, alpha)
        shifted += any(c != 0 for _, c in maps)
    assert shifted >= 35


def test_two_type_certificate_maps_with_one_map_per_type():
    rng = random.Random(109)
    shifted = 0
    for trial in range(60):
        n, m = TWO_TYPE_SHAPES[trial % len(TWO_TYPE_SHAPES)]
        inst = random_two_type_instance(rng, n, m)
        maps = type_maps(rng, inst)
        image = mapped(inst, maps)
        assert len(image.types) == len(inst.types)
        sol = solve(inst, "two-types")
        alpha, pot = mapped_certificate(sol, maps)
        assert verify_complementary_slackness(image, sol.allocation, pot, alpha)
        shifted += any(c != 0 for _, c in maps)
    assert shifted >= 50
