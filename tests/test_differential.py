"""Differential tests past brute-force sizes: certificates instead of oracles.

Enumerating balanced allocations stops being possible around m = 12.  Past
that, every solver result still carries its own proof: alpha > 0, dual
feasible potentials that are tight on every owned pair (complementary
slackness), and an exchange graph without a negative cycle.  Each seeded
instance below, with n from 2 to 8 and m up to 128, rational values and many
ties, is checked against that proof, against EF1 and against balance.
"""

import json
import random
from fractions import Fraction

import pytest

from fairbalance import certify_fpo, is_ef1, solve
from fairbalance.cli import main, rational_from_json
from fairbalance.core import make_allocation, make_instance
from fairbalance.lp import verify_complementary_slackness

from conftest import potentials_from_fractions

# (n, m) shapes, each with three seeds; the 8 x 128 ones dominate the run time
SHAPES = [(2, 128), (3, 96), (4, 64), (5, 40), (6, 48), (7, 56), (8, 128)]
SEEDS = range(3)


def small_rational(rng: random.Random) -> Fraction:
    """One of 14 distinct values in [0, 6], so rows repeat values often."""
    return Fraction(rng.randint(0, 6), rng.choice([1, 2, 3]))


def bivalued_rows(rng: random.Random, n: int, m: int) -> list:
    rows = []
    for _ in range(n):
        low = high = small_rational(rng)
        while high == low:
            high = small_rational(rng)
        low, high = min(low, high), max(low, high)
        rows.append([high if rng.random() < 0.5 else low for _ in range(m)])
    return rows


def two_type_rows(rng: random.Random, n: int, m: int) -> list:
    u1 = [small_rational(rng) for _ in range(m)]
    u2 = list(u1)
    while u2 == u1:
        u2 = [small_rational(rng) for _ in range(m)]
    n1 = rng.randint(1, n - 1)
    types = [1] * n1 + [2] * (n - n1)
    rng.shuffle(types)
    return [u1 if t == 1 else u2 for t in types]


GENERATORS = {"bivalued": bivalued_rows, "two-types": two_type_rows}
CASES = [(algorithm, n, m, seed) for algorithm in GENERATORS for n, m in SHAPES for seed in SEEDS]


def instance_of(algorithm: str, n: int, m: int, seed: int):
    rng = random.Random(f"{algorithm}-{n}x{m}-{seed}")
    return make_instance(n, m, GENERATORS[algorithm](rng, n, m))


def assert_certified(inst, allocation, alpha, potentials):
    assert allocation.is_balanced(inst)
    assert is_ef1(inst, allocation).holds
    assert len(alpha) == inst.n and all(a > 0 for a in alpha)
    assert verify_complementary_slackness(inst, allocation, potentials, alpha)
    assert certify_fpo(inst, allocation, alpha).holds


@pytest.mark.parametrize("algorithm,n,m,seed", CASES,
                         ids=[f"{a}-{n}x{m}-seed{s}" for a, n, m, s in CASES])
def test_solve_is_certified(algorithm, n, m, seed):
    inst = instance_of(algorithm, n, m, seed)
    assert len({v for row in inst.values for v in row}) < m  # ties
    assert any(v.denominator > 1 for row in inst.values for v in row)
    sol = solve(inst, algorithm)
    assert_certified(inst, sol.allocation, sol.alpha, sol.potentials)


@pytest.mark.parametrize("algorithm,n,m", [("bivalued", 4, 64), ("two-types", 5, 40), ("two-types", 8, 128)])
def test_cli_solve_is_certified(algorithm, n, m, tmp_path, capsys):
    inst = instance_of(algorithm, n, m, 0)
    path = tmp_path / "inst.json"
    rows = [[f"{v.numerator}/{v.denominator}" for v in row] for row in inst.values]
    path.write_text(json.dumps({"n": n, "m": m, "valuations": rows}), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["checks"] == {"ef1": True, "fpo": True, "balanced": True}
    cert = result["certificate"]
    potentials = potentials_from_fractions(
        [rational_from_json(v) for v in cert["q"]],
        [rational_from_json(v) for v in cert["p"]],
    )
    alpha = tuple(rational_from_json(v) for v in cert["alpha"])
    assert_certified(inst, make_allocation(result["allocation"]), alpha, potentials)
