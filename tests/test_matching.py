import itertools
import random
from fractions import Fraction

import dataclasses

import pytest

from fairbalance.core import InternalInvariantError
from fairbalance.matching import BipartiteWeights, check_certificate, max_weight_perfect_matching

from conftest import make_weights, reference_matching


def brute_force_value(w: BipartiteWeights) -> Fraction:
    n = w.size
    return max(
        sum((w.weight[l][perm[l]] for l in range(n)), Fraction(0))
        for perm in itertools.permutations(range(n))
    )


def test_singleton():
    res = max_weight_perfect_matching(make_weights([[5]]))
    assert res.assignment == (1,) and res.value == 5


def test_all_equal_weights_returns_identity():
    res = max_weight_perfect_matching(make_weights([[0, 0], [0, 0]]))
    assert res.assignment == (1, 2)
    assert res.value == 0


def test_rejects_non_square():
    with pytest.raises(ValueError):
        make_weights([[1, 2, 3], [4, 5, 6]])


def test_matches_brute_force_small():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(2, 6)
        matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        w = make_weights(matrix)
        res = max_weight_perfect_matching(w)
        assert res.value == brute_force_value(w)
        assert sorted(res.assignment) == list(range(1, n + 1))


def test_duals_certify_optimality():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 6)
        w = make_weights([[rng.randint(0, 20) for _ in range(n)] for _ in range(n)])
        res = max_weight_perfect_matching(w)
        assert sum(res.u) + sum(res.v) == res.value
        for l in range(1, n + 1):
            for r in range(1, n + 1):
                assert res.u[l - 1] + res.v[r - 1] >= w.weight[l - 1][r - 1]
            r = res.assignment[l - 1]
            assert res.u[l - 1] + res.v[r - 1] == w.weight[l - 1][r - 1]


def test_permutation_equivariance():
    rng = random.Random(19)
    done = 0
    while done < 25:
        n = rng.randint(2, 5)
        matrix = [[Fraction(rng.randint(0, 60)) for _ in range(n)] for _ in range(n)]
        w = make_weights(matrix)
        values = sorted(
            sum(matrix[l][perm[l]] for l in range(n))
            for perm in itertools.permutations(range(n))
        )
        unique_optimum = len(values) == 1 or values[-1] > values[-2]
        base = max_weight_perfect_matching(w)

        rows = list(range(n))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = make_weights([[matrix[rows[i]][cols[j]] for j in range(n)] for i in range(n)])
        res = max_weight_perfect_matching(permuted)
        assert res.value == base.value
        if unique_optimum:
            for i in range(n):
                # row i of the permuted problem is original row rows[i]
                assert cols[res.assignment[i] - 1] + 1 == base.assignment[rows[i]]
        done += 1


def test_int_weights_stay_int():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 6)
        matrix = [[rng.randint(0, 20) for _ in range(n)] for _ in range(n)]
        res = max_weight_perfect_matching(BipartiteWeights(size=n, weight=tuple(map(tuple, matrix))))
        assert all(type(x) is int for x in (res.value, *res.u, *res.v))
        assert res == max_weight_perfect_matching(make_weights(matrix))


def _zero_one(rng, n):
    return BipartiteWeights(size=n, weight=tuple(
        tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)))


def _slots(rng, n):
    # bivalued slot rows: an agent's k slots weigh K + s on its high goods
    ks = [k for k in range(1, n + 1) if n % k == 0]
    k = rng.choice(ks)
    scale = n * (k + 1)
    rows = []
    for _ in range(n // k):
        high = [rng.random() < rng.choice((0.2, 0.5, 0.8)) for _ in range(n)]
        rows.extend(tuple(scale + s if h else 0 for h in high) for s in range(1, k + 1))
    return BipartiteWeights(size=n, weight=tuple(rows))


def _fractions(rng, n):
    top = rng.choice((1, 3, 9))
    return make_weights([[Fraction(rng.randint(0, top), rng.randint(1, 3)) for _ in range(n)]
                         for _ in range(n)])


@pytest.mark.parametrize("kind", [_zero_one, _slots, _fractions])
def test_equals_reference_hungarian(kind):
    # same assignment and duals as the eager-shift form, ties included
    rng = random.Random(f"reference-{kind.__name__}")
    for t in range(1050):
        weights = kind(rng, 1 + t % 14)
        got = max_weight_perfect_matching(weights)
        want = reference_matching(weights)
        assert (got.assignment, got.value, got.u, got.v) == (
            want.assignment, want.value, want.u, want.v)
        assert [type(x) for x in (got.value, *got.u, *got.v)] == [
            type(x) for x in (want.value, *want.u, *want.v)]
        if kind is not _fractions:
            assert all(type(x) is int for x in (got.value, *got.u, *got.v))


@pytest.mark.parametrize("broken, message", [
    (lambda r: {"u": (r.u[0] + 1,) + r.u[1:], "value": r.value + 1}, "tight"),
    (lambda r: {"value": r.value + 1}, "sum"),
    # left node 1 and its partner shift: still tight and summing, not feasible
    (lambda r: {"u": (r.u[0] - 100,) + r.u[1:],
                "v": tuple(x + 100 * (c == r.assignment[0]) for c, x in enumerate(r.v, start=1))}, "feasible"),
])
def test_broken_certificate_raises(broken, message):
    w = make_weights([[3, 1, 0], [2, 2, 5], [4, 0, 1]])
    res = max_weight_perfect_matching(w)
    check_certificate(w, res)
    with pytest.raises(InternalInvariantError, match=message):
        check_certificate(w, dataclasses.replace(res, **broken(res)))
