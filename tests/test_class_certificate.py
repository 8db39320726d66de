"""The class certificate against the witness LP, and where ``check`` uses it.

``solver.class_certificate`` proves a balanced allocation fPO from the
weights of its instance's class, always through ``certify_fpo``.  On every
balanced allocation of the seeded instances below, a certificate must
imply ``check_fpo``'s verdict; on bivalued instances and on two agents of
two types the two must agree.  ``core.gamma_range`` is checked
against a direct scan of the weighted scores at every ratio where the
range can end.  ``check --fpo`` runs the LP only when no certificate is
found, and ``--unconstrained`` never asks for one.
"""

import json
import random
from fractions import Fraction

import pytest

from fairbalance import cli, lp
from fairbalance.cli import main
from fairbalance.core import classify, gamma_bounds, gamma_range, make_instance, two_type_view
from fairbalance.oracle import enumerate_balanced
from fairbalance.solver import class_certificate

from conftest import REF_VALUES, VALUES, alloc, bivalued_rows, general_rows, two_type_rows

SHAPES = [(2, 2), (2, 4), (2, 6), (3, 3), (3, 6)]


def one_type_rows(rng, n, m, value):
    return [[value(rng) for _ in range(m)]] * n


def verdicts(inst):
    """(certified, fPO by the LP) for every balanced allocation."""
    out = []
    for allocation in enumerate_balanced(inst):
        certified = class_certificate(inst, allocation) is not None
        fpo = lp.check_fpo(inst, allocation).is_fpo
        assert fpo or not certified, allocation
        out.append((certified, fpo))
    return out


def seeded(maker, seed, count):
    rng = random.Random(seed)
    for index in range(count):
        n, m = SHAPES[index % len(SHAPES)]
        value = VALUES[("int", "ratio")[index // len(SHAPES) % 2]]
        yield make_instance(n, m, maker(rng, n, m, value))


@pytest.mark.parametrize("seed", [1, 2])
def test_bivalued_certificate_is_the_lp_verdict(seed):
    checked = 0
    for inst in seeded(bivalued_rows, seed, 10):
        if classify(inst) != "bivalued":  # equal rows read as one type
            continue
        for certified, fpo in verdicts(inst):
            assert certified == fpo
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("seed", [1, 2])
def test_two_type_certificate_implies_the_lp_verdict(seed):
    found = {"certified": 0, "missed": 0, "not fPO": 0}
    for inst in seeded(two_type_rows, seed, 10):
        if classify(inst) != "two-types":
            continue
        pairwise = inst.n == 2
        for certified, fpo in verdicts(inst):
            if pairwise:  # one agent per type: (1, gamma) is every weight up to scale
                assert certified == fpo
            found["certified" if certified else "missed" if fpo else "not fPO"] += 1
    assert found["certified"] > 20 and found["not fPO"] > 20


def test_one_type_certifies_every_allocation():
    for inst in seeded(one_type_rows, 3, 10):
        assert all(certified and fpo for certified, fpo in verdicts(inst))


def test_general_instances_get_no_certificate():
    for inst in seeded(general_rows, 4, 10):
        if classify(inst) != "general":
            continue
        for allocation in enumerate_balanced(inst):
            assert class_certificate(inst, allocation) is None


@pytest.mark.parametrize("rows", [
    [[0, 0, 0, 0], [1, 2, 3, 4]],  # a zero row
    [[0, 0, 0, 0], [0, 0, 0, 0]],
    [[1, 1, 2, 2], [3, 3, 1, 1]],  # tied goods in both types
    [[2, 2, 2, 2], [1, 1, 2, 2]],  # a constant row
    [[5, 5], [0, 0]],
    [[Fraction(1, 2), Fraction(3, 2), 2, 2], [Fraction(2, 3), 1, 1, Fraction(2, 3)]],
    REF_VALUES,
])
def test_edge_cases_agree_with_the_lp(rows):
    inst = make_instance(len(rows), len(rows[0]), rows)
    assert all(certified == fpo for certified, fpo in verdicts(inst))


def test_weights_follow_the_class():
    inst = make_instance(2, 4, REF_VALUES)  # two types, one agent each
    alpha = class_certificate(inst, alloc({1, 3}, {2, 4}))
    assert alpha is not None and alpha[0] == 1 and alpha[1] > 0
    assert class_certificate(inst, alloc({1, 4}, {2, 3})) is None
    bivalued = make_instance(2, 2, [[3, 1], [2, 0]])
    assert class_certificate(bivalued, alloc({1}, {2})) == (Fraction(1, 2), Fraction(1, 2))
    single = make_instance(2, 2, [[3, 1], [3, 1]])
    assert class_certificate(single, alloc({2}, {1})) == (1, 1)


# --- the gamma range -----------------------------------------------------------

def scores_fit(view, allocation, gamma):
    """Does every type-1 good score a1 - gamma*a2 at least every other good?"""
    s = set().union(*(allocation.bundle(i) for i in view.members1))
    score = [x - gamma * y for x, y in zip(view.row1, view.row2)]
    t = [score[j - 1] for j in range(1, len(score) + 1) if j not in s]
    return not t or min(score[j - 1] for j in s) >= max(t)


def candidate_gammas(view):
    """Every ratio where the range can end, the midpoints between them and
    one point beyond each side: the range holds one of them when it is not
    empty, and where it ends shows at them."""
    ratios = {Fraction(abs(x1 - y1), abs(x2 - y2))
              for x1, x2 in zip(view.row1, view.row2) for y1, y2 in zip(view.row1, view.row2)
              if x2 != y2 and x1 != y1}
    ratios = sorted(ratios | {Fraction(1)})
    return ratios + [(a + b) / 2 for a, b in zip(ratios, ratios[1:])] + [ratios[0] / 2, ratios[-1] * 2]


def in_range(bounds, gamma):
    lo, hi = bounds
    return (lo is None or lo <= gamma) and (hi is None or gamma <= hi)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_gamma_range_is_the_set_of_fitting_weights(seed):
    rng = random.Random(seed)
    seen = {"empty": 0, "point": 0, "interval": 0}
    for _ in range(60):
        n, m = rng.choice(SHAPES)
        value = VALUES[rng.choice(("int", "ratio"))]
        inst = make_instance(n, m, two_type_rows(rng, n, m, value))
        if len(inst.types) != 2:
            continue
        view = two_type_view(inst)
        for allocation in enumerate_balanced(inst):
            bounds = gamma_range(view, allocation)
            fits = {g: scores_fit(view, allocation, g) for g in candidate_gammas(view)}
            if bounds is None:
                assert not any(fits.values()), allocation
                seen["empty"] += 1
                continue
            assert all(fits[g] == in_range(bounds, g) for g in fits), (bounds, allocation)
            seen["point" if bounds[0] is not None and bounds[0] == bounds[1] else "interval"] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("seed", [5, 8])
def test_gamma_bounds_are_the_range_as_int_ratios(seed):
    # fpo_holds reads gamma_bounds, gamma_range the same bounds as Fractions
    rng = random.Random(seed)
    for _ in range(40):
        n, m = rng.choice(SHAPES)
        inst = make_instance(n, m, two_type_rows(rng, n, m, VALUES[rng.choice(("int", "ratio"))]))
        view = two_type_view(inst)
        for allocation in enumerate_balanced(inst):
            bounds = gamma_bounds(view, allocation)
            if bounds is None:
                assert gamma_range(view, allocation) is None
                continue
            (lo1, lo2), (hi1, hi2) = bounds
            assert all(type(v) is int for v in (lo1, lo2, hi1, hi2)) and lo2 > 0 and hi1 > 0
            lo = Fraction(lo1, lo2) if lo1 else None
            hi = Fraction(hi1, hi2) if hi2 else None
            assert gamma_range(view, allocation) == (lo, hi)


def test_gamma_range_reads_pairs_of_equal_type_2_value():
    # goods 1 and 2 tie for type 2, so type 1 must hold the one it values more
    inst = make_instance(2, 2, [[1, 2], [3, 3]])
    view = two_type_view(inst)
    assert gamma_range(view, alloc({2}, {1})) == (None, None)
    assert gamma_range(view, alloc({1}, {2})) is None


def test_gamma_range_ends():
    inst = make_instance(2, 4, [[4, 3, 1, 0], [1, 3, 0, 2]])
    view = two_type_view(inst)
    # S = {1, 2}: (4 - g) and (3 - 3g) against (1 - 0g) and (0 - 2g)
    assert gamma_range(view, alloc({1, 2}, {3, 4})) == (None, Fraction(2, 3))
    # S = {1, 3}: type 1 holds good 3 for 1 - 0g >= 3 - 3g, against good 2
    assert gamma_range(view, alloc({1, 3}, {2, 4})) == (Fraction(2, 3), None)
    # both ends: 3 - 3g >= 1 - g and 1 - 0g >= 2 - 2g
    view = two_type_view(make_instance(2, 4, [[3, 1, 1, 2], [3, 0, 1, 2]]))
    assert gamma_range(view, alloc({1, 2}, {3, 4})) == (Fraction(1, 2), Fraction(1))
    view = two_type_view(make_instance(2, 4, [[3, 1, 1, 2], [2, 0, 1, 1]]))
    assert gamma_range(view, alloc({1, 2}, {3, 4})) == (Fraction(1), Fraction(1))


def test_gamma_range_fits_every_weight_on_one_type():
    # one row: every allocation maximizes every weighting of it
    view = two_type_view(make_instance(2, 4, [[4, 3, 1, 0], [4, 3, 1, 0]]))
    assert view.n2 == 0
    assert gamma_range(view, alloc({1, 2}, {3, 4})) == (None, None)
    assert gamma_range(view, alloc({3, 4}, {1, 2})) == (None, None)


# --- which decider check --fpo runs ---------------------------------------------

@pytest.fixture
def spies(monkeypatch):
    """Counts of the certificate attempts, the witness LPs and the simplex
    runs of one check, each still doing its work."""
    calls = {"class_certificate": 0, "check_fpo": 0, "solve_lp": 0}
    for module, name in ((cli, "class_certificate"), (lp, "check_fpo"), (lp, "solve_lp")):
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def run_check(tmp_path, rows, bundles, *flags):
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({"n": len(rows), "m": len(rows[0]), "valuations": rows}),
                        encoding="utf-8")
    allocation = tmp_path / "alloc.json"
    allocation.write_text(json.dumps({"allocation": bundles}), encoding="utf-8")
    return main(["check", str(instance), str(allocation), "--fpo", *flags])


@pytest.mark.parametrize("rows, bundles", [
    (REF_VALUES, [[1, 3], [2, 4]]),  # two types
    ([[3, 1, 3, 1], [2, 0, 0, 2]], [[1, 3], [2, 4]]),  # bivalued
    ([[3, 1, 2, 2], [3, 1, 2, 2]], [[1, 2], [3, 4]]),  # one type
])
def test_certified_check_runs_no_lp(spies, tmp_path, capsys, rows, bundles):
    assert run_check(tmp_path, rows, bundles) == 0
    assert capsys.readouterr().out == "fpo: holds\n"
    assert spies == {"class_certificate": 1, "check_fpo": 0, "solve_lp": 0}


def test_general_holding_check_runs_the_lp_once(spies, tmp_path, capsys):
    rows = [[3, 0, 1], [0, 3, 1], [1, 1, 3]]
    assert run_check(tmp_path, rows, [[1], [2], [3]]) == 0
    assert capsys.readouterr().out == "fpo: holds\n"
    assert spies["class_certificate"] == 1 and spies["check_fpo"] == 1


@pytest.mark.parametrize("rows, bundles", [
    (REF_VALUES, [[1, 4], [2, 3]]),
    ([[3, 1, 3, 1], [2, 0, 0, 2]], [[2, 4], [1, 3]]),
    ([[3, 0, 1], [0, 3, 1], [1, 1, 3]], [[3], [2], [1]]),
])
def test_failing_check_runs_the_lp_once(spies, tmp_path, capsys, rows, bundles):
    assert run_check(tmp_path, rows, bundles) == 1
    assert "dominated by fractional allocation" in capsys.readouterr().out
    assert spies["class_certificate"] == 1 and spies["check_fpo"] == 1


# the balanced certificate of [[1, 3], [2, 4]] proves nothing without the
# cardinality constraint, where a fractional allocation dominates it
@pytest.mark.parametrize("bundles, code", [([[1, 2, 3, 4], []], 0), ([[1, 3], [2, 4]], 1)])
def test_unconstrained_check_never_asks_for_a_certificate(spies, tmp_path, capsys, bundles, code):
    assert run_check(tmp_path, REF_VALUES, bundles, "--unconstrained") == code
    assert spies["class_certificate"] == 0 and spies["check_fpo"] == 1
