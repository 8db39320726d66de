"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion (add ``-s`` to see the explicit PASS prints and timings).
"""

import functools
import json
import random
import time
from fractions import Fraction

import fairbalance.twotypes as twotypes_mod
from fairbalance.bivalued import certificate_alpha, solve_bivalued
from fairbalance.cli import main
from fairbalance.core import make_instance, reduce_unconstrained
from fairbalance.graph import build_exchange_graph, compute_potentials, detect_negative_cycle
from fairbalance.lp import check_fpo, verify_complementary_slackness
from fairbalance.oracle import enumerate_balanced, full_report
from fairbalance.twotypes import round_robin_by_price, solve_two_types
from fairbalance.verify import certify_fpo, is_ef1, is_p_ef1, price_drop_top

from conftest import (
    REF_VALUES,
    balanced_allocation_count,
    dual_objective,
    high_counts,
    is_dual_feasible,
    is_nonnegative,
    random_alpha,
    solve_dual,
    solve_primal,
    strip_dummies,
    utilitarian_value,
)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}")


def test_criterion_1_reference_instance_exactness(tmp_path):
    started = time.monotonic()

    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"n": 2, "m": 4, "valuations": REF_VALUES}))
    out = tmp_path / "solution.json"
    assert main(["solve", str(ref), "--algorithm", "two-types", "--output", str(out)]) == 0
    solution = json.loads(out.read_text())
    assert solution["allocation"] == [[1, 3], [2, 4]]
    assert solution["checks"] == {"ef1": True, "fpo": True, "balanced": True}

    report_path = tmp_path / "report.json"
    assert main(["enumerate", str(ref), "--format", "json", "--output", str(report_path)]) == 0
    rows = json.loads(report_path.read_text())
    assert len(rows) == 6
    ef1_rows = [r for r in rows if r["ef1"]]
    fpo_rows = [r for r in rows if r["fpo"]]
    both = [r for r in rows if r["ef1"] and r["fpo"]]
    assert len(ef1_rows) == 4
    assert len(fpo_rows) == 3
    assert len(both) == 1 and both[0]["allocation"] == [[1, 3], [2, 4]]

    po_not_fpo = next(r for r in rows if r["allocation"] == [[1, 4], [2, 3]])
    assert po_not_fpo["po"] is True
    assert po_not_fpo["fpo"] is False

    nash_best = max(rows, key=lambda r: Fraction(str(r["nash"])))
    assert nash_best["allocation"] == [[1, 2], [3, 4]]
    assert Fraction(str(nash_best["nash"])) == 280
    assert nash_best["ef1"] is False

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, f"reference-instance run exact in {elapsed:.3f}s (< 1s)")


def test_criterion_2_bivalued_solver_suite():
    started = time.monotonic()
    rng = random.Random(2)
    for trial in range(500):
        n = rng.choice([2, 3])
        k = rng.choice([1, 2, 3])
        rows = []
        for _ in range(n):
            low = rng.randint(0, 8)
            high = rng.randint(low + 1, 9)
            rows.append([high if rng.random() < 0.5 else low for _ in range(n * k)])
        inst = make_instance(n, n * k, rows)
        sol = solve_bivalued(inst)
        out, alpha = sol.allocation, sol.alpha
        assert out.is_balanced(inst)
        assert is_ef1(inst, out).holds
        assert certify_fpo(inst, out, certificate_alpha(inst)).holds
        assert check_fpo(inst, out).is_fpo
        for viewer in inst.agents():
            counts = high_counts(inst, out, viewer)
            assert all(counts[viewer - 1] >= c - 1 for c in counts)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(2, f"500 bivalued instances exact in {elapsed:.1f}s (< 60s)")


@functools.lru_cache(maxsize=1)
def _two_type_suite():
    """500 seeded two-type instances (n <= 4, m <= 8) with solver outputs."""
    rng = random.Random(3)
    suite = []
    for trial in range(500):
        n = rng.choice([2, 2, 3, 4])
        k = rng.choice([1, 2, 3, 4])
        m = n * k
        while m > 8:
            k -= 1
            m = n * k
        u1 = [rng.randint(0, 9) for _ in range(m)]
        u2 = [rng.randint(0, 9) for _ in range(m)]
        n1 = rng.randint(1, n - 1)
        types = [1] * n1 + [2] * (n - n1)
        rng.shuffle(types)
        inst = make_instance(n, m, [u1 if t == 1 else u2 for t in types])
        sol = solve_two_types(inst)
        out, gamma, pot = sol.allocation, sol.gamma, sol.potentials
        suite.append((inst, out, gamma, pot))
    return suite


def test_criterion_3_two_types_solver_suite(monkeypatch):
    started = time.monotonic()
    calls = {"n": 0}
    original = twotypes_mod.conditions_ab

    def counting(*args):
        calls["n"] += 1
        return original(*args)  # raises if both conditions fail

    monkeypatch.setattr(twotypes_mod, "conditions_ab", counting)
    _two_type_suite.cache_clear()
    suite = _two_type_suite()
    monkeypatch.undo()

    assert calls["n"] > 0, "the condition check must actually run"
    full_checks = 0
    for inst, out, gamma, pot in suite:
        assert out.is_balanced(inst)
        assert is_ef1(inst, out).holds
        assert check_fpo(inst, out).is_fpo
        states = balanced_allocation_count(inst)
        assert states <= 10 ** 4
        # membership in the exhaustive EF1-and-fPO set is exactly the pair
        # of flags above; materialize the whole set on small instances to
        # exercise the report machinery end to end
        if states <= 120 and full_checks < 40:
            good = {r.allocation.bundles for r in full_report(inst).records if r.ef1 and r.fpo}
            assert out.bundles in good
            full_checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(3, f"500 two-type instances exact in {elapsed:.1f}s (< 5min), "
              f"{calls['n']} condition checks, {full_checks} exhaustive set checks")


def test_criterion_4_duality_suite():
    rng = random.Random(4)
    for trial in range(200):
        n = rng.choice([2, 3])
        k = rng.choice([1, 2])
        m = n * k
        inst = make_instance(n, m, [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)])
        alpha = random_alpha(rng, n)
        best, primal_value = solve_primal(inst, alpha)
        dual_pot = solve_dual(inst, alpha)
        assert dual_objective(dual_pot, k) == primal_value
        assert verify_complementary_slackness(inst, best, dual_pot, alpha)

        optimal = [
            a for a in enumerate_balanced(inst)
            if utilitarian_value(inst, a, alpha) == primal_value
        ]
        assert optimal
        pots = [compute_potentials(inst, a, alpha) for a in optimal]
        for pot in pots:
            assert dual_objective(pot, k) == primal_value
            assert is_dual_feasible(inst, pot, alpha) and is_nonnegative(pot)
        assert all(p == pots[0] for p in pots[1:])
    report(4, "200 primal/dual/potential triples agree exactly")


def test_criterion_5_negative_cycle_characterization():
    rng = random.Random(5)
    instances = []
    for n, m in [(2, 2), (2, 4), (2, 6), (3, 3), (3, 6), (3, 6), (2, 4), (3, 3)]:
        instances.append(make_instance(n, m, [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]))
    for inst in instances:
        allocations = list(enumerate_balanced(inst))
        for _ in range(20):
            alpha = random_alpha(rng, inst.n)
            best = max(utilitarian_value(inst, a, alpha) for a in allocations)
            for a in allocations:
                cycle = detect_negative_cycle(build_exchange_graph(inst, a, alpha))
                if utilitarian_value(inst, a, alpha) == best:
                    assert cycle is None
                else:
                    assert cycle is not None
    report(5, f"{len(instances)} instances x 20 weight draws x all allocations characterized")


def test_criterion_6_price_ef1_implies_ef1():
    suite = _two_type_suite()
    checked = 0
    for inst, out, gamma, pot in suite:
        if is_p_ef1(pot.p, out).holds:
            assert is_ef1(inst, out).holds
            checked += 1
    assert checked > 0
    report(6, f"price-EF1 implied EF1 on {checked}/{len(suite)} certifying runs, zero violations")


def test_criterion_7_reduction_round_trip():
    rng = random.Random(7)
    for trial in range(100):
        n = rng.choice([2, 3])
        m = rng.choice([2, 3, 4, 5])
        u1 = [rng.randint(0, 9) for _ in range(m)]
        u2 = [rng.randint(0, 9) for _ in range(m)]
        n1 = rng.randint(1, n - 1)
        types = [1] * n1 + [2] * (n - n1)
        rng.shuffle(types)
        inst = make_instance(n, m, [u1 if t == 1 else u2 for t in types])

        reduced, dummies = reduce_unconstrained(inst)
        assert reduced.m == n * m and reduced.k == m
        sol = solve_two_types(reduced)
        out, gamma, pot = sol.allocation, sol.gamma, sol.potentials
        back = strip_dummies(out, dummies)
        assert is_ef1(inst, back).holds
        assert check_fpo(inst, back, mode="unconstrained").is_fpo
    report(7, "100 unconstrained two-type instances reduce, solve and strip exactly")


def test_criterion_8_deal_price_chain():
    rng = random.Random(8)
    for trial in range(1000):
        agents = rng.randint(1, 5)
        k = rng.randint(1, 5)
        count = agents * k
        prices = [Fraction(rng.randint(0, 40), rng.randint(1, 4)) for _ in range(count)]
        bundles = round_robin_by_price(range(1, count + 1), prices, agents, k)
        sums = [sum(prices[j - 1] for j in b) for b in bundles]
        hats = [price_drop_top(prices, b) for b in bundles]
        chain = sums + hats
        assert all(x >= y for x, y in zip(chain, chain[1:]))
    report(8, "1000 deals satisfy the full price ordering chain")
