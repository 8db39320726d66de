import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from fairbalance import graph
from fairbalance.core import InternalInvariantError, NegativeCycleError, make_allocation, make_instance
from fairbalance.graph import (
    ROOT,
    Potentials,
    agent_node,
    build_exchange_graph,
    compute_potentials,
    cycle_weight,
    detect_negative_cycle,
    good_node,
)
from fairbalance.lp import verify_complementary_slackness
from fairbalance.matching import BipartiteWeights, max_weight_perfect_matching
from fairbalance.verify import certify_fpo

from conftest import (
    alloc,
    brute_max_welfare,
    dual_objective,
    is_dual_feasible,
    is_nonnegative,
    labelled_arcs,
    permutation_enumerate,
    potentials_from_fractions,
    random_alpha,
    random_instance,
)

ONE = (Fraction(1), Fraction(1))

# 240 seeded cases (n <= 4, m <= 12; integer, rational, b = 0 and two-type
# values; non-integer alpha; welfare-maximizing and random balanced
# allocations), frozen from the Fraction Bellman-Ford over labelled nodes
GRAPH_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "exchange_graph_golden.json").read_text(encoding="utf-8")
)


def random_int_or_pq_instance(rng, n, m):
    """Values 0..9, or (for half of the instances) p/q in [0, 9] with q <= 12."""
    top = rng.choice([1, 12])
    denominators = [[rng.randint(1, top) for _ in range(m)] for _ in range(n)]
    return make_instance(n, m, [[Fraction(rng.randint(0, 9 * q), q) for q in row] for row in denominators])


def random_balanced_allocation(rng, n, k):
    goods = list(range(1, n * k + 1))
    rng.shuffle(goods)
    return make_allocation(goods[i * k:(i + 1) * k] for i in range(n))


def max_welfare_allocation(inst, alpha):
    """A balanced allocation of maximum alpha-weighted welfare: a
    maximum-weight matching of k slots per agent to the goods."""
    k = inst.k
    weight = tuple(tuple(alpha[i] * v for v in inst.values[i]) for i in range(inst.n) for _ in range(k))
    assignment = max_weight_perfect_matching(BipartiteWeights(size=inst.m, weight=weight)).assignment
    return make_allocation(assignment[i * k:(i + 1) * k] for i in range(inst.n))


def arc_weights(g):
    return {(u, v): w for u, v, w in labelled_arcs(g)}


class TestBuildExchangeGraph:
    def test_reference_arc_weights(self, ref_instance):
        g = build_exchange_graph(ref_instance, alloc({1, 3}, {2, 4}), ONE)
        w = arc_weights(g)
        assert w[(agent_node(1), good_node(3))] == -21
        assert w[(good_node(3), agent_node(1))] == 21
        assert w[(ROOT, good_node(3))] == 0

    def test_all_zero_values(self):
        inst = make_instance(2, 2, [[0, 0], [0, 0]])
        g = build_exchange_graph(inst, alloc({1}, {2}), ONE)
        assert all(w == 0 for _, _, w in labelled_arcs(g))
        assert detect_negative_cycle(g) is None

    def test_weighted_ownership_arc(self, ref_instance):
        g = build_exchange_graph(ref_instance, alloc({1, 3}, {2, 4}), (Fraction(1), Fraction(2)))
        assert arc_weights(g)[(good_node(4), agent_node(2))] == 16

    def test_shape(self, ref_instance):
        g = build_exchange_graph(ref_instance, alloc({1, 3}, {2, 4}), ONE)
        n, m = ref_instance.n, ref_instance.m
        assert g.node_count() == n + m + 1
        assert len(labelled_arcs(g)) == n * m + m + m
        # exactly one ownership arc leaves each good
        from_goods = [u for u, v, w in labelled_arcs(g) if u[0] == "good"]
        assert sorted(from_goods) == sorted(good_node(j) for j in ref_instance.goods())

    def test_rejects_unbalanced_allocation(self, ref_instance):
        with pytest.raises(ValueError):
            build_exchange_graph(ref_instance, alloc({1}, {2, 3, 4}), ONE)

    def test_rejects_nonpositive_alpha(self, ref_instance):
        with pytest.raises(ValueError):
            build_exchange_graph(ref_instance, alloc({1, 3}, {2, 4}), (Fraction(1), Fraction(0)))


class TestDetectNegativeCycle:
    def test_suboptimal_allocation_has_cycle(self, ref_instance):
        # welfare 34 < enumerated max 44, so a negative cycle must exist
        g = build_exchange_graph(ref_instance, alloc({1, 2}, {3, 4}), ONE)
        cycle = detect_negative_cycle(g)
        assert cycle is not None
        assert cycle_weight(g, cycle) < 0
        assert len(set(cycle)) == len(cycle)  # simple

    def test_optimal_allocation_has_none(self, ref_instance):
        assert brute_max_welfare(ref_instance, ONE) == 44
        g = build_exchange_graph(ref_instance, alloc({3, 4}, {1, 2}), ONE)
        assert detect_negative_cycle(g) is None

    def test_characterizes_optimality(self):
        rng = random.Random(17)
        for _ in range(12):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2, 3])
            if m > 9:
                continue
            inst = random_instance(rng, n, m, top=6)
            for _ in range(4):
                alpha = random_alpha(rng, n)
                best = brute_max_welfare(inst, alpha)
                for a in permutation_enumerate(inst):
                    value = sum(
                        alpha[i - 1] * sum(inst.value(i, j) for j in a.bundle(i))
                        for i in inst.agents()
                    )
                    g = build_exchange_graph(inst, a, alpha)
                    cycle = detect_negative_cycle(g)
                    if value == best:
                        assert cycle is None
                    else:
                        assert cycle is not None and cycle_weight(g, cycle) < 0


class TestComputePotentials:
    def test_single_agent(self):
        inst = make_instance(1, 2, [[3, 7]])
        pot = compute_potentials(inst, alloc({1, 2}), (Fraction(1),))
        # shortest-path construction: q is the smallest value, prices shift down
        assert pot.q == (3,)
        assert pot.p == (0, 4)
        for j in inst.goods():
            assert pot.q[0] + pot.p[j - 1] == inst.value(1, j)

    def test_single_agent_with_zero_good(self):
        inst = make_instance(1, 3, [[5, 0, 2]])
        pot = compute_potentials(inst, alloc({1, 2, 3}), (Fraction(1),))
        assert pot.q == (0,)
        assert pot.p == (5, 0, 2)

    def test_all_zero(self):
        inst = make_instance(2, 2, [[0, 0], [0, 0]])
        pot = compute_potentials(inst, alloc({1}, {2}), ONE)
        assert pot.q == (0, 0) and pot.p == (0, 0)

    def test_strong_duality_on_reference(self, ref_instance):
        pot = compute_potentials(ref_instance, alloc({3, 4}, {1, 2}), ONE)
        assert dual_objective(pot, ref_instance.k) == 44

    def test_raises_on_suboptimal_allocation(self, ref_instance):
        with pytest.raises(NegativeCycleError):
            compute_potentials(ref_instance, alloc({1, 2}, {3, 4}), ONE)

    @pytest.mark.parametrize("node, shift, message", [
        (agent_node(1), -1, "tight"),  # q_1 drops below u_13 - p_3
        (good_node(1), 1, "nonnegative"),  # p_1 = -1/scale
    ])
    def test_broken_distances_raise(self, ref_instance, monkeypatch, node, shift, message):
        # raised, not asserted, so the check also runs under python -O
        real = graph._agent_potentials

        def broken(weights, bundles):
            # potentials are ints over the weights' scale; a price is minus
            # its good's distance
            qs, ps = real(weights, bundles)
            kind, index = node
            if kind == "agent":
                qs[index - 1] += shift
            else:
                ps[index - 1] -= shift
            return qs, ps

        monkeypatch.setattr(graph, "_agent_potentials", broken)
        with pytest.raises(InternalInvariantError, match=message):
            compute_potentials(ref_instance, alloc({1, 3}, {2, 4}), (Fraction(1), Fraction(3, 2)))

    def test_duality_properties_randomized(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.choice([2, 3])
            m = n * rng.choice([1, 2])
            inst = random_instance(rng, n, m, top=7)
            alpha = random_alpha(rng, n)
            best = brute_max_welfare(inst, alpha)
            optima = [
                a
                for a in permutation_enumerate(inst)
                if sum(
                    alpha[i - 1] * sum(inst.value(i, j) for j in a.bundle(i))
                    for i in inst.agents()
                )
                == best
            ]
            pots = [compute_potentials(inst, a, alpha) for a in optima]
            for pot in pots:
                assert is_dual_feasible(inst, pot, alpha)
                assert is_nonnegative(pot)
                assert dual_objective(pot, inst.k) == best
            # independence from the choice of optimal allocation
            assert all(p == pots[0] for p in pots[1:])

    def test_reduced_ints_over_the_distances(self):
        # each potential is the full exchange graph's Bellman-Ford distance
        # over g.scale, kept as ints with their common factor divided out
        reduced = 0
        for case in GRAPH_GOLDEN:
            if "potentials" not in case:
                continue
            inst, a, alpha = TestGolden.load(case)
            pot = compute_potentials(inst, a, alpha)
            g = build_exchange_graph(inst, a, alpha)
            dist, _, bad = graph._bellman_ford(g)
            assert bad is None
            assert all(type(v) is int for v in (pot.scale, *pot.qs, *pot.ps))
            assert math.gcd(pot.scale, *pot.qs, *pot.ps) == 1 and g.scale % pot.scale == 0
            assert pot.q == tuple(Fraction(d, g.scale) for d in dist[1:inst.n + 1])
            assert pot.p == tuple(Fraction(-d, g.scale) for d in dist[inst.n + 1:])
            reduced += pot.scale < g.scale
        assert reduced >= 20, reduced

    @pytest.mark.parametrize("seed", range(4))
    def test_agent_graph_matches_the_exchange_graph(self, seed, monkeypatch):
        # Bellman-Ford on the agent graph gives the full exchange graph's
        # potentials, or raises the cycle and weight that graph shows
        built = []
        real_build = graph.build_exchange_graph
        monkeypatch.setattr(graph, "build_exchange_graph", lambda *args: built.append(args) or real_build(*args))
        rng = random.Random(seed)
        outcomes = {"potentials": 0, "cycle": 0}
        for _ in range(150):
            n, k = rng.randint(1, 5), rng.randint(1, 4)
            inst = random_int_or_pq_instance(rng, n, n * k)
            alpha = random_alpha(rng, n)
            a = (max_welfare_allocation(inst, alpha) if rng.random() < 0.5
                 else random_balanced_allocation(rng, n, k))
            g = real_build(inst, a, alpha)
            cycle = detect_negative_cycle(g)
            built.clear()
            if cycle is None:
                dist, _, _ = graph._bellman_ford(g)
                expected = potentials_from_fractions([Fraction(d, g.scale) for d in dist[1:n + 1]],
                                                     [Fraction(-d, g.scale) for d in dist[n + 1:]])
                assert compute_potentials(inst, a, alpha) == expected
                assert built == []
                outcomes["potentials"] += 1
            else:
                with pytest.raises(NegativeCycleError) as info:
                    compute_potentials(inst, a, alpha)
                assert (info.value.cycle, info.value.weight) == (cycle, cycle_weight(g, cycle))
                assert len(built) == 1
                outcomes["cycle"] += 1
        assert min(outcomes.values()) >= 30, outcomes

    def test_same_type_agents_share_q(self):
        rng = random.Random(31)
        for _ in range(10):
            m = 2 * rng.choice([1, 2, 3])
            row = [rng.randint(0, 9) for _ in range(m)]
            inst = make_instance(2, m, [row, row])
            alpha = (Fraction(2, 3), Fraction(2, 3))
            best = brute_max_welfare(inst, alpha)
            for a in permutation_enumerate(inst):
                value = sum(
                    alpha[i - 1] * sum(inst.value(i, j) for j in a.bundle(i))
                    for i in inst.agents()
                )
                if value == best:
                    pot = compute_potentials(inst, a, alpha)
                    assert pot.q[0] == pot.q[1]


class TestPotentialsFields:
    """Potentials are ints over one positive scale with
    gcd(scale, *qs, *ps) == 1; the Fraction views q and p are built on
    first read."""

    @pytest.mark.parametrize("scale, qs, ps, error", [
        (1, (True,), (0,), TypeError),
        (1, (0,), (1.0,), TypeError),
        (2, (Fraction(1),), (0,), TypeError),
        (True, (0,), (1,), TypeError),
        (2.0, (1,), (0,), TypeError),
        (0, (1,), (1,), ValueError),
        (-1, (1,), (0,), ValueError),
        (4, (2,), (6,), ValueError),
        (3, (0, 0), (0,), ValueError),
    ], ids=["bool-q", "float-p", "fraction-q", "bool-scale", "float-scale", "zero-scale",
            "negative-scale", "common-factor", "zeros-over-three"])
    def test_rejects(self, scale, qs, ps, error):
        with pytest.raises(error):
            Potentials(scale=scale, qs=qs, ps=ps)

    def test_equal_potentials_are_equal_objects(self):
        a = Potentials(scale=6, qs=(1, 0), ps=(5, 3, -2))
        b = Potentials(scale=6, qs=(1, 0), ps=(5, 3, -2))
        assert "q" not in a.__dict__ and "p" not in a.__dict__
        assert a.q == (Fraction(1, 6), 0) and a.p == (Fraction(5, 6), Fraction(1, 2), Fraction(-1, 3))
        assert all(type(v) is Fraction for v in a.q + a.p)
        assert a.q is a.q and a.p is a.p
        # reading the views leaves equality, hash and repr alone
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != Potentials(scale=5, qs=(1, 0), ps=(5, 3, -2))


class TestPotentialsFeasibility:
    """verify_complementary_slackness checks the shapes, then dual
    feasibility on every pair and tightness on every owned pair, exactly
    over a large mixed denominator."""

    # agent 1 owns good 2 and agent 2 owns good 1
    VALUES = [[Fraction(7, 1000003), Fraction(10 ** 12 + 39, 999983)], [Fraction(3), Fraction(7, 1000003)]]
    ALPHA = (Fraction(13, 17), Fraction(5, 7))
    OWNED = ({2}, {1})

    def certificate(self):
        """The instance and potentials tight on both owned pairs and on the
        unowned pair (1, 1); the unowned (2, 2) is slack by far more than
        one unit."""
        (v11, v12), (v21, _) = self.VALUES
        a1, a2 = self.ALPHA
        q1 = Fraction(5, 19 * 10 ** 7)
        p1, p2 = a1 * v11 - q1, a1 * v12 - q1
        return make_instance(2, 2, self.VALUES), potentials_from_fractions((q1, a2 * v21 - p1), (p1, p2))

    @pytest.mark.parametrize("q,p", [
        ((0,), (0, 0, 0, 0)),
        ((0, 0, 0), (0, 0, 0, 0)),
        ((0, 0), (0, 0, 0)),
        ((0, 0), (0, 0, 0, 0, 0)),
    ], ids=["short-q", "long-q", "short-p", "long-p"])
    def test_wrong_shape_raises(self, ref_instance, q, p):
        big = potentials_from_fractions([Fraction(x + 50) for x in q], [Fraction(x) for x in p])
        with pytest.raises(ValueError, match="2 agent and 4 good entries"):
            verify_complementary_slackness(ref_instance, alloc({3, 4}, {1, 2}), big, ONE)

    def test_wrong_alpha_length_raises(self, ref_instance):
        best = alloc({3, 4}, {1, 2})
        pot = compute_potentials(ref_instance, best, ONE)
        for alpha in ((Fraction(1),), ONE + (Fraction(1),)):
            with pytest.raises(ValueError, match="2 agent and 4 good entries"):
                verify_complementary_slackness(ref_instance, best, pot, alpha)

    def test_tight_boundary_over_large_mixed_denominator(self):
        inst, tight = self.certificate()
        owned = alloc(*self.OWNED)
        assert verify_complementary_slackness(inst, owned, tight, self.ALPHA)
        assert tight.scale > 10 ** 21
        unit = Fraction(1, tight.scale)  # one unit over the potentials' scale
        # q_1 and p_2 move against each other: both owned pairs stay tight
        # and the unowned pair (1, 1) alone moves, so the verdict is
        # feasibility's
        for shift, feasible in ((-unit, False), (unit, True)):
            moved = potentials_from_fractions((tight.q[0] + shift, tight.q[1]), (tight.p[0], tight.p[1] - shift))
            assert moved.scale == tight.scale
            assert is_dual_feasible(inst, moved, self.ALPHA) is feasible
            assert verify_complementary_slackness(inst, owned, moved, self.ALPHA) is feasible

    def test_owned_pair_one_unit_slack_fails(self):
        inst, tight = self.certificate()
        owned = alloc(*self.OWNED)
        unit = Fraction(1, tight.scale)
        # p_2 one unit up leaves agent 1's good 2 slack: feasible, not tight
        slack = potentials_from_fractions(tight.q, (tight.p[0], tight.p[1] + unit))
        assert is_dual_feasible(inst, slack, self.ALPHA)
        assert not verify_complementary_slackness(inst, owned, slack, self.ALPHA)


class TestGolden:
    @staticmethod
    def load(case):
        spec = case["instance"]
        inst = make_instance(spec["n"], spec["m"], [[Fraction(v) for v in row] for row in spec["valuations"]])
        return inst, make_allocation(case["allocation"]), tuple(Fraction(a) for a in case["alpha"])

    def test_fixture_mixes_optimal_and_suboptimal(self):
        holds = [case["certify_fpo"]["holds"] for case in GRAPH_GOLDEN]
        assert len(holds) >= 200 and 50 <= sum(holds) <= len(holds) - 50

    def test_potentials_and_cycles(self):
        # compute_potentials and detect_negative_cycle report the same cycle
        for case in GRAPH_GOLDEN:
            inst, a, alpha = self.load(case)
            g = build_exchange_graph(inst, a, alpha)
            if "potentials" in case:
                pot = compute_potentials(inst, a, alpha)
                assert [str(v) for v in pot.q] == [str(v) for v in case["potentials"]["q"]]
                assert [str(v) for v in pot.p] == [str(v) for v in case["potentials"]["p"]]
                assert all(type(v) is Fraction for v in pot.q + pot.p)
                assert detect_negative_cycle(g) is None
            else:
                with pytest.raises(NegativeCycleError) as info:
                    compute_potentials(inst, a, alpha)
                assert info.value.cycle == [tuple(node) for node in case["negative_cycle_error"]]
                weight = info.value.weight
                assert type(weight) is Fraction
                assert weight == Fraction(case["certify_fpo"]["cycle_weight"])
                assert detect_negative_cycle(g) == info.value.cycle

    def test_certify_fpo_witness(self):
        for case in GRAPH_GOLDEN:
            inst, a, alpha = self.load(case)
            verdict = certify_fpo(inst, a, alpha)
            expected = case["certify_fpo"]
            assert verdict.holds == expected["holds"]
            if not verdict.holds:
                assert verdict.witness["negative_cycle"] == [tuple(node) for node in expected["negative_cycle"]]
                weight = verdict.witness["cycle_weight"]
                assert type(weight) is Fraction and weight == Fraction(expected["cycle_weight"])
