"""The two-type solver's walk over split change points, against the grid scan.

The reference below is the grid scan: every critical ratio from
`critical_values`, `optimal_split` at each interval's midpoint, one run
per change of split, the first EF1 deal's run start as gamma, and the
exchange fallback over the runs.  The walk must give the same runs and the
same `Solution`, field by field.  It ends each run at the upper end of
its deal's `core.gamma_range`, so on every instance of three small boxes
the runs' ranges must tile the weights from 0 up, end to end.
"""

import json
import pathlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from fairbalance import core, graph, solve, twotypes
from fairbalance.core import InternalInvariantError, Solution, gamma_range, make_instance, two_type_view
from fairbalance.lp import verify_complementary_slackness
from fairbalance.twotypes import (
    AllValuesEqual,
    _deal,
    _split_runs,
    _trivial_solution,
    case2_exchange,
    compute_delta,
    conditions_ab,
    critical_values,
    optimal_split,
    solve_two_types,
)
from fairbalance.verify import is_ef1

EXCHANGE_CASES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "exchange_path.json").read_text(encoding="utf-8")
)


def scan_runs(inst, view):
    """(split, gamma where its run starts) per change of split, read off
    the whole critical-ratio grid at interval midpoints."""
    grid = critical_values(view.u1, view.u2)
    last = None
    for ell in range(1, grid.interval_count + 1):
        lo, hi = grid.interval(ell)
        split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
        if split != last:
            yield split, lo
            last = split


def certified(inst, view, alloc, gamma):
    """The deal with weight 1 on type 1 and gamma on type 2, and its
    Bellman-Ford potentials."""
    alpha = tuple(gamma if i in view.members2 else Fraction(1) for i in inst.agents())
    return Solution(alloc, alpha, gamma, graph.compute_potentials(inst, alloc, alpha))


def scan_solve(inst):
    """solve_two_types over the grid scan's runs, then the exchange walk."""
    view = two_type_view(inst)
    if view.n2 == 0:
        return _trivial_solution(inst, view)
    try:
        runs = scan_runs(inst, view)
        dealt = []
        for split, lo in runs:
            alloc = _deal(inst, view, split)
            if is_ef1(inst, alloc).holds:
                return certified(inst, view, alloc, lo)
            dealt.append((split, alloc, lo))
    except AllValuesEqual:
        return _trivial_solution(inst, view)
    for (left, left_alloc, _), (right, right_alloc, shared) in zip(dealt, dealt[1:]):
        cert = certified(inst, view, left_alloc, shared)
        p = cert.potentials.p
        if conditions_ab(view, left_alloc, p)[0] and conditions_ab(view, right_alloc, p)[1]:
            return case2_exchange(inst, view, left, right, cert)
    raise AssertionError("the reference scan found no EF1 allocation")


def walk(inst, view):
    """The solver's walk: (split, its deal, gamma where its run starts) per run."""
    return _split_runs(inst, view, compute_delta(view.u1, view.u2))


def walk_runs(inst, view):
    """(split, gamma where its run starts) per run of the solver's walk;
    each run's deal is the split's value deal."""
    runs = list(walk(inst, view))
    assert all(deal == _deal(inst, view, split) for split, deal, _ in runs)
    return [(split, start) for split, _, start in runs]


def random_rows(rng, m):
    """Two value rows of one of the shapes that stress the change points."""
    kind = rng.choice(["small", "wide", "rational", "identical", "equal-gaps", "constant"])
    if kind == "small":
        return [rng.randint(0, 5) for _ in range(m)], [rng.randint(0, 5) for _ in range(m)]
    if kind == "wide":
        return [rng.randint(0, 1000) for _ in range(m)], [rng.randint(0, 1000) for _ in range(m)]
    if kind == "rational":
        def value():
            return Fraction(rng.randint(0, 12), rng.randint(1, 4))
        return [value() for _ in range(m)], [value() for _ in range(m)]
    if kind == "identical":
        # few distinct goods, each repeated
        kinds = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 3))]
        goods = [rng.choice(kinds) for _ in range(m)]
        return [g[0] for g in goods], [g[1] for g in goods]
    if kind == "equal-gaps":
        # u1 = c*u2 + e up to a few outliers: many pairs share one ratio
        c, e = rng.randint(1, 3), rng.randint(0, 4)
        u2 = [rng.randint(0, 6) for _ in range(m)]
        u1 = [c * v + e if rng.random() < 0.8 else rng.randint(0, 20) for v in u2]
        return u1, u2
    varying = [rng.randint(0, 9) for _ in range(m)]
    constant = [rng.randint(0, 9)] * m
    return (varying, constant) if rng.random() < 0.5 else (constant, varying)


def random_case(rng):
    n = rng.randint(2, 6)
    m = n * rng.randint(1, 4)
    u1, u2 = random_rows(rng, m)
    n1 = rng.randint(1, n - 1)
    types = [1] * n1 + [2] * (n - n1)
    rng.shuffle(types)
    return make_instance(n, m, [u1 if t == 1 else u2 for t in types])


def exchange_instance(case):
    spec = case["instance"]
    return make_instance(spec["n"], spec["m"], spec["valuations"])


def assert_walk_matches_scan(inst):
    view = two_type_view(inst)
    if view.n2:
        try:
            expected = list(scan_runs(inst, view))
        except AllValuesEqual:
            expected = None
        if expected is not None:
            assert walk_runs(inst, view) == expected
    assert solve_two_types(inst) == scan_solve(inst)


def test_walk_matches_scan_on_seeded_instances():
    rng = random.Random(1414)
    walked = 0
    for _ in range(600):
        inst = random_case(rng)
        assert_walk_matches_scan(inst)
        walked += two_type_view(inst).n2 > 0
    assert walked >= 500


@pytest.mark.parametrize("case", EXCHANGE_CASES, ids=lambda c: f"trial{c['trial']}")
def test_walk_matches_scan_on_exchange_fixtures(case):
    assert_walk_matches_scan(exchange_instance(case))


def test_solve_skips_the_grid_and_scales_no_value_row(monkeypatch):
    # the instance holds its int rows from the start: the walk passes none
    # of them to integer_rows and builds no Fraction view of them (prices
    # may equal a value row, so rows are matched by identity)
    inst = exchange_instance(EXCHANGE_CASES[0])
    scalings = []
    real = core.integer_rows

    def spy(rows):
        if any(row is value_row for row in rows for value_row in inst.rows):
            scalings.append(rows)
        return real(rows)

    def unreachable(*args):
        raise AssertionError("the solver built the grid or a Fraction value row")

    for module in (core, graph, twotypes):
        monkeypatch.setattr(module, "integer_rows", spy)
    monkeypatch.setattr(twotypes, "critical_values", unreachable)
    monkeypatch.setattr(twotypes, "optimal_split", unreachable)
    for name in ("u1", "u2"):
        monkeypatch.setattr(core.TwoType, name, property(unreachable))
    sol = solve(inst)
    assert "values" not in inst.__dict__
    assert scalings == []
    assert is_ef1(inst, sol.allocation).holds
    assert twotypes.solve_two_types(inst) == sol


def test_walk_matches_scan_at_scale():
    # n = 8, types interleaved, values 0..10^6: about 4,000 grid intervals
    # at m = 128 and 15,000 at m = 256, but 40-80 runs; the whole grid scan
    # takes seconds at m = 256, so there only the solve is compared
    rng = random.Random(256)
    for m in (128, 128, 128, 256):
        u1 = [rng.randint(0, 10**6) for _ in range(m)]
        u2 = [rng.randint(0, 10**6) for _ in range(m)]
        inst = make_instance(8, m, [u1 if i % 2 == 0 else u2 for i in range(8)])
        if m == 128:
            view = two_type_view(inst)
            assert walk_runs(inst, view) == list(scan_runs(inst, view))
        sol = solve(inst)
        assert sol == scan_solve(inst)
        assert is_ef1(inst, sol.allocation).holds
        assert verify_complementary_slackness(inst, sol.allocation, sol.potentials, sol.alpha)


def box_instances():
    """Every two-type instance the walk runs on in three boxes, once per
    multiset of goods (value columns) and every n1: 2x4 with values 0-2,
    and 3x6 and 4x8 with values 0-1.  Equal rows (one type) and two
    constant rows (no walk) are left out."""
    for n, m, top in ((2, 4, 2), (3, 6, 1), (4, 8, 1)):
        for goods in combinations_with_replacement(list(product(range(top + 1), repeat=2)), m):
            u1, u2 = [g[0] for g in goods], [g[1] for g in goods]
            if u1 == u2 or (len(set(u1)) == 1 and len(set(u2)) == 1):
                continue
            for n1 in range(1, n):
                yield make_instance(n, m, [u1] * n1 + [u2] * (n - n1))


BOX = list(box_instances())


def test_walk_matches_scan_on_every_box_instance():
    assert len(BOX) == 1086
    for inst in BOX:
        view = two_type_view(inst)
        assert walk_runs(inst, view) == list(scan_runs(inst, view))


def test_run_ranges_tile_the_weights_on_every_box_instance():
    # run i fits exactly the gammas from its start (none below the first
    # run's) to the next run's start (none above the last run's)
    for inst in BOX:
        view = two_type_view(inst)
        runs = list(walk(inst, view))
        starts = [start for _, _, start in runs]
        lows = [None] + starts[1:]
        highs = starts[1:] + [None]
        assert [gamma_range(view, deal) for _, deal, _ in runs] == list(zip(lows, highs))


def test_walk_reads_gamma_range_once_per_run_it_leaves(monkeypatch):
    read = []
    real = twotypes.gamma_range
    monkeypatch.setattr(twotypes, "gamma_range", lambda view, deal: read.append(deal) or real(view, deal))
    for inst in BOX:
        view = two_type_view(inst)
        read.clear()
        runs = walk(inst, view)
        first = next(runs)
        assert read == []  # a solve whose first deal is EF1 reads no range
        runs = [first, *runs]
        assert read == [deal for _, deal, _ in runs]


def test_walk_refuses_a_split_that_fits_no_weight(monkeypatch):
    inst = BOX[0]
    view = two_type_view(inst)
    monkeypatch.setattr(twotypes, "gamma_range", lambda view, deal: None)
    runs = walk(inst, view)
    next(runs)
    with pytest.raises(InternalInvariantError):
        next(runs)
