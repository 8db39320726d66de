"""Seeded inputs for the benchmark workloads, independent of `fairbalance gen`.

Every instance and allocation file is produced here from stdlib `random`
seeded by (workload, seed), and written as canonical JSON, so one seed always
gives byte-identical files.  Allocations for the `check` workload come from
this module too: one welfare-maximizing allocation certified by its own
Hungarian duals (hence fPO), and one random balanced allocation that a
Pareto-improving swap shows is not fPO.  Nothing here imports fairbalance.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from checks import classify, rational_to_json


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand under test
    shapes: tuple  # (n, m, weight): weight cases of this shape per block
    classes: tuple  # instance classes cycled per shape


# Why each workload exists is recorded in BENCHMARK.json.  The shapes keep
# the mean op under 0.2 s on the seed code (2 vCPUs, Python 3.11), so a 25 s
# window holds well over the 100 ops that a p90 with ten samples beyond it
# needs.  Each 2:2:1 mix puts p50 inside the middle shape and p90 inside the
# largest, away from the shape boundaries at 40 % and 80 %.
WORKLOADS = {
    "solve-bivalued": Workload("solve", ((4, 12, 2), (4, 16, 2), (6, 24, 1)), ("bivalued",)),
    "solve-two-types": Workload("solve", ((4, 12, 2), (4, 20, 2), (5, 20, 1)), ("two-types",)),
    "check-fpo": Workload("check", ((4, 12, 2), (4, 16, 2), (6, 12, 1)),
                          ("general", "bivalued", "two-types")),
    "enumerate-small": Workload("enumerate", ((2, 4, 2), (2, 6, 2), (4, 4, 1)),
                                ("bivalued", "two-types", "general")),
}

# About one 25 s window of ops at the seed code; the op loop cycles through
# the pool when a faster program needs more.
POOL_BLOCKS = 40


@dataclass(frozen=True)
class Case:
    """One op input: an instance file and, for `check`, an allocation file."""

    shape: tuple
    klass: str
    instance_path: str
    rows: tuple  # Fraction matrix
    allocation_path: str | None = None
    bundles: tuple | None = None
    certified: bool | None = None  # expected fPO verdict for `check`
    block: int = 0  # position of the case's block in the run order


def random_value(rng: random.Random, rational: bool) -> Fraction:
    """Integer 0..9, or a reduced p/q in [0, 9] with q <= 30."""
    if not rational:
        return Fraction(rng.randint(0, 9))
    q = rng.randint(2, 30)
    return Fraction(rng.randint(0, 9 * q), q)


def _distinct_pair(rng, rational):
    while True:
        a, b = random_value(rng, rational), random_value(rng, rational)
        if a != b:
            return max(a, b), min(a, b)


def _bivalued_rows(rng, n, m, rational):
    rows = []
    for _ in range(n):
        high, low = _distinct_pair(rng, rational)
        rows.append(tuple(high if rng.random() < 0.5 else low for _ in range(m)))
    return rows


def _two_type_rows(rng, n, m, rational):
    u1 = tuple(random_value(rng, rational) for _ in range(m))
    u2 = tuple(random_value(rng, rational) for _ in range(m))
    types = [u1] * rng.randint(1, n - 1)
    types += [u2] * (n - len(types))
    rng.shuffle(types)
    return types


def _general_rows(rng, n, m, rational):
    return [tuple(random_value(rng, rational) for _ in range(m)) for _ in range(n)]


_ROWS = {"bivalued": _bivalued_rows, "two-types": _two_type_rows, "general": _general_rows}


def random_rows(rng: random.Random, klass: str, n: int, m: int, rational: bool) -> tuple:
    """A value matrix that `checks.classify` puts in exactly `klass`."""
    while True:
        rows = tuple(_ROWS[klass](rng, n, m, rational))
        if classify(rows) == klass:
            return rows


def instance_text(n: int, m: int, rows) -> str:
    valuations = [[rational_to_json(v) for v in row] for row in rows]
    return json.dumps({"n": n, "m": m, "valuations": valuations}, separators=(",", ":")) + "\n"


def allocation_text(bundles) -> str:
    return json.dumps({"allocation": [sorted(b) for b in bundles]}, separators=(",", ":")) + "\n"


# --- allocations for the check workload ----------------------------------------

def max_weight_assignment(weight: list) -> list:
    """Column assigned to each row in a maximum-weight perfect matching of a
    square integer matrix (Hungarian method with potentials).

    The dual potentials are verified before returning: feasible everywhere
    and tight on the matching, which proves the matching optimal.
    """
    size = len(weight)
    cost = [[-w for w in row] for row in weight]
    u = [0] * (size + 1)
    v = [0] * (size + 1)
    owner = [0] * (size + 1)  # owner[col] = row (1-based), 0 if free
    way = [0] * (size + 1)
    for row in range(1, size + 1):
        owner[0] = row
        col0 = 0
        minv = [None] * (size + 1)
        used = [False] * (size + 1)
        while True:
            used[col0] = True
            r0 = owner[col0]
            delta = None
            col1 = 0
            for col in range(1, size + 1):
                if not used[col]:
                    cur = cost[r0 - 1][col - 1] - u[r0] - v[col]
                    if minv[col] is None or cur < minv[col]:
                        minv[col] = cur
                        way[col] = col0
                    if delta is None or minv[col] < delta:
                        delta = minv[col]
                        col1 = col
            for col in range(size + 1):
                if used[col]:
                    u[owner[col]] += delta
                    v[col] -= delta
                else:
                    minv[col] -= delta
            col0 = col1
            if owner[col0] == 0:
                break
        while col0:
            col1 = way[col0]
            owner[col0] = owner[col1]
            col0 = col1
    assigned = [0] * size
    for col in range(1, size + 1):
        assigned[owner[col] - 1] = col - 1
    for r in range(size):
        for c in range(size):
            reduced = cost[r][c] - u[r + 1] - v[c + 1]
            if reduced < 0 or (c == assigned[r] and reduced != 0):
                raise RuntimeError("Hungarian duals do not certify the matching")
    return assigned


def certified_allocation(rows, alpha) -> tuple:
    """A balanced allocation maximizing sum_i alpha_i v_i(A_i).

    With alpha > 0, such a maximizer is fPO: the balanced polytope is
    integral, so it also maximizes over fractional allocations, and any
    Pareto improvement would raise the weighted sum.
    """
    n, m = len(rows), len(rows[0])
    k = m // n
    scale = lcm(*(v.denominator for row in rows for v in row))
    weight = []
    for i in range(n):
        row = [int(alpha[i] * v * scale) for v in rows[i]]
        weight.extend([row] * k)  # k identical slots per agent
    assigned = max_weight_assignment(weight)
    bundles = [set() for _ in range(n)]
    for slot, good in enumerate(assigned):
        bundles[slot // k].add(good + 1)
    return tuple(frozenset(b) for b in bundles)


def pareto_swap(rows, bundles):
    """A good swap between two agents that makes nobody worse and someone
    better, or None."""
    for i, own in enumerate(bundles):
        for i2 in range(i + 1, len(bundles)):
            for j in own:
                for j2 in bundles[i2]:
                    gain = rows[i][j2 - 1] - rows[i][j - 1]
                    gain2 = rows[i2][j - 1] - rows[i2][j2 - 1]
                    if gain >= 0 and gain2 >= 0 and (gain > 0 or gain2 > 0):
                        return i + 1, j, i2 + 1, j2
    return None


def dominated_allocation(rng: random.Random, rows, tries: int = 20):
    """A random balanced allocation with a Pareto-improving swap, or None."""
    n, m = len(rows), len(rows[0])
    k = m // n
    goods = list(range(1, m + 1))
    for _ in range(tries):
        rng.shuffle(goods)
        bundles = tuple(frozenset(goods[i * k:(i + 1) * k]) for i in range(n))
        if pareto_swap(rows, bundles) is not None:
            return bundles
    return None


# --- pools ---------------------------------------------------------------------

def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build_pool(name: str, seed: int, directory: str) -> list:
    """Write the workload's inputs for `seed` into `directory` and return
    the op cases in run order: blocks holding each shape `weight` times,
    shuffled within the block, so any prefix keeps the shape mix."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    os.makedirs(directory, exist_ok=True)
    drawn = {}  # per-shape count, cycling class and value kind
    cases = []
    for block_index in range(POOL_BLOCKS):
        block = []
        for n, m, weight in workload.shapes:
            classes = [c for c in workload.classes if c != "general" or n >= 3]
            for _ in range(weight):
                count = drawn.get((n, m), 0)
                drawn[(n, m)] = count + 1
                klass = classes[count % len(classes)]
                rational = (count // len(classes)) % 2 == 1
                rows = random_rows(rng, klass, n, m, rational)
                stem = os.path.join(directory, f"{n}x{m}-{count:03d}")
                _write(stem + ".json", instance_text(n, m, rows))
                base = Case((n, m), klass, stem + ".json", rows, block=block_index)
                if workload.command != "check":
                    block.append(base)
                    continue
                alpha = [Fraction(rng.randint(1, 4)) for _ in range(n)]
                variants = [(certified_allocation(rows, alpha), True),
                            (dominated_allocation(rng, rows), False)]
                for tag, (bundles, certified) in zip("cd", variants):
                    if bundles is None:
                        continue
                    path = f"{stem}-{tag}.alloc.json"
                    _write(path, allocation_text(bundles))
                    block.append(Case((n, m), klass, base.instance_path, rows,
                                      path, bundles, certified, block_index))
        rng.shuffle(block)
        cases.extend(block)
    return cases
