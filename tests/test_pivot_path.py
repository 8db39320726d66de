"""The simplex's pivot path on fPO-check LPs, pinned before the tableau is
ported to integers.

For each of 64 seeded ``check_fpo`` LPs (2x4, 3x6, 4x8 and 4x12; int and
"p/q" values; a welfare-maximizing and a random balanced allocation) the
fixture holds every ``lp._entering`` decision as (entering column or null,
Bland's rule), the vertex and the objective.  An exact port must take the
same path to the same vertex.  None of these LPs switches to Bland's rule;
Chvatal's cycling example in ``test_lp.py`` covers the switch.  Regenerate
the fixture with ``PYTHONPATH=src python tests/test_pivot_path.py`` only
when a change of the path is intended.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from fairbalance import lp
from fairbalance.cli import instance_to_json, rational_to_json
from fairbalance.core import make_allocation, make_instance
from fairbalance.matching import max_weight_perfect_matching

from conftest import make_weights

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "pivot_path.json"
SHAPES = ((2, 4), (3, 6), (4, 8), (4, 12))
TRIALS = 4


def _value(rng: random.Random, kind: str) -> Fraction:
    """Integer 0..9, or for "pq" a p/q in [0, 9] with q <= 30."""
    if kind == "int":
        return Fraction(rng.randint(0, 9))
    q = rng.randint(2, 30)
    return Fraction(rng.randint(0, 9 * q), q)


def _welfare_maximizing(inst):
    """A balanced allocation of maximum total value: the Hungarian on k
    slots per agent."""
    k = inst.k
    slots = [row for row in inst.values for _ in range(k)]
    assignment = max_weight_perfect_matching(make_weights(slots)).assignment
    return make_allocation(assignment[i * k:(i + 1) * k] for i in range(inst.n))


def _random_balanced(rng: random.Random, n: int, m: int):
    goods = list(range(1, m + 1))
    rng.shuffle(goods)
    k = m // n
    return make_allocation(goods[i * k:(i + 1) * k] for i in range(n))


def pivot_cases():
    """(name, instance, allocation) for every pinned LP, each from its own
    seeded generator."""
    for n, m in SHAPES:
        for kind in ("int", "pq"):
            for source in ("optimal", "random"):
                for trial in range(TRIALS):
                    name = f"{n}x{m}-{kind}-{source}-{trial}"
                    rng = random.Random(name)
                    inst = make_instance(n, m, [[_value(rng, kind) for _ in range(m)] for _ in range(n)])
                    alloc = (_welfare_maximizing(inst) if source == "optimal"
                             else _random_balanced(rng, n, m))
                    yield name, inst, alloc


def pivot_record(inst, alloc) -> dict:
    """The JSON record of one ``check_fpo`` LP: its entering decisions,
    vertex and objective."""
    entering, results = [], []
    real_entering, real_solve = lp._entering, lp.solve_lp

    def spy_entering(z, ncols, bland):
        enter = real_entering(z, ncols, bland)
        entering.append([enter, bland])
        return enter

    def spy_solve(program):
        results.append(real_solve(program))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_entering", spy_entering)
        mp.setattr(lp, "solve_lp", spy_solve)
        lp.check_fpo(inst, alloc)
    [res] = results
    return {
        "instance": instance_to_json(inst),
        "allocation": [sorted(b) for b in alloc.bundles],
        "entering": entering,
        "x": [rational_to_json(v) for v in res.x],
        "objective": rational_to_json(res.objective),
    }


CASES = {name: (inst, alloc) for name, inst, alloc in pivot_cases()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case_and_both_verdicts(golden):
    assert list(golden) == list(CASES)
    objectives = [record["objective"] for record in golden.values()]
    assert 10 <= objectives.count(0) <= len(objectives) - 10  # both verdicts


@pytest.mark.parametrize("name", list(CASES))
def test_pivot_path_is_pinned(golden, name):
    inst, alloc = CASES[name]
    assert pivot_record(inst, alloc) == golden[name]


if __name__ == "__main__":
    records = {name: pivot_record(inst, alloc) for name, inst, alloc in pivot_cases()}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(record)}"
                                    for name, record in records.items()) + "\n}\n")
