"""The verdict-only fPO decider against the witness LP, and who calls which.

``lp.fpo_holds`` decides two agents from the range of weight ratios of
``core.gamma_range`` and three or more on the transfer-cone LP;
``lp.check_fpo`` solves the full LP and returns a dominating allocation.
On every balanced allocation of the seeded instances below, and of every
two-agent instance in two small boxes of values, the two verdicts must
agree.  The callers that read only the verdict (``oracle.full_report`` and
an uncertified ``solve``) run no LP on two agents; ``check --fpo`` prints
the full LP's witness and keeps it.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from fairbalance import lp
from fairbalance.cli import main
from fairbalance.core import make_instance
from fairbalance.oracle import enumerate_balanced, full_report

from conftest import REF_VALUES, VALUES, alloc, bivalued_rows, general_rows, two_type_rows

SHAPES = [(2, 2), (2, 4), (2, 6), (3, 3), (3, 6)]
CLASSES = {"bivalued": bivalued_rows, "two-types": two_type_rows, "general": general_rows}


def assert_agree(inst):
    for allocation in enumerate_balanced(inst):
        assert lp.fpo_holds(inst, allocation) == lp.check_fpo(inst, allocation).is_fpo, allocation


@pytest.mark.parametrize("values", VALUES)
@pytest.mark.parametrize("klass", CLASSES)
def test_verdicts_agree_on_seeded_instances(klass, values):
    rng = random.Random(f"fpo-holds-{klass}-{values}")
    for n, m in SHAPES:
        assert_agree(make_instance(n, m, CLASSES[klass](rng, n, m, VALUES[values])))


@pytest.mark.parametrize("rows", [
    [[0, 0, 0, 0], [1, 2, 3, 4]],  # one zero row
    [[0, 0, 0, 0], [0, 0, 0, 0]],  # nothing is worth anything
    [[5, 5], [0, 0]],  # balanced fPO, though moving both goods to agent 1 gains
    [[2, 2, 2, 2], [1, 3, 0, 7]],  # one constant row
    [[3, 3, 3], [1, 1, 1], [2, 2, 2]],  # every row constant
    [[4, 4, 1, 1], [2, 2, 3, 3]],  # goods tied in pairs
    [[1, 1, 2], [1, 1, 2], [0, 5, 1]],  # tied goods, two equal rows
    [["1/2", "1/3", 0, "7/3"], ["5/6", 0, "1/2", "1/2"]],
])
def test_verdicts_agree_on_edge_cases(rows):
    values = [[Fraction(v) for v in row] for row in rows]
    assert_agree(make_instance(len(rows), len(rows[0]), values))


@pytest.mark.parametrize("m, top", [(2, 4), (4, 1)])
def test_two_agent_verdicts_agree_on_every_instance_of_a_box(m, top):
    # every 2 x m instance with int values 0..top
    for entries in itertools.product(range(top + 1), repeat=2 * m):
        assert_agree(make_instance(2, m, [entries[:m], entries[m:]]))


def test_two_agent_verdicts_agree_on_seeded_ratio_instances():
    rng = random.Random("fpo-holds-2x6-ratio")
    for _ in range(12):
        assert_agree(make_instance(2, 6, general_rows(rng, 2, 6, VALUES["ratio"])))


@pytest.mark.parametrize("rows, lps", [
    ([[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]], 0),
    ([[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]], 0),
    ([[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [1, 1, 2, 2, 3, 3]], 1),
])
def test_lps_per_verdict(monkeypatch, rows, lps):
    calls = []
    solve_lp = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda program: calls.append(1) or solve_lp(program))
    inst = make_instance(len(rows), 6, rows)
    for allocation in enumerate_balanced(inst):
        calls.clear()
        lp.fpo_holds(inst, allocation)
        assert len(calls) == lps, allocation


def test_one_agent_is_fpo_without_an_lp(monkeypatch):
    def no_lp(program):
        raise AssertionError("one agent needs no LP")

    monkeypatch.setattr(lp, "solve_lp", no_lp)
    inst = make_instance(1, 300, [[j % 7 for j in range(300)]])
    assert lp.fpo_holds(inst, alloc(set(range(1, 301))))
    with pytest.raises(ValueError):
        lp.fpo_holds(inst, alloc(set(range(1, 300))))


def test_rejects_an_unbalanced_allocation():
    inst = make_instance(2, 4, REF_VALUES)
    with pytest.raises(ValueError):
        lp.fpo_holds(inst, alloc({1}, {2, 3, 4}))


def test_lp_is_the_transfer_cone(monkeypatch):
    # 2n + 1 rows; one column per (good, non-owner) pair, one per agent, one slack
    shapes = []
    solve_lp = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda program: shapes.append(
        (len(program.a), len(program.c))) or solve_lp(program))
    inst = make_instance(3, 6, [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [1, 1, 2, 2, 3, 3]])
    lp.fpo_holds(inst, alloc({1, 2}, {3, 4}, {5, 6}))
    assert shapes == [(7, 2 * 6 + 3 + 1)]


@pytest.fixture
def spies(monkeypatch):
    """Counts of the calls of each decider and of the simplex, each still
    doing its work."""
    calls = {"check_fpo": 0, "fpo_holds": 0, "solve_lp": 0}
    for name in calls:
        original = getattr(lp, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lp, name, spy)
    return calls


def test_full_report_runs_only_the_verdict_lp(spies):
    inst = make_instance(2, 4, REF_VALUES)
    report = full_report(inst)
    assert spies == {"check_fpo": 0, "fpo_holds": len(report.records), "solve_lp": 0}
    assert sorted(r.fpo for r in report.records) == [False] * 3 + [True] * 3


def test_round_robin_solve_runs_only_the_verdict_lp(spies, tmp_path, capsys):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"n": 2, "m": 4, "valuations": REF_VALUES}), encoding="utf-8")
    code = main(["solve", str(path), "--algorithm", "round-robin"])
    assert spies == {"check_fpo": 0, "fpo_holds": 1, "solve_lp": 0}
    # round robin deals ({1, 4}, {2, 3}): PO, but a fractional allocation dominates it
    assert json.loads(capsys.readouterr().out)["checks"]["fpo"] is False
    assert code != 0


def test_check_fpo_keeps_the_witness_lp(spies, tmp_path, capsys):
    instance = tmp_path / "ref.json"
    instance.write_text(json.dumps({"n": 2, "m": 4, "valuations": REF_VALUES}), encoding="utf-8")
    allocation = tmp_path / "alloc.json"
    allocation.write_text(json.dumps({"allocation": [[1, 4], [2, 3]]}), encoding="utf-8")
    assert main(["check", str(instance), str(allocation), "--fpo"]) == 1
    assert spies == {"check_fpo": 1, "fpo_holds": 0, "solve_lp": 1}
    assert "dominated by fractional allocation" in capsys.readouterr().out
