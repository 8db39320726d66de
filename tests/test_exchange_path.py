"""The exchange walk, reached through the public entry points.

`tests/fixtures/exchange_path.json` holds every instance among the first
100,000 that reach `case2_exchange` from `solve()`, with the allocation and
certificate that an earlier release returned.  The instances come from
stdlib `random.Random(2026)`: per trial n = randint(2, 5), k = randint(1, 4),
m = n*k, two rows of randint(0, 5) values (the trial is skipped when they are
equal), n1 = randint(1, n - 1) type-1 agents and a shuffled type order;
"trial" is the trial number.
"""

import json
import pathlib

import pytest

from fairbalance import check_fpo, is_ef1, solve, twotypes
from fairbalance.cli import main, rational_to_json
from fairbalance.core import make_instance
from fairbalance.lp import verify_complementary_slackness
from fairbalance.oracle import full_report, is_po_bruteforce

from conftest import balanced_allocation_count

CASES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "exchange_path.json").read_text(encoding="utf-8")
)


def instance_of(case):
    spec = case["instance"]
    return make_instance(spec["n"], spec["m"], spec["valuations"])


def test_fixture_holds_enough_cases():
    assert len(CASES) >= 10


@pytest.fixture
def exchange_calls(monkeypatch):
    calls = []
    real = twotypes.case2_exchange

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(twotypes, "case2_exchange", spy)
    return calls


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"trial{c['trial']}")
def test_solve_takes_the_exchange_path(case, exchange_calls):
    inst = instance_of(case)
    sol = solve(inst)
    assert len(exchange_calls) == 1
    assert [sorted(b) for b in sol.allocation.bundles] == case["allocation"]
    assert [rational_to_json(a) for a in sol.alpha] == case["alpha"]
    assert rational_to_json(sol.gamma) == case["gamma"]
    assert [rational_to_json(v) for v in sol.potentials.q] == case["q"]
    assert [rational_to_json(v) for v in sol.potentials.p] == case["p"]
    assert sol.allocation.is_balanced(inst)
    assert is_ef1(inst, sol.allocation).holds
    assert check_fpo(inst, sol.allocation).is_fpo
    assert verify_complementary_slackness(inst, sol.allocation, sol.potentials, sol.alpha)


@pytest.mark.parametrize("case", [c for c in CASES if c["instance"]["m"] <= 8],
                         ids=lambda c: f"trial{c['trial']}")
def test_allocation_is_in_the_oracle_set(case):
    inst = instance_of(case)
    alloc = solve(inst).allocation
    if balanced_allocation_count(inst) <= 100:
        assert alloc in [r.allocation for r in full_report(inst).records if r.ef1 and r.fpo]
    else:
        # full_report runs one LP per allocation, about 20 s at 4 x 8;
        # the enumeration alone still shows no allocation dominates it
        assert is_po_bruteforce(inst, alloc).holds


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"trial{c['trial']}")
def test_cli_solve_exits_0_with_every_check(case, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(case["instance"]) + "\n", encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["allocation"] == case["allocation"]
    assert result["certificate"] == {key: case[key] for key in ("alpha", "gamma", "q", "p")}
    assert result["checks"] == {"ef1": True, "fpo": True, "balanced": True}

