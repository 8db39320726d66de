"""Tests of the benchmark itself: inputs, checker, tracer and metric names.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def read_tree(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.fixture(scope="module")
def cli():
    return run.import_fairbalance()


def test_same_seed_gives_byte_identical_files(tmp_path):
    for name in instances.WORKLOADS:
        first = instances.build_pool(name, 5, str(tmp_path / name / "a"))
        second = instances.build_pool(name, 5, str(tmp_path / name / "b"))
        assert read_tree(tmp_path / name / "a") == read_tree(tmp_path / name / "b")
        assert [c.rows for c in first] == [c.rows for c in second]
        instances.build_pool(name, 6, str(tmp_path / name / "c"))
        assert read_tree(tmp_path / name / "a") != read_tree(tmp_path / name / "c")


def test_pool_classes_shapes_and_values(tmp_path):
    for name, workload in instances.WORKLOADS.items():
        cases = instances.build_pool(name, 1, str(tmp_path / name))
        per_block = sum(w for _, _, w in workload.shapes) * (2 if workload.command == "check" else 1)
        block = cases[:per_block]
        for n, m, weight in workload.shapes:
            assert sum(c.shape == (n, m) for c in block) == weight * (2 if workload.command == "check" else 1)
        assert all(checks.classify(c.rows) == c.klass for c in cases)
        assert {c.klass for c in cases} == set(workload.classes)
        rational = [any(v.denominator > 1 for row in c.rows for v in row) for c in cases]
        assert 0.3 < sum(rational) / len(rational) < 0.7
        assert all(v.denominator <= 30 and 0 <= v <= 9 for c in cases for row in c.rows for v in row)


def all_balanced(n, m):
    k = m // n
    for labels in set(itertools.permutations([i for i in range(n) for _ in range(k)])):
        yield tuple(frozenset(j + 1 for j in range(m) if labels[j] == i) for i in range(n))


def weighted(rows, bundles, alpha):
    return sum(alpha[i] * checks.bundle_value(rows, i + 1, b) for i, b in enumerate(bundles))


def test_certified_allocation_maximizes_weighted_welfare():
    rng = random.Random(3)
    for n, m in ((2, 4), (3, 6), (2, 6)):
        for _ in range(15):
            rows = tuple(tuple(instances.random_value(rng, rng.random() < 0.5) for _ in range(m))
                         for _ in range(n))
            alpha = [Fraction(rng.randint(1, 4)) for _ in range(n)]
            best = max(weighted(rows, b, alpha) for b in all_balanced(n, m))
            assert weighted(rows, instances.certified_allocation(rows, alpha), alpha) == best


def test_dominated_allocation_has_a_pareto_swap():
    rng = random.Random(4)
    rows = instances.random_rows(rng, "general", 4, 12, False)
    bundles = instances.dominated_allocation(rng, rows)
    i, j, i2, j2 = instances.pareto_swap(rows, bundles)
    assert j in bundles[i - 1] and j2 in bundles[i2 - 1]


# --- the checker accepts real outputs and rejects broken ones ------------------

def one_op(cli, tmp_path, name, kind=None):
    cases = instances.build_pool(name, 2, str(tmp_path / "in"))
    case = next(c for c in cases if kind is None or c.certified is kind)
    command = instances.WORKLOADS[name].command
    rec = run.run_op(cli, command, case)
    assert rec.error is None
    return rec


@pytest.mark.parametrize("name", ["solve-bivalued", "solve-two-types"])
def test_solve_checker(cli, tmp_path, name):
    rec = one_op(cli, tmp_path, name)
    rows = rec.case.rows
    text = rec.stdout
    assert checks.check_solve(rows, rec.code, text) is None
    assert checks.check_solve(rows, 4, text) == "exit code 4"

    def broken(edit):
        result = json.loads(text)
        edit(result)
        return checks.check_solve(rows, 0, json.dumps(result))

    def lower_q(r):
        r["certificate"]["q"][0] = checks.rational_to_json(checks.parse_rational(r["certificate"]["q"][0]) - 1)

    def raise_p(r):
        owned = r["allocation"][0][0]
        p = r["certificate"]["p"]
        p[owned - 1] = checks.rational_to_json(checks.parse_rational(p[owned - 1]) + 1)

    assert "infeasible" in broken(lower_q)
    assert "not tight" in broken(raise_p)
    assert broken(lambda r: r["allocation"][0].pop()) == "allocation is not a balanced partition"
    assert broken(lambda r: r["certificate"]["alpha"].__setitem__(0, 0)) == "certificate alpha is not positive"


def test_check_checker(cli, tmp_path):
    held = one_op(cli, tmp_path, "check-fpo", kind=True)
    assert held.stdout.splitlines()[1] == "fpo: holds"
    args = (held.case.rows, held.case.bundles)
    assert checks.check_check(*args, True, held.code, held.stdout) is None
    assert "Pareto-improving swap" in checks.check_check(*args, False, held.code, held.stdout)

    failed = one_op(cli, tmp_path, "check-fpo", kind=False)
    args = (failed.case.rows, failed.case.bundles)
    assert failed.code == 1 and "dominated by" in failed.stdout
    assert checks.check_check(*args, False, failed.code, failed.stdout) is None
    assert "exit code" in checks.check_check(*args, False, 0, failed.stdout)
    fake = failed.stdout.replace("total surplus ", "total surplus 1000")
    assert checks.check_check(*args, False, failed.code, fake) is not None
    claims_holds = "\n".join(line if not line.startswith("fpo") else "fpo: holds"
                             for line in failed.stdout.splitlines())
    assert "Pareto-improving swap" in checks.check_check(*args, False, 1, claims_holds)


def test_enumerate_checker(cli, tmp_path):
    rec = one_op(cli, tmp_path, "enumerate-small")
    rows = rec.case.rows
    text = rec.stdout
    assert checks.check_enumerate(rows, rec.code, text) is None
    records = json.loads(text)
    assert "records" in checks.check_enumerate(rows, 0, json.dumps(records[1:]))
    flipped = json.loads(text)
    flipped[0]["ef1"] = not flipped[0]["ef1"]
    assert "EF1 flag" in checks.check_enumerate(rows, 0, json.dumps(flipped))
    no_fpo = json.loads(text)
    for r in no_fpo:
        r["fpo"] = False
    assert checks.check_enumerate(rows, 0, json.dumps(no_fpo)) is not None


# --- tracer --------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores(cli):
    import fairbalance.cli as fcli
    import fairbalance.graph as graph
    import fairbalance.twotypes as twotypes

    original = graph.compute_potentials
    tracer = tracing.Tracer()
    with tracer.installed(op=0):
        assert fcli.compute_potentials is twotypes.compute_potentials is graph.compute_potentials
        assert graph.compute_potentials is not original
    assert fcli.compute_potentials is twotypes.compute_potentials is graph.compute_potentials is original


def test_tracer_fails_loudly_on_a_hidden_binding(cli, monkeypatch):
    import types

    import fairbalance.core as core

    module = types.ModuleType("fairbalance.hidden")
    exec("def pick(inst, classify=classify):\n    return classify(inst)\n",
         {"classify": core.classify, "__name__": "fairbalance.hidden"}, module.__dict__)
    monkeypatch.setitem(sys.modules, "fairbalance.hidden", module)
    with pytest.raises(tracing.TraceError, match="fairbalance.hidden.pick"):
        tracing.Tracer()


def test_traced_counts_repeat_exactly(cli, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_SAMPLE", 3)
    cases = instances.build_pool("enumerate-small", 1, str(tmp_path / "in"))
    counts = []
    for _ in range(2):
        tracer, plain, traced = run.traced_passes(cli, "enumerate", cases, 0)
        tracing.self_check("enumerate-small", tracer.spans, len(traced))
        values = tracing.layer_metrics(tracer.spans, [1.0] * len(traced))
        counts.append({k: v for k, v in values.items() if not k.endswith("ms")})
    assert counts[0] == counts[1]
    expected = [math.factorial(m) // math.factorial(m // n) ** n for n, m in (c.shape for c in cases[:3])]
    assert counts[0]["oracle.allocations"] == sum(expected) / 3
    with pytest.raises(tracing.TraceError, match="oracle"):
        tracing.self_check("check-fpo", tracer.spans, len(traced))


# --- declared metrics ------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(BENCH, "layers.json")) as fh:
        layers = json.load(fh)["layers"]
    assert [w["name"] for w in bench["workloads"]] == list(instances.WORKLOADS)
    declared = [m["name"] for m in bench["per_layer"]]
    mapped = [name for layer in layers.values() for name in layer["metrics"]]
    assert sorted(declared) == sorted(mapped) and len(set(mapped)) == len(mapped)
    computed = set(tracing.layer_metrics([], [1.0])) | {"trace.overhead_ratio"}
    assert computed == set(declared)
    for layer in layers.values():
        for metric, workloads in layer["moves"].items():
            assert metric in {m["name"] for m in bench["end_to_end"]}
            assert set(workloads) <= set(instances.WORKLOADS)
        assert set(layer["unmoved"]) <= set(instances.WORKLOADS)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "check-fpo", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode == 2
    assert proc.stdout == ""
