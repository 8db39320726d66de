"""The benchmark still runs, with its trace self-check, on all four
workloads.  A change that hides a traced function from the tracer (a
dispatch table, a default argument, a closure) fails here."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.slow
@pytest.mark.parametrize(
    "workload", ["solve-bivalued", "solve-two-types", "check-fpo", "enumerate-small"]
)
def test_traced_bench_run_passes(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
