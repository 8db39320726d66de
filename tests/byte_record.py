"""Digest the CLI's exact output on the benchmark pools, one line per workload.

Run from the root of a checkout, with that checkout's source and benchmark:

    python3 tests/byte_record.py 1 2 3

For every seed, the pools of bench/instances.py are written to a temporary
directory (and read back only through fairbalance), then each op runs
in-process through fairbalance.cli.main:

    solve-bivalued, solve-two-types   solve under all four --algorithm values
    check-fpo                         check --ef1 --fpo
    enumerate-small                   enumerate --format json and --format csv

Each line gives the workload, its op count and the SHA-256 of every op's
argv, exit code, stdout and stderr in run order; file names are relative to
the temporary directory, so two checkouts of the same program print the
same lines.  Running the script in two checkouts compares their bytes.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import instances  # noqa: E402  (bench/instances.py of the checkout)
from fairbalance import cli  # noqa: E402

ALGORITHMS = ("auto", "bivalued", "two-types", "round-robin")


def op_argvs(name: str, case: instances.Case) -> list:
    command = instances.WORKLOADS[name].command
    if command == "solve":
        return [["solve", case.instance_path, "--algorithm", a] for a in ALGORITHMS]
    if command == "check":
        return [["check", case.instance_path, case.allocation_path, "--ef1", "--fpo"]]
    return [["enumerate", case.instance_path, "--format", f] for f in ("json", "csv")]


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call; an escaping
    exception stands in for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(name: str, seeds: list) -> tuple:
    """(op count, hex digest) over the workload's pools for ``seeds``."""
    sha, ops = hashlib.sha256(), 0
    for seed in seeds:
        for case in instances.build_pool(name, seed, f"{name}-{seed}"):
            for argv in op_argvs(name, case):
                sha.update(repr((argv, *run(argv))).encode("utf-8"))
                ops += 1
    return ops, sha.hexdigest()


def main(argv: list) -> int:
    if not argv or not all(a.isdigit() for a in argv):
        print("usage: python3 tests/byte_record.py SEED...", file=sys.stderr)
        return 2
    seeds = [int(a) for a in argv]
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name in instances.WORKLOADS:
                ops, hexdigest = digest(name, seeds)
                print(f"{name} seeds={','.join(argv)} ops={ops} sha256={hexdigest}", flush=True)
        finally:
            os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
