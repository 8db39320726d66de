"""fairbalance benchmark: closed-loop CLI workloads with exact output checks.

Run from the repository root:

    python3 bench/run.py --workload solve-bivalued --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in one process, no extra threads: each op is one in-process call
of fairbalance.cli.main(argv) on files this benchmark generated from
--seed, sent only after the previous op returned.  Outputs are checked by
bench/checks.py after the timed window.  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.  `--workload all` runs every workload in its own process and
prints a table.  Run files go to .bench_runs/ under the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import checks
import instances
import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

MIN_OPS = 100  # so that ten samples lie beyond p90
SETUP_REPEATS = 5
TRACE_SAMPLE = 10  # ops in one traced pass


# On a shared 2-vCPU host the wall time of one and the same op varied by a
# third within seconds, as the host's other tenants came and went.  So each
# timed span is bracketed by a fixed exact-arithmetic probe, and times are
# reported at reference speed: measured seconds times REF_PROBE_S over the
# probe's mean time around the span.  REF_PROBE_S is about the probe's time
# on that host when quiet, so values read close to wall time there.  Raw
# wall times are printed and kept in result.json.
REF_PROBE_S = 0.001


def probe() -> float:
    """Seconds taken by a fixed 8x8 exact Gaussian elimination."""
    start = time.perf_counter()
    size = 8
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(size)] for i in range(size)]
    for c in range(size):
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - start


def timed(fn, *args):
    """(result, wall seconds, reference-speed factor) of one call."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - start
    return result, seconds, 2 * REF_PROBE_S / (before + probe())


@dataclass
class OpRecord:
    case: instances.Case
    argv: list
    code: object  # exit code, or None when main raised
    stdout: str
    error: str | None
    seconds: float  # wall time
    speed: float  # reference-speed factor from the probes around the op

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


def import_fairbalance():
    """Import fairbalance.cli afresh from ./src, never from elsewhere."""
    for name in [n for n in sys.modules if n == "fairbalance" or n.startswith("fairbalance.")]:
        del sys.modules[name]
    cli = importlib.import_module("fairbalance.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported fairbalance from {cli.__file__}, not {SRC}")
    return cli


def op_argv(command: str, case: instances.Case) -> list:
    """The CLI call of one op; every result goes to (captured) stdout."""
    if command == "solve":
        return ["solve", case.instance_path]
    if command == "check":
        return ["check", case.instance_path, case.allocation_path, "--ef1", "--fpo"]
    return ["enumerate", case.instance_path, "--format", "json"]


def call_main(cli, argv: list, out: io.StringIO) -> tuple:
    """(exit code, None) or (None, error) of one CLI call."""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv), None
    except (Exception, SystemExit) as exc:  # an op that crashes is a failed op
        return None, f"{type(exc).__name__}: {exc}"


def run_op(cli, command: str, case: instances.Case) -> OpRecord:
    argv = op_argv(command, case)
    out = io.StringIO()
    (code, error), seconds, speed = timed(call_main, cli, argv, out)
    return OpRecord(case, argv, code, out.getvalue(), error, seconds, speed)


def check_record(command: str, rec: OpRecord) -> str | None:
    """None when the op's exit code and output are right, else why not."""
    if rec.error:
        return rec.error
    rows = rec.case.rows
    try:
        if command == "check":
            return checks.check_check(rows, rec.case.bundles, rec.case.certified, rec.code, rec.stdout)
        if command == "solve":
            return checks.check_solve(rows, rec.code, rec.stdout)
        return checks.check_enumerate(rows, rec.code, rec.stdout)
    except (KeyError, IndexError, TypeError, ValueError, SyntaxError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def set_up(name: str, seed: int, inputs: str) -> tuple:
    """Import fairbalance, write the inputs and warm up with one op on the
    first case of the smallest shape; for `check` a certified one, so every
    seed warms up with the same kind of verdict."""
    cli = import_fairbalance()
    cases = instances.build_pool(name, seed, inputs)
    workload = instances.WORKLOADS[name]
    smallest = workload.shapes[0][:2]
    warm = next(c for c in cases if c.shape == smallest and c.certified is not False)
    run_op(cli, workload.command, warm)
    return cli, cases


def closed_loop(cli, command: str, cases: list, seconds: float) -> list:
    """Ops back to back until `seconds` have passed, MIN_OPS are done and
    the last block is whole, so every run holds the exact shape mix."""
    records = []
    start = time.perf_counter()
    while True:
        i = len(records)
        case = cases[i % len(cases)]
        if (time.perf_counter() - start >= seconds and i >= MIN_OPS
                and case.block != cases[(i - 1) % len(cases)].block):
            return records
        records.append(run_op(cli, command, case))


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) density.  A plain
    order statistic jumps between the modes a shape mix creates when noise
    reorders a few ops near the quantile; this estimate moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) if 0 < t < 1 else 0.0

    steps = 8  # Simpson's rule on each order statistic's share of [0, 1]
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def traced_passes(cli, command: str, cases: list, seconds: float) -> tuple:
    """Whole passes over the first TRACE_SAMPLE cases until `seconds` have
    passed.  Every case runs once untraced and once traced per pass, in
    alternating order, so counts per op repeat exactly for one seed and the
    two latency sets compare like for like."""
    tracer = tracing.Tracer()
    sample = cases[:TRACE_SAMPLE]
    plain, traced = [], []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for index, case in enumerate(sample):
            for is_traced in ((False, True) if (index + passes) % 2 == 0 else (True, False)):
                if is_traced:
                    with tracer.installed(op=len(traced)):
                        traced.append(run_op(cli, command, case))
                else:
                    plain.append(run_op(cli, command, case))
        passes += 1
    return tracer, plain, traced


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, seconds: float, ops: dict, trace: bool) -> dict:
    """What a result depends on besides the code: ops maps workload -> op count."""
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": git_commit(),
            "seed": seed, "seconds": seconds, "ops": ops, "traced": trace}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "fairbalance", "cli.py")):
        print(f"error: no fairbalance source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run_dir = os.path.join(RUNS, f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}")
    inputs = os.path.join(run_dir, "inputs")
    command = instances.WORKLOADS[name].command
    try:
        setups = []  # (wall seconds, speed factor) per set-up
        for _ in range(SETUP_REPEATS):
            (cli, cases), *timing = timed(set_up, name, seed, inputs)
            setups.append(timing)
        if trace:
            tracer, plain, traced = traced_passes(cli, command, cases, seconds)
            records = plain + traced
        else:
            records = closed_loop(cli, command, cases, seconds)
        problems = [(rec, check_record(command, rec)) for rec in records]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    failures = [(rec, why) for rec, why in problems if why]
    for rec, why in failures[:5]:
        print(f"failed op {' '.join(rec.argv)}: {why}", file=sys.stderr)

    if trace:
        ops = len(traced)
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
        tracing.self_check(name, tracer.spans, ops)
        values = tracing.layer_metrics(tracer.spans, [r.speed for r in traced])
        values["trace.overhead_ratio"] = (quantile([r.ref_seconds for r in traced], 0.5)
                                          / quantile([r.ref_seconds for r in plain], 0.5))
    else:
        ops = len(records)
        latencies = [rec.ref_seconds * 1000 for rec in records]
        values = {
            "latency_p50_ms": quantile(latencies, 0.5),
            "latency_p90_ms": quantile(latencies, 0.9),
            "ops_per_s": ops / sum(rec.ref_seconds for rec in records),
            "ok_ratio": (ops - len(failures)) / ops,
            "setup_s": statistics.median(wall * speed for wall, speed in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    units = declared_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    wall = {}
    if not trace:
        raw = [rec.seconds * 1000 for rec in records]
        wall = {"latency_p50_ms": quantile(raw, 0.5), "latency_p90_ms": quantile(raw, 0.9),
                "ops_per_s": ops / sum(rec.seconds for rec in records),
                "setup_s": statistics.median(w for w, _ in setups)}
        beyond = ops - math.ceil(0.9 * ops)
        for key, m in metrics.items():
            extra = f"  (wall {wall[key]:.6g})" if key in wall else ""
            if key == "latency_p90_ms":
                extra += f"  ({ops} ops, {beyond} beyond p90)"
            print(f"{name}  {key} = {m['value']:.6g} {m['unit']}{extra}")

    env = environment(seed, seconds, {name: ops}, trace)
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures),
              "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, **result, "wall_clock": wall}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def declared_units(section: str) -> dict:
    """Metric name -> unit as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    ops = {}
    for name in instances.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        ops.update(json.loads(lines[-2])["environment"]["ops"])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = m
            print(f"{name:16s} {key:28s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"environment": environment(seed, seconds, ops, trace)}))
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*instances.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except tracing.TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
