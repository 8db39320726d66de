"""Per-layer spans recorded from outside the package, for traced runs.

`Tracer.installed()` rebinds each function named in TARGETS in every
fairbalance module that holds it, including names re-bound through
`from ... import`, so each call records a span; leaving the block restores
the originals.  Spans stay in memory as (name, start, end, parent, op id)
and are written out after the run.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict
from typing import NamedTuple

# Wrapped public functions, by the module (= layer) that defines them.
TARGETS = {
    "cli": ("main", "load_json", "parse_instance", "parse_allocation", "dump_json"),
    "core": ("classify",),
    "bivalued": ("solve_bivalued",),
    "matching": ("max_weight_perfect_matching",),
    "graph": ("compute_potentials", "build_exchange_graph", "detect_negative_cycle"),
    "lp": ("check_fpo", "solve_lp", "verify_complementary_slackness"),
    "twotypes": ("solve_two_types", "critical_values", "compute_delta", "case1_sweep",
                 "case2_exchange"),
    "verify": ("is_ef1", "certify_fpo"),
    "oracle": ("full_report",),
}

# What a span notes besides its times.  Taken after the span ends, so the
# cost is charged to the caller's self time.
NOTES = {
    "matching.max_weight_perfect_matching": lambda args, result: args[0].size,
    "lp.solve_lp": lambda args, result: (len(args[0].a), len(args[0].c)),
    "lp.check_fpo": lambda args, result: args[1].bundles,
    "verify.certify_fpo": lambda args, result: (args[1].bundles, result.holds),
    "verify.is_ef1": lambda args, result: result.holds,
    "twotypes.critical_values": lambda args, result: result.interval_count,
    "oracle.full_report": lambda args, result: len(result.records),
}


class TraceError(Exception):
    """The tracer did not see what the program must do; numbers would lie."""


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: int
    raised: bool
    note: object


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "fairbalance" or name.startswith("fairbalance.")]


def _hidden_references(module, originals: dict) -> list:
    """Places other than module attributes that still hold an original:
    class attributes, default arguments and closure cells of package code."""
    found = []
    for attr, value in vars(module).items():
        if isinstance(value, type) and value.__module__ == module.__name__:
            found += [f"{attr}.{a}" for a, v in vars(value).items() if id(v) in originals]
        if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
            held = list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
            for cell in value.__closure__ or ():
                with contextlib.suppress(ValueError):  # empty cell
                    held.append(cell.cell_contents)
            if any(id(v) in originals for v in held):
                found.append(f"{attr} (default or closure)")
    return [f"{module.__name__}.{where}" for where in found]


class Tracer:
    """Wrappers for TARGETS in the currently imported fairbalance."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        originals = {}
        for layer, names in TARGETS.items():
            module = sys.modules[f"fairbalance.{layer}"]
            for attr in names:
                fn = getattr(module, attr)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        self._bindings = []  # (module, attribute, original, wrapper)
        bound = Counter()
        for module in _package_modules():
            for attr, value in vars(module).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr) + hit)
                    bound[id(value)] += 1
        missed = [f"{fn.__module__}.{fn.__name__} (unbound)"
                  for key, (fn, _) in originals.items() if not bound[key]]
        for module in _package_modules():
            missed += _hidden_references(module, originals)
        if missed:
            raise TraceError("wrappers would miss: " + ", ".join(missed))

    def _wrap(self, name: str, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, tracer.op, True, None)
                raise
            end = clock()
            stack.pop()
            spans[index] = Span(name, start, end, parent, tracer.op, False,
                                note(args, result) if note else None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op: int):
        """Trace calls made inside the block as op number `op`."""
        self.op = op
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "raised": s.raised}) + "\n")


def layer_metrics(spans: list, speeds: list) -> dict:
    """Per-op layer metrics from the spans of traced ops; speeds[op] is the
    op's reference-speed factor, applied to its spans' self times."""
    ops = len(speeds)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    calls = Counter()
    self_ms = defaultdict(float)
    children = defaultdict(list)
    raised = Counter()
    for index, s in enumerate(spans):
        calls[s.name] += 1
        self_ms[s.name] += (s.end - s.start - child_time[index]) * 1000 * speeds[s.op]
        if s.parent >= 0:
            children[s.parent].append(s)
        if s.raised:
            raised[s.name.split(".")[0]] += 1

    def per_op(total):
        return total / ops

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def ms(*names):
        return per_op(sum(self_ms[n] for n in names))

    def under(index, name):
        while index >= 0:
            if spans[index].name == name:
                return True
            index = spans[index].parent
        return False

    notes = defaultdict(list)
    for s in spans:
        if s.note is not None:
            notes[s.name].append(s.note)

    certified = defaultdict(set)  # per op, allocations certify_fpo accepted
    for s in spans:
        if s.name == "verify.certify_fpo" and s.note[1]:
            certified[s.op].add(s.note[0])
    rechecks = sum(1 for s in spans if s.name == "lp.check_fpo" and s.note in certified[s.op])

    twotypes_callers = ("twotypes.solve_two_types", "twotypes.case1_sweep", "twotypes.case2_exchange")
    tries = [s for s in spans if s.name == "verify.is_ef1"
             and s.parent >= 0 and spans[s.parent].name in twotypes_callers]
    paths = Counter()
    for index, s in enumerate(spans):
        if s.name == "twotypes.solve_two_types" and not s.raised:
            names = {c.name: c for c in children[index]}
            grid = names.get("twotypes.critical_values")
            if "twotypes.case1_sweep" in names:
                paths["sweep"] += 1
            elif "twotypes.case2_exchange" in names:
                paths["exchange"] += 1
            elif grid is None or grid.raised:
                paths["trivial"] += 1
            else:
                paths["endpoint"] += 1

    oracle_lps = sum(1 for i, s in enumerate(spans)
                     if s.name == "lp.check_fpo" and under(i, "oracle.full_report"))
    allocations = sum(notes["oracle.full_report"])
    lp_shapes = notes["lp.solve_lp"]

    metrics = {
        "cli.self_ms": ms("cli.main"),
        "cli.io_ms": ms("cli.load_json", "cli.parse_instance", "cli.parse_allocation", "cli.dump_json"),
        "core.classify.calls": per_op(calls["core.classify"]),
        "core.classify.ms": ms("core.classify"),
        "bivalued.solve.ms": ms("bivalued.solve_bivalued"),
        "matching.calls": per_op(calls["matching.max_weight_perfect_matching"]),
        "matching.ms": ms("matching.max_weight_perfect_matching"),
        "matching.size": mean(notes["matching.max_weight_perfect_matching"]),
        "graph.potentials.calls": per_op(calls["graph.compute_potentials"]),
        "graph.potentials.ms": ms("graph.compute_potentials"),
        "graph.build.ms": ms("graph.build_exchange_graph"),
        "graph.negcycle.calls": per_op(calls["graph.detect_negative_cycle"]),
        "graph.negcycle.ms": ms("graph.detect_negative_cycle"),
        "lp.check_fpo.calls": per_op(calls["lp.check_fpo"]),
        "lp.check_fpo.ms": ms("lp.check_fpo"),
        "lp.solve_lp.calls": per_op(calls["lp.solve_lp"]),
        "lp.solve_lp.ms": ms("lp.solve_lp"),
        "lp.solve_lp.rows": mean(rows for rows, _ in lp_shapes),
        "lp.solve_lp.cols": mean(cols for _, cols in lp_shapes),
        "lp.slackness.ms": ms("lp.verify_complementary_slackness"),
        "lp.certified_recheck_ratio": rechecks / calls["lp.check_fpo"] if calls["lp.check_fpo"] else 0.0,
        "twotypes.solve.ms": ms(*twotypes_callers),
        "twotypes.critical_values.ms": ms("twotypes.critical_values"),
        "twotypes.delta.ms": ms("twotypes.compute_delta"),
        "twotypes.grid_intervals": mean(notes["twotypes.critical_values"]),
        "twotypes.ef1_tries": per_op(len(tries)),
        "twotypes.ef1_hit_ratio": mean(1.0 if s.note else 0.0 for s in tries),
        "verify.ef1.calls": per_op(calls["verify.is_ef1"]),
        "verify.ef1.ms": ms("verify.is_ef1"),
        "verify.certify.ms": ms("verify.certify_fpo"),
        "oracle.full_report.ms": ms("oracle.full_report"),
        "oracle.allocations": per_op(allocations),
        "oracle.lp_per_allocation": oracle_lps / allocations if allocations else 0.0,
    }
    for path in ("trivial", "endpoint", "sweep", "exchange"):
        metrics[f"twotypes.path.{path}"] = per_op(paths[path])
    for layer in TARGETS:
        metrics[f"{layer}.raised"] = per_op(raised[layer])
    return metrics


# Layers that must run on exactly one workload; a zero where calls are
# expected means a wrapper missed the binding the program used.
ONLY_ON = {"matching": "solve-bivalued", "twotypes": "solve-two-types", "oracle": "enumerate-small"}


def self_check(workload: str, spans: list, ops: int) -> None:
    """Raise TraceError unless the traced calls match what the workload
    must run: every op enters cli.main, and matching, twotypes and oracle
    run on their own workload only."""
    layer_calls = Counter(s.name.split(".")[0] for s in spans)
    problems = []
    mains = sum(1 for s in spans if s.name == "cli.main")
    if mains != ops:
        problems.append(f"cli.main traced {mains} times in {ops} ops")
    for layer, home in ONLY_ON.items():
        if (layer_calls[layer] > 0) != (workload == home):
            problems.append(f"{layer} traced {layer_calls[layer]} calls on {workload}")
    if problems:
        raise TraceError("trace self-check failed: " + "; ".join(problems))
