"""Command-line front end: instance I/O, solvers, checkers, reports.

Exit codes: 0 success, 1 a requested check failed, 2 unreadable or invalid
input (a number longer than MAX_DIGITS digits included) or an unwritable
output file, 3 no applicable algorithm or a size guard tripped (too many
enumeration states, or a result number longer than MAX_DIGITS digits, which
cannot be printed), 4 an internal invariant was violated.

All rationals travel as canonical "p/q" strings (integers may be plain
JSON numbers), so files round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import re
import sys
from fractions import Fraction

from . import lp as lp_mod
from . import oracle as oracle_mod
from . import verify as verify_mod
from .core import (
    Allocation,
    FairDivisionError,
    Instance,
    MoreThanTwoTypes,
    NotBivalued,
    Solution,
    TooLargeError,
    make_allocation,
    reduce_unconstrained,
)
# bench/test_bench.py checks that the tracer rebinds compute_potentials here
from .graph import compute_potentials  # noqa: F401
from .solver import class_certificate, solve

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_INAPPLICABLE = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    pass


# --- rational + file codecs ---------------------------------------------------

# Python's int-to-str limit (4300 unless PYTHONINTMAXSTRDIGITS lowers it):
# a longer integer cannot be printed.  Without a limit, 4300 still bounds work.
MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
_DIGIT_BOUND = 10 ** MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _fits(numerator: int, denominator: int) -> bool:
    return -_DIGIT_BOUND < numerator < _DIGIT_BOUND and denominator < _DIGIT_BOUND


def _shown(obj) -> str:
    """repr(obj), or a stand-in when obj holds an int too long for repr
    under Python's int-to-str limit (a library caller's, never JSON's)."""
    try:
        return repr(obj)
    except ValueError:
        return "<an integer too long to print>"


def _pair_to_json(numerator: int, denominator: int):
    """numerator/denominator (denominator positive) as JSON, reduced first:
    an int when the reduced denominator is 1, else "p/q"; TooLargeError
    when the reduced pair has more than MAX_DIGITS digits."""
    common = math.gcd(numerator, denominator)
    numerator, denominator = numerator // common, denominator // common
    if not _fits(numerator, denominator):
        raise TooLargeError(f"a result number has more than {MAX_DIGITS} digits and cannot be printed")
    if denominator == 1:
        return numerator
    return f"{numerator}/{denominator}"


def rational_to_json(x: Fraction):
    return _pair_to_json(x.numerator, x.denominator)


def rational_from_json(obj) -> Fraction:
    return Fraction(*_read_rational(obj))


def _read_rational(obj) -> tuple:
    """A JSON value as a reduced (numerator, denominator) pair, with a
    positive denominator; InputError when it is no rational or has more
    than MAX_DIGITS digits."""
    if isinstance(obj, int):
        if isinstance(obj, bool):
            raise InputError(f"not a rational: {obj!r}")
        if -_DIGIT_BOUND < obj < _DIGIT_BOUND:
            return obj, 1
        raise InputError(f"rational {_shown(obj)} has more than {MAX_DIGITS} digits")
    if isinstance(obj, str):
        try:
            p, slash, q = obj.partition("/")
            if slash and obj.isascii() and p.isdigit() and q.isdigit():
                # the "p/q" that rational_to_json writes: two ints, without
                # Fraction's string parser
                num, den = int(p), int(q)
                if not den:
                    raise ZeroDivisionError(obj)
                g = math.gcd(num, den)
                num, den = num // g, den // g
            else:
                # "1e5000" would build a 5001-digit integer: bound the exponent first
                exponent = _EXPONENT.search(obj)
                if exponent and abs(int(exponent.group(1))) > MAX_DIGITS:
                    raise InputError(f"rational {obj!r} has more than {MAX_DIGITS} digits")
                x = Fraction(obj)
                num, den = x.numerator, x.denominator
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {obj!r}") from exc
    elif isinstance(obj, float):
        if not obj.is_integer():
            raise InputError(f"refusing inexact float {obj!r}; use a 'p/q' string")
        num, den = int(obj), 1
    else:
        raise InputError(f"not a rational: {_shown(obj)}")
    if not _fits(num, den):
        raise InputError(f"rational {obj!r} has more than {MAX_DIGITS} digits")
    return num, den


def _is_int(obj) -> bool:
    """A JSON integer: int but not bool (JSON true/false load as bool)."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past Python's int-to-str limit
        raise InputError(f"cannot read {path}: a number has more than {MAX_DIGITS} digits") from exc
    except RecursionError as exc:
        raise InputError(f"cannot read {path}: arrays or objects nest too deeply") from exc


def parse_instance(data: dict, require_balanced_shape: bool = True) -> Instance:
    if not isinstance(data, dict):
        raise InputError("instance file must be a JSON object")
    try:
        n = data["n"]
        m = data["m"]
        rows = data["valuations"]
    except KeyError as exc:
        raise InputError(f"instance file misses key {exc}") from exc
    if not (_is_int(n) and _is_int(m)):
        raise InputError("n and m must be integers")
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != m for r in rows
    ):
        raise InputError("valuations must be an n x m array")
    if n < 1 or m < 1:
        raise InputError("need at least one agent and one good")
    # each distinct row is read once; the key holds the entries' types too,
    # since 1 == 1.0 == True
    distinct, seen, at = [], {}, []
    for row in rows:
        key = (tuple(row), tuple(map(type, row)))
        try:
            index = seen.get(key)
        except TypeError:  # an unhashable entry, which _read_rational rejects
            index = key = None
        if index is None:
            index = len(distinct)
            distinct.append([_read_rational(v) for v in row])
            if key is not None:
                seen[key] = index
        at.append(index)
    if any(num < 0 for row in distinct for num, _ in row):
        raise InputError("valuations must be nonnegative")
    if require_balanced_shape and m % n != 0:
        raise InputError(f"m={m} is not a multiple of n={n} (use the reduce command)")
    scale = math.lcm(*(den for row in distinct for _, den in row))
    int_rows = [tuple(num * (scale // den) for num, den in row) for row in distinct]
    return Instance(n, m, scale, tuple(int_rows[index] for index in at))


def instance_to_json(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "valuations": [[rational_to_json(v) for v in row] for row in inst.values],
    }


def parse_allocation(data: dict, inst: Instance) -> Allocation:
    if not isinstance(data, dict) or "allocation" not in data:
        raise InputError("allocation file must be a JSON object with an 'allocation' key")
    bundles = data["allocation"]
    if not isinstance(bundles, list) or len(bundles) != inst.n:
        raise InputError(f"allocation must list {inst.n} bundles")
    if any(not isinstance(b, list) or not all(_is_int(j) for j in b) for b in bundles):
        raise InputError("bad allocation: every bundle must be a list of integer good ids")
    alloc = make_allocation(bundles)
    if sum(map(len, bundles)) != inst.m or not alloc.is_partition_of(inst.m):
        raise InputError("allocation does not partition the goods")
    return alloc


def allocation_to_json(alloc: Allocation) -> list:
    return [sorted(b) for b in alloc.bundles]


def _write_text(text: str, path: str | None) -> None:
    """Write to ``path``, or to stdout when it is None, without newline
    translation.  A file that cannot be written is an input error."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def dump_json(obj, path: str | None) -> None:
    _write_text(json.dumps(obj, indent=2) + "\n", path)


# --- solve --------------------------------------------------------------------

def _certificate(sol: Solution) -> dict | None:
    if sol.alpha is None:
        return None
    scale = sol.potentials.scale
    return {
        "alpha": [rational_to_json(a) for a in sol.alpha],
        "gamma": rational_to_json(sol.gamma) if sol.gamma is not None else None,
        "q": [_pair_to_json(v, scale) for v in sol.potentials.qs],
        "p": [_pair_to_json(v, scale) for v in sol.potentials.ps],
    }


def cmd_solve(args) -> int:
    inst = parse_instance(load_json(args.input))
    sol = solve(inst, args.algorithm)
    alloc = sol.allocation
    if sol.alpha is None:
        fpo = lp_mod.fpo_holds(inst, alloc)
    elif lp_mod.verify_complementary_slackness(inst, alloc, sol.potentials, sol.alpha):
        fpo = True
    else:
        print("error: certificate failed re-verification", file=sys.stderr)
        return EXIT_INTERNAL
    checks = {
        "ef1": verify_mod.is_ef1(inst, alloc).holds,
        "fpo": fpo,
        "balanced": alloc.is_balanced(inst),
    }
    result = {
        "allocation": allocation_to_json(alloc),
        "certificate": _certificate(sol),
        "checks": checks,
    }
    dump_json(result, args.output)
    if all(checks.values()):
        return EXIT_OK
    if sol.alpha is None:
        # uncertified output (only round robin returns it) promises EF1
        # alone; a failing efficiency check is legitimate but not a success
        print("note: round-robin output is not fPO-certified", file=sys.stderr)
        return EXIT_INAPPLICABLE
    print("error: solver output failed its own checks", file=sys.stderr)
    return EXIT_INTERNAL


# --- check --------------------------------------------------------------------

def _print_verdict(name: str, verdict, quiet: bool) -> None:
    if quiet:
        return
    if verdict.holds:
        print(f"{name}: holds")
        return
    try:
        line = f"{name}: fails  witness: {verdict.witness}"
    except ValueError as exc:  # a witness number past the int-to-str limit
        raise TooLargeError(f"the {name} witness has a number too long to print") from exc
    print(line)


def _check_max_states(args) -> None:
    if args.max_states < 1:
        raise InputError("--max-states must be at least 1")


def cmd_check(args) -> int:
    _check_max_states(args)
    # --ef1, --pef1 and --fpo --unconstrained take any shape, e.g. the input
    # of the reduce command
    inst = parse_instance(load_json(args.instance), require_balanced_shape=False)
    alloc = parse_allocation(load_json(args.allocation), inst)
    if args.po or (args.fpo and not args.unconstrained):
        if inst.m % inst.n != 0:
            raise InputError(f"m={inst.m} is not a multiple of n={inst.n}, so no allocation is "
                             "balanced (--po and --fpo need one; use --fpo --unconstrained)")
        if not alloc.is_balanced(inst):
            raise InputError(f"allocation is not balanced (every bundle needs {inst.k} goods)")
    if args.pef1 is not None and not all(alloc.bundles):
        raise InputError("price EF1 needs non-empty bundles")
    if not (args.ef1 or args.fpo or args.po or args.pef1 is not None):
        raise InputError("no checks requested (use --ef1/--fpo/--po/--pef1)")
    if args.pef1 is not None:  # read with the other inputs, before any check runs
        data = load_json(args.pef1)
        if not isinstance(data, dict) or not isinstance(data.get("prices"), list):
            raise InputError("prices file must be a JSON object with a 'prices' list")
        prices = [rational_from_json(v) for v in data["prices"]]
        if len(prices) != inst.m:
            raise InputError(f"need {inst.m} prices")
        if any(v.numerator < 0 for v in prices):
            raise InputError("prices must be nonnegative")
    all_hold = True

    if args.ef1:
        v = verify_mod.is_ef1(inst, alloc)
        _print_verdict("ef1", v, args.quiet)
        all_hold &= v.holds
    if args.fpo:
        # weights of the instance's class may prove a balanced allocation fPO
        # without an LP; otherwise the LP decides, and its vertex is the witness
        certified = not args.unconstrained and class_certificate(inst, alloc) is not None
        res = None if certified else lp_mod.check_fpo(
            inst, alloc, mode="unconstrained" if args.unconstrained else "balanced")
        if certified or res.is_fpo:
            if not args.quiet:
                print("fpo: holds")
        else:
            if not args.quiet:
                dominating = [[rational_to_json(v) for v in row] for row in res.dominating]
                print(f"fpo: fails  dominated by fractional allocation {dominating} "
                      f"(total surplus {rational_to_json(res.improvement)})")
            all_hold = False
    if args.po:
        try:
            v = oracle_mod.is_po_bruteforce(inst, alloc, max_states=args.max_states)
        except TooLargeError as exc:
            print(f"po: not decided, enumeration guard tripped ({exc}); "
                  "PO checking is intractable in general", file=sys.stderr)
            return EXIT_INAPPLICABLE
        _print_verdict("po", v, args.quiet)
        all_hold &= v.holds
    if args.pef1 is not None:
        v = verify_mod.is_p_ef1(prices, alloc)
        _print_verdict("pef1", v, args.quiet)
        all_hold &= v.holds

    return EXIT_OK if all_hold else EXIT_CHECK_FAILED


# --- enumerate ----------------------------------------------------------------

def cmd_enumerate(args) -> int:
    _check_max_states(args)
    inst = parse_instance(load_json(args.input))
    report = oracle_mod.full_report(inst, max_states=args.max_states)
    # each record's values are ints over the scale: print the reduced
    # pairs (v, scale), (sum, scale) and (product, scale ** n)
    scale = inst.scale
    nash_scale = scale ** inst.n
    rows = [
        (
            r,
            [_pair_to_json(v, scale) for v in r.scaled_values],
            _pair_to_json(math.prod(r.scaled_values), nash_scale),
            _pair_to_json(sum(r.scaled_values), scale),
        )
        for r in report.records
    ]
    if args.format == "json":
        payload = [
            {
                "allocation": allocation_to_json(r.allocation),
                "values": values,
                "ef1": r.ef1,
                "po": r.po,
                "fpo": r.fpo,
                "nash": nash,
                "utilitarian": utilitarian,
            }
            for r, values, nash, utilitarian in rows
        ]
        dump_json(payload, args.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["allocation"] + [f"v{i}" for i in inst.agents()] + [
            "ef1", "po", "fpo", "nash", "utilitarian",
        ]
        writer.writerow(header)
        for r, values, nash, utilitarian in rows:
            bundles = "|".join(" ".join(str(j) for j in sorted(b)) for b in r.allocation.bundles)
            writer.writerow(
                [bundles]
                + values
                + [int(r.ef1), int(r.po), int(r.fpo)]
                + [nash, utilitarian]
            )
        _write_text(buf.getvalue(), args.output)
    return EXIT_OK


# --- gen ----------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.n < 1 or args.m < 1 or args.m % args.n != 0:
        raise InputError("need n >= 1 and m a positive multiple of n")
    if args.max_value < 1:
        raise InputError("max-value must be at least 1")
    rng = random.Random(args.seed)
    n, m, top = args.n, args.m, args.max_value

    if args.klass == "general":
        rows = [[rng.randint(0, top) for _ in range(m)] for _ in range(n)]
    elif args.klass == "bivalued":
        rows = []
        for _ in range(n):
            b = rng.randint(0, top - 1)
            a = rng.randint(b + 1, top)
            rows.append([a if rng.random() < 0.5 else b for _ in range(m)])
    elif args.klass == "two-types":
        if n < 2:
            raise InputError("two-types generation needs n >= 2")
        u1 = [rng.randint(0, top) for _ in range(m)]
        u2 = u1
        while u2 == u1:
            u2 = [rng.randint(0, top) for _ in range(m)]
        n1 = rng.randint(1, n - 1)
        types = [1] * n1 + [2] * (n - n1)
        rng.shuffle(types)
        rows = [u1 if t == 1 else u2 for t in types]
    else:
        raise InputError(f"unknown class {args.klass!r}")

    dump_json({"n": n, "m": m, "valuations": rows}, args.output)
    return EXIT_OK


# --- reduce -------------------------------------------------------------------

def cmd_reduce(args) -> int:
    inst = parse_instance(load_json(args.input), require_balanced_shape=False)
    reduced, dummies = reduce_unconstrained(inst)
    dump_json(instance_to_json(reduced), args.output)
    mapping = {
        "original_n": inst.n,
        "original_m": inst.m,
        "dummy_goods": sorted(dummies),
    }
    dump_json(mapping, args.output + ".mapping.json")
    return EXIT_OK


# --- entry point ----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fairbalance",
        description="Exact EF1 + fractionally Pareto-optimal balanced allocations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute an EF1 + fPO balanced allocation")
    p.add_argument("input")
    p.add_argument("--algorithm", default="auto",
                   choices=["auto", "bivalued", "two-types", "round-robin"])
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify properties of a given allocation")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--ef1", action="store_true")
    p.add_argument("--fpo", action="store_true")
    p.add_argument("--unconstrained", action="store_true",
                   help="check fPO without the balanced constraint")
    p.add_argument("--po", action="store_true")
    p.add_argument("--pef1", metavar="PRICES_FILE", default=None)
    p.add_argument("--max-states", type=int, default=10 ** 6)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list every balanced allocation with flags")
    p.add_argument("input")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--output", default=None)
    p.add_argument("--max-states", type=int, default=10 ** 4)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("gen", help="generate a pseudo-random instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--class", dest="klass", default="general",
                   choices=["bivalued", "two-types", "general"])
    p.add_argument("--max-value", type=int, default=9)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="append dummy goods to balance an instance")
    p.add_argument("input")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TooLargeError, NotBivalued, MoreThanTwoTypes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except FairDivisionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
