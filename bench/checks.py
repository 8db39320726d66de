"""Output checker for the benchmark, independent of fairbalance.

Every property is re-derived from the instance with exact Fractions.  This
module never imports the package, so a change to fairbalance's own
verifiers cannot change what the benchmark counts as correct.  Each check
returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import ast
import json
import math
import re
from fractions import Fraction


def parse_rational(obj) -> Fraction:
    """An int or a "p/q" string, as the CLI writes rationals."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(f"not a rational: {obj!r}")
    return Fraction(obj)


def rational_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def classify(rows) -> str:
    """Most specific class, in the package's documented order: single,
    bivalued (every row has at most two values), two-types, general."""
    distinct = set(rows)
    if len(distinct) == 1:
        return "single"
    if all(len(set(row)) <= 2 for row in rows):
        return "bivalued"
    if len(distinct) == 2:
        return "two-types"
    return "general"


def bundle_value(rows, agent: int, bundle) -> Fraction:
    return sum((rows[agent - 1][j - 1] for j in bundle), Fraction(0))


def is_balanced_partition(bundles, n: int, m: int) -> bool:
    if len(bundles) != n:
        return False
    goods = [j for b in bundles for j in b]
    return (all(type(j) is int for j in goods)
            and sorted(goods) == list(range(1, m + 1))
            and all(len(b) == m // n for b in bundles))


def is_ef1(rows, bundles) -> bool:
    for i in range(1, len(bundles) + 1):
        own = bundle_value(rows, i, bundles[i - 1])
        for other in bundles:
            if other and own < bundle_value(rows, i, other) - max(rows[i - 1][j - 1] for j in other):
                return False
    return True


def check_solve(rows, code, text) -> str | None:
    """Balanced, EF1, and a certificate proving fPO: alpha > 0 and
    q_i + p_j >= alpha_i v_ij everywhere, with equality on owned pairs."""
    if code != 0:
        return f"exit code {code}"
    n, m = len(rows), len(rows[0])
    result = json.loads(text)
    bundles = result["allocation"]
    if not is_balanced_partition(bundles, n, m):
        return "allocation is not a balanced partition"
    if not is_ef1(rows, bundles):
        return "allocation is not EF1"
    if result["checks"] != {"ef1": True, "fpo": True, "balanced": True}:
        return f"checks block {result['checks']}"
    cert = result["certificate"]
    alpha = [parse_rational(a) for a in cert["alpha"]]
    q = [parse_rational(v) for v in cert["q"]]
    p = [parse_rational(v) for v in cert["p"]]
    if (len(alpha), len(q), len(p)) != (n, n, m):
        return "certificate has the wrong shape"
    if any(a <= 0 for a in alpha):
        return "certificate alpha is not positive"
    owner = {j: i for i, b in enumerate(bundles) for j in b}
    for i in range(n):
        for j in range(m):
            slack = q[i] + p[j] - alpha[i] * rows[i][j]
            if slack < 0:
                return f"certificate infeasible at agent {i + 1}, good {j + 1}"
            if slack != 0 and owner[j + 1] == i:
                return f"certificate not tight on owned pair ({i + 1}, {j + 1})"
    return None


_FPO_FAILS = re.compile(r"fails  dominated by fractional allocation (\[.*\]) \(total surplus (\S+)\)")


def _dominance_problem(rows, bundles, matrix_text, surplus_text) -> str | None:
    """The printed matrix must be a balanced fractional allocation that is
    weakly better for every agent and yields exactly the printed surplus."""
    n, m = len(rows), len(rows[0])
    x = [[parse_rational(v) for v in row] for row in ast.literal_eval(matrix_text)]
    if len(x) != n or any(len(row) != m for row in x):
        return "dominating matrix has the wrong shape"
    if any(v < 0 or v > 1 for row in x for v in row):
        return "dominating matrix has an entry outside [0, 1]"
    if any(sum(x[i][j] for i in range(n)) != 1 for j in range(m)):
        return "dominating matrix does not assign every good once"
    if any(sum(row) != m // n for row in x):
        return "dominating matrix is not balanced"
    gains = [sum(x[i][j] * rows[i][j] for j in range(m)) - bundle_value(rows, i + 1, bundles[i])
             for i in range(n)]
    if any(g < 0 for g in gains):
        return "dominating matrix makes an agent worse off"
    if sum(gains) != parse_rational(surplus_text) or sum(gains) <= 0:
        return "printed surplus does not match the dominating matrix"
    return None


def check_check(rows, bundles, certified: bool, code, stdout: str) -> str | None:
    """`check --ef1 --fpo`: the EF1 verdict matches a recomputation; a
    "holds" fPO verdict is given only on a certified allocation, and a
    "fails" verdict carries a valid dominating witness; the exit code is 0
    exactly when both hold."""
    verdicts = dict(line.split(": ", 1) for line in stdout.splitlines())
    ef1 = verdicts["ef1"]
    if (ef1 == "holds") != is_ef1(rows, bundles) or not (ef1 == "holds" or ef1.startswith("fails")):
        return f"wrong EF1 verdict {ef1[:40]!r}"
    fpo = verdicts["fpo"]
    if fpo == "holds":
        if not certified:
            return "fPO holds on an allocation with a Pareto-improving swap"
    else:
        match = _FPO_FAILS.fullmatch(fpo)
        if match is None:
            return f"unreadable fPO verdict {fpo[:40]!r}"
        if certified:
            return "fPO fails on a certified welfare-maximizing allocation"
        problem = _dominance_problem(rows, bundles, match.group(1), match.group(2))
        if problem:
            return problem
    expected = 0 if ef1 == "holds" and fpo == "holds" else 1
    if code != expected:
        return f"exit code {code}, verdicts need {expected}"
    return None


def _dominates(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b)) and a != b


def check_enumerate(rows, code, text) -> str | None:
    """`enumerate --format json`: every balanced allocation exactly once,
    with recomputed values, EF1, PO, Nash and utilitarian fields; fPO
    implies PO; utilitarian maximizers are fPO; and a bivalued or two-type
    instance has an EF1 + fPO record."""
    if code != 0:
        return f"exit code {code}"
    n, m = len(rows), len(rows[0])
    records = json.loads(text)
    expected = math.factorial(m) // math.factorial(m // n) ** n
    if len(records) != expected:
        return f"{len(records)} records, expected m!/(k!)^n = {expected}"
    seen = set()
    vectors = []
    for r in records:
        bundles = r["allocation"]
        if not is_balanced_partition(bundles, n, m):
            return "record is not a balanced partition"
        key = tuple(tuple(sorted(b)) for b in bundles)
        if key in seen:
            return "allocation listed twice"
        seen.add(key)
        values = tuple(bundle_value(rows, i + 1, b) for i, b in enumerate(bundles))
        if [parse_rational(v) for v in r["values"]] != list(values):
            return "record values do not match the instance"
        if r["ef1"] is not is_ef1(rows, bundles):
            return "EF1 flag does not match a recomputation"
        if parse_rational(r["nash"]) != math.prod(values) or parse_rational(r["utilitarian"]) != sum(values):
            return "Nash or utilitarian value does not match"
        if r["fpo"] and not r["po"]:
            return "fPO record is not PO"
        vectors.append(values)
    distinct = set(vectors)
    best = max(sum(v) for v in vectors)
    for r, vec in zip(records, vectors):
        if r["po"] is any(_dominates(other, vec) for other in distinct):
            return "PO flag does not match the dominance among all records"
        if sum(vec) == best and not r["fpo"]:
            return "a utilitarian maximizer is not flagged fPO"
    if classify(rows) in ("bivalued", "two-types") and not any(r["ef1"] and r["fpo"] for r in records):
        return "no EF1 + fPO record on a bivalued or two-type instance"
    return None
