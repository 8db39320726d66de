import csv
import dataclasses
import functools
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from fairbalance import cli, core, graph, lp, solve
from fairbalance.cli import (
    main,
    parse_instance,
    rational_from_json,
    rational_to_json,
)
from fairbalance.core import (
    InternalInvariantError,
    Solution,
    TooLargeError,
    classify,
    make_allocation,
    make_instance,
)
from fairbalance.graph import Potentials, compute_potentials

from conftest import REF_VALUES, potentials_from_fractions, random_bivalued_instance, random_two_type_instance

REF_FILE = {"n": 2, "m": 4, "valuations": REF_VALUES}
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "solve_golden.json").read_text(encoding="utf-8"))
CHECK_FPO_GOLDEN = json.loads((FIXTURES / "check_fpo_golden.json").read_text(encoding="utf-8"))
ENUMERATE_GOLDEN = json.loads((FIXTURES / "enumerate_golden.json").read_text(encoding="utf-8"))
EMPTY_INSTANCE = {"n": 0, "m": 0, "valuations": []}


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def ref_path(tmp_path):
    return write_json(tmp_path / "ref.json", REF_FILE)


class TestRationalCodec:
    def test_round_trip(self):
        for x in (Fraction(3), Fraction(-7, 2), Fraction(22, 8), Fraction(0)):
            assert rational_from_json(rational_to_json(x)) == x

    def test_integer_compact_form(self):
        assert rational_to_json(Fraction(4, 2)) == 2
        assert rational_to_json(Fraction(3, 2)) == "3/2"

    def test_rejects_inexact_floats(self):
        from fairbalance.cli import InputError

        with pytest.raises(InputError):
            rational_from_json(0.3)
        assert rational_from_json(2.0) == 2

    @pytest.mark.parametrize("text", ["6/4", "007/2", "0/5", " 3/4", "+1/2", "1_0/3", "1.5", "3e2",
                                      "٣/4"])
    def test_strings_parse_as_fraction_does(self, text):
        # ASCII-digit "p/q" is split into two ints; every other string,
        # non-ASCII digits included, goes through Fraction(str)
        x = rational_from_json(text)
        assert type(x) is Fraction and x == Fraction(text)

    def test_json_ints_are_bounded_as_ints(self):
        top = 10 ** cli.MAX_DIGITS - 1
        for value in (0, 7, top, -top):
            x = rational_from_json(value)
            assert type(x) is Fraction and x == value
        # JSON yields a longer int only with the int-to-str limit off, and
        # the message prints it; with the limit on (a library caller), the
        # int cannot be printed and the message says so
        limit = sys.get_int_max_str_digits()
        messages = {0: "rational {value} has more than {digits} digits",
                    cli.MAX_DIGITS: "rational <an integer too long to print> has more than {digits} digits"}
        try:
            for setting, message in messages.items():
                sys.set_int_max_str_digits(setting)
                for value in (top + 1, -top - 1):
                    with pytest.raises(cli.InputError) as info:
                        rational_from_json(value)
                    expected = message.format(value=value if not setting else None, digits=cli.MAX_DIGITS)
                    assert str(info.value) == expected
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("text, message", [
        ("1/0", "cannot parse rational '1/0'"),
        # under the int-to-str limit int() refuses the numerator, as
        # Fraction(str) does; without it the digit bound refuses the value
        ("1" * (cli.MAX_DIGITS + 1) + "/7",
         "cannot parse rational '{}'" if sys.get_int_max_str_digits()
         else f"rational '{{}}' has more than {cli.MAX_DIGITS} digits"),
    ], ids=["zero-denominator", "long-numerator"])
    def test_bad_fractions_exit_2(self, tmp_path, capsys, text, message):
        path = write_json(tmp_path / "inst.json", _with_value(text))
        assert main(["solve", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(text)}\n")


SOLVER_ROWS = pytest.mark.parametrize("rows, solver", [
    ([[5, 2, 5, 2], [1, 0, 0, 1]], "bivalued"),
    ([["5/2", 1, "5/2", 1], ["1/3", 0, 0, "1/3"]], "bivalued"),
    ([[10, 10, 21, 22], [0, 1, 6, 8]], "two-types"),
    ([["10/3", "10/3", 7, "22/3"], [0, "1/2", 3, 4]], "two-types"),
    ([["4/3", 1, "2/3", "1/3"]] * 2, "two-types"),
], ids=["bivalued-int", "bivalued-pq", "two-types-int", "two-types-pq", "one-type-pq"])


class TestParseInstance:
    """parse_instance reads each value once into ints over the least common
    denominator: the same instance as make_instance on the Fraction matrix."""

    @staticmethod
    def assert_same(inst, other):
        assert inst == other and hash(inst) == hash(other)
        assert (inst.scale, inst.rows) == (other.scale, other.rows)
        assert all(type(v) is int for row in inst.rows for v in row)
        assert inst.values == other.values

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_ints_and_rationals(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[rng.randint(0, 30) for _ in range(m)] for _ in range(n)]
            data = {"n": n, "m": m, "valuations": rows}
            self.assert_same(parse_instance(data, require_balanced_shape=False), make_instance(n, m, rows))
            fractions = [[Fraction(v, rng.randint(1, 12)) for v in row] for row in rows]
            data["valuations"] = [[rational_to_json(v) for v in row] for row in fractions]
            self.assert_same(parse_instance(data, require_balanced_shape=False),
                             make_instance(n, m, fractions))

    def test_non_canonical_strings(self):
        texts = ["6/4", "007/2", "1.5", "3e2"]
        inst = parse_instance({"n": 1, "m": 4, "valuations": [texts]})
        self.assert_same(inst, make_instance(1, 4, [[Fraction(t) for t in texts]]))
        assert (inst.scale, inst.rows) == (2, ((3, 7, 3, 600),))

    @SOLVER_ROWS
    def test_solve_builds_no_fraction_matrix(self, rows, solver):
        inst = parse_instance({"n": 2, "m": 4, "valuations": rows})
        assert classify(inst) == solver
        sol = solve(inst)
        assert sol.alpha is not None and "values" not in inst.__dict__
        assert sol == solve(make_instance(2, 4, [[Fraction(v) for v in row] for row in rows]))

    def test_each_distinct_row_is_read_once(self, monkeypatch):
        calls = []
        real = cli._read_rational
        monkeypatch.setattr(cli, "_read_rational", lambda obj: calls.append(obj) or real(obj))
        u1, u2 = [3, "1/2", 0, 7, "5/3", 2], [1, 1, "9/4", 0, 4, 6]
        rows = [u1, u2, u2, u1, u2, u1, u1]
        inst = parse_instance({"n": 7, "m": 6, "valuations": rows}, require_balanced_shape=False)
        assert calls == u1 + u2
        self.assert_same(inst, make_instance(7, 6, [[Fraction(v) for v in row] for row in rows]))
        # [1, 2] == [1.0, 2] == [1, 2.0], yet each row is read on its own
        calls.clear()
        inst = parse_instance({"n": 3, "m": 2, "valuations": [[1, 2], [1.0, 2], [1, 2.0]]},
                              require_balanced_shape=False)
        assert calls == [1, 2, 1.0, 2, 1, 2.0] and inst.rows == ((1, 2),) * 3


class TestSolve:
    def test_two_types_on_reference(self, ref_path, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["solve", ref_path, "--algorithm", "two-types", "--output", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["allocation"] == [[1, 3], [2, 4]]
        assert result["checks"] == {"ef1": True, "fpo": True, "balanced": True}
        cert = result["certificate"]
        assert cert["gamma"] is not None
        assert len(cert["alpha"]) == 2 and len(cert["q"]) == 2 and len(cert["p"]) == 4

    def test_auto_on_identical_rows(self, tmp_path):
        path = write_json(tmp_path / "same.json", {"n": 2, "m": 4, "valuations": [[4, 3, 2, 1]] * 2})
        out = tmp_path / "result.json"
        assert main(["solve", path, "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["checks"]["ef1"] and result["checks"]["fpo"]

    def test_auto_on_bivalued(self, tmp_path):
        path = write_json(tmp_path / "biv.json", {"n": 2, "m": 4, "valuations": [[5, 2, 5, 2], [1, 0, 0, 1]]})
        out = tmp_path / "result.json"
        assert main(["solve", path, "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["certificate"]["alpha"] == ["1/3", 1]
        assert all(result["checks"].values())

    def test_auto_on_general_is_inapplicable(self, tmp_path):
        path = write_json(
            tmp_path / "gen.json",
            {"n": 3, "m": 3, "valuations": [[1, 2, 3], [3, 1, 2], [2, 3, 1]]},
        )
        assert main(["solve", path]) == 3

    def test_round_robin_on_general(self, tmp_path):
        path = write_json(
            tmp_path / "gen.json",
            {"n": 3, "m": 3, "valuations": [[1, 2, 3], [3, 1, 2], [2, 3, 1]]},
        )
        out = tmp_path / "result.json"
        code = main(["solve", path, "--algorithm", "round-robin", "--output", str(out)])
        result = json.loads(out.read_text())
        assert result["checks"]["ef1"] and result["checks"]["balanced"]
        if all(result["checks"].values()):
            assert code == 0
        else:
            assert code == 3

    def test_wrong_algorithm_exits_3(self, ref_path):
        assert main(["solve", ref_path, "--algorithm", "bivalued"]) == 3

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["solve", str(bad)]) == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        # the JSON decoder recurses once per level; this once escaped as a traceback
        path = tmp_path / "inst.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == f"error: cannot read {path}: arrays or objects nest too deeply\n"

    def test_unbalanced_shape_exits_2(self, tmp_path):
        path = write_json(tmp_path / "odd.json", {"n": 2, "m": 3, "valuations": [[1, 2, 3], [4, 5, 6]]})
        assert main(["solve", path]) == 2

    def test_empty_instance_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "empty.json", EMPTY_INSTANCE)
        assert main(["solve", path]) == 2
        assert "at least one agent" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [[[5, 2, 5, 2], [1, 0, 0, 1]], [[10, 10, 21, 22], [0, 1, 6, 8]]],
                             ids=["bivalued", "two-types"])
    def test_one_partition_scan_per_allocation(self, rows, tmp_path, monkeypatch, capsys):
        scanned = []  # keeps every scanned allocation alive, so ids stay distinct
        real = core.Allocation.__dict__["union"].func
        spy = functools.cached_property(lambda a: scanned.append(a) or real(a))
        spy.__set_name__(core.Allocation, "union")
        monkeypatch.setattr(core.Allocation, "union", spy)
        path = write_json(tmp_path / "inst.json", {"n": 2, "m": 4, "valuations": rows})
        assert main(["solve", path]) == 0
        assert json.loads(capsys.readouterr().out)["checks"] == {"ef1": True, "fpo": True, "balanced": True}
        assert scanned and len({id(a) for a in scanned}) == len(scanned)

    @pytest.mark.parametrize("n, m", [(True, 4), (1, True), (1.0, 4), ("1", 4)])
    def test_non_integer_shape_exits_2(self, tmp_path, capsys, n, m):
        # JSON true loads as a Python bool, which is an int subclass
        path = write_json(tmp_path / "inst.json", {"n": n, "m": m, "valuations": [[1, 2, 3, 4]]})
        assert main(["solve", path]) == 2
        assert "n and m must be integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case,algorithm",
    [(case, algorithm) for case in GOLDEN for algorithm in case["solve"]],
    ids=lambda v: v["name"] if isinstance(v, dict) else v,
)
def test_solve_golden_bytes(case, algorithm, tmp_path, capsys):
    """stdout, stderr and exit code of solve, frozen from an earlier release
    that re-proved every certified result with the simplex."""
    path = write_json(tmp_path / "inst.json", case["instance"])
    code = main(["solve", path, "--algorithm", algorithm])
    captured = capsys.readouterr()
    expected = case["solve"][algorithm]
    assert (code, captured.out, captured.err) == (
        expected["exit"], expected["stdout"], expected["stderr"]
    )


@pytest.mark.parametrize("case", CHECK_FPO_GOLDEN, ids=lambda case: case["name"])
def test_check_fpo_golden_bytes(case, tmp_path, capsys):
    """stdout, stderr and exit code of a failing ``check --fpo``, frozen
    before the simplex lost its row duals.  The printed dominating matrix
    is the vertex the pivot sequence lands on, so any change to a pivot
    decision shows here.  The 70 cases are seeded rational instances from
    2x4 to 4x12 with random balanced allocations (56 cases) or random
    partitions checked with ``--unconstrained`` (14 cases)."""
    ipath = write_json(tmp_path / "inst.json", case["instance"])
    apath = write_json(tmp_path / "alloc.json", case["allocation"])
    code = main(["check", ipath, apath, *case["flags"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "case,fmt",
    [(case, fmt) for case in ENUMERATE_GOLDEN for fmt in ("json", "csv")],
    ids=lambda v: v["name"] if isinstance(v, dict) else v,
)
def test_enumerate_golden_bytes(case, fmt, tmp_path, capsys):
    """stdout, stderr and exit code of ``enumerate``, frozen while the
    report still built Fractions per allocation: the 2x4 reference
    instance, a p/q 2x6 instance of each two-agent class, a p/q 4x4
    instance of each class, and a 2x4 instance whose Nash and utilitarian
    pairs reduce and whose value vectors repeat."""
    path = write_json(tmp_path / "inst.json", case["instance"])
    code = main(["enumerate", path, "--format", fmt])
    captured = capsys.readouterr()
    expected = case[fmt]
    assert (code, captured.out, captured.err) == (expected["exit"], expected["stdout"], expected["stderr"])


class TestCertificateGate:
    """solve writes a certified result only when alpha > 0, dual
    feasibility and complementary slackness all re-verify."""

    def run_with(self, monkeypatch, tmp_path, capsys, path, tamper):
        real = solve

        def tampered(inst, algorithm="auto"):
            return tamper(real(inst, algorithm))

        monkeypatch.setattr(cli, "solve", tampered)
        out = tmp_path / "result.json"
        code = main(["solve", path, "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert not out.exists()
        assert captured.out == ""
        assert captured.err == "error: certificate failed re-verification\n"

    def test_infeasible_potentials_exit_4(self, ref_path, monkeypatch, tmp_path, capsys):
        # agent 1 values good 3 at 21 = q_1 + p_3; a lower price breaks feasibility
        def lower_price(sol):
            p = list(sol.potentials.p)
            p[2] -= 1
            return dataclasses.replace(sol, potentials=potentials_from_fractions(sol.potentials.q, p))

        self.run_with(monkeypatch, tmp_path, capsys, ref_path, lower_price)

    def test_non_tight_owned_pair_exits_4(self, ref_path, monkeypatch, tmp_path, capsys):
        # raising q_1 keeps every constraint feasible but leaves agent 1's
        # goods strictly above their weighted value
        def raise_q(sol):
            q = list(sol.potentials.q)
            q[0] += 1
            return dataclasses.replace(sol, potentials=potentials_from_fractions(q, sol.potentials.p))

        self.run_with(monkeypatch, tmp_path, capsys, ref_path, raise_q)

    def test_non_positive_alpha_exits_4(self, ref_path, monkeypatch, tmp_path, capsys):
        # a weight of 0 is no certificate, whatever the potentials
        def zero_weight(sol):
            return dataclasses.replace(sol, alpha=(sol.alpha[0], Fraction(0)) + sol.alpha[2:])

        self.run_with(monkeypatch, tmp_path, capsys, ref_path, zero_weight)


class TestCertificateInts:
    """The potentials stay ints over one scale from Bellman-Ford to the
    printed certificate, which reads back as the same Potentials."""

    @staticmethod
    def solve_capturing(monkeypatch, capsys, path, algorithm="auto"):
        """(exit code, stdout, stderr, the Solution solve() returned or
        None when it raised)."""
        real, seen = solve, []
        monkeypatch.setattr(cli, "solve", lambda inst, algo="auto": seen.append(real(inst, algo)) or seen[-1])
        code = main(["solve", path, "--algorithm", algorithm])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, seen[0] if seen else None

    @staticmethod
    def read_back(certificate) -> Potentials:
        return potentials_from_fractions([rational_from_json(v) for v in certificate["q"]],
                                         [rational_from_json(v) for v in certificate["p"]])

    @SOLVER_ROWS
    def test_solve_builds_no_fraction_potentials(self, rows, solver, monkeypatch, tmp_path, capsys):
        calls, scalings, depth = [], [], []  # depth is non-empty inside scaled_alpha
        real_rows, real_alpha = graph.integer_rows, graph.scaled_alpha

        def spy_alpha(inst, alpha):
            scalings.append(alpha)
            depth.append(alpha)
            try:
                return real_alpha(inst, alpha)
            finally:
                depth.pop()

        package = [module for name, module in sys.modules.items() if name.startswith("fairbalance.")]
        for module in package:
            if hasattr(module, "integer_rows"):
                monkeypatch.setattr(module, "integer_rows", lambda r: calls.append((r, bool(depth))) or real_rows(r))
            if hasattr(module, "scaled_alpha"):
                monkeypatch.setattr(module, "scaled_alpha", spy_alpha)
        path = write_json(tmp_path / "inst.json", {"n": 2, "m": 4, "valuations": rows})
        inst = parse_instance(cli.load_json(path))
        assert classify(inst) == solver
        code, out, _, sol = self.solve_capturing(monkeypatch, capsys, path)
        assert code == 0 and sol.alpha is not None
        pot = sol.potentials
        # solve, the slackness re-check and the printed certificate all ran
        assert "q" not in pot.__dict__ and "p" not in pot.__dict__
        assert all(type(v) is int for v in (pot.scale, *pot.qs, *pot.ps))
        # integer_rows scaled alpha alone, one row of n weights per call, and
        # only inside scaled_alpha: once for the solver's exchange graph and
        # once for the slackness re-check
        assert len(scalings) == 2 and all(alpha == sol.alpha for alpha in scalings)
        assert calls == [((alpha,), True) for alpha in scalings]
        assert self.read_back(json.loads(out)["certificate"]) == pot
        assert solve(inst) == sol

    def test_certificate_reads_back_as_the_potentials(self, monkeypatch, tmp_path, capsys):
        rng = random.Random(41)
        cases = [(case["instance"], algorithm) for case in GOLDEN for algorithm in case["solve"]]
        for _ in range(12):
            make = rng.choice([random_bivalued_instance, random_two_type_instance])
            n = rng.randint(2, 4)
            inst = make(rng, n, rng.randint(1, 3) * (1 if make is random_bivalued_instance else n))
            den = rng.randint(1, 6)  # one denominator keeps the instance's class
            cases.append(({"n": inst.n, "m": inst.m, "valuations": [
                [rational_to_json(v / den) for v in row] for row in inst.values]}, "auto"))
        certified = 0
        for data, algorithm in cases:
            path = write_json(tmp_path / "inst.json", data)
            code, out, _, sol = self.solve_capturing(monkeypatch, capsys, path, algorithm)
            if sol is None or sol.alpha is None:
                continue
            assert code == 0
            certificate = json.loads(out)["certificate"]
            pot = self.read_back(certificate)
            assert pot == sol.potentials and hash(pot) == hash(sol.potentials)
            # the int pair prints as its Fraction view would
            assert certificate["q"] == [rational_to_json(v) for v in sol.potentials.q]
            assert certificate["p"] == [rational_to_json(v) for v in sol.potentials.p]
            certified += 1
        assert certified >= 20, certified

    def test_each_entry_is_reduced_over_the_scale(self):
        pot = Potentials(scale=6, qs=(3, -3), ps=(2, 6, 1, 0))
        sol = Solution(make_allocation([[1, 2], [3, 4]]), (Fraction(1), Fraction(5, 2)), None, pot)
        assert cli._certificate(sol) == {"alpha": [1, "5/2"], "gamma": None,
                                         "q": ["1/2", "-1/2"], "p": ["1/3", 1, "1/6", 0]}

    def test_digit_guard_reads_the_reduced_entry(self):
        alloc = make_allocation([[1]])

        def certificate(scale, q, p):
            pot = Potentials(scale=scale, qs=(q,), ps=(p,))
            return cli._certificate(Solution(alloc, (Fraction(1),), None, pot))

        top = 10 ** cli.MAX_DIGITS - 1
        assert certificate(top, 1, 0)["q"] == [f"1/{top}"]
        # the scale has about 4,950 digits, but each entry reduces to a
        # pair that prints
        a, b = 10 ** 2500, 7 ** 2900
        assert certificate(a * b, a, b) == {"alpha": [1], "gamma": None, "q": [f"1/{b}"], "p": [f"1/{a}"]}
        with pytest.raises(TooLargeError, match="cannot be printed"):
            certificate(top + 1, 0, 1)


class TestInternalErrorExit4:
    """A broken invariant anywhere under a command exits 4 through main()."""

    def test_solver_fault(self, ref_path, monkeypatch, capsys):
        def broken(inst, algorithm="auto"):
            raise InternalInvariantError("boom")

        monkeypatch.setattr(cli, "solve", broken)
        assert main(["solve", ref_path]) == 4
        assert capsys.readouterr() == ("", "internal error: boom\n")

    def test_lp_fault(self, ref_path, monkeypatch, tmp_path, capsys):
        # an infeasible package LP is a caller bug: x + y = 1 and x + y = 2;
        # the allocation is not fPO, so no class certificate skips the LP
        real = lp.solve_lp
        infeasible = lp.LinearProgram(c=(1, 1), a=((1, 1), (1, 1)), b=(1, 2))
        monkeypatch.setattr(lp, "solve_lp", lambda program: real(infeasible))
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 4], [2, 3]]})
        assert main(["check", ref_path, apath, "--fpo"]) == 4
        assert capsys.readouterr() == ("", "internal error: infeasible constraint system\n")

    def test_certified_output_failing_ef1(self, ref_path, monkeypatch, capsys):
        # alpha = (1, 1) certifies the welfare optimum, but agent 2 values
        # agent 1's bundle at 14 and its own at 1, so EF1 fails
        inst = make_instance(2, 4, REF_VALUES)
        alloc = make_allocation([[3, 4], [1, 2]])
        alpha = (Fraction(1), Fraction(1))
        sol = Solution(alloc, alpha, None, compute_potentials(inst, alloc, alpha))
        monkeypatch.setattr(cli, "solve", lambda inst, algorithm="auto": sol)
        assert main(["solve", ref_path]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["checks"] == {"ef1": False, "fpo": True, "balanced": True}
        assert captured.err == "error: solver output failed its own checks\n"


def _with_value(value):
    """A 2 x 2 instance whose first value is ``value``."""
    return {"n": 2, "m": 2, "valuations": [[value, 1], [1, 2]]}


@pytest.mark.parametrize("argv, files, message", [
    (["solve", "{inst}"], {"inst": _with_value(True)}, "not a rational: True"),
    (["solve", "{inst}"], {"inst": _with_value([1])}, "not a rational: [1]"),
    # 1 == True, so a row's reading is reused only for entries of equal types
    (["solve", "{inst}"], {"inst": {"n": 2, "m": 2, "valuations": [[1, 2], [True, 2]]}},
     "not a rational: True"),
    (["solve", "{inst}"], {"inst": {"n": 2, "m": 2, "valuations": [[True, 2], [1, 2]]}},
     "not a rational: True"),
    # a row holding an unhashable entry is still read in file order
    (["solve", "{inst}"], {"inst": {"n": 2, "m": 2, "valuations": [[1, 2], ["x", [1]]]}},
     "cannot parse rational 'x'"),
    (["solve", "{inst}"], {"inst": _with_value(f"1e{cli.MAX_DIGITS}")},
     f"rational '1e{cli.MAX_DIGITS}' has more than {cli.MAX_DIGITS} digits"),
    (["solve", "{inst}"], {"inst": [REF_FILE]}, "instance file must be a JSON object"),
    (["solve", "{inst}"], {"inst": {"n": 2, "valuations": REF_VALUES}},
     "instance file misses key 'm'"),
    (["solve", "{inst}"], {"inst": {"n": 2, "m": 2, "valuations": [[1, 2], [3]]}},
     "valuations must be an n x m array"),
    (["solve", "{inst}"], {"inst": _with_value(-1)}, "valuations must be nonnegative"),
    (["check", "{inst}", "{alloc}", "--ef1"], {"inst": REF_FILE, "alloc": {"bundles": [[1, 3], [2, 4]]}},
     "allocation file must be a JSON object with an 'allocation' key"),
    (["check", "{inst}", "{alloc}", "--ef1"], {"inst": REF_FILE, "alloc": {"allocation": [[1, 2, 3, 4]]}},
     "allocation must list 2 bundles"),
    (["check", "{inst}", "{alloc}", "--pef1", "{prices}"],
     {"inst": REF_FILE, "alloc": {"allocation": [[1, 3], [2, 4]]}, "prices": {"prices": [4, 3]}},
     "need 4 prices"),
    (["check", "{inst}", "{alloc}", "--pef1", "{prices}"],
     {"inst": REF_FILE, "alloc": {"allocation": [[1, 3], [2, 4]]}, "prices": {"prices": [4, 3, "-1/2", 1]}},
     "prices must be nonnegative"),
    (["gen", "--n", "2", "--m", "4", "--max-value", "0"], {}, "max-value must be at least 1"),
    (["gen", "--class", "two-types", "--n", "1", "--m", "4"], {}, "two-types generation needs n >= 2"),
], ids=["value-true", "value-list", "true-after-its-int-row", "true-before-its-int-row",
        "unhashable-row", "value-too-long", "array-file", "no-m-key", "ragged-rows",
        "negative-value", "no-allocation-key", "too-few-bundles", "too-few-prices",
        "negative-price",
        "gen-max-value-0", "gen-two-types-n-1"])
def test_malformed_input_exits_2(argv, files, message, tmp_path, capsys):
    """Malformed input is an input error with its own message, never a
    traceback."""
    paths = {name: write_json(tmp_path / f"{name}.json", obj) for name, obj in files.items()}
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCheck:
    def test_quiet_prints_nothing(self, ref_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, 4]]})
        assert main(["check", ref_path, apath, "--ef1", "--fpo", "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_fpo_failure_prints_dominator(self, ref_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 4], [2, 3]]})
        code = main(["check", ref_path, apath, "--fpo"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fpo: fails" in out and "dominated by" in out

    def test_po_holds_for_same_allocation(self, ref_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 4], [2, 3]]})
        assert main(["check", ref_path, apath, "--po"]) == 0
        assert "po: holds" in capsys.readouterr().out

    def test_ef1_and_fpo_hold(self, ref_path, tmp_path):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, 4]]})
        assert main(["check", ref_path, apath, "--ef1", "--fpo"]) == 0

    def test_po_guard_exits_3(self, ref_path, tmp_path):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, 4]]})
        assert main(["check", ref_path, apath, "--po", "--max-states", "2"]) == 3

    @pytest.mark.parametrize("guard", ["0", "-1"])
    def test_guard_below_1_exits_2(self, ref_path, tmp_path, capsys, guard):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, 4]]})
        assert main(["check", ref_path, apath, "--po", "--max-states", guard]) == 2
        assert capsys.readouterr().err == "error: --max-states must be at least 1\n"

    def test_pef1(self, ref_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, 4]]})
        ppath = write_json(tmp_path / "p.json", {"prices": [4, 3, 2, 1]})
        assert main(["check", ref_path, apath, "--pef1", ppath]) == 0

    def test_pef1_prices_must_be_a_list(self, ref_path, tmp_path, capsys):
        # a string was once iterated digit by digit as four prices
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, 4]]})
        ppath = write_json(tmp_path / "p.json", {"prices": "4321"})
        assert main(["check", ref_path, apath, "--pef1", ppath]) == 2
        assert "'prices' list" in capsys.readouterr().err

    @pytest.mark.parametrize("prices, message", [
        (None, "error: cannot read "),
        ({"prices": [4, 3]}, "error: need 4 prices\n"),
        ({"prices": [4, 3, "-1/2", 1]}, "error: prices must be nonnegative\n"),
    ])
    def test_bad_prices_file_exits_2_before_any_check(self, ref_path, tmp_path, capsys, monkeypatch,
                                                      prices, message):
        ran = []
        for module, name in ((cli.verify_mod, "is_ef1"), (cli.verify_mod, "is_p_ef1"),
                             (cli.oracle_mod, "is_po_bruteforce"), (cli, "class_certificate"),
                             (lp, "check_fpo")):
            monkeypatch.setattr(module, name, lambda *args, _name=name, **kwargs: ran.append(_name))
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, 4]]})
        ppath = str(tmp_path / "missing.json") if prices is None else write_json(tmp_path / "p.json", prices)
        argv = ["check", ref_path, apath, "--ef1", "--po", "--fpo", "--pef1", ppath]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, ran) == ("", []) and err.startswith(message)

    def test_no_checks_requested_is_input_error(self, ref_path, tmp_path):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, 4]]})
        assert main(["check", ref_path, apath]) == 2

    def test_bad_allocation_exits_2(self, ref_path, tmp_path):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, 3]]})
        assert main(["check", ref_path, apath, "--ef1"]) == 2

    @pytest.mark.parametrize("bundles", [
        [[1, 3], [2, 4.0]],  # a float id, even an integral one
        [[1, 3], [2.9, 4]],  # once read as good 2
        [[True, 3], [2, 4]],  # once read as good 1
        [[1, 3], ["2", 4]],  # once read as good 2
        [[1, 3], "24"],  # a string is not a bundle
        [[1, 1, 3], [2, 4]],  # a good listed twice
    ])
    def test_malformed_good_ids_exit_2(self, ref_path, tmp_path, capsys, bundles):
        apath = write_json(tmp_path / "a.json", {"allocation": bundles})
        assert main(["check", ref_path, apath, "--ef1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fpo_on_unbalanced_partition_exits_2(self, ref_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 2, 3], [4]]})
        assert main(["check", ref_path, apath, "--fpo"]) == 2
        assert "not balanced" in capsys.readouterr().err

    def test_po_on_unbalanced_partition_exits_2(self, ref_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 2, 3], [4]]})
        assert main(["check", ref_path, apath, "--po"]) == 2
        assert "not balanced" in capsys.readouterr().err

    def test_pef1_with_empty_bundle_exits_2(self, ref_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 2, 3, 4], []]})
        ppath = write_json(tmp_path / "p.json", {"prices": [4, 3, 2, 1]})
        assert main(["check", ref_path, apath, "--pef1", ppath]) == 2
        assert "non-empty bundles" in capsys.readouterr().err

    def test_ef1_and_unconstrained_fpo_accept_unbalanced(self, ref_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 2, 3, 4], []]})
        assert main(["check", ref_path, apath, "--ef1"]) == 1
        assert capsys.readouterr().out.startswith("ef1: fails  witness: {'envier': 2")
        assert main(["check", ref_path, apath, "--fpo", "--unconstrained"]) == 0
        assert capsys.readouterr().out == "fpo: holds\n"


class TestCheckUnbalancedShape:
    """m not a multiple of n: the instance the reduce command starts from."""

    INSTANCE = {"n": 2, "m": 3, "valuations": [[3, 1, 2], [1, 2, 2]]}

    @pytest.fixture
    def inst_path(self, tmp_path):
        return write_json(tmp_path / "odd.json", self.INSTANCE)

    def test_ef1_and_unconstrained_fpo_hold(self, inst_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1], [2, 3]]})
        assert main(["check", inst_path, apath, "--ef1", "--fpo", "--unconstrained"]) == 0
        assert capsys.readouterr().out == "ef1: holds\nfpo: holds\n"

    def test_unconstrained_fpo_fails_with_surplus_1(self, inst_path, tmp_path, capsys):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1, 2], [3]]})
        assert main(["check", inst_path, apath, "--ef1", "--fpo", "--unconstrained"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("ef1: holds\nfpo: fails  dominated by")
        assert out.endswith("(total surplus 1)\n")

    @pytest.mark.parametrize("flag", ["--po", "--fpo"])
    def test_balanced_checks_exit_2(self, inst_path, tmp_path, capsys, flag):
        apath = write_json(tmp_path / "a.json", {"allocation": [[1], [2, 3]]})
        assert main(["check", inst_path, apath, flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: m=3 is not a multiple of n=2")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["solve", "enumerate"])
    def test_solve_and_enumerate_refuse_the_shape(self, inst_path, capsys, command):
        assert main([command, inst_path]) == 2
        assert capsys.readouterr().err == "error: m=3 is not a multiple of n=2 (use the reduce command)\n"


class TestEnumerate:
    def test_reference_csv(self, ref_path, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["enumerate", ref_path, "--format", "csv", "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        by_alloc = {r["allocation"]: r for r in rows}
        target = by_alloc["1 3|2 4"]
        assert (target["v1"], target["v2"]) == ("31", "9")
        assert target["ef1"] == "1" and target["fpo"] == "1"
        assert sum(int(r["ef1"]) for r in rows) == 4
        assert sum(int(r["fpo"]) for r in rows) == 3
        assert sum(int(r["ef1"]) * int(r["fpo"]) for r in rows) == 1
        nash_max = max(rows, key=lambda r: Fraction(r["nash"]))
        assert nash_max["allocation"] == "1 2|3 4" and nash_max["nash"] == "280"

    def test_single_agent_json(self, tmp_path):
        path = write_json(tmp_path / "one.json", {"n": 1, "m": 2, "valuations": [[1, 2]]})
        out = tmp_path / "report.json"
        assert main(["enumerate", path, "--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 1
        assert payload[0]["allocation"] == [[1, 2]]

    def test_guard_exits_3(self, ref_path):
        assert main(["enumerate", ref_path, "--max-states", "2"]) == 3

    @pytest.mark.parametrize("guard", ["0", "-5"])
    def test_guard_below_1_exits_2(self, ref_path, capsys, guard):
        assert main(["enumerate", ref_path, "--max-states", guard]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --max-states must be at least 1\n")

    def test_empty_instance_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "empty.json", EMPTY_INSTANCE)
        assert main(["enumerate", path]) == 2
        assert "at least one agent" in capsys.readouterr().err


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--seed", "11", "--n", "2", "--m", "4", "--class", "two-types"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_two_types_classifies(self, tmp_path):
        path = tmp_path / "t.json"
        assert main(["gen", "--seed", "1", "--n", "3", "--m", "6", "--class", "two-types",
                     "--output", str(path)]) == 0
        inst = parse_instance(json.loads(path.read_text()))
        assert classify(inst) in ("two-types", "bivalued")
        rows = set(inst.values)
        assert len(rows) == 2

    def test_bivalued_rows(self, tmp_path):
        for seed in (1, 2, 3):
            path = tmp_path / f"b{seed}.json"
            assert main(["gen", "--seed", str(seed), "--n", "3", "--m", "6",
                         "--class", "bivalued", "--output", str(path)]) == 0
            inst = parse_instance(json.loads(path.read_text()))
            assert all(len(set(row)) <= 2 for row in inst.values)

    def test_invalid_shape_exits_2(self):
        assert main(["gen", "--seed", "1", "--n", "2", "--m", "5"]) == 2


class TestReduce:
    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path / "u.json", {"n": 2, "m": 3, "valuations": [[1, 2, 3], [9, 1, 1]]})
        out = tmp_path / "r.json"
        assert main(["reduce", path, "--output", str(out)]) == 0
        reduced = json.loads(out.read_text())
        assert reduced["m"] == 6
        assert all(row[3:] == [0, 0, 0] for row in reduced["valuations"])
        mapping = json.loads((tmp_path / "r.json.mapping.json").read_text())
        assert mapping["dummy_goods"] == [4, 5, 6]
        # the reduced instance is solvable with the balanced pipeline
        sol = tmp_path / "sol.json"
        assert main(["solve", str(out), "--output", str(sol)]) == 0

    def test_single_agent_unchanged(self, tmp_path):
        path = write_json(tmp_path / "one.json", {"n": 1, "m": 3, "valuations": [[1, 2, 3]]})
        out = tmp_path / "r.json"
        assert main(["reduce", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["m"] == 3


class TestJsonRoundTrip:
    def test_instance_round_trip(self, tmp_path):
        from fairbalance.cli import instance_to_json

        inst = parse_instance(
            {"n": 2, "m": 2, "valuations": [["1/2", 3], [0, "7/3"]]}
        )
        again = parse_instance(instance_to_json(inst))
        assert again == inst

    def test_allocation_round_trip(self, ref_path, tmp_path):
        from fairbalance.cli import allocation_to_json, parse_allocation
        from fairbalance.core import make_allocation

        inst = parse_instance(json.loads((tmp_path / "ref.json").read_text()))
        a = make_allocation([{4, 2}, {1, 3}])
        again = parse_allocation({"allocation": allocation_to_json(a)}, inst)
        assert again.bundles == a.bundles

    def test_certificate_round_trip(self, ref_path, tmp_path):
        out = tmp_path / "result.json"
        assert main(["solve", ref_path, "--output", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        alpha = [rational_from_json(a) for a in cert["alpha"]]
        gamma = rational_from_json(cert["gamma"])
        q = [rational_from_json(v) for v in cert["q"]]
        p = [rational_from_json(v) for v in cert["p"]]
        assert alpha == [Fraction(1), gamma]
        # re-serialize and compare canonical forms
        assert [rational_to_json(v) for v in q] == cert["q"]
        assert [rational_to_json(v) for v in p] == cert["p"]


def test_parser_is_built_once_and_reused(ref_path, tmp_path, capsys):
    """main reuses one parser; neither a failed command nor an argparse error
    changes what the next call prints."""
    cli.build_parser.cache_clear()
    bad = write_json(tmp_path / "a.json", {"allocation": [[1, 3], [2, True]]})
    assert main(["solve", ref_path]) == 0
    first = capsys.readouterr()
    assert main(["check", ref_path, bad, "--ef1"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["solve", ref_path, "--algorithm", "no-such-algorithm"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(["solve", ref_path]) == 0
    assert capsys.readouterr() == first
    stats = cli.build_parser.cache_info()
    assert (stats.misses, stats.hits) == (1, 3)


LONG = "9" * (cli.MAX_DIGITS + 1)  # one digit past the printable limit
WIDE = "9" * cli.MAX_DIGITS  # the longest printable integer


class TestOversizedNumbers:
    """Numbers too long to print are refused on input (exit 2) and, when a
    result grows past the limit, on output (exit 3); never a traceback."""

    def run(self, tmp_path, capsys, text, *argv):
        path = tmp_path / "inst.json"
        path.write_text(text, encoding="utf-8")
        code = main([argv[0], str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        return code, err

    def test_long_json_integer_value_exits_2(self, tmp_path, capsys):
        text = '{"n": 2, "m": 2, "valuations": [[%s, 1], [1, 2]]}' % LONG
        code, err = self.run(tmp_path, capsys, text, "solve")
        assert code == 2 and f"a number has more than {cli.MAX_DIGITS} digits" in err
        assert "set_int_max_str_digits" not in err

    def test_long_json_integer_n_exits_2(self, tmp_path, capsys):
        text = '{"n": %s, "m": 2, "valuations": [[1, 1], [1, 2]]}' % LONG
        code, err = self.run(tmp_path, capsys, text, "solve")
        assert code == 2 and f"a number has more than {cli.MAX_DIGITS} digits" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("value", ["1e5000", "1E-5000", "2.5e+4301", "1e" + LONG, LONG + "/7"])
    def test_long_rational_string_exits_2(self, tmp_path, capsys, value):
        text = json.dumps({"n": 2, "m": 2, "valuations": [[value, 1], [1, 2]]})
        assert self.run(tmp_path, capsys, text, "solve")[0] == 2

    def test_exponent_within_the_limit_parses(self):
        assert rational_from_json(f"3e{cli.MAX_DIGITS - 1}") == 3 * 10 ** (cli.MAX_DIGITS - 1)
        assert rational_from_json(WIDE) == 10 ** cli.MAX_DIGITS - 1

    def test_unprintable_enumerate_result_exits_3(self, tmp_path, capsys):
        # each value prints, but the Nash product has twice the digits
        text = '{"n": 2, "m": 2, "valuations": [[%s, 1], [1, %s]]}' % (WIDE, WIDE)
        code, err = self.run(tmp_path, capsys, text, "enumerate", "--format", "json")
        assert code == 3 and "cannot be printed" in err

    def test_unprintable_solve_result_exits_3(self, tmp_path, capsys):
        # each value prints, but their common denominator has 4,401 digits
        rows = [["1/%d" % (10 ** 2200 + 1), 2, 3, 1], ["1/%d" % (10 ** 2200 + 3), 2, 3, 1]]
        path = write_json(tmp_path / "inst.json", {"n": 2, "m": 4, "valuations": rows})
        assert main(["solve", path]) == 3
        assert capsys.readouterr() == (
            "", f"error: a result number has more than {cli.MAX_DIGITS} digits and cannot be printed\n")

    def test_unprintable_witness_exits_3(self, tmp_path, capsys):
        text = '{"n": 2, "m": 6, "valuations": [[%s, %s, %s, 0, 0, 0], [1, 1, 1, 1, 1, 1]]}' % (
            WIDE, WIDE, WIDE)
        alloc = write_json(tmp_path / "alloc.json", {"allocation": [[4, 5, 6], [1, 2, 3]]})
        code, err = self.run(tmp_path, capsys, text, "check", alloc, "--ef1")
        assert code == 3 and "too long to print" in err


class TestOversizedEnumeration:
    """The enumeration guard trips on its running count, which is never
    printed, and one agent's goods are enumerated without recursion."""

    @staticmethod
    def files(tmp_path, n, m):
        k = m // n
        inst = write_json(tmp_path / "inst.json", {"n": n, "m": m, "valuations": [[1] * m] * n})
        bundles = [list(range(i * k + 1, (i + 1) * k + 1)) for i in range(n)]
        return inst, write_json(tmp_path / "alloc.json", {"allocation": bundles})

    @pytest.mark.parametrize("n,m", [(2, 16000), (4, 8000)])
    def test_guard_exits_3(self, tmp_path, capsys, n, m):
        # the count m!/(k!)^n has more digits than Python formats
        inst, apath = self.files(tmp_path, n, m)
        assert main(["enumerate", inst, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: more than 10000 balanced allocations\n")
        assert main(["check", inst, apath, "--po"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("po: not decided, enumeration guard tripped "
                                       "(more than 1000000 balanced allocations)")

    def test_one_agent_po_holds(self, tmp_path, capsys):
        inst, apath = self.files(tmp_path, 1, 1100)
        assert main(["check", inst, apath, "--po"]) == 0
        assert capsys.readouterr() == ("po: holds\n", "")

    def test_one_agent_enumerates_without_an_lp(self, tmp_path, capsys, monkeypatch):
        def no_lp(program):
            raise AssertionError("one agent needs no LP")

        monkeypatch.setattr(lp, "solve_lp", no_lp)
        inst, _ = self.files(tmp_path, 1, 1100)
        assert main(["enumerate", inst, "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["allocation"] == [list(range(1, 1101))]
        assert (row["po"], row["fpo"]) == (True, True)


class TestUnwritableOutput:
    """Every --output file goes through one writer; an unwritable path is
    an input error (exit 2), not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["solve", "{inst}"],
        ["enumerate", "{inst}", "--format", "json"],
        ["enumerate", "{inst}", "--format", "csv"],
        ["gen", "--n", "2", "--m", "4"],
        ["reduce", "{inst}"],
    ], ids=["solve", "enumerate-json", "enumerate-csv", "gen", "reduce"])
    def test_exits_2(self, argv, ref_path, tmp_path, capsys):
        out = str(tmp_path / "missing-dir" / "x.json")
        code = main([a.format(inst=ref_path) for a in argv] + ["--output", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {out}")

    def test_file_bytes_match_stdout(self, ref_path, tmp_path, capsys):
        # the writer translates no newlines: a file holds what stdout shows
        for argv in (["solve", ref_path], ["enumerate", ref_path, "--format", "csv"]):
            out = tmp_path / "out.txt"
            assert main(argv) == 0
            shown = capsys.readouterr().out
            assert main(argv + ["--output", str(out)]) == 0
            assert out.read_bytes() == shown.encode("utf-8")
