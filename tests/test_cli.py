"""End-to-end tests for the command line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from bockstein import cli
from bockstein.cli import (
    CliError,
    emit_table,
    evaluate,
    main,
    parse,
    parse_cdexpr,
    parse_group,
    verify,
)
from bockstein.groups import Q, Z, Zloc, Zmod
from bockstein.oracle import Universe, enumerate_types
from bockstein.simplicial import pontryagin_stage

from oracles import ROW_KINDS, fig1_row, fig2_row, pinned_product_cells

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

GOLDEN_CASES = {
    "eval_norm.txt": ["eval", "norm(Phi(Zp(2),3) [+] Phi(Q,2))"],
    "eval_dim.txt": ["eval", "dim(nat(3), Z/2^2)"],
    "eval_inorm.txt": ["eval", "inorm(nat(5))"],
    "table_fundamental.txt": ["table", "fundamental", "--n", "3"],
    "table_products.txt": ["table", "products", "--n", "4", "--m", "3"],
    "verify_mp_pair.txt": ["verify", "mp-pair", "--p", "2", "--coeff", "Q"],
    "check_laws.txt": ["check-laws", "--primes", "2", "--max", "2",
                       "--laws",
                       "round-trip,norm-sandwich,field-bound,"
                       "conjugation-zero"],
}


BIG_PRIME = 10 ** 24 + 7


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    @pytest.mark.parametrize("expr, want", [
        ("norm(Phi(Zp(2),3) [+] Phi(Q,2))", "4"),
        ("dim(nat(3), Z/2^2)", "3"),
        ("inorm(nat(5))", "5"),
        ("norm(pow(Phi(Zp(2),2), 2))", "4"),
        ("leq(nat(1), nat(2))", "true"),
        ("leq(nat(2), nat(1))", "false"),
        ("sigma(Zinv(3))", "Zloc(p) for all p != 3"),
    ])
    def test_query_text(self, capsys, expr, want):
        code, out, err = run(capsys, ["eval", expr])
        assert (code, err) == (0, "")
        assert out == want + "\n"

    def test_bare_expression_renders_canonically(self, capsys):
        code, out, _ = run(capsys, ["eval", "nat(2) [+] nat(1)"])
        assert code == 0
        assert out == "nat(3)\n"

    def test_phi_query(self, capsys):
        code, out, _ = run(capsys, ["eval", "phi(Phi(Zp(2),2))"])
        assert code == 0
        assert out == ("Q: 1; Zp: {default: 1, 2: 2}; "
                       "Zpinf: {default: 1}; Zloc: {default: 1, 2: 2}\n")

    def test_precedence_times_binds_tighter_than_sum(self, capsys):
        # nat(2) [+] (nat(2) [x] nat(3)) = nat(8), not nat(12)
        code, out, _ = run(capsys, ["eval", "nat(2) [+] nat(2) [x] nat(3)"])
        assert (code, out) == (0, "nat(8)\n")

    @pytest.mark.parametrize("expr", [
        "Phi(Z,3)",             # Z is not a basis kind
        "norm(nat(2)",          # unbalanced parens
        "nat(2) nat(3)",        # trailing input
        "Phi(Zp(4),2)",         # not a prime
        "frob(nat(1))",         # unknown form
        "dim(nat(2), Z/4)",     # modulus must be p^k
    ])
    def test_parse_errors_exit_two(self, capsys, expr):
        code, out, err = run(capsys, ["eval", expr])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("depth", [101, 3000])
    def test_deep_nesting_exits_two(self, capsys, depth):
        expr = "(" * depth + "nat(1)" + ")" * depth
        code, out, err = run(capsys, ["eval", expr])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "nested deeper than 100 levels" in err

    @pytest.mark.parametrize("depth", [50, 100])
    def test_modest_nesting_evaluates(self, capsys, depth):
        expr = "conj(" * depth + "nat(2)" + ")" * depth
        code, out, err = run(capsys, ["eval", f"norm({expr})"])
        assert (code, out, err) == (0, "2\n", "")

    def test_long_operator_chain_evaluates(self, capsys):
        # A left-associative chain parses flat but evaluates a tree
        # deeper than the recursion limit.
        expr = " [+] ".join(["nat(1)"] * 1500)
        code, out, err = run(capsys, ["eval", f"norm({expr})"])
        assert (code, out, err) == (0, "1500\n", "")

    def test_wedge_with_infinite_values(self, capsys):
        f = "triple(S={3}, D={}, d={zero: 2, default: 2, 3: inf})"
        code, out, err = run(capsys, ["eval", f"{f} \\/ {f}"])
        assert (code, err) == (0, "")
        assert out == f + "\n"

    def test_json_is_sorted_and_stable(self, capsys):
        argv = ["eval", "--json", "norm(Phi(Zp(2),3) [+] Phi(Q,2))"]
        code, first, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(first) == {"query": "norm", "value": 4}
        _, second, _ = run(capsys, argv)
        assert first == second == '{"query": "norm", "value": 4}\n'


class TestParsing:
    def test_round_trip_over_the_model(self):
        for f in enumerate_types(Universe([2, 3], 2)):
            again = evaluate(parse(f.render()))
            assert again["text"] == f.render()
            assert again["json"]["value"] == f.to_json()

    def test_round_trip_extended_model(self):
        for f in enumerate_types(Universe([2], 2, True)):
            assert evaluate(parse(f.render()))["json"]["value"] == f.to_json()

    def test_group_forms(self):
        assert parse_group("Z + Z/2^2") == Z + Zmod(2, 2)
        assert parse_group("Zloc{2,3}") == Zloc([2, 3])
        assert parse_group("Q") is Q

    def test_cdexpr_rejects_queries(self):
        with pytest.raises(CliError):
            parse_cdexpr("norm(nat(1))")

    def test_query_shape(self):
        kind, name, args = parse("dim(nat(2), Q)")
        assert (kind, name) == ("query", "dim")
        assert args[1] is Q


class TestForms:
    """One valid input per function form, and the pinned error texts."""

    @pytest.mark.parametrize("expr, want", [
        ("Phi(Zpinf(3), 2)", "triple(S={3}, D={}, d={zero: 1, default: 1})"),
        ("nat(4)", "nat(4)"),
        ("test(Z/2, 3)",
         "triple(S={2}, D={2}, d={zero: 1, default: 1, 2: 3})"),
        ("triple(S={2}, D={2}, d={default: 1, 2: 3})",
         "triple(S={2}, D={2}, d={zero: 1, default: 1, 2: 3})"),
        ("conj(Phi(Zp(2), 2))",
         "triple(S={2}, D={}, d={zero: -1, default: -1, 2: -2})"),
        ("pow(Phi(Zp(2), 2), 2)",
         "triple(S={2}, D={2}, d={zero: 2, default: 2, 2: 4})"),
        ("prod(nat(2), nat(1))", "nat(3)"),
        ("times(nat(2), nat(3))", "nat(6)"),
        ("wedge(nat(2), Phi(Q, 3))",
         "triple(S=all, D={}, d={zero: 3, default: 2})"),
        ("sigma(Z/3^2)", "Z/3"),
        ("sigma(Zpinf(5))", "Zpinf(5)"),
        ("sigma(Zinv(3))", "Zloc(p) for all p != 3"),
        ("sigma(Zloc{2,3})", "Zloc(2); Zloc(3)"),
        ("sigma(SumAll(Zpinf))", "Zpinf(p) for all p"),
        ("sigma(SumOver({2,3}, Zp))", "Z/2; Z/3"),
    ])
    def test_each_form(self, capsys, expr, want):
        assert run(capsys, ["eval", expr]) == (0, want + "\n", "")

    @pytest.mark.parametrize("expr, err", [
        ("nat(2) [+] Zq(1)", "syntax error at position 11: unknown form 'Zq'"),
        ("sigma(Zq(2))", "syntax error at position 6: unknown group 'Zq'"),
        ("nat(2) [+] Phi(Zp(9), 2)", "at position 18: not a prime: 9"),
        ("sigma(Z/2 + Zpinf(6))", "at position 18: not a prime: 6"),
        ("pow(nat(2), 0)", "scale needs an integer k >= 1: 0"),
        ("(" * 101 + "nat(1)" + ")" * 101,
         "at position 101: expression nested deeper than 100 levels"),
        # The operations run as soon as their operands are read, so the
        # scale error comes before the unbalanced parenthesis.
        ("Phi(Q,2) [x] pow(nat(2), 0))", "scale needs an integer k >= 1: 0"),
    ])
    def test_error_texts(self, capsys, expr, err):
        assert run(capsys, ["eval", expr]) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize("spec, err", [
        ("{zero: 1, default: 1, 2: 5, 2: 6}",
         "at position 22: conflicting values at prime 2"),
        ("{zero: 1, zero: 2, default: 1}",
         "syntax error at position 32: repeated key 'zero' in a d-spec"),
        ("{default: 1, 3: 2, default: 1}",
         "syntax error at position 41: repeated key 'default' in a d-spec"),
    ])
    def test_dspec_refuses_repeated_keys(self, capsys, spec, err):
        expr = f"triple(S={{2}}, D={{}}, d={spec})"
        assert run(capsys, ["eval", expr]) == (2, "", f"error: {err}\n")


class TestTables:
    def test_fundamental_cells_match_known_rows(self):
        for n in (2, 3, 5):
            _, jobj = emit_table("fundamental", n)
            assert [r["label"] for r in jobj["rows"]] == [
                "F(Q, {})".format(n), "F(Zloc(2), {})".format(n),
                "F(Zp(2), {})".format(n), "F(Zpinf(2), {})".format(n)]
            for kind, row in zip(ROW_KINDS, jobj["rows"]):
                assert tuple(row["cells"]) == fig1_row(kind, n)

    def test_products_cells_match_known_rows(self):
        for n, m in ((3, 2), (4, 2), (4, 3), (5, 3)):
            _, jobj = emit_table("products", n, m)
            for kind, row in zip(ROW_KINDS, jobj["rows"]):
                assert tuple(row["cells"]) == fig2_row(kind, n, m)

    def test_pinned_product_cells(self):
        n, m = 5, 3
        _, jobj = emit_table("products", n, m)
        grid = {kind: row["cells"]
                for kind, row in zip(ROW_KINDS, jobj["rows"])}
        # columns: Zloc(p), Zp(p), Zpinf(p), Q, then the q block
        col = {"Zloc": 0, "Zp": 1, "ZpInf": 2, "Q": 3}
        for (row_kind, col_kind), want in pinned_product_cells(n, m).items():
            assert grid[row_kind][col[col_kind]] == want

    def test_table_text_headers(self, capsys):
        code, out, _ = run(capsys, ["table", "fundamental", "--n", "2",
                                    "--p", "3", "--q", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dim_G F(G', 2) with p=3, q=5"
        assert lines[1].split() == ["Zloc(3)", "Zp(3)", "Zpinf(3)", "Q",
                                    "Zloc(5)", "Zp(5)", "Zpinf(5)"]

    @pytest.mark.parametrize("argv", [
        ["table", "fundamental", "--n", "3", "--p", "3", "--q", "3"],
        ["table", "fundamental", "--n", "0"],
        ["table", "products", "--n", "3"],
        ["table", "products", "--n", "2", "--m", "3"],
        ["table", "products", "--n", "3", "--m", "1"],
    ])
    def test_rejected_tables_exit_two(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error: ")


class TestVerify:
    @pytest.mark.parametrize("argv", [
        ["verify", "mp-pair", "--p", "3", "--coeff", "Z/5"],
        ["verify", "pontryagin", "--p", "2", "--stages", "1"],
        ["verify", "ew", "--p", "3", "--n", "2"],
        ["verify", "join", "--p", "2", "--q", "3"],
    ])
    def test_targets_pass(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out.rstrip("\n").endswith("pass")
        assert "FAIL" not in out

    @pytest.mark.parametrize("argv, degrees", [
        (["verify", "ew", "--p", str(BIG_PRIME), "--n", "2"], ("H_2(EW; Z)",)),
        (["verify", "join", "--p", str(BIG_PRIME), "--q", str(BIG_PRIME)],
         ("H~_3", "H~_4")),
    ])
    def test_huge_prime_orders_finish(self, capsys, argv, degrees):
        # Canonical group orders are merged by gcd/lcm, never factored.
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        z = f"Z/{BIG_PRIME}"
        for degree in degrees:
            assert f"  {degree}: {z} (expected {z})  ok\n" in out
        assert out.endswith("pass\n")

    def test_huge_prime_power_coefficients_finish(self, capsys):
        # Orders over Z/p^k are p^min(v_p(t), k): p^k, with millions of
        # digits here, is never built when no free summand needs it.
        code, out, err = run(capsys, ["verify", "mp-pair", "--p", "3",
                                      "--coeff", "Z/3^10000000"])
        assert (code, err) == (0, "")
        assert ("  H^2(M_p, dM_p; Z/3^10000000): Z/3 (expected Z/3)  ok\n"
                in out)
        assert out.endswith("pass\n")

    def test_unknown_target_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nothing"])
        assert exc.value.code == 2

    def test_unsupported_coefficient(self, capsys):
        code, _, err = run(capsys, ["verify", "mp-pair", "--coeff",
                                    "Zloc{2}"])
        assert code == 2
        assert "coefficient" in err

    @pytest.mark.parametrize("argv, runner", [
        (["verify", "mp-pair", "--p", "53"], "_verify_mp_pair"),  # 1920 cells
        (["verify", "ew", "--n", "9"], "_verify_ew"),             # 2047 cells
    ])
    def test_largest_admitted_size(self, capsys, monkeypatch, argv, runner):
        calls = []
        monkeypatch.setattr(cli, runner,
                            lambda *args: calls.append(args) or ([], []))
        code, _, err = run(capsys, argv)
        assert (code, err, len(calls)) == (0, "", 1)

    @pytest.mark.parametrize("argv, cells", [
        (["verify", "mp-pair", "--p", "59"], 36 * 59 + 12),
        (["verify", "ew", "--n", "10"], 2 ** 12 - 1),
        (["verify", "ew", "--n", "10000000000"], 2 ** 66 - 1),
    ])
    def test_oversized_input_exits_two(self, capsys, monkeypatch, argv,
                                       cells):
        for runner in ("_verify_mp_pair", "_verify_ew"):
            monkeypatch.setattr(cli, runner, None)  # must not be reached
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (f"error: {' '.join(argv[:4])} builds {cells} cells; "
                       f"the limit is 2048\n")

    @pytest.mark.parametrize("p, stages", [(829, 1), (7, 2)])  # 99 526, 72 574
    def test_largest_admitted_pontryagin(self, capsys, monkeypatch, p,
                                         stages):
        calls = []
        monkeypatch.setattr(cli, "_verify_pontryagin",
                            lambda *args: calls.append(args) or ([], []))
        code, _, err = run(capsys, ["verify", "pontryagin", "--p", str(p),
                                    "--stages", str(stages)])
        assert (code, err, calls) == (0, "", [(p, stages)])

    @pytest.mark.parametrize("p, stages, cells", [
        (839, 1, 100_726),
        (11, 2, 175_294),
    ])
    def test_oversized_pontryagin_exits_two(self, capsys, monkeypatch, p,
                                            stages, cells):
        monkeypatch.setattr(cli, "_verify_pontryagin", None)
        argv = ["verify", "pontryagin", "--p", str(p),
                "--stages", str(stages)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (f"error: {' '.join(argv)} builds {cells} cells; "
                       f"the limit is 100000\n")

    @pytest.mark.parametrize("p, stages", [(2, 1), (3, 1), (7, 1), (2, 2),
                                           (3, 2)])
    def test_pontryagin_cell_count_is_exact(self, p, stages):
        built, _ = pontryagin_stage(p, stages)
        assert cli._pontryagin_cells(p, stages) == sum(built[-1].f_vector())

    def test_verify_function_reports_checks(self):
        ok, text, jobj = verify("join", p=2, q=3)
        assert ok and jobj["ok"]
        assert all(c["ok"] for c in jobj["checks"])
        assert text.endswith("pass")


class TestCheckLaws:
    def test_small_suite_passes(self, capsys):
        code, out, err = run(capsys, ["check-laws", "--primes", "2",
                                      "--max", "2",
                                      "--laws", "round-trip,norm-sandwich"])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "round-trip                 checked        6  pass"
        assert lines[-1] == "suite: pass"

    def test_unknown_law_exits_two(self, capsys):
        code, _, err = run(capsys, ["check-laws", "--laws", "bogus"])
        assert code == 2
        assert "unknown law" in err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_empty_selection_exits_two(self, capsys, flags):
        code, out, err = run(capsys, ["check-laws", *flags, "--laws", ",,"])
        assert (code, out, err) == (2, "", "error: no laws selected\n")

    def test_bad_bound_exits_two(self, capsys):
        code, _, err = run(capsys, ["check-laws", "--max", "0"])
        assert code == 2

    def test_bad_primes_exit_two(self, capsys):
        code, _, err = run(capsys, ["check-laws", "--primes", "2,9"])
        assert code == 2

    @pytest.mark.parametrize("primes, bound, laws, ok", [
        # standard model b (2b - 1)^k against 2000: 1800, then 2601
        ("2,3", 8, "round-trip", True),
        ("2,3", 9, "round-trip", False),
        # extended model (2b + 1)(4b + 3)^k against 10^5: 73205, 354375
        ("2,3,5,7", 2, "all", True),
        ("2,3,5,7", 3, "all", False),
        ("2,3,5,7", 3, "round-trip", True),    # standard model only: 1875
        ("2,3,5,7", 3, "conjugation-zero", False),
    ])
    def test_model_size_guard(self, capsys, monkeypatch, primes, bound,
                              laws, ok):
        calls = []
        monkeypatch.setattr(cli, "check_laws",
                            lambda u, laws: calls.append(u) or [])
        code, out, err = run(capsys, ["check-laws", "--primes", primes,
                                      "--max", str(bound), "--laws", laws])
        if ok:
            assert (code, err, len(calls)) == (0, "", 1)
        else:
            assert (code, out, calls) == (2, "", [])
            assert err.startswith("error: the model {")
            assert "types; the limit is " in err


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_stable_against_golden(self, capsys, name):
        argv = GOLDEN_CASES[name]
        code, first, err = run(capsys, argv)
        assert (code, err) == (0, "")
        code, second, _ = run(capsys, argv)
        assert code == 0
        want = (GOLDEN_DIR / name).read_text()
        assert first == second == want


class TestColdStart:
    """The runtime is stdlib-only: neither importing the package nor a
    CLI process loads sympy (which alone took ~0.4 s to import), nor
    any other module from outside the standard library."""

    ENV = {**os.environ, "PYTHONPATH": str(SRC_DIR)}

    def test_import_loads_no_sympy(self):
        # Site hooks may load third-party modules (such as
        # _distutils_hack or certifi) at interpreter start, so only the
        # top-level modules the import adds are checked.
        code = ("import sys; before = set(sys.modules); "
                "import bockstein, bockstein.cli; "
                "assert 'sympy' not in sys.modules; "
                "print(' '.join(sorted({m.partition('.')[0] for m in "
                "set(sys.modules) - before})))")
        done = subprocess.run([sys.executable, "-c", code], env=self.ENV,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        added = done.stdout.split()
        assert "bockstein" in added
        assert [m for m in added if m != "bockstein"
                and m not in sys.stdlib_module_names] == []

    def test_cli_process_loads_no_sympy(self):
        # -X importtime lists every module the process imports on stderr.
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "bockstein.cli",
             "eval", "nat(3)"],
            env=self.ENV, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "nat(3)\n")
        assert "bockstein.primes" in done.stderr
        assert "sympy" not in done.stderr
