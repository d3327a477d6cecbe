import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from char2squares import basis, cli
from char2squares.cli import main
from char2squares.core import parse_jordan_type


def run_cli(*argv, env_cap=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env_cap is not None:
        monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", str(env_cap))
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestDecompose:
    def test_sym2_nilpotent_7(self):
        code, out, _ = run_cli(
            "decompose", "--functor", "sym2", "--kind", "nilpotent", "--n", "7"
        )
        assert code == 0
        assert out.strip() == "8^3 1^4"

    def test_method_both_agreement(self):
        code, out, _ = run_cli(
            "decompose", "--functor", "ext2", "--kind", "unipotent", "--n", "6",
            "--method", "both",
        )
        assert code == 0
        assert out.splitlines() == ["8 6 1", "8 6 1"]

    def test_invalid_n(self):
        code, _, err = run_cli(
            "decompose", "--functor", "ext2", "--kind", "unipotent", "--n", "0"
        )
        assert code == 1
        assert "error" in err

    def test_tensor_with_m(self):
        code, out, _ = run_cli(
            "decompose", "--functor", "tensor", "--kind", "nilpotent",
            "--n", "3", "--m", "2",
        )
        assert code == 0
        assert out.strip() == "4 2"

    def test_m_rejected_for_squares(self):
        code, _, err = run_cli(
            "decompose", "--functor", "sym2", "--kind", "nilpotent", "--n", "3", "--m", "2"
        )
        assert code == 1

    def test_json_round_trip(self):
        code, out, _ = run_cli(
            "decompose", "--functor", "sym2", "--kind", "nilpotent", "--n", "9",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["input"] == {"functor": "sym2", "kind": "nilpotent", "n": 9}
        parts = tuple((b["size"], b["multiplicity"]) for b in payload["blocks"])
        assert parse_jordan_type("16 8^3 1^5").parts == parts
        assert payload["total_dim"] == 45

    def test_oracle_cap_exit_code(self, monkeypatch):
        code, _, err = run_cli(
            "decompose", "--functor", "sym2", "--kind", "nilpotent", "--n", "50",
            "--method", "oracle",
            env_cap=100, monkeypatch=monkeypatch,
        )
        assert code == 3

    def test_both_degrades_over_cap(self, monkeypatch):
        code, out, err = run_cli(
            "decompose", "--functor", "sym2", "--kind", "nilpotent", "--n", "50",
            "--method", "both",
            env_cap=100, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "warning" in err
        assert len(out.splitlines()) == 1

    def test_usage_error(self):
        code, _, err = run_cli("decompose", "--functor", "sym2", "--n", "3")
        assert code == 1

    def test_malformed_cap(self, monkeypatch):
        code, out, err = run_cli(
            "expr", "S2(W3)", "--method", "both", env_cap="12k", monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == ""
        assert err == "error: CHAR2SQUARES_ORACLE_CAP must be an integer, not '12k'\n"


_TENSOR_3_5 = ("decompose", "--functor", "tensor", "--kind", "nilpotent", "--n", "5", "--m", "3")
_EXPR = ("expr", "S2(W5 + 2*W3)")


class TestParserReuse:
    CALLS = [
        _TENSOR_3_5,
        _TENSOR_3_5[:-2],
        ("decompose", "--functor", "ext2", "--kind", "unipotent", "--n", "6", "--method", "both"),
        ("decompose", "--functor", "sym2", "--kind", "nilpotent", "--n", "9", "--format", "json"),
        ("decompose", "--functor", "sym2", "--n", "3"),  # usage error: --kind missing
        _EXPR,
        (*_EXPR, "--format", "json"),
        (*_EXPR, "--method", "oracle"),
        ("expr", "W3 +"),  # parse error
        ("expr", "W30000", "--method", "oracle"),  # over the oracle cap
        ("table",),
        ("table", "--max", "4"),
        ("table", "--max", "0"),
        ("basis", "--n", "4", "--dump"),
        ("basis", "--n", "5", "--functor", "sym2", "--verify"),
        ("basis", "--n", "5000"),  # over the chain-vector limit
        ("bogus",),
        (),
        _TENSOR_3_5,
        _EXPR,
    ]

    def test_parser_built_once(self):
        cli._build_parser.cache_clear()
        codes = [run_cli(*argv)[0] for argv in self.CALLS]
        assert cli._build_parser.cache_info().misses == 1
        assert codes.count(0) == 13 and codes.count(1) == 5 and codes.count(3) == 2

    def test_no_parser_built_at_import(self):
        probe = "import char2squares.cli as c; print(c._build_parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env=env)
        assert done.stdout == "0\n"

    @pytest.mark.parametrize(
        "first, second",
        [
            (_TENSOR_3_5, _TENSOR_3_5[:-2]),
            (("decompose", "--functor", "sym2", "--n", "3"), _TENSOR_3_5[:-2]),
            (("expr", "W3 +"), _EXPR),
            (("expr", "W30000", "--method", "oracle"), _EXPR),
            ((*_EXPR, "--format", "json"), _EXPR),
            (("basis", "--n", "4", "--verify", "--dump"), ("basis", "--n", "4")),
        ],
    )
    def test_no_state_between_calls(self, first, second, monkeypatch):
        run_cli(*first)
        reused = run_cli(*second)
        # the builder itself, uncached: every call gets a new parser
        monkeypatch.setattr(cli, "_build_parser", inspect.unwrap(cli._build_parser))
        assert run_cli(*second) == reused


class TestCapReadOnlyForOracle:
    @pytest.mark.parametrize(
        "argv",
        [
            ("expr", "S2(W3)", "--method", "formula"),
            ("decompose", "--functor", "sym2", "--kind", "nilpotent", "--n", "7",
             "--method", "formula"),
            ("basis", "--n", "5"),
            ("basis", "--n", "5", "--functor", "sym2", "--dump"),
        ],
    )
    def test_malformed_cap_ignored_without_oracle(self, argv, monkeypatch):
        monkeypatch.delenv("CHAR2SQUARES_ORACLE_CAP", raising=False)
        expected = run_cli(*argv)
        assert expected[0] == 0 and expected[1]
        assert run_cli(*argv, env_cap="12k", monkeypatch=monkeypatch) == expected

    def test_malformed_cap_before_basis_output(self, monkeypatch):
        code, out, err = run_cli(
            "basis", "--n", "5", "--verify", env_cap="12k", monkeypatch=monkeypatch
        )
        assert (code, out) == (1, "")
        assert err == "error: CHAR2SQUARES_ORACLE_CAP must be an integer, not '12k'\n"


class TestExpr:
    def test_expr_formula(self):
        code, out, _ = run_cli("expr", "T(V2, V3)")
        assert code == 0
        assert out.strip() == "4 2"

    def test_expr_both(self):
        code, out, _ = run_cli("expr", "S2(W5 + 2*W3)", "--method", "both")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]

    def test_expr_parse_error(self):
        code, _, err = run_cli("expr", "T(V2")
        assert code == 1
        assert "parse error" in err

    @pytest.mark.parametrize(
        "opener, atom, expected", [("(", "W3", "3"), ("S2(", "W1", "1"), ("T(W1, ", "W2", "2")]
    )
    def test_expr_nested_300_levels(self, opener, atom, expected):
        text = opener * 300 + atom + ")" * 300
        code, out, err = run_cli("expr", text, "--method", "both")
        assert code == 0
        assert out.splitlines() == [expected, expected]
        assert err == ""

    def test_expr_nested_10000_levels(self):
        code, out, err = run_cli("expr", "(" * 10_000 + "W3" + ")" * 10_000)
        assert code == 1
        assert out == ""
        assert err.startswith("error: parse error: brackets nested deeper than 300")
        assert "Traceback" not in err

    def test_expr_mixed_kinds(self):
        code, _, err = run_cli("expr", "T(V2, W3)")
        assert code == 1

    def test_ext2_cap_counts_ext2_dimension(self, monkeypatch):
        # E2(W5) has dimension 10, under the cap, although S2(W5) has 15
        code, out, err = run_cli(
            "expr", "E2(W5)", "--method", "oracle", env_cap=12, monkeypatch=monkeypatch
        )
        assert code == 0
        assert out == "7 3\n"
        assert err == ""

    def test_repeated_non_atom_above_10000(self):
        # E2(W2) is one block of size 1
        for method in ("formula", "oracle"):
            code, out, err = run_cli("expr", "10001*E2(W2)", "--method", method)
            assert (code, out, err) == (0, "1^10001\n", "")

    @pytest.mark.parametrize("text", [
        "99999999999999999999*E2(W1)",
        "99999999999999999999*E2(E2(W2))",
        "W3 + 99999999999999999999*E2(W1)",
        "T(99999999999999999999*E2(W1), W4)",
    ])
    def test_long_count_of_zero_space(self, text):
        # k copies of a zero-dimensional space are that space, whatever k is
        code, out, err = run_cli("expr", text, "--method", "formula")
        assert (code, err) == (0, "")
        assert run_cli("expr", text, "--method", "oracle") == (0, out, "")
        assert run_cli("expr", text, "--method", "both") == (0, out * 2, "")

    @pytest.mark.parametrize("text", [
        "S2(" * 16 + "W2" + ")" * 16,
        "S2(" * 27 + "W2" + ")" * 27,
        ("9" * 4300 + "*(") * 299 + "W1" + ")" * 299,
    ])
    def test_multiplicity_limit(self, text):
        # multiplicities square at each S2 level, and nested counts multiply
        start = time.perf_counter()
        code, out, err = run_cli("expr", text)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == "error: a block multiplicity reaches the limit 10^4300\n"

    def test_multiplicity_limit_spares_zero_tensor(self):
        # the right factor saturates the limit, but T(0, X) = 0
        start = time.perf_counter()
        code, out, err = run_cli("expr", "T(E2(W1), " + "S2(" * 30 + "W2" + ")" * 30 + ")")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, "0\n", "")

    @pytest.mark.parametrize("text", [
        "T(E2(2*E2(3*W5)), E2(S2(S2(W1))))",
        "T(E2(S2(S2(W1))), E2(2*E2(3*W5)))",
    ])
    def test_zero_factor_tensor_builds_neither_factor(self, text):
        # the other factor alone has 21,945 dimensions, over the default cap
        assert run_cli("expr", text, "--method", "oracle") == (0, "0\n", "")
        assert run_cli("expr", text, "--method", "both") == (0, "0\n0\n", "")

    def test_nonzero_factor_tensor_still_capped(self):
        code, out, err = run_cli("expr", "T(W1, W20001)", "--method", "oracle")
        assert (code, out) == (3, "")
        assert err == "error: oracle space has dimension 20001, above the cap 20000\n"

    def test_largest_printable_multiplicity(self):
        count = "9" * 4300
        assert run_cli("expr", f"{count}*W1") == (0, f"1^{count}\n", "")
        code, _, _ = run_cli("expr", f"{count}*W1 + W1")
        assert code == 3

    @pytest.mark.parametrize("text", ["1" * 4400 + "*W1", "W" + "1" * 4400])
    def test_integer_too_long(self, text):
        code, out, err = run_cli("expr", text)
        assert (code, out) == (1, "")
        expected = f"integer too long (4400 digits) (at position {text.index('1')})"
        assert err == f"error: parse error: {expected}\n"

    @pytest.mark.parametrize("text", [
        "9" * 4300 + "*W9",
        "T(W" + "7" * 4300 + ", W" + "3" * 4300 + ")",
    ], ids=["count", "tensor"])
    def test_json_total_dim_too_long(self, text):
        # total_dim has 4,301 digits or more, which Python will not print
        code, out, err = run_cli("expr", text, "--format", "json")
        assert (code, out) == (3, "")
        assert err == "error: total_dim reaches 10^4300, too long for JSON output\n"

    @pytest.mark.parametrize("text", [
        "9" * 4300 + "*W9",
        "T(W" + "9" * 2200 + ", W" + "9" * 2200 + ")",
    ], ids=["count", "tensor"])
    def test_text_total_dim_too_long(self, text):
        # the JSON bound holds for text too, which would otherwise print megabytes
        start = time.perf_counter()
        code, out, err = run_cli("expr", text)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == "error: total_dim reaches 10^4300, too long for text output\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_digits_too_long(self, fmt):
        # total_dim is below 10^4300, but the parts would print 6.8 MB
        nines = "9" * 2100
        start = time.perf_counter()
        code, out, err = run_cli("expr", f"T(W{nines}, W{nines})", "--format", fmt)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (3, "")
        form = "JSON" if fmt == "json" else "text"
        assert err == f"error: sizes and multiplicities reach 10^6 digits, too long for {form} output\n"

    def test_expr_json(self):
        code, out, _ = run_cli("expr", "E2(V9)", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["input"] == {"expr": "E2(V9)"}
        assert payload["total_dim"] == 36


def _decompose_argv(functor, kind, n, m):
    argv = ["decompose", "--functor", functor, "--kind", kind, "--n", str(n)]
    return argv + (["--m", str(m)] if m is not None else [])


def _expr_text(functor, kind, n, m):
    atom = "V" if kind == "unipotent" else "W"
    if functor == "tensor":
        return f"T({atom}{m if m is not None else n}, {atom}{n})"
    return f"{'E2' if functor == 'ext2' else 'S2'}({atom}{n})"


class TestDecomposeIsExpr:
    """decompose is shorthand for expr on E2(Xn), S2(Xn) and T(Xm, Xn)."""

    @pytest.mark.parametrize("method", ["formula", "oracle", "both"])
    @pytest.mark.parametrize("kind", ["unipotent", "nilpotent"])
    @pytest.mark.parametrize("functor", ["tensor", "ext2", "sym2"])
    def test_same_result_as_expr(self, functor, kind, method, monkeypatch):
        cases = [(n, None) for n in range(1, 13)]
        if functor == "tensor":
            cases += [(n, m) for n in range(1, 13) for m in range(1, n + 1)]
        for cap in (None, 12):
            if cap is None:
                monkeypatch.delenv("CHAR2SQUARES_ORACLE_CAP", raising=False)
            else:
                monkeypatch.setenv("CHAR2SQUARES_ORACLE_CAP", str(cap))
            for n, m in cases:
                opts = ["--method", method, "--format", "json"]
                dec = run_cli(*_decompose_argv(functor, kind, n, m), *opts)
                exp = run_cli("expr", _expr_text(functor, kind, n, m), *opts)
                assert dec[0] == exp[0], (cap, n, m, dec, exp)
                dec_payloads = [json.loads(line) for line in dec[1].splitlines()]
                exp_payloads = [json.loads(line) for line in exp[1].splitlines()]
                keys = ("method", "blocks", "total_dim")
                assert [[p[k] for k in keys] for p in dec_payloads] == [
                    [p[k] for k in keys] for p in exp_payloads
                ], (cap, n, m)
                expected_input = {"functor": functor, "kind": kind, "n": n}
                if m is not None:
                    expected_input["m"] = m
                assert all(p["input"] == expected_input for p in dec_payloads)


class TestMismatch:
    """A wrong oracle result exits 2 and names both partitions on stderr;
    stdout still holds one result per route."""

    @pytest.fixture(autouse=True)
    def wrong_oracle(self, monkeypatch):
        from char2squares import oracle

        monkeypatch.setattr(
            oracle, "oracle_expr_jordan_type", lambda *args, **kwargs: parse_jordan_type("3^2")
        )

    @pytest.mark.parametrize("argv", [
        ("decompose", "--functor", "ext2", "--kind", "unipotent", "--n", "4", "--method", "both"),
        ("expr", "E2(V4)", "--method", "both"),
    ])
    def test_exit_2_with_both_partitions(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out.splitlines() == ["4 2", "3^2"]
        assert err == "error: formula and oracle disagree: formula 4 2, oracle 3^2\n"

    def test_json_stdout_unchanged(self):
        code, out, err = run_cli("expr", "E2(V4)", "--method", "both", "--format", "json")
        assert code == 2
        blocks = [json.loads(line)["blocks"] for line in out.splitlines()]
        assert blocks == [
            [{"size": 4, "multiplicity": 1}, {"size": 2, "multiplicity": 1}],
            [{"size": 3, "multiplicity": 2}],
        ]
        assert "formula 4 2, oracle 3^2" in err

    def test_oracle_alone_is_not_compared(self):
        code, out, err = run_cli("expr", "E2(V4)", "--method", "oracle")
        assert (code, out, err) == (0, "3^2\n", "")


class TestTable:
    def test_reproduces_published_rows(self):
        code, out, _ = run_cli("table", "--max", "9")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        row9 = lines[9].split("  ")
        cells = [c.strip() for c in row9 if c.strip()]
        assert cells == ["9", "15 8^2 5", "16 8^3 5", "15 7^3", "16 8^3 1^5"]

    def test_rejects_bad_max(self):
        code, _, _ = run_cli("table", "--max", "0")
        assert code == 1


class TestBasis:
    def test_verify_tensor(self):
        code, out, _ = run_cli("basis", "--n", "6", "--functor", "tensor", "--verify")
        assert code == 0
        assert "verification passed" in out

    def test_verify_sym(self):
        code, out, _ = run_cli("basis", "--n", "9", "--functor", "sym2", "--verify")
        assert code == 0
        assert "16 8^3 1^5" in out

    def test_dump(self):
        code, out, _ = run_cli("basis", "--n", "3", "--functor", "tensor", "--dump")
        assert code == 0
        assert "v1*v1" in out
        assert sum(1 for line in out.splitlines() if line.startswith("s=")) == 3

    @pytest.mark.parametrize(
        "n, functor, expected",
        [
            (4, "tensor", [
                "tensor square of W_4: 4 chains, type 4^4",
                "s=1: v2*v3 | v1*v3+v2*v2 | v2*v1 | v1*v1",
                "s=2: v3*v3 | v2*v3+v3*v2 | v1*v3+v3*v1 | v1*v2+v2*v1",
                "s=3: v3*v4 | v2*v4+v3*v3 | v1*v4+v3*v2 | v1*v3+v2*v2+v3*v1",
                "s=4: v4*v4 | v3*v4+v4*v3 | v2*v4+v4*v2 | v1*v4+v2*v3+v3*v2+v4*v1",
            ]),
            (5, "sym2", [
                "sym2 square of W_5: 5 chains, type 8 4 1^3",
                "s=1: v4*v5 | v3*v5+v4*v4 | v2*v5+v3*v4 | v1*v5+v3*v3 | v1*v4 | v1*v3"
                " | v1*v2 | v1*v1",
                "s=2: v5*v5",
                "s=3: v3*v4 | v2*v4+v3*v3 | v1*v4+v2*v3 | v2*v2",
                "s=4: v4*v4",
                "s=5: v3*v3",
            ]),
        ],
    )
    def test_dump_golden(self, n, functor, expected):
        code, out, err = run_cli("basis", "--n", str(n), "--functor", functor, "--dump")
        assert (code, err) == (0, "")
        assert out.splitlines() == expected

    def test_cap(self, monkeypatch):
        code, _, _ = run_cli(
            "basis", "--n", "30", "--verify", env_cap=100, monkeypatch=monkeypatch
        )
        assert code == 3

    def test_cap_message_names_oracle_space(self, monkeypatch):
        code, out, err = run_cli(
            "basis", "--n", "9", "--functor", "sym2", "--verify",
            env_cap=40, monkeypatch=monkeypatch,
        )
        assert (code, out) == (3, "")
        assert err == "error: oracle space has dimension 45, above the cap 40\n"

    @pytest.mark.parametrize("functor, vectors", [("tensor", 25_000_000), ("sym2", 12_502_500)])
    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_vector_limit(self, functor, vectors, verify):
        start = time.perf_counter()
        code, out, err = run_cli("basis", "--n", "5000", "--functor", functor, *verify)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: basis has {vectors} chain vectors, above the limit 1048576\n"

    def test_dump_limit(self):
        start = time.perf_counter()
        basis.build_tensor_basis(512)
        build = time.perf_counter() - start
        start = time.perf_counter()
        code, out, err = run_cli("basis", "--n", "512", "--functor", "tensor", "--dump")
        assert time.perf_counter() - start < build + 1.0
        assert (code, out) == (3, "")
        assert err == "error: dump has 7840395 monomials, above the limit 4194304\n"

    @pytest.mark.parametrize("argv", [("--functor", "sym2", "--dump"), ("--functor", "tensor")])
    def test_under_dump_limit(self, argv):
        code, out, err = run_cli("basis", "--n", "512", *argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"{argv[1]} square of W_512: 512 chains, type ")

    def test_verify_memory_is_sparse(self):
        # the oracle hands over sparse images, not 16,384 rows of 16,384 bits
        # (the dense layout peaked at 23.6 MB here, the sparse one near 8 MB)
        tracemalloc.start()
        try:
            code, out, _ = run_cli("basis", "--n", "128", "--functor", "tensor", "--verify")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and "verification passed (16384 vectors)" in out
        assert peak < 12e6
