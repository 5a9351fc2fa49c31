"""Command line interface: outputs, exit codes, determinism, start-up imports."""

import ast
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from eulerq import cli, enumerate_permutations, eulerian, statistics, suites
from eulerq.permstats import DEFAULT_CAP, Partition
from eulerq.report import VerifyReport
from eulerq.symfunc import MonExpansion
from fixtures_tables import CHAR_TABLES
from fixtures_usage import USAGE_OUTPUTS
from test_digests import DIGESTS, WORKLOADS


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_stats_single_permutation(capsys):
    rc, out = run(capsys, "stats", "32541")
    assert rc == 0
    assert "Des: {1,3,4}" in out
    assert "Exc: {1,3}" in out
    assert "Exd: {2,4}" in out
    assert "cycle type: 3,1,1" in out
    assert "des=3  exc=2  maj=8  comaj=2  inv=6  fix=2" in out


def test_stats_json_sorted(capsys):
    rc, out = run(capsys, "stats", "32541", "--output", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["Exd"] == [2, 4]
    assert list(payload) == sorted(payload)


def test_stats_table(capsys):
    rc, out = run(capsys, "stats", "--n", "3", "--table", "maj,exc")
    assert rc == 0
    assert "sums:" in out or "maj" in out
    rc, out = run(capsys, "stats", "--n", "0")
    assert rc == 0
    assert "S_0" in out


def test_stats_usage_errors(capsys):
    assert cli.main(["stats", "3x1"]) == 2
    assert cli.main(["stats", "--n", "4", "--table", "zeta"]) == 2
    assert cli.main(["stats", "--n", "11"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("table", ["", " "])
def test_stats_table_refuses_an_empty_name(capsys, table):
    # an empty --table names one empty statistic; it does not drop the table
    assert cli.main(["stats", "--n", "3", "--table", table, "--output", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unknown statistics ['']; choose from "
                            "('des', 'exc', 'maj', 'comaj', 'inv', 'fix')\n")


def test_expand_json_echoes_vars_zero(capsys):
    # --vars 0 restricts (only the constant term survives) and is echoed as
    # 0, apart from an absent --vars, echoed as null
    rc, out = run(capsys, "expand", "2 + p[2,1]", "m", "--vars", "0", "--output", "json")
    assert (rc, out) == (0, '{"basis":"m","command":"expand","expr":"2 + p[2,1]",'
                            '"value":"2","vars":0}\n')


def test_stats_table_refuses_a_repeated_statistic(capsys):
    # each column has one sum and one cross-check, so a name may appear once
    assert cli.main(["stats", "--n", "3", "--table", "des,exc,des", "--output", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated statistics ['des']; name each once\n"


@pytest.mark.parametrize("argv", [["stats"], ["stats", "321", "--n", "3"]])
def test_stats_needs_exactly_one_of_word_or_n(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give exactly one of a permutation word or --n\n"


STAT_NAMES = ("des", "exc", "maj", "comaj", "inv", "fix")


def brute_stat_sums(n):
    stats = [statistics(sigma) for sigma in enumerate_permutations(n)]
    return len(stats), {s: sum(getattr(st, s) for st in stats) for s in STAT_NAMES}


@pytest.mark.parametrize("n", [0, 1, 5])
def test_stats_n_sums_match_statistics(capsys, n):
    count, sums = brute_stat_sums(n)
    rc, out = run(capsys, "stats", "--n", str(n))
    assert rc == 0
    assert f"permutations: {count}\n" in out
    assert "sums: " + "  ".join(f"{s}={sums[s]}" for s in STAT_NAMES) + "\n" in out
    assert out.endswith("cross-check vs closed forms: OK\n")
    rc, out = run(capsys, "stats", "--n", str(n), "--output", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["permutations"] == count
    assert payload["sums"] == sums
    assert payload["rows"] is None
    assert all(payload["cross_check"].values())


def test_stats_n_table_lists_every_permutation(capsys):
    rc, out = run(capsys, "stats", "--n", "5", "--table", "maj,exc")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["word", "maj", "exc"]
    body = lines[1:121]
    want = [statistics(sigma) for sigma in enumerate_permutations(5)]
    assert [line.split() for line in body] == [
        ["".join(map(str, st.word)), str(st.maj), str(st.exc)] for st in want]
    assert lines[121] == "permutations: 120"
    rc, out = run(capsys, "stats", "--n", "5", "--table", "comaj,inv", "--output", "json")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert rows == [[list(st.word), st.comaj, st.inv] for st in want]


def test_stats_table_limit(capsys):
    # 8! = 40320 rows are under the limit, 9! = 362880 past it; without
    # --table the census still counts S_10
    assert cli._MAX_TABLE_ROWS == 50_000
    rc, out = run(capsys, "stats", "--n", "8", "--table", "maj")
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 40324 and lines[40321] == "permutations: 40320"
    assert cli.main(["stats", "--n", "9", "--table", "maj"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --table lists 362880 rows at n=9, past the limit 50000\n"
    rc, out = run(capsys, "stats", "--n", "10")
    assert rc == 0 and "permutations: 3628800" in out


def test_stats_n_over_cap_message(capsys):
    assert cli.main(["stats", "--n", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=11 exceeds cap 10\n"


# one past the CLI's degree limit
OVER = cli._MAX_DEGREE + 1


@pytest.mark.parametrize("argv", [
    ["qfun", "--n", str(OVER), "--j", "1"],
    ["qfun", "--lambda", f"{OVER - 1},1", "--j", "1"],
    ["chartable", str(OVER)],
    ["expand", f"Q[{OVER},1]"],
    ["expand", f"Q[({OVER}),1]"],
    ["expand", f"h[{OVER}]"],
    ["expand", f"e[{OVER - 2},2] + m[1]"],
    ["expand", f"h[{OVER - 1}] * h[1]"],
    ["expand", f"(h[2] + h[{OVER - 3}]) * (m[2,1] - 1)"],
], ids=["qfun-n", "qfun-lambda", "chartable", "Q-n", "Q-lambda", "atom", "atom-in-sum",
        "product", "nested-product"])
def test_degree_past_the_limit_is_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: degree {OVER} exceeds the limit {OVER - 1}\n"


def test_product_at_the_limit_is_accepted(capsys):
    rc, out = run(capsys, "expand", f"h[{OVER - 2}] * h[1]", "h")
    assert rc == 0
    assert out.strip() == f"h[{OVER - 2},1]"


def test_qfun_past_the_old_cap_renders_the_oracle(capsys):
    rc, out = run(capsys, "qfun", "--n", "10", "--j", "4", "--k", "2", "--basis", "s")
    assert rc == 0
    assert out.strip() == eulerian.q_symf_oracle(10, 4, 2).to_basis("s").render()


def test_readme_states_the_size_limits():
    text = " ".join((ROOT / "README.md").read_text().split())
    assert re.search(r"The degree limit is (\d+):", text).group(1) == str(cli._MAX_DEGREE)
    assert re.search(r"the census limit is (\d+)", text).group(1) == str(DEFAULT_CAP)
    rows = re.search(r"lists at most ([\d,]+) rows", text).group(1)
    assert rows.replace(",", "") == str(cli._MAX_TABLE_ROWS)


def test_qfun_text(capsys):
    rc, out = run(capsys, "qfun", "--n", "2", "--j", "1")
    assert rc == 0
    assert out.strip() == "h[2]"
    rc, out = run(capsys, "qfun", "--lambda", "6", "--j", "3", "--basis", "s")
    assert rc == 0
    assert out.strip() == "3*s[6] + 3*s[5,1] + 3*s[4,2] + s[3,3] + s[3,2,1]"


def test_qfun_usage_errors(capsys):
    assert cli.main(["qfun", "--n", "4"]) == 2  # missing j
    assert cli.main(["qfun", "--j", "1"]) == 2  # missing n and lambda
    assert cli.main(["qfun", "--n", str(OVER), "--j", "1"]) == 2
    assert cli.main(["qfun", "--lambda", str(OVER), "--j", "1"]) == 2
    assert cli.main(["qfun", "--lambda", "3,1", "--j", "1", "--k", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("lam, message", [
    # --lambda reads the parts of an expand atom: one comma between each two
    # integers and none after the last
    ("4,,2,", "error: expected integer, found ','"),
    (",", "error: expected integer, found ','"),
    ("4,2,", "error: expected more input, found None"),
    ("4 2", "error: trailing input at '2'"),
    ("4,0", "error: partition parts must be positive: (4, 0)"),
])
def test_qfun_lambda_takes_the_atom_grammar(capsys, lam, message):
    assert cli.main(["qfun", "--lambda", lam, "--j", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_qfun_empty_lambda_is_the_empty_partition(capsys):
    # as expand reads Q[(),0]
    assert run(capsys, "qfun", "--lambda", "", "--j", "0") == (0, "1\n")
    assert run(capsys, "expand", "Q[(),0]", "h") == (0, "1\n")
    # whitespace around any token, at the end as well
    assert run(capsys, "qfun", "--lambda", " 4, 2 ", "--j", "2") == (0, "h[4,2]\n")
    assert run(capsys, "expand", " h[2] ", "h") == (0, "h[2]\n")


@pytest.mark.parametrize("argv,message", [
    (["--j", "-1"], "error: --j is required and must be nonnegative"),
    (["--j", "1", "--k", "-1"], "error: --k must be nonnegative"),
])
def test_qfun_negative_j_or_k_is_usage_error(capsys, argv, message):
    assert cli.main(["qfun", "--n", "3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_expand_negative_vars_is_usage_error(capsys):
    assert cli.main(["expand", "h[2]", "--vars", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --vars must be nonnegative\n"


def test_chartable_json_matches_reference(capsys):
    rc, out = run(capsys, "chartable", "5", "--output", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["columns"] == [[5, 1], [5, 2]]
    for row in payload["rows"]:
        assert tuple(row["values"]) == CHAR_TABLES[5][tuple(row["lam"])]


def test_chartable_text_cached(capsys):
    rc, out = run(capsys, "chartable", "4")
    assert rc == 0
    assert out.splitlines()[0].split() == ["lambda", "(4,1)", "(4,2)"]
    assert cli.main(["chartable", str(OVER)]) == 2
    assert cli.main(["chartable", "0"]) == 2
    capsys.readouterr()


def test_expand_reference(capsys):
    rc, out = run(capsys, "expand", "omega(Q[5,2,0])", "m", "--vars", "5")
    assert rc == 0
    assert out.strip() == "2*m[2,2,1] + 6*m[2,1,1,1] + 21*m[1,1,1,1,1]"


def test_expand_arithmetic(capsys):
    rc, out = run(capsys, "expand", "Q[4,2] - h[2]*h[1,1]", "h")
    assert rc == 0
    rc2, out2 = run(capsys, "expand", "Q[(4,4),2]", "s")
    assert rc2 == 0
    assert "s[" in out2
    rc3, out3 = run(capsys, "expand", "3", "h")
    assert rc3 == 0
    assert out3.strip() == "3"


def test_expand_usage_errors(capsys):
    assert cli.main(["expand", f"Q[{OVER},1]"]) == 2
    assert cli.main(["expand", "Q[4"]) == 2
    assert cli.main(["expand", "zeta[2]"]) == 2
    assert cli.main(["expand", "h[2]", "--vars", "1"]) == 2  # too few variables
    capsys.readouterr()


# (expression, basis) pairs restricted to x_1..x_N for every N <= 8, N = 0
# included (only the constant term survives there): each
# basis atom, Q in all three forms, omega, products, sums and constants
VARS_GRID = [
    ("h[3]", "m"), ("e[2,1]", "s"), ("s[3,2,1]", "m"), ("p[4]", "h"), ("m[2,1,1]", "e"),
    ("m[1,1,1,1,1,1]", "m"), ("Q[4,1]", "m"), ("Q[5,2,0]", "s"), ("Q[(3,2),1]", "p"),
    ("omega(Q[4,2])", "m"), ("h[2]*e[2] - 3*m[1,1]", "h"), ("2 + p[2,1]", "m"), ("3", "e"),
]


@pytest.mark.parametrize("expr, basis", VARS_GRID, ids=[e for e, _ in VARS_GRID])
def test_expand_vars_matches_the_monomial_round_trip(capsys, expr, basis):
    # the restriction in m gives what listing every exponent vector in N
    # variables and reading the vectors back gives, error included
    value = cli._ExprParser(expr).parse()
    for N in range(9):
        rc = cli.main(["expand", expr, basis, "--vars", str(N)])
        captured = capsys.readouterr()
        try:
            want = value.to_monomial(N).to_symf().to_basis(basis).render()
        except ValueError as e:
            assert (rc, captured.out) == (2, ""), N
            assert captured.err == f"error: --vars {N} cannot carry this expression: {e}\n", N
        else:
            assert (rc, captured.out) == (0, want + "\n"), N


def test_expand_vars_lists_no_exponent_vectors(capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("expand --vars built a MonExpansion")
    monkeypatch.setattr(MonExpansion, "__init__", refuse)
    rc, out = run(capsys, "expand", "omega(Q[5,2,0])", "m", "--vars", "5")
    assert rc == 0 and out == "2*m[2,2,1] + 6*m[2,1,1,1] + 21*m[1,1,1,1,1]\n"
    # once refused by a limit on the number of exponent vectors
    rc, out = run(capsys, "expand", "h[11]", "m", "--vars", "11")
    assert rc == 0 and out == cli._ExprParser("h[11]").parse().to_basis("m").render() + "\n"
    assert out.count("m[") == 56  # every partition of 11
    rc, out = run(capsys, "expand", "m[1,1,1,1,1,1]", "m", "--vars", "23")
    assert rc == 0 and out == "m[1,1,1,1,1,1]\n"
    assert cli.main(["expand", "h[2]", "m", "--vars", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: --vars 1 cannot carry this expression: degree exceeds N; "
        "truncation is not faithful\n")


@pytest.mark.parametrize("expr, message", [
    ("m[0]", "error: partition parts must be positive: (0,)"),
    ("h[1,0]", "error: partition parts must be positive: (1, 0)"),
    ("Q[(2,0),1]", "error: partition parts must be positive: (2, 0)"),
    ("Q[(2,1),x]", "error: expected integer, found 'x'"),
    # integer lists take exactly one comma between entries and none after the last
    ("Q[4 1]", "error: expected ], found '1'"),
    ("Q[(4 4),2]", "error: expected ), found '4'"),
    ("h[2,1,]", "error: expected integer, found ']'"),
    ("Q[4,1,]", "error: expected integer, found ']'"),
])
def test_expand_bad_atoms_are_usage_errors(capsys, expr, message):
    assert cli.main(["expand", expr, "h"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_verify_single_suite(capsys):
    rc, out = run(capsys, "verify", "genfun", "--n-max", "3")
    assert rc == 0
    assert out.strip().endswith("result: PASS")
    assert "genfun: PASS" in out


def test_verify_unknown_suite(capsys):
    rc = cli.main(["verify", "nonsense"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "choose from" in err


def test_verify_negative_n_max_is_usage_error(capsys):
    assert cli.main(["verify", "genfun", "--n-max", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n-max must be nonnegative" in captured.err


def test_verify_jobs_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "genfun", "--jobs", "2"])
    assert exc.value.code == 2


def _record_verify_calls(monkeypatch):
    """Replace every verify_* function the suite thunks can reach by one that
    only records its name and arguments."""
    calls = []
    for module in (cli, suites):
        for name in dir(module):
            if name.startswith("verify_") and callable(getattr(module, name)):
                monkeypatch.setattr(module, name,
                                    lambda *args, _name=name: calls.append((_name, args)))
    return calls


DEFAULT_CALLS = {
    "ci": [
        ("genfun", "verify_main_generating_function", (6,)),
        ("recurrences", "verify_recurrences", (6,)),
        ("qexp", "verify_qexp_generating_function", (6,)),
        ("series", "verify_four_stat_series", (4,)),
        ("finite-spec", "verify_finite_specialization", (5,)),
        ("derangements", "verify_derangement_identities", (6,)),
        ("symmetry", "verify_symmetry_unimodality", (6,)),
        ("positivity", "verify_positivity", (6,)),
        ("characters", "verify_character_formula", (6,)),
        ("structure", "verify_structure_identities", (6, 6, 6)),
        ("specializations", "verify_specializations", (6,)),
        ("related", "verify_related", (5, 4)),
    ],
    "extended": [
        ("genfun", "verify_main_generating_function", (6,)),
        ("recurrences", "verify_recurrences", (7,)),
        ("qexp", "verify_qexp_generating_function", (6,)),
        ("series", "verify_four_stat_series", (8,)),
        ("finite-spec", "verify_finite_specialization", (7,)),
        ("derangements", "verify_derangement_identities", (6,)),
        ("symmetry", "verify_symmetry_unimodality", (7,)),
        ("positivity", "verify_positivity", (8,)),
        ("characters", "verify_character_formula", (8,)),
        ("structure", "verify_structure_identities", (7, 6, 7)),
        ("specializations", "verify_specializations", (8,)),
        ("related", "verify_related", (6, 6)),
    ],
}


@pytest.mark.parametrize("mode", ["ci", "extended"])
def test_default_suite_calls(monkeypatch, mode):
    calls = _record_verify_calls(monkeypatch)
    made = []
    for name, thunk in cli.selected_entries("all", mode, 0):
        calls.clear()
        thunk()
        ((fn, args),) = calls
        made.append((name, fn, args))
    assert made == DEFAULT_CALLS[mode]


SUITE_NAMES = ["genfun", "recurrences", "qexp", "series", "finite-spec",
               "derangements", "symmetry", "positivity", "characters",
               "structure", "specializations", "related"]


def test_suite_table_names():
    assert [row.name for row in cli.SUITES] == SUITE_NAMES


def test_suite_table_matches_the_benchmark_suites():
    """perfbench/run.py reports a verify.<suite>_s metric for each name in its
    SUITES; the file is read as text, so the benchmark is not imported."""
    source = (ROOT / "perfbench" / "run.py").read_text()
    (value,) = [node.value for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SUITES"]]
    assert list(ast.literal_eval(value)) == [row.name for row in cli.SUITES]


def test_traced_names_exist():
    """perfbench/traced_cli.py imports each module in LAYERS, reads
    vars(cls)[meth] for each class method in METHODS, and counts the calls
    of each function in Q_FUNCTIONS as eulerian.<name>; a name the package
    drops or moves out of eulerian would only show when the benchmark runs
    traced."""
    spec = importlib.util.spec_from_file_location("traced_cli", ROOT / "perfbench" / "traced_cli.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    modules = {layer: importlib.import_module(f"eulerq.{layer}") for layer in traced.LAYERS}
    missing = []
    for layer, classes in traced.METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[layer], cls_name, None)
            missing += [f"{layer}.{cls_name}.{meth}" for meth in methods
                        if cls is None or meth not in vars(cls)]
    formulas = modules["eulerian"]
    missing += [f"eulerian.{name}" for name in traced.Q_FUNCTIONS
                if not callable(getattr(formulas, name, None))
                or getattr(formulas, name).__module__ != formulas.__name__]
    assert missing == []


def test_readme_suite_table_matches_the_code():
    lines = (ROOT / "README.md").read_text().split("### Verification suites", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    head, _, *rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in table]
    assert head == ["suite", "what is checked", "ci", "extended"]
    assert [(name, int(ci), int(extended)) for name, _, ci, extended in rows] == [
        (row.name, row.ci, row.extended) for row in cli.SUITES]


@pytest.mark.parametrize("mode", ["ci", "extended"])
@pytest.mark.parametrize("suite", [row.name for row in cli.SUITES])
def test_n_max_never_raises_a_suite_bound(monkeypatch, suite, mode):
    calls = _record_verify_calls(monkeypatch)
    (row,) = [row for row in cli.SUITES if row.name == suite]
    bound = row.ci if mode == "ci" else row.extended
    row.run(bound, mode)
    expected = list(calls)
    assert len(expected) == 1
    for n_max in (bound, bound + 1, bound + 5):
        calls.clear()
        ((_, rebound),) = cli.selected_entries(suite, mode, n_max)
        rebound()
        assert calls == expected, n_max


def test_verify_failure_exit_code(capsys, monkeypatch):
    rep = VerifyReport("stub")
    rep.record("always wrong", {"n": 1}, False, witness="broken")
    monkeypatch.setattr(cli, "SUITES", (cli.Suite("stub", 1, 1, lambda n, mode: rep),))
    rc, out = run(capsys, "verify", "all")
    assert rc == 1
    assert "result: FAIL" in out
    assert "always wrong" in out


def test_verify_json_deterministic_across_runs(capsys):
    outs = []
    for _ in range(2):
        rc, out = run(capsys, "verify", "all", "--n-max", "2", "--output", "json")
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["passed"] is True
    assert len(payload["suites"]) == 12


def dumps(payload):
    """The reference for cli._print_json: json.dumps as the CLI once called it."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# One command of each JSON payload the command line prints, run with
# --output json.
JSON_COMMANDS = [
    ["verify", "series", "--n-max", "3"],
    ["verify", "all", "--n-max", "2"],
    ["stats", "32541"],
    ["stats", "--n", "4"],
    ["stats", "--n", "3", "--table", "maj,exc"],
    ["chartable", "4"],
    ["qfun", "--n", "4", "--j", "1", "--basis", "p"],
    ["qfun", "--n", "4", "--j", "1", "--k", "0"],
    ["qfun", "--lambda", "3,1", "--j", "1", "--basis", "m"],
    ["expand", "m[2,1]", "h"],
    ["expand", "Q[3,1]", "m", "--vars", "3"],
]


def verify_tree(mode, suite, passed, reports):
    """The verify document as the tree of dicts and lists that
    _print_verify_json writes without building."""
    return {"command": "verify", "mode": mode, "suite": suite, "passed": passed,
            "suites": [r.to_jsonable() for r in reports]}


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_json_writer_matches_json_dumps_on_every_payload(argv, capsys, monkeypatch):
    """Each command writes through one of the two writers, and its bytes are
    json.dumps of the payload, for verify the tree of its reports."""
    payloads = []
    write, write_verify = cli._print_json, cli._print_verify_json

    def recorded(payload):
        payloads.append(payload)
        write(payload)

    def recorded_verify(*args):
        payloads.append(verify_tree(*args))
        write_verify(*args)

    monkeypatch.setattr(cli, "_print_json", recorded)
    monkeypatch.setattr(cli, "_print_verify_json", recorded_verify)
    assert cli.main(argv + ["--output", "json"]) == 0
    [payload] = payloads
    assert capsys.readouterr().out == dumps(payload)


def test_json_writer_matches_json_dumps_on_a_failed_check(capsys):
    report = VerifyReport("demo")
    report.record("a \"quoted\" identity", {"lam": (2, 1), "n": 3}, False, 'got "x"\n\tnot y\\z')
    report.record("holds", {"n": 0}, True)
    cli._print_json(report.to_jsonable())
    assert capsys.readouterr().out == dumps(report.to_jsonable())


def test_failed_verify_run_writes_the_reference_bytes(capsys, monkeypatch):
    """A run in which one suite records a failure with a witness exits 1.
    Its JSON is the reference encoding of its reports' tree, and its text
    output reads as before."""
    reports = []

    def recorded(row):
        def run(n, mode):
            report = row.run(n, mode)
            if row.name == "series":
                report.record('a "planted" failure', {"n": n, "lam": Partition([2, 1])}, False,
                              'got "x",\tnot \\y')
            reports.append(report)
            return report
        return row._replace(run=run)

    monkeypatch.setattr(cli, "SUITES", tuple(recorded(row) for row in cli.SUITES))
    rc, out = run(capsys, "verify", "all", "--n-max", "2", "--output", "json")
    assert rc == 1
    assert out == dumps(verify_tree("ci", "all", False, reports))
    (series,) = [r for r in reports if r.name == "series"]
    assert series.failed == 1 and series.passed > 0
    assert '"passed":false,"suite":"all"' in out
    assert f'"failed":1,"passed":{series.passed},"suite":"series"' in out
    reports.clear()
    rc, out = run(capsys, "verify", "all", "--n-max", "2")
    assert rc == 1
    lines = out.splitlines()
    assert lines[-1] == "result: FAIL"
    assert [line for line in lines if "FAIL" in line] == [
        f"series: FAIL ({series.passed} passed, 1 failed)",
        "  FAIL a \"planted\" failure {'n': 2, 'lam': Partition((2, 1))} got \"x\",\tnot \\y",
        "result: FAIL"]


JSON_STRINGS = ['"', "\\", "\t\n\r\b\f", "".join(map(chr, range(0x20))), "\x7f", "é",
                " ", "\U0001F600", "", 'a "quoted" \\path\\', "plain text, 100%"]


@pytest.mark.parametrize("text", JSON_STRINGS, ids=ascii)
def test_json_writer_escapes_as_json_dumps(text, capsys):
    payload = {text: [text, (text,)], "value": text}
    cli._print_json(payload)
    assert capsys.readouterr().out == dumps(payload)


def test_json_writer_keeps_bools_apart_from_ints(capsys):
    payload = {"flags": [True, 1, 0, False, None], "nested": (1, (True, (False, ())), []),
               "empty": {}}
    cli._print_json(payload)
    out = capsys.readouterr().out
    assert out == '{"empty":{},"flags":[true,1,0,false,null],"nested":[1,[true,[false,[]]],[]]}\n'
    assert out == dumps(payload)


class Key(str):
    pass


# The last payload's str subclass key equals a string written before it.
@pytest.mark.parametrize("payload", [1.5, Fraction(1, 2), {1: "one"}, {"a": [0.5]},
                                     {"a": "k", Key("k"): 1}],
                         ids=["float", "Fraction", "int key", "nested float",
                              "str subclass key"])
def test_json_writer_refuses_other_types(payload, capsys):
    with pytest.raises(TypeError):
        cli._print_json(payload)
    assert capsys.readouterr().out == ""


def test_expand_json_escapes_the_echoed_expression(capsys):
    # the bytes json.dumps wrote for this command: the tab as \t
    rc, out = run(capsys, "expand", "h[2]\t+ e[1,1]", "s", "--output", "json")
    assert rc == 0
    assert out == ('{"basis":"s","command":"expand","expr":"h[2]\\t+ e[1,1]",'
                   '"value":"2*s[2] + s[1,1]","vars":null}\n')


# Loads eulerq.cli, runs the command in argv and writes the sorted module
# names loaded after the import and after the command to stderr, as its
# first and last lines, so stdout holds the command's output alone.
STARTUP_PROBE = """
import sys
import eulerq.cli
print(sorted(sys.modules), file=sys.stderr)
try:
    eulerq.cli.main(sys.argv[1:])
finally:
    print(sorted(sys.modules), file=sys.stderr)
"""

# Each probed command, its stdout (None: not checked here), and what it may
# not load besides NEVER: every command leaves the suites, their reports and
# the modules only they read unloaded unless it verifies, and `verify series`
# leaves the models of `related` unloaded; a command with integer
# coefficients loads no `fractions`, nor the `decimal` and `numbers` it
# imports.
NOT_VERIFY = {"eulerq.suites", "eulerq.report", "eulerq.bijections", "eulerq.related"}
NO_FRACTIONS = {"fractions", "decimal", "numbers"}
STATS = {"eulerq.symfunc", "eulerq.eulerian", "eulerq.suites", "eulerq.report"} | NO_FRACTIONS
STARTUP_COMMANDS = [
    (["stats", "--n", "5"], None, STATS),
    (["stats", "--n", "3", "--output", "json"], None, STATS),
    (["stats", "--n", "3", "--table", "des,inv", "--output", "json"], None, STATS),
    (["expand", "m[2,1]", "h"], "-3*h[3] + 5*h[2,1] - 2*h[1,1,1]\n",
     NOT_VERIFY | NO_FRACTIONS),
    (["expand", "m[2,1]", "h", "--output", "json"],
     '{"basis":"h","command":"expand","expr":"m[2,1]",'
     '"value":"-3*h[3] + 5*h[2,1] - 2*h[1,1,1]","vars":null}\n',
     NOT_VERIFY | NO_FRACTIONS),
    (["qfun", "--n", "4", "--j", "1"], "h[4] + h[3,1] + h[2,2]\n",
     NOT_VERIFY | NO_FRACTIONS),
    (["qfun", "--n", "4", "--j", "1", "--output", "json"],
     '{"basis":"h","command":"qfun","params":["n",4,"j",1,"k",null],'
     '"value":"h[4] + h[3,1] + h[2,2]"}\n',
     NOT_VERIFY | NO_FRACTIONS),
    (["qfun", "--n", "4", "--j", "1", "--basis", "p"],
     "1/4*p[4] + 2/3*p[3,1] + 3/8*p[2,2] + 5/4*p[2,1,1] + 11/24*p[1,1,1,1]\n",
     NOT_VERIFY),
    (["qfun", "--lambda", "3,1", "--j", "1"], "h[3,1]\n",
     NOT_VERIFY | NO_FRACTIONS),
    (["chartable", "4"],
     " lambda  (4,1)  (4,2)\n      4      1      0\n    3,1      1      1\n"
     "    2,2      1      0\n  2,1,1      1      2\n1,1,1,1      1      4\n",
     NOT_VERIFY | NO_FRACTIONS),
    (["chartable", "2", "--output", "json"],
     '{"columns":[[2,1]],"command":"chartable","n":2,'
     '"rows":[{"lam":[2],"values":[1]},{"lam":[1,1],"values":[1]}]}\n',
     NOT_VERIFY | NO_FRACTIONS),
    (["verify", "series", "--mode", "ci"], None, {"eulerq.related"} | NO_FRACTIONS),
    (["verify", "series", "--mode", "extended", "--n-max", "5", "--output", "json"], None,
     {"eulerq.related"} | NO_FRACTIONS),
    (["verify", "all", "--mode", "ci"], None, NO_FRACTIONS),
]

# What no command loads: the empty `eulerq.cache` module, `hashlib`, `json`
# (JSON is written without it) and `__future__`.  `numbers` loads only with
# the `fractions` that imports it, so it is in NO_FRACTIONS instead.
NEVER = {"eulerq.cache", "hashlib", "json", "_json", "__future__"}


# argparse and what it loads to translate its messages: only help and usage
# errors load them.
ARGPARSE = {"argparse", "gettext", "locale"}


def test_startup_imports_stay_light():
    """A fresh `import eulerq.cli` loads no other package module, nor json,
    fractions, dataclasses, inspect, hashlib or argparse, and each command
    loads only what it reads; a usage error loads argparse and exits 2.  It
    counts modules rather than timing the import."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def probe(argv):
        proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True)
        lines = proc.stderr.splitlines()
        imported, ran = set(ast.literal_eval(lines[0])), set(ast.literal_eval(lines[-1]))
        assert {m for m in imported if m.startswith("eulerq")} == {"eulerq", "eulerq.cli"}
        assert {"json", "fractions", "dataclasses", "inspect", "hashlib"} & imported == set()
        assert ARGPARSE & imported == set()
        return proc, ran

    for argv, stdout, not_loaded in STARTUP_COMMANDS:
        proc, ran = probe(argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert (not_loaded | ARGPARSE | NEVER) & ran == set(), argv
        if stdout is not None:
            assert proc.stdout == stdout
    proc, ran = probe(["stats", "--n", "x"])
    assert proc.returncode == 2
    assert "argparse" in ran
    assert NEVER & ran == set()


def test_cli_import_compiles_no_regex():
    """`import eulerq.cli` loads no `re`: the expression tokenizer compiles
    its pattern on first use.  Run with -S, since a site hook may import
    `re` before any eulerq code runs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys; import eulerq.cli; print('re' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_one_command_parser_reads_as_the_full_one(capsys):
    """main builds only the named command's parser: its help, and a usage
    error the top parser reports, read as with every command's parser."""
    def output(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    for command in cli.COMMANDS:
        argv = [command, "--help"]
        assert output(cli.main, argv) == output(cli._parser().parse_args, argv)
    argv = ["stats", "1", "2"]
    assert output(cli.main, argv) == output(cli._parser().parse_args, argv)


@pytest.mark.parametrize("command", sorted(USAGE_OUTPUTS))
def test_help_and_usage_errors_print_the_recorded_bytes(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(command.split())
    except SystemExit as exc:
        code = exc.code
    assert (code, *capsys.readouterr()) == USAGE_OUTPUTS[command]


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            only = argv[0] if argv and argv[0] in cli.COMMANDS else None
            return vars(cli._parser(only).parse_args(argv))
        except SystemExit:
            return None


def test_every_benchmark_command_takes_the_plain_reader():
    for workload in WORKLOADS.WORKLOADS:
        for argv in WORKLOADS.domain(workload):
            args = cli._parse(argv)
            assert args is not None, argv
            assert vars(args) == _argparse_vars(argv), argv


def _values(arg):
    """Values for arg, each valid or not: its choices and one more, or
    integers, negative and bad numbers among them, or strings."""
    if arg.choices:
        return st.sampled_from([*arg.choices, "q"])
    if arg.type is int:
        return st.sampled_from(["0", "3", "8", "-2", "x", "1.5"])
    return st.sampled_from(["all", "series", "m[2,1]", "4,2,1", "123", "", "-x"])


@st.composite
def command_lines(draw):
    """argv of one command from its grammar: some or all of its positionals
    and perhaps one extra, then options, each plain, =-joined or
    abbreviated, with positionals perhaps moved after them, and perhaps --,
    help or an unknown flag."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    args = cli.COMMANDS[name].args + cli._COMMON
    positionals = [draw(_values(arg)) for arg in args if not arg.name.startswith("-")]
    positionals = positionals[:draw(st.integers(0, len(positionals)))]
    positionals += draw(st.lists(st.just("7"), max_size=1))
    options = []
    for arg in draw(st.lists(st.sampled_from([a for a in args if a.name.startswith("-")]),
                             max_size=4)):
        value = draw(_values(arg))
        form = draw(st.sampled_from(["plain", "plain", "joined", "abbreviated"]))
        if form == "joined":
            options.append(f"{arg.name}={value}")
        else:
            cut = len(arg.name) if form == "plain" else max(3, len(arg.name) - 2)
            options += [arg.name[:cut], value]
    moved = draw(st.integers(0, len(positionals)))
    argv = [name, *positionals[:moved], *options, *positionals[moved:]]
    odd = draw(st.sampled_from([None, None, "--", "-h", "--help", "--bogus"]))
    if odd is not None:
        argv.insert(draw(st.integers(1, len(argv))), odd)
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["stats", "--table", "-x"])
@example(["stats", "--n", "-2"])
@example(["stats", "--n", "8", "123"])
@example(["expand", "m[2]", "--vars", "3", "h"])
@example(["verify", "--", "all"])
@example(["qfun", "--n=4", "--j", "1"])
@example(["qfun", "--n", "4", "--j", "1", "--out", "json"])
def test_plain_reader_agrees_with_argparse(argv):
    """_parse returns argparse's namespace or None, and None wherever
    argparse exits."""
    args, expected = cli._parse(argv), _argparse_vars(argv)
    assert args is None or vars(args) == expected, argv
    assert expected is not None or args is None, argv


USAGE = "usage: eulerq [-h] {stats,qfun,verify,chartable,expand} ...\n"


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    ([], 2, "", USAGE + "eulerq: error: the following arguments are required: cmd\n"),
    (["--help"], 0, USAGE + """
Exact fixed-excedance quasisymmetric functions: statistics, expansions, and
machine verification.

positional arguments:
  {stats,qfun,verify,chartable,expand}
    stats               permutation statistics
    qfun                render one Q function
    verify              run verification suites
    chartable           character table of single-cycle slices
    expand              evaluate an expression over Q and bases

options:
  -h, --help            show this help message and exit
""", ""),
    (["frobnicate"], 2, "", USAGE + "eulerq: error: argument cmd: invalid choice: "
     "'frobnicate' (choose from 'stats', 'qfun', 'verify', 'chartable', 'expand')\n"),
], ids=["none", "help", "unknown"])
def test_top_level_usage_is_unchanged(argv, code, stdout, stderr, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (stdout, stderr)


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_entry_point_matches_module_main():
    # Read the console script from pyproject.toml rather than installed
    # metadata, so the check holds from a source tree with no install.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert scripts.get("eulerq") == "eulerq.cli:run"
    module_name, _, attr = scripts["eulerq"].partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    assert target is cli.run and callable(target)
    # `python -m eulerq.cli` calls the same entry point, and only it
    tree = ast.parse(Path(cli.__file__).read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(node) for node in guard.body] == ["run()"]


def _launch(*argv, stdout=subprocess.PIPE, **popen):
    """`python -m eulerq.cli argv` in a fresh interpreter whose stdout is
    block-buffered: PYTHONUNBUFFERED, which would hide a missing flush, is
    dropped from its environment.  COLUMNS is 80, as the recorded argparse
    bytes assume."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    return subprocess.Popen([sys.executable, "-m", "eulerq.cli", *argv], env=env, cwd=ROOT,
                            stdout=stdout, stderr=subprocess.PIPE, **popen)


def _launched(*argv):
    """(exit code, stdout, stderr) of _launch(argv), as bytes."""
    proc = _launch(*argv)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def test_launch_prints_every_byte_main_prints(capsys):
    """The launch ends in os._exit, after the flush: the 78 KB of verify's
    JSON all reach the pipe, byte for byte as main prints them."""
    argv = ["verify", "all", "--mode", "ci", "--output", "json"]
    code, out, err = _launched(*argv)
    assert (code, err) == (0, b"")
    assert len(out) > 64 * 1024
    assert hashlib.sha256(out).hexdigest() == DIGESTS[" ".join(argv)]
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out.encode()


def test_launch_keeps_the_usage_error_exit_code():
    assert _launched("qfun", "--n", "99", "--j", "1") == (
        2, b"", b"error: degree 99 exceeds the limit 23\n")


@pytest.mark.parametrize("command", ["stats --n x", "verify all --mode fast", "qfun --help"])
def test_launch_prints_the_recorded_argparse_bytes(command):
    code, out, err = USAGE_OUTPUTS[command]
    assert _launched(*command.split()) == (code, out.encode(), err.encode())


# chartable's 1 KB waits in the buffer for run's flush; the stats table's
# 110 KB is written out inside main
UNWRITTEN = pytest.mark.parametrize(
    "argv", [["chartable", "8"], ["stats", "--n", "7", "--table", "maj,des"]],
    ids=["buffered-to-the-end", "written-by-main"])


@UNWRITTEN
def test_closed_pipe_exits_quietly(argv):
    """A reader that closes the pipe before the output comes: chartable's
    1 KB waits in the buffer for run's flush, and the stats table's 110 KB
    meets the closed pipe inside main.  Either way the launch exits 0 and
    writes nothing to stderr."""
    proc = _launch(*argv)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@UNWRITTEN
def test_write_error_prints_one_line(argv):
    """Output to a full device fails at run's flush or inside main alike:
    one error line on stderr, no traceback, and exit 120."""
    with open("/dev/full", "wb") as full:
        proc = _launch(*argv, stdout=full)
        err = proc.communicate(timeout=120)[1]
    assert proc.returncode == 120
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: "), lines


def test_launch_with_stdout_closed():
    """With descriptor 1 closed at launch sys.stdout is None: the launch
    prints nothing and exits 0, as the normal interpreter exit did."""
    proc = _launch("qfun", "--n", "3", "--j", "1", preexec_fn=lambda: os.close(1))
    assert (*proc.communicate(timeout=120), proc.returncode) == (b"", b"", 0)


# cli.run turns the cyclic garbage collector off for the launch: every
# command must then leave no reference cycle, so that reference counting
# frees all it allocates.  The probe runs, in one fresh interpreter with the
# collector off and saving what it finds, the first candidate of every slot
# of every benchmark workload and three usage errors, each with every
# lru_cache of the package cleared first; it prints, per command, how many
# unreachable objects a collection finds after it, and their types, and then
# frees them.
CYCLE_COMMANDS = [
    ["qfun", "--n", "24", "--j", "1"],  # past the degree limit
    ["expand", "Q[4"],  # a bad expression
    ["expand", "h[2]", "--vars", "1"],  # too few variables
]

CYCLE_PROBE = """
import contextlib, functools, gc, io, sys
gc.disable()
gc.set_debug(gc.DEBUG_SAVEALL)
sys.path.insert(0, "perfbench")
import workloads
from eulerq import cli
commands = [candidates[0] for name in workloads.WORKLOADS
            for candidates, _ in workloads.slots(name)] + COMMANDS
gc.collect()
gc.garbage.clear()
for argv in commands:
    for name, module in list(sys.modules.items()):
        if name.startswith("eulerq"):
            for value in list(vars(module).values()):
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    found = gc.collect()
    kinds = sorted({type(x).__name__ for x in gc.garbage})
    # free what was found, so the next command is charged for its own only
    gc.set_debug(0)
    gc.garbage.clear()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    print(repr((argv, code, found, kinds)))
"""


def test_no_command_leaves_a_reference_cycle():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = CYCLE_PROBE.replace("COMMANDS", repr(CYCLE_COMMANDS))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = [ast.literal_eval(line) for line in proc.stdout.splitlines()]
    assert [argv for argv, *_ in results[-3:]] == CYCLE_COMMANDS
    assert [code for _, code, *_ in results[-3:]] == [2, 2, 2]
    assert len(results) == sum(len(WORKLOADS.slots(name)) for name in WORKLOADS.WORKLOADS) + 3
    assert [r for r in results if r[2]] == []


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_finds_it(capsys, enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert cli.main(["stats", "--n", "3"]) == 0
        assert cli.main(["qfun", "--n", "24", "--j", "1"]) == 2
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


# Installed as sitecustomize in a launch: on the first call of cli.main it
# writes whether the collector is on, and each collection that starts while
# main runs writes one line.
COLLECTOR_HOOK = """
import gc, os, sys

def _in_main():
    frame = sys._getframe(1)
    while frame is not None:
        code = frame.f_code
        if code.co_name == "main" and code.co_filename.endswith("cli.py"):
            return True
        frame = frame.f_back
    return False

def _collection(phase, info):
    if phase == "start" and _in_main():
        os.write(2, b"collection inside main\\n")

def _profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name == "main" and code.co_filename.endswith("cli.py"):
        os.write(2, b"main: collector on\\n" if gc.isenabled() else b"main: collector off\\n")
        sys.setprofile(None)

gc.callbacks.append(_collection)
sys.setprofile(_profile)
"""


def test_launch_runs_main_with_the_collector_off(tmp_path):
    """A launch through cli.run runs main with the collector off, so no
    collection starts inside it.  At the collector's default thresholds
    verify specializations would start several."""
    (tmp_path / "sitecustomize.py").write_text(COLLECTOR_HOOK)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=os.pathsep.join([str(tmp_path), str(ROOT / "src")]))
    argv = ["verify", "specializations", "--mode", "ci", "--output", "json"]
    proc = subprocess.run([sys.executable, "-m", "eulerq.cli", *argv], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"main: collector off\n")
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[" ".join(argv)]
