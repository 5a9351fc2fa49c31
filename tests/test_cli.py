"""Command line interface: outputs, exit codes, determinism, start-up imports."""

import ast
import contextlib
import importlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from eulerq import cli, enumerate_permutations, eulerian, statistics, suites
from eulerq.permstats import DEFAULT_CAP
from eulerq.report import VerifyReport
from fixtures_tables import CHAR_TABLES
from fixtures_usage import USAGE_OUTPUTS
from test_digests import WORKLOADS


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


def test_expand_vars_limit(capsys):
    # m[1^6] lists C(N, 6) vectors of length N: 74613 * 22 = 1641486 entries
    # are under the limit, 100947 * 23 = 2321781 past it
    assert cli._MAX_VAR_ENTRIES == 2_000_000
    rc, out = run(capsys, "expand", "m[1,1,1,1,1,1]", "m", "--vars", "22")
    assert rc == 0 and out == "m[1,1,1,1,1,1]\n"
    assert cli.main(["expand", "m[1,1,1,1,1,1]", "m", "--vars", "23"]) == 2
    assert capsys.readouterr().err == (
        "error: --vars 23 lists 100947 exponent vectors of length 23, "
        "2321781 entries past the limit 2000000\n")


@pytest.mark.parametrize("expr, N", [("m[1,1,1,1,1,1]", 8), ("m[3,2,1] + 2*m[2,2]", 5),
                                     ("h[3]", 4), ("e[2,1]", 2), ("Q[4,1]", 3), ("3", 2)])
def test_expand_vars_count_is_exact(expr, N, monkeypatch):
    # the count the limit reads is the number of vectors to_monomial lists
    mm = cli._ExprParser(expr).parse().to_basis("m")
    listed = len(mm.to_monomial(N).terms)
    cli._check_vars(mm, N)
    monkeypatch.setattr(cli, "_MAX_VAR_ENTRIES", listed * N - 1)
    with pytest.raises(cli.UsageError, match=f"lists {listed} exponent vectors"):
        cli._check_vars(mm, N)


@pytest.mark.parametrize("expr, message", [
    ("m[0]", "error: partition parts must be positive: (0,)"),
    ("h[1,0]", "error: partition parts must be positive: (1, 0)"),
    ("Q[(2,0),1]", "error: partition parts must be positive: (2, 0)"),
    ("Q[(2,1),x]", "error: expected integer, found 'x'"),
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
# not load: no command loads the empty `eulerq.cache` module; every command
# leaves the suites and the modules only they read unloaded unless it
# verifies; a command with integer coefficients loads no `fractions` or the
# `decimal` it imports; and text output from qfun and chartable loads
# neither `json` nor `hashlib`.
NO_STORE = {"eulerq.cache", "json", "hashlib"}
NOT_VERIFY = {"eulerq.suites", "eulerq.bijections", "eulerq.related"}
STARTUP_COMMANDS = [
    (["stats", "--n", "5"], None,
     {"eulerq.symfunc", "eulerq.eulerian", "eulerq.suites", "eulerq.cache", "fractions"}),
    (["expand", "m[2,1]", "h"], "-3*h[3] + 5*h[2,1] - 2*h[1,1,1]\n",
     NOT_VERIFY | {"eulerq.cache", "json", "fractions", "decimal"}),
    (["qfun", "--n", "4", "--j", "1"], "h[4] + h[3,1] + h[2,2]\n",
     NOT_VERIFY | NO_STORE | {"fractions", "decimal"}),
    (["qfun", "--n", "4", "--j", "1", "--basis", "p"],
     "1/4*p[4] + 2/3*p[3,1] + 3/8*p[2,2] + 5/4*p[2,1,1] + 11/24*p[1,1,1,1]\n",
     NOT_VERIFY | NO_STORE),
    (["qfun", "--lambda", "3,1", "--j", "1"], "h[3,1]\n",
     NOT_VERIFY | NO_STORE | {"fractions", "decimal"}),
    (["chartable", "4"],
     " lambda  (4,1)  (4,2)\n      4      1      0\n    3,1      1      1\n"
     "    2,2      1      0\n  2,1,1      1      2\n1,1,1,1      1      4\n",
     NOT_VERIFY | NO_STORE | {"fractions", "decimal"}),
    (["verify", "series", "--mode", "ci"], None, {"eulerq.cache", "fractions", "decimal"}),
    (["verify", "all", "--mode", "ci"], None, {"eulerq.cache", "fractions", "decimal"}),
]


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
        assert (not_loaded | ARGPARSE) & ran == set(), argv
        if stdout is not None:
            assert proc.stdout == stdout
    proc, ran = probe(["stats", "--n", "x"])
    assert proc.returncode == 2
    assert "argparse" in ran


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
    assert scripts.get("eulerq") == "eulerq.cli:main"
    module_name, _, attr = scripts["eulerq"].partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    assert target is cli.main and callable(target)
