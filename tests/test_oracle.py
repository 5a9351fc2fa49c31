"""The closed formulas behind Q against the census oracles, and the suites'
grip on the formulas: a wrong formula must fail exactly the records that
compare it with its oracle, and no other record."""

import ast
import fractions
import re
from pathlib import Path

import pytest

from eulerq import (
    SymPoly,
    cli,
    eulerian,
    partitions,
    permstats,
    polyalg,
    related,
    suites,
    sym_h,
    sym_p,
    symfunc,
    verify_related,
)
from eulerq.eulerian import (
    _a_poly_closed,
    char_table,
    character_value,
    character_value_oracle,
    q_poly,
    q_poly_oracle,
    q_qsym,
    q_qsym_type,
    q_symf,
    q_symf_oracle,
    q_symf_type,
    q_symf_type_oracle,
    q_type_poly,
)
from eulerq.suites import (
    verify_character_formula,
    verify_derangement_identities,
    verify_finite_specialization,
    verify_four_stat_series,
    verify_main_generating_function,
    verify_positivity,
    verify_qexp_generating_function,
    verify_recurrences,
    verify_specializations,
    verify_structure_identities,
    verify_symmetry_unimodality,
)

N_MAX = 7


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_q_poly_and_q_symf_match_oracle(n):
    assert q_poly(n) == q_poly_oracle(n)
    for j in range(n + 1):
        for k in [None] + list(range(n + 1)):
            assert q_symf(n, j, k) == q_symf_oracle(n, j, k), (j, k)


@pytest.mark.parametrize("n", [9, 10])
def test_q_symf_matches_oracle_past_the_old_cli_cap(n):
    for j in range(n + 1):
        for k in [None] + list(range(n + 1)):
            assert q_symf(n, j, k) == q_symf_oracle(n, j, k), (j, k)


@pytest.mark.parametrize("n", [8, 9])
def test_cycle_type_log_concavity_exceptions_from_the_formulas(n):
    """The closed formulas give the exception set the positivity suite
    asserts, one size past the suite's extended tier included."""
    assert (suites._cycle_type_lc_failures(n, q_symf_type)
            == suites._CYCLE_TYPE_LC_EXCEPTIONS[n])


def test_positivity_records_a_t_gap_as_a_failure(monkeypatch):
    """An enumerator with a missing interior t-power fails log-concavity
    (0^2 < c_1 c_3) instead of stopping the suite.  Every fixed-fix slice of
    the A table is made q t + q^3 t^3, so the full enumerator, their sum,
    has the gap as well."""
    gap = {(0, 1): (0, 1), (0, 3): (0, 0, 0, 1)}
    monkeypatch.setattr(suites, "_a_table", lambda n: {
        (k, d, e): a for k in range(n + 1) for (d, e), a in gap.items()})
    failing = {c.identity for c in verify_positivity(3).failures()}
    assert failing == {"log-concavity of shifted fixed-fix enumerators",
                       "log-concavity of shifted full enumerator"}


def test_positivity_refuses_sizes_without_a_known_exception_set():
    with pytest.raises(ValueError, match="n_max=12"):
        verify_positivity(12)


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_q_type_poly_and_q_symf_type_match_oracle(n):
    for lam in partitions(n):
        oracle = SymPoly({(j, 0): q_symf_type_oracle(lam, j) for j in range(n + 1)})
        assert q_type_poly(lam) == oracle, tuple(lam)
        for j in range(n + 1):
            assert q_symf_type(lam, j) == q_symf_type_oracle(lam, j), (tuple(lam), j)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_char_table_matches_oracle(n):
    js, rows = char_table(n)
    assert rows == [(mu, [character_value_oracle(n, j, mu) for j in js])
                    for mu in partitions(n)]


@pytest.mark.parametrize("n", range(7))
def test_oracle_slices_come_back_in_h(n):
    for j in range(n + 1):
        for k in [None] + list(range(n + 1)):
            got = q_symf_oracle(n, j, k)
            assert got.basis == "h"
            assert got.terms == q_symf(n, j, k).terms, (j, k)
            assert got.to_basis("m").terms == q_qsym(n, j, k).to_symf().terms, (j, k)
    poly = q_poly_oracle(n)
    assert {key: f.basis for key, f in poly.terms.items()} == dict.fromkeys(poly.terms, "h")
    assert ({key: f.terms for key, f in poly.terms.items()}
            == {key: f.terms for key, f in q_poly(n).terms.items()})
    for lam in partitions(n):
        for j in range(n + 1):
            got = q_symf_type_oracle(lam, j)
            assert got.basis == "h"
            assert got.terms == q_symf_type(lam, j).to_basis("h").terms, (tuple(lam), j)
            assert got.to_basis("m").terms == q_qsym_type(lam, j).to_symf().terms


def test_oracle_reads_make_no_conversion(monkeypatch):
    """The log-concavity factors are the h-basis oracles themselves: once an
    oracle is built, reading it again converts nothing, and past either end
    of a slice family it is the zero function in h."""
    calls = []
    original = symfunc._to_s
    monkeypatch.setattr(symfunc, "_to_s", lambda *a: calls.append(a) or original(*a))
    lam = partitions(5)[3]
    reads = [(q_symf_oracle, (5, j)) for j in (-1, 2, 5)]
    reads += [(q_symf_oracle, (5, j, 1)) for j in (-1, 2, 4)]
    reads += [(q_symf_type_oracle, (lam, j)) for j in (-1, 2, 5)]
    first = [oracle(*args) for oracle, args in reads]
    calls.clear()
    again = [oracle(*args) for oracle, args in reads]
    assert calls == []
    assert all(a is b for a, b in zip(again, first))
    assert all(f.basis == "h" for f in first)
    assert [f.is_zero() for f in first] == [True, False, True] * 3


def test_production_bases():
    assert q_symf(3, 1).basis == "h"
    assert q_symf(3, 1, 0).basis == "h"
    assert q_symf(2, 5).basis == "h" and q_symf(2, 5).is_zero()
    assert q_symf_type((3, 1), 1).basis == "p"
    assert q_symf_type((1,), 0) == sym_p([1])
    assert q_symf_type((), 0) == sym_h([])


# ---------------------------------------------------------------------------
# mutation: a wrong formula fails its own records and nothing else
# ---------------------------------------------------------------------------

# The production functions with an lru_cache, held here so the caches can be
# cleared around a mutation even while a module attribute is patched.
PRODUCTION_CACHES = (eulerian.q_poly, eulerian._single_cycle_classes, eulerian._type_classes)

SUITES = [
    (verify_main_generating_function, (4,)),
    (verify_recurrences, (4,)),
    (verify_qexp_generating_function, (4,)),
    (verify_four_stat_series, (2,)),
    (verify_finite_specialization, (3,)),
    (verify_derangement_identities, (4,)),
    (verify_symmetry_unimodality, (4,)),
    (verify_positivity, (4,)),
    (verify_character_formula, (4,)),
    (verify_structure_identities, (4, 4, 4)),
    (verify_specializations, (4,)),
    (verify_related, (4, 4)),
]

CLOSED = "closed h-positive formula"
CHARACTERS = "gcd-erasure character formula"
PLETHYSM = "plethysm product over cycle sizes"

MUTATIONS = {
    "none": (None, None, set()),
    "q_poly": ("q_poly", lambda f: lambda n: f(n).scale(2), {CLOSED}),
    "single-cycle slice": ("_single_cycle_classes",
                           lambda f: lambda n: {(a + 1, b): x for (a, b), x in f(n).items()},
                           {CHARACTERS, PLETHYSM}),
    # the type product, the class values q_type_poly converts to p
    "q_type_poly": ("_type_classes",
                    lambda f: lambda lam: {key: {mu: 2 * v for mu, v in x.items()}
                                           for key, x in f(lam).items()},
                    {CHARACTERS, PLETHYSM}),
    # q_symf_type only converts the type product to p, and no suite reads
    # it: test_q_type_poly_and_q_symf_type_match_oracle compares it with
    # q_symf_type_oracle for every lam of size at most N_MAX
    "q_symf_type": ("q_symf_type", lambda f: lambda lam, j: f(lam, j) * 2, set()),
    "q_symf": ("q_symf", lambda f: lambda n, j, k=None: f(n, j, k) + sym_h([n]), set()),
    "_a_poly_closed": ("_a_poly_closed", lambda f: lambda n: f(n) + polyalg.Poly.term(1, r=n),
                       {"three-statistic closed formula"}),
    # A_4 gains q p t r: one permutation more with one fixed point, one
    # descent, one excedance and maj 1, in the table every A record reads
    "A table entry": ("_a_table", lambda f: lambda n, *qstat: (
        _bumped(f(n, *qstat), (1, 1, 1), 1) if (n, qstat) == (4, ()) else f(n, *qstat)), {
            "binomial-basis q-nonnegativity at p=1",
            "binomial-basis q-nonnegativity, full enumerator",
            "cleared q-exponential identity",
            "cleared q-exponential identity, comaj",
            "derangement inclusion-exclusion",
            "derangement inclusion-exclusion, comaj",
            "finite specialization, exc/fix form",
            "fixed-point reduction",
            "fixed-point reduction, comaj",
            "four-letter witness coefficient",
            "shifted fixed-fix enumerator at p=1 symmetric unimodal",
            "shifted fixed-fix enumerator t-symmetric",
            "shifted full enumerator t-symmetric and t-unimodal",
            "stable specialization, exc/fix",
            "three-statistic closed formula",
            "three-statistic recurrence",
            "total maj enumerator is [n]_q!",
        }),
}


def _bumped(table, key, power):
    """A copy of an A table with q^power added at key."""
    out = dict(table)
    out[key] = tuple(polyalg.qlist_add(list(out.get(key, ())), (1,), power))
    return out


@pytest.fixture
def fresh_production():
    for fn in PRODUCTION_CACHES:
        fn.cache_clear()
    yield
    for fn in PRODUCTION_CACHES:
        fn.cache_clear()


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_wrong_formula_fails_only_its_records(case, fresh_production, monkeypatch):
    target, mutate, expected = MUTATIONS[case]
    if target is not None:
        original = getattr(eulerian, target)
        for module in (eulerian, suites):
            if getattr(module, target, None) is original:
                monkeypatch.setattr(module, target, mutate(original))
    failing = {c.identity for fn, args in SUITES for c in fn(*args).failures()}
    assert failing == expected


# ---------------------------------------------------------------------------
# the suites run in integers: the cycle-type family is carried as integer
# class values from the formulas to the checks
# ---------------------------------------------------------------------------

def test_ci_suites_build_no_fraction(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("Fraction built")

    caches = [fn for module in (eulerian, related, suites) for fn in vars(module).values()
              if hasattr(fn, "cache_clear")]
    for fn in caches:
        fn.cache_clear()
    # every Fraction an operation makes starts from a constructed one
    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    for suite in cli.SUITES:
        assert suite.run(suite.ci, "ci").ok, suite.name
    with pytest.raises(AssertionError):
        symfunc.sym_s([2]).to_basis("p")


# The suites that check the A family, on the q lists of the A tables.  Two
# still build a Poly, for what is a Poly by nature; every other runs with
# Poly refused.
A_SUITES = ("derangements", "recurrences", "qexp", "series", "symmetry", "positivity",
            "finite-spec", "specializations", "structure")
NEEDS_POLY = {
    "recurrences": "compares A_n with the closed formula _a_poly_closed, a Poly",
    "symmetry": "renders the four-letter witness coefficient, a Poly",
}


def test_a_family_suites_build_no_poly(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("Poly built")

    assert set(A_SUITES) <= {suite.name for suite in cli.SUITES}

    for module in (permstats, polyalg, symfunc, eulerian, related, suites):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    # the plethysm record of structure reads the type product of the closed
    # formulas, whose single-cycle slices come from character_poly, a Poly;
    # it is built before Poly is refused
    for n in range(1, 8):
        eulerian._single_cycle_classes(n)
    monkeypatch.setattr(polyalg.Poly, "__init__", refuse)
    for suite in cli.SUITES:
        if suite.name in A_SUITES and suite.name not in NEEDS_POLY:
            assert suite.run(suite.ci, "ci").ok, suite.name
    with pytest.raises(AssertionError):
        eulerian.a_poly(3)


# ---------------------------------------------------------------------------
# the layout: formulas and census oracles in eulerian, models in related,
# suites apart from both, and no formula reading the census
# ---------------------------------------------------------------------------

SRC = Path(eulerian.__file__).parent


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def _imports(module):
    """{package module: names} of an eulerq module's relative imports, at
    any depth ("from . import suites" lists suites with no names).  The
    package's lazy name table, _EXPORTS in __init__, counts as imports of
    its names from their modules."""
    out = {}
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    out.setdefault(alias.name, set())
            else:
                out.setdefault(node.module, set()).update(a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]):
            for source, names in ast.literal_eval(node.value).items():
                out.setdefault(source, set()).update(names)
    return out


def test_only_the_front_ends_import_the_suites():
    importers = {path.stem for path in SRC.glob("*.py") if "suites" in _imports(path.stem)}
    assert importers == {"cli", "__init__"}


def test_no_module_imports_the_cache_placeholder():
    """eulerq keeps no on-disk store: cache.py stays empty, for the
    benchmark's tracer only, and nothing in the package reads it."""
    assert {path.stem for path in SRC.glob("*.py") if "cache" in _imports(path.stem)} == set()


# A launch ends in cli.run with os._exit, which runs no atexit hook and
# flushes no file object left open.  That is safe while no module imports
# atexit and every file a module opens for writing is closed: each open()
# in a write mode is a with item or is bound to a name that the module
# closes.

def _absolute_imports(tree):
    """The top-level names of the modules a tree imports absolutely."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


def _opens_for_writing(node):
    """Whether node calls some open (builtin, os., io. or a Path's) to
    write: its mode or flags, the argument after the path (a Path's open
    takes none before), name a write or are not a literal."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        args = node.args[1:]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        path_first = isinstance(func.value, ast.Name) and func.value.id in ("os", "io")
        args = node.args[1:] if path_first else node.args
    else:
        return False
    mode = args[0] if args else next(
        (k.value for k in node.keywords if k.arg in ("mode", "flags")), None)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant):
        return bool(set(str(mode.value)) & set("wax+"))
    names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(mode)}
    return "O_RDONLY" not in names or bool(names & {"O_WRONLY", "O_RDWR"})


def _unclosed_writes(tree):
    """The lines of the open calls in a tree that open for writing and are
    neither a with item nor bound to a name the tree closes, by
    name.close() or os.close(name)."""
    nodes = list(ast.walk(tree))
    in_with = {id(n.context_expr) for n in nodes if isinstance(n, ast.withitem)}
    bound = {id(n.value): n.targets[0].id for n in nodes
             if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name)}
    closed = {ast.unparse(n.args[0] if n.args else n.func.value) for n in nodes
              if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "close"}
    return [n.lineno for n in nodes if _opens_for_writing(n)
            and id(n) not in in_with and bound.get(id(n)) not in closed]


def test_no_module_needs_the_interpreter_teardown():
    for path in SRC.glob("*.py"):
        tree = _tree(path.stem)
        assert "atexit" not in _absolute_imports(tree), path.stem
        assert _unclosed_writes(tree) == [], path.stem


@pytest.mark.parametrize("source, unclosed", [
    ("def f(p):\n    with open(p, 'w') as fh:\n        fh.write('x')\n", []),
    ("def f(p):\n    with p.open(mode='a') as fh:\n        fh.write('x')\n", []),
    ("def f(p):\n    return open(p).read() + open(p, 'rb').read()\n", []),
    ("def f(p):\n    fh = open(p, 'w')\n    fh.write('x')\n", [2]),
    ("def f(p):\n    fh = open(p, 'w')\n    fh.write('x')\n    fh.close()\n", []),
    ("def f(p, mode):\n    return open(p, mode)\n", [2]),
    ("def f(p):\n    return p.open('r+')\n", [2]),
    ("def f():\n    fd = os.open(os.devnull, os.O_WRONLY)\n    os.dup2(fd, 1)\n", [2]),
    ("def f():\n    fd = os.open(os.devnull, os.O_WRONLY)\n    os.dup2(fd, 1)\n"
     "    os.close(fd)\n", []),
    ("def f():\n    fd = os.open(os.devnull, os.O_RDONLY)\n", []),
    ("fh = open('log', 'a')\n", [1]),
])
def test_unclosed_writes_reads_what_it_should(source, unclosed):
    assert _unclosed_writes(ast.parse(source)) == unclosed


# No orphaned code: every public module-level function and class of the
# package is named somewhere outside its own definition, elsewhere in its
# module or in another file of src, tests or perfbench.

def _named(node, strings=True):
    """The identifiers a syntax tree names: variables, attributes, imported
    names and, with strings, the words of its string constants (a command
    table may name its handlers so).  A docstring or any other bare string
    statement names nothing."""
    prose = {id(n.value) for n in ast.walk(node) if isinstance(n, ast.Expr)}
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif (strings and isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in prose):
            out.update(re.findall(r"\w+", n.value))
    return out


def _orphans(modules, tests=(), others=()):
    """{(module, name)} for the public module-level functions and classes of
    modules ({module: source}) that nothing else names: no other statement
    of their module, no other module, no test and no other source.  The
    export table _EXPORTS of __init__ does not count, and a test's strings
    do not either, as test_package lists every exported name in strings."""
    statements = [(module, node) for module, source in modules.items()
                  for node in ast.parse(source).body
                  if not (module == "__init__" and isinstance(node, ast.Assign)
                          and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"])]
    outside = set()
    for source in tests:
        outside |= _named(ast.parse(source), strings=False)
    for source in others:
        outside |= _named(ast.parse(source))
    named = [(node, _named(node)) for _, node in statements]
    return {(module, node.name) for module, node in statements
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in outside
            and not any(node.name in names for other, names in named if other is not node)}


def test_no_public_name_is_orphaned():
    root = SRC.parents[1]
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    tests = [path.read_text() for path in (root / "tests").glob("*.py")]
    others = [path.read_text() for path in (root / "perfbench").glob("*.py")]
    assert _orphans(modules, tests, others) == set()


@pytest.mark.parametrize("modules, tests, orphans", [
    ({"a": "def f():\n    pass\n"}, [], {("a", "f")}),
    ({"a": "def f():\n    pass\n", "b": "from .a import f\n"}, [], set()),
    ({"a": "def f():\n    pass\n\ng = f\n"}, [], set()),
    ({"a": "def f(n):\n    return f(n - 1)\n"}, [], {("a", "f")}),
    ({"a": "def _f():\n    pass\n\nclass C:\n    pass\n"}, [], {("a", "C")}),
    ({"a": "class C:\n    pass\n"}, ["from eulerq.a import C\n"], set()),
    ({"a": "class C:\n    pass\n"}, ["def test():\n    assert a.C\n"], set()),
    ({"a": "class C:\n    pass\n"}, ["NAMES = ['C']\n"], {("a", "C")}),
    ({"a": "def f():\n    pass\n\nTABLE = {'x': 'f'}\n"}, [], set()),
    ({"a": "def f():\n    pass\n\ndef g():\n    '''Not f.'''\n\nh = g\n"}, [], {("a", "f")}),
    ({"a": "def f():\n    pass\n", "__init__": "_EXPORTS = {'a': ('f',)}\n"}, [], {("a", "f")}),
    ({"a": "def f():\n    pass\n", "__init__": "__all__ = ['f']\n"}, [], set()),
], ids=["unnamed", "imported", "bound", "recursive", "private-and-class", "test-import",
        "test-attribute", "test-string", "handler-table", "docstring", "export-table",
        "other-init-code"])
def test_orphans_reads_what_it_should(modules, tests, orphans):
    assert _orphans(modules, tests) == orphans


def test_absolute_imports_see_atexit():
    for source in ("import atexit", "from atexit import register", "import atexit as a"):
        assert "atexit" in _absolute_imports(ast.parse(source))
    assert "atexit" not in _absolute_imports(ast.parse("from . import atexit_free"))


def test_the_models_import_nothing_from_the_formulas():
    assert "eulerian" not in _imports("related")


# The one private function of eulerian that only a suite reads is the closed
# formula for A_n, which the recurrences suite compares with the census.
@pytest.mark.parametrize("module, suite_read", [("eulerian", {"_a_poly_closed"}),
                                                ("related", set())], ids=["eulerian", "related"])
def test_formulas_and_models_hold_no_suite_code(module, suite_read):
    """No verify_* function, and no private helper that only suites read:
    each has a reader outside suites, by name or by import."""
    defined = {node.name for node in _tree(module).body if isinstance(node, ast.FunctionDef)}
    assert {name for name in defined if name.startswith("verify_")} == set()
    read = set()
    for path in SRC.glob("*.py"):
        if path.stem != "suites":
            for node in ast.walk(_tree(path.stem)):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
    assert {name for name in defined if name.startswith("_")} - read == suite_read


def test_formulas_read_no_census_and_no_model(monkeypatch):
    """With every cache cleared, and the census, the class census and every
    function and class of related made to raise, the formulas the command
    line reaches still return for every n <= 8."""
    def refuse(*args, **kwargs):
        raise AssertionError("census or model read")

    for module in (permstats, polyalg, symfunc, eulerian, related):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    for module in (permstats, eulerian):
        monkeypatch.setattr(module, "census", refuse)
        monkeypatch.setattr(module, "class_census", refuse)
    for name, value in list(vars(related).items()):
        if callable(value) and getattr(value, "__module__", None) == related.__name__:
            monkeypatch.setattr(related, name, refuse)
    for n in range(9):
        q_poly(n)
        _a_poly_closed(n)
        for j in range(n + 1):
            for k in [None] + list(range(n + 1)):
                q_symf(n, j, k)
        for lam in partitions(n):
            q_type_poly(lam)
            for j in range(n + 1):
                q_symf_type(lam, j)
                if n:
                    character_value(n, j, lam)
        if n:
            char_table(n)
