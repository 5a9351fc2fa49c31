"""The closed formulas behind Q against the census oracles, and the suites'
grip on the formulas: a wrong formula must fail exactly the records that
compare it with its oracle, and no other record."""

import ast
import fractions
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
    (0^2 < c_1 c_3) instead of stopping the suite."""
    gap = polyalg.Poly.term(1, q=1, t=1) + polyalg.Poly.term(1, q=3, t=3)
    monkeypatch.setattr(suites, "a_poly_fix", lambda n, k: gap)
    failing = {c.identity for c in verify_positivity(3).failures()}
    assert failing == {"log-concavity of shifted fixed-fix enumerators"}


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
PRODUCTION_CACHES = (eulerian.q_poly, eulerian.q_symf, eulerian._single_cycle_classes,
                     eulerian._type_classes, eulerian.q_symf_type)

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
}


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
