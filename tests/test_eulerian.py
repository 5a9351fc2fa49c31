"""The Q family: fixed values, expansions, tables, and suite smoke runs."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from eulerq import (
    Partition,
    Poly,
    eulerian,
    eulerian_number,
    parse_poly,
    parse_symf,
    partitions,
    q_poly,
    q_symf,
    q_symf_type,
    suites,
    sym_h,
)
from eulerq.eulerian import (
    a_poly,
    a_poly_derangements,
    a_poly_fix,
    char_table,
    character_poly,
    character_value,
    q_poly_oracle,
    q_qsym,
    q_qsym_type,
)
from eulerq.suites import (
    A4_T1_COEFF,
    shift_exc_by_qinv,
    t_symmetric,
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
from eulerq import cli, suites
from eulerq.polyalg import q_binomial, q_multinomial
from eulerq.symfunc import SymPoly
from fixtures_tables import CHAR_TABLES


def test_base_cases():
    assert q_symf(0, 0) == sym_h([])
    assert q_qsym(0, 0, 0).to_symf() == sym_h([])
    assert q_symf(1, 0) == sym_h([1])
    assert q_symf(2, 1) == sym_h([2])
    assert q_symf(2, 0) == sym_h([2])
    assert q_symf(3, 1) == sym_h([2, 1]) + sym_h([3])
    assert q_symf(2, 5).is_zero()


def test_zero_excedance_slice_is_hn():
    for n in range(1, 6):
        assert q_symf(n, 0) == sym_h([n])
        assert q_symf(n, n - 1) == sym_h([n])


def test_every_slice_is_symmetric():
    for n in range(0, 6):
        for j in range(n + 1):
            assert q_qsym(n, j).is_symmetric()
            for lam in partitions(n):
                assert q_qsym_type(lam, j).is_symmetric()


def test_dimensions_are_eulerian_numbers():
    for n in range(1, 6):
        for j in range(n):
            dim = q_symf(n, j).to_monomial(n).coefficient_of_squarefree()
            assert dim == eulerian_number(n, j)


def test_slice_decompositions():
    for n in range(0, 6):
        for j in range(n + 1):
            whole = q_symf(n, j)
            by_fix = sum((q_symf(n, j, k) for k in range(n + 1)), sym_h([], 0))
            assert by_fix == whole
            by_type = sum((q_symf_type(lam, j) for lam in partitions(n)),
                          sym_h([], 0))
            assert by_type == whole


def test_q_symf_type_in_each_basis_is_its_p_form_converted():
    for n in range(7):
        for lam in partitions(n):
            for j in range(n + 1):
                for basis in ("h", "e", "s", "m"):
                    f = q_symf_type(lam, j, basis)
                    assert f.basis == basis
                    assert f.render() == q_symf_type(lam, j).to_basis(basis).render(), \
                        (tuple(lam), j, basis)


def test_single_cycle_reference_expansion():
    f = q_symf_type((6,), 3)
    assert f == (sym_h([5, 1]) + 2 * sym_h([4, 2]) - sym_h([4, 1, 1])
                 + sym_h([3, 2, 1]))
    assert f.to_basis("s").render() == (
        "3*s[6] + 3*s[5,1] + 3*s[4,2] + s[3,3] + s[3,2,1]")


def test_product_difference_reference_expansion():
    f = q_symf(5, 1) ** 2 - q_symf(5, 2) * q_symf(5, 0)
    want = (sym_h([5, 4, 1]) + sym_h([5, 3, 2]) - sym_h([5, 2, 2, 1])
            + sym_h([4, 4, 1, 1]) + 4 * sym_h([4, 3, 2, 1])
            + 4 * sym_h([3, 3, 2, 2]))
    assert f.to_basis("h") == want
    assert f.to_basis("s").is_positive()
    assert not f.to_basis("h").is_positive()


@pytest.mark.parametrize("n", sorted(CHAR_TABLES))
def test_character_tables(n):
    js, rows = char_table(n)
    assert js == list(range(1, n // 2 + 1))
    assert [mu for mu, _ in rows] == list(partitions(n))
    for mu, vals in rows:
        assert tuple(vals) == CHAR_TABLES[n][tuple(mu)], tuple(mu)


def test_character_polynomial_formula():
    for n in range(2, 7):
        for lam in partitions(n):
            pred = character_poly(lam)
            for j in range(1, n // 2 + 1):
                assert character_value(n, j, lam) == pred.coefficient("t", j)


def test_character_value_refuses_a_class_of_another_size():
    for mu in [(2,), (2, 2), ()]:
        with pytest.raises(ValueError, match="partition sizes differ"):
            character_value(3, 1, mu)
    assert character_value(3, 1, (2, 1)) == 1
    assert character_value(3, 5, (3,)) == 0


def test_four_statistic_witness():
    a4 = shift_exc_by_qinv(a_poly(4, ("maj", "des", "exc")))
    assert a4.coefficient("t", 1) == parse_poly(A4_T1_COEFF)
    assert not t_symmetric(a4.coefficients_in("t"), 3, Poly.zero())


# The shape helpers as they stood before they read one dense t-list, kept as
# references.  The log-concavity reference reads a missing interior power as
# zero, where it once raised KeyError.

def _ref_span(tcoeffs):
    keys = [j for j, c in tcoeffs.items() if not c.is_zero()]
    return (min(keys), max(keys)) if keys else None


def _ref_symmetric(tcoeffs, double_center, zero):
    span = _ref_span(tcoeffs)
    if span is None:
        return True
    r, s = span
    if r + s != double_center:
        return False
    return all(tcoeffs.get(i, zero) == tcoeffs.get(double_center - i, zero)
               for i in range(r, s + 1))


def _ref_unimodal(tcoeffs, positive, zero):
    span = _ref_span(tcoeffs)
    if span is None:
        return True
    r, s = span
    mid = (r + s) // 2
    for i in range(r, mid):
        if not positive(tcoeffs.get(i + 1, zero) - tcoeffs.get(i, zero)):
            return False
    for i in range(mid + (r + s) % 2, s):
        if not positive(tcoeffs.get(i, zero) - tcoeffs.get(i + 1, zero)):
            return False
    if (r + s) % 2 and tcoeffs.get(mid, zero) != tcoeffs.get(mid + 1, zero):
        return False
    return True


def _ref_gamma_positive(tcoeffs, m, positive, zero):
    work = dict(tcoeffs)
    gammas = []
    for d in range(m // 2 + 1):
        g = work.get(d, zero)
        gammas.append(g)
        if g.is_zero():
            continue
        for i in range(m - 2 * d + 1):
            work[d + i] = work.get(d + i, zero) - g * math.comb(m - 2 * d, i)
    if any(not c.is_zero() for c in work.values()):
        return False
    return all(positive(g) for g in gammas)


def _ref_int_unimodal(seq):
    seq = list(seq)
    while seq and not seq[0]:
        seq.pop(0)
    while seq and not seq[-1]:
        seq.pop()
    rising = True
    for a, b in zip(seq, seq[1:]):
        if rising and b < a:
            rising = False
        elif not rising and b > a:
            return False
    return True


def _ref_log_concave(cs, zero):
    span = _ref_span(cs)
    if span is None:
        return True
    lo, hi = span
    for i in range(lo + 1, hi):
        d = cs.get(i, zero) * cs.get(i, zero) - cs.get(i - 1, zero) * cs.get(i + 1, zero)
        if not _poly_nonneg(d):
            return False
    return True


def _poly_nonneg(f):
    return all(c >= 0 for c in f.terms.values())


def test_shape_helpers_match_their_references():
    zero, nonneg = Poly.zero(), _poly_nonneg
    for length in range(6):
        for seq in itertools.product(range(3), repeat=length):
            for offset in range(3):
                ints = [0] * offset + list(seq)
                assert suites._int_unimodal(ints) == _ref_int_unimodal(ints), ints
                sparse = {offset + i: Poly.const(c) for i, c in enumerate(seq) if c}
                # one explicit zero entry: the first zero of seq, else one
                # past its end
                kept = seq.index(0) if 0 in seq else length
                for tc in (sparse, {**sparse, offset + kept: Poly.const(0)}):
                    assert suites.t_unimodal(tc, nonneg, zero) == _ref_unimodal(tc, nonneg, zero)
                    assert suites._log_concave(tc, nonneg, zero) == _ref_log_concave(tc, zero)
                    for center in range(9):
                        assert (suites.t_symmetric(tc, center, zero)
                                == _ref_symmetric(tc, center, zero)), (tc, center)
                        assert (suites._gamma_positive(tc, center, nonneg, zero)
                                == _ref_gamma_positive(tc, center, nonneg, zero)), (tc, center)


def test_brute_force_enumerators():
    assert a_poly(0) == Poly.one()
    # specializing everything to 1 counts the class
    ones = {"q": Poly.one(), "p": Poly.one(), "t": Poly.one(), "r": Poly.one()}
    assert a_poly(4).substitute(**ones) == 24
    assert a_poly_fix(4, 4) == Poly.one()
    assert a_poly_derangements(4).substitute(**ones) == 9
    with pytest.raises(ValueError):
        a_poly(3, ("maj", "inv"))


def test_closed_formula_matches_brute_force():
    for n in range(0, 6):
        assert q_poly(n) == q_poly_oracle(n)


def _compositions_min2(total, parts):
    """Ordered tuples of `parts` integers >= 2 summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(2, total - 2 * (parts - 1) + 1):
        for rest in _compositions_min2(total - first, parts - 1):
            yield (first,) + rest


def _closed_sums_by_compositions(n):
    """Both closed formulas as the paper states them, one term per k_0 and
    ordered tuple (k_1, .., k_m) of parts >= 2 with k_0 + .. + k_m = n:
    r^{k_0} h_{k_0} prod_i h_{k_i} t [k_i - 1]_t for Q_n, and
    [n choose k_0, .., k_m]_q r^{k_0} prod_i tq [k_i - 1]_{tq} for A_n."""
    q_n, a_n = SymPoly.zero(), Poly.zero()
    for m in range(n // 2 + 1):
        for k0 in range(n - 2 * m + 1):
            for ks in _compositions_min2(n - k0, m):
                q_term = SymPoly.wrap(sym_h([k0] if k0 else []), r=k0)
                a_term = q_multinomial(n, (k0,) + ks) * Poly.term(1, r=k0)
                for ki in ks:
                    q_term = q_term * sym_h([ki])
                    q_term = sum((q_term.shift(t=a) for a in range(1, ki)), SymPoly.zero())
                    a_term = a_term * Poly({(a, 0, a, 0): 1 for a in range(1, ki)})
                q_n, a_n = q_n + q_term, a_n + a_term
    return q_n, a_n


@pytest.mark.parametrize("n", range(13))
def test_closed_formulas_match_the_composition_sums(n):
    q_n, a_n = _closed_sums_by_compositions(n)
    assert q_poly(n) == q_n
    if n <= 8:
        assert eulerian._a_poly_closed(n) == a_n


def test_q_poly_makes_no_sympoly_product(monkeypatch):
    calls = []
    mul = SymPoly.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(SymPoly, "__mul__", counting)
    _closed_sums_by_compositions(4)
    assert calls, "the counter sees the products of the composition sum"
    calls.clear()
    q_poly.cache_clear()
    q_poly(12)
    assert calls == []


def test_cycle_type_palindromicity_spot():
    lam = Partition([3, 1, 1])
    n, k = lam.n, lam.mult(1)
    for j in range(n):
        left = q_symf_type(lam, j)
        jj = n - k - j
        right = q_symf_type(lam, jj) if 0 <= jj < n else sym_h([], 0)
        assert left == right


def test_parse_symf_round_trip_on_q():
    f = q_symf(4, 2).to_basis("h")
    assert parse_symf(f.render(), basis="h") == f


SMALL_SUITES = [
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
]


@pytest.mark.parametrize("fn,args", SMALL_SUITES,
                         ids=[f.__name__ for f, _ in SMALL_SUITES])
def test_suite_passes_at_small_bounds(fn, args):
    rep = fn(*args)
    assert rep.ok, rep.failures()


def test_suite_registry_names():
    """The eleven core suites lead the suite table, in the same order in
    both modes."""
    names = [name for name, _ in cli.selected_entries("all", "ci", 0)][:11]
    assert names == [
        "genfun", "recurrences", "qexp", "series", "finite-spec",
        "derangements", "symmetry", "positivity", "characters",
        "structure", "specializations"]
    assert [n for n, _ in cli.selected_entries("all", "extended", 0)][:11] == names


def _with_term(n, exps, coeff):
    """suites._a_table with coeff q^i p^d t^e r^f added to A_n, exps being
    (i, d, e, f): a copy of the table {(fix, des, exc): maj q list}, so the
    cached one is left as it was."""
    real = suites._a_table
    i, d, e, f = exps

    def wrong(k, *qstat):
        got = real(k, *qstat)
        if (k, qstat) != (n, ()):
            return got
        a = list(got.get((f, d, e), ()))
        a += [0] * (i + 1 - len(a))
        a[i] += coeff
        return {**got, (f, d, e): tuple(a)}

    return wrong


def test_series_suite_fails_on_a_wrong_enumerator(monkeypatch):
    """An extra term p in the brute-force A_3(q, p, t, r), or its q p t
    coefficient raised from 1 to 2, reaches the left side at z^3 in every
    row of p-order 1 or more, and in no other place."""
    assert suites._a_table(3)[(0, 1, 1)][1] == 1
    for exps in ((0, 1, 0, 0), (1, 1, 1, 0)):
        monkeypatch.setattr(suites, "_a_table", _with_term(3, exps, 1))
        rep = verify_four_stat_series(5)
        status = {c.params["p_order"]: (c.status, c.witness) for c in rep.checks}
        assert status == {0: ("pass", ""),
                          **{m: ("fail", "first mismatch at z^3") for m in range(1, 6)}}
        monkeypatch.undo()


def test_series_suite_at_order_zero():
    rep = verify_four_stat_series(0)
    assert [(c.params, c.status) for c in rep.checks] == [
        ({"p_order": 0, "z_max": 0}, "pass")]


def test_series_suite_refuses_a_negative_exponent(monkeypatch):
    monkeypatch.setattr(suites, "_a_table", _with_term(2, (0, -1, 0, 0), 1))
    with pytest.raises(ValueError, match="negative exponent"):
        verify_four_stat_series(3)


def _table_poly(n):
    """A_n(maj, des, exc, fix) as a Poly in q, p, t and r, read off the A
    table that the series suite reads."""
    return Poly({(i, d, e, f): c for (f, d, e), a in suites._a_table(n).items()
                 for i, c in enumerate(a)})


def _poly_series_sides(z_max, m):
    """L den and num of verify_four_stat_series at p-order m, as lists of
    z-coefficients up to z^z_max, from Poly products."""
    one, qt, r = Poly.one(), Poly.term(1, q=1, t=1), Poly.var("r")

    def mul(a, b):
        out = [Poly.zero()] * (z_max + 1)
        for i, x in enumerate(a[:z_max + 1]):
            for j, y in enumerate(b[:z_max + 1 - i]):
                out[i + j] = out[i + j] + x * y
        return out

    def poch(u, k):  # (uz; q)_k
        out = [one]
        for i in range(k):
            out = mul(out, [one, -(u * Poly.var("q", i))])
        return out

    left = []
    for n in range(z_max + 1):
        acc = Poly.zero()
        for b, coeff in _table_poly(n).coefficients_in("p").items():
            if b <= m:
                acc = acc + coeff * q_binomial(m - b + n, n)
        left.append(acc)
    zq, zt, zr = poch(one, m), poch(qt, m), poch(r, m + 1)
    den = mul([a - qt * b for a, b in zip(zq, zt)], zr)
    return mul(left, den), mul(mul(zq, zt), [one - qt])


def test_series_reference_reads_the_census():
    """The Poly reference's A_n, read off the table, is a_poly's A_n."""
    for n in range(6):
        assert _table_poly(n) == eulerian.a_poly(n, ("maj", "des", "exc", "fix"))


@pytest.mark.parametrize("z_max", range(5))
def test_series_width_covers_every_coefficient(z_max):
    """Every coefficient of L den and of num, and so of L den - num, is below
    2^(w-1) in absolute value at the suite's packing width w."""
    w = suites._series_width(suites._series_groups(z_max))
    for m in range(z_max + 1):
        for side in _poly_series_sides(z_max, m):
            for c in side:
                assert all(abs(v) < 2 ** (w - 1) for v in c.terms.values())


def test_series_width_keeps_coefficients_strictly_below_its_half(monkeypatch):
    """A_0 = 1 - 2^40 makes L den - num = -2^40 (1 - qt) at z_max = 0, whose
    coefficients meet the L1 bound 2^40 exactly: w = 42 keeps them below
    2^(w-1), where w = 41, without the extra bit, would not."""
    monkeypatch.setattr(suites, "_a_table", _with_term(0, (0, 0, 0, 0), -(2 ** 40)))
    w = suites._series_width(suites._series_groups(0))
    lden, num = _poly_series_sides(0, 0)
    assert lden[0] - num[0] == Poly.term(-(2 ** 40)) + Poly.term(2 ** 40, q=1, t=1)
    assert w == 42
    assert not verify_four_stat_series(0).ok


@given(n=st.integers(0, 3), exps=st.tuples(*[st.integers(0, 3)] * 4),
       coeff=st.sampled_from([-(2 ** 40), -3, -1, 1, 2, 2 ** 40]))
@settings(max_examples=25, deadline=None)
def test_series_records_match_poly_products(n, exps, coeff):
    """With one term of some A_n changed, the packed suite reports the first
    mismatch of the Poly products in every row, and the width still covers
    the (now nonzero) difference."""
    z_max = 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "_a_table", _with_term(n, exps, coeff))
        rep = verify_four_stat_series(z_max)
        w = suites._series_width(suites._series_groups(z_max))
        expected = []
        for m in range(z_max + 1):
            diff = [a - b for a, b in zip(*_poly_series_sides(z_max, m))]
            assert all(abs(v) < 2 ** (w - 1) for c in diff for v in c.terms.values())
            bad = next((d for d, c in enumerate(diff) if not c.is_zero()), None)
            expected.append(("pass", "") if bad is None else ("fail", f"first mismatch at z^{bad}"))
    assert [(c.status, c.witness) for c in rep.checks] == expected
