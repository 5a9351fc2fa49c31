"""Symmetric and quasisymmetric function arithmetic."""

import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerq import (
    MonExpansion,
    Partition,
    Poly,
    QSymF,
    SymF,
    SymPoly,
    fundamental,
    mn_character,
    parse_symf,
    partitions,
    plethysm_h,
    q_binomial,
    q_symf_type,
    restrict_frobenius,
    sym_e,
    sym_h,
    sym_m,
    sym_p,
    sym_s,
)
from eulerq.eulerian import q_qsym, q_qsym_type, q_symf_oracle, q_symf_type_oracle
from eulerq.polyalg import PolyFraction, pochhammer, qlist_from_poly, qlist_pack, qlist_to_poly
from eulerq.symfunc import (
    _descent_sets_of_rearrangements,
    _kostka,
    class_mul,
    class_values,
    from_class_values,
    schur_of_products,
)

BASES = "hespm"


class Ratio(Fraction):
    """A Fraction subclass, which is still an exact scalar."""


def small_partitions(max_n=5):
    out = []
    for n in range(max_n + 1):
        out.extend(partitions(n))
    return out


@pytest.mark.parametrize("lam", small_partitions(7))
@pytest.mark.parametrize("src", BASES)
def test_basis_round_trips(lam, src):
    f = SymF.single(src, lam)
    for dst in BASES:
        assert f.to_basis(dst).to_basis(src) == f


def test_pieri_products():
    assert sym_h([1]) * sym_h([1]) == sym_s([2]) + sym_s([1, 1])
    assert sym_s([2, 1]) * sym_h([1]) == (
        sym_s([3, 1]) + sym_s([2, 2]) + sym_s([2, 1, 1]))
    assert sym_e([2]) == sym_s([1, 1])
    assert sym_p([2]) == sym_s([2]) - sym_s([1, 1])
    assert sym_h([2, 1]) == sym_s([2, 1]) + sym_s([3])


def test_omega_involution():
    for lam in small_partitions(5):
        f = sym_h(lam)
        assert f.omega() == sym_e(lam).to_basis("h")
        assert f.omega().omega() == f
        g = sym_s(lam)
        assert g.omega() == sym_s(Partition(lam).conjugate())
        # omega scales p_lam by the sign (-1)^(n - length)
        h = sym_p(lam)
        sign = (-1) ** (Partition(lam).n - Partition(lam).length)
        assert h.omega() == sym_p(lam, sign)


def test_schur_via_jacobi_trudi_spot():
    # s_{2,2} = h_{2,2} - h_{3,1}
    assert sym_s([2, 2]).to_basis("h") == sym_h([2, 2]) - sym_h([3, 1])


def test_character_values():
    # chi^lam(mu) spot checks against standard tables of S_4
    assert mn_character((4,), (1, 1, 1, 1)) == 1
    assert mn_character((3, 1), (1, 1, 1, 1)) == 3
    assert mn_character((2, 2), (2, 1, 1)) == 0
    assert mn_character((2, 1, 1), (2, 2)) == -1
    assert mn_character((1, 1, 1, 1), (4,)) == -1
    assert mn_character((2, 1), (3,)) == -1
    # column orthogonality at the identity class of S_5: sum of squares is 5!
    assert sum(mn_character(lam, (1,) * 5) ** 2 for lam in partitions(5)) == 120


def hook_count(lam):
    """f^lam, the number of standard tableaux of shape lam, by the hook
    length formula."""
    conj = lam.conjugate()
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(lam.n) // hooks


@pytest.mark.parametrize("n", range(11))
def test_character_table_orthogonality_and_degrees(n):
    plist = partitions(n)
    table = [[mn_character(lam, mu) for mu in plist] for lam in plist]
    # n!/z_mu is the size of the class mu
    sizes = [math.factorial(n) // mu.z() for mu in plist]
    for a, b in itertools.combinations_with_replacement(range(len(plist)), 2):
        rows = sum(s * x * y for s, x, y in zip(sizes, table[a], table[b]))
        assert rows == (math.factorial(n) if a == b else 0), (plist[a], plist[b])
        cols = sum(row[a] * row[b] for row in table)
        assert cols == (plist[a].z() if a == b else 0), (plist[a], plist[b])
    # the value at the identity class (1^n) is the degree f^lam
    ones = plist.index((1,) * n)
    assert [row[ones] for row in table] == [hook_count(lam) for lam in plist]


def test_monomial_expansion_lift():
    f = sym_h([2, 1])
    me = f.to_monomial(3)
    assert me.is_symmetric()
    assert me.to_symf().to_basis("h") == f
    # squarefree coefficient counts standardizations: h_{2,1} -> 3!/2!
    assert f.to_monomial(3).coefficient_of_squarefree() == 3
    assert sym_s([2, 1]).to_monomial(3).coefficient_of_squarefree() == 2


def test_monomial_expansion_not_symmetric():
    bad = MonExpansion(2, {(1, 0): 1})
    assert not bad.is_symmetric()
    with pytest.raises(ValueError):
        bad.to_symf()


def test_monomial_arithmetic():
    a = MonExpansion(2, {(1, 0): 1, (0, 1): 1})
    assert a * a == MonExpansion(2, {(2, 0): 1, (0, 2): 1, (1, 1): 2})
    assert (a - a).is_zero()
    assert a.degree() == 1


def test_fundamental_quasisymmetric():
    # F with empty descent set is h_n; full descent set is e_n
    n = 4
    f = QSymF.fundamental(frozenset(), n)
    assert f.to_symf().to_basis("h") == sym_h([n])
    g = QSymF.fundamental(frozenset(range(1, n)), n)
    assert g.to_symf().to_basis("e") == sym_e([n])
    assert fundamental(frozenset({1}), 2).to_monomial(2) == MonExpansion(
        2, {(1, 1): 1})


def test_fundamental_sum_over_descents_is_h1n():
    # summing F_{Des(w),n} over all words of S_n gives h_1^n
    from itertools import permutations
    n = 4
    tot = QSymF.zero()
    for w in permutations(range(1, n + 1)):
        S = frozenset(i for i in range(1, n) if w[i - 1] > w[i])
        tot = tot + QSymF.fundamental(S, n)
    assert tot.to_symf().to_basis("h") == sym_h([1] * n)


def test_qsym_omega():
    # the implemented omega complements the descent set and is an involution
    for n, S in [(2, frozenset()), (5, frozenset({1})), (5, frozenset({1, 3}))]:
        f = QSymF.fundamental(S, n)
        comp = frozenset(i for i in range(1, n) if i not in S)
        assert f.omega() == QSymF.fundamental(comp, n)
        assert f.omega().omega() == f


def test_principal_specializations():
    n = 3
    f = QSymF.fundamental(frozenset({1}), n)
    # m variables: q^{sum S} [m - |S| - 1 + n choose n]_q
    assert f.ps_at(3) == Poly.var("q") * q_binomial(4, 3)
    assert f.ps_at(1) == Poly.zero()
    hs = sym_h([2])
    me = hs.to_monomial(4)
    # directly substitute q powers into the 4 variable expansion
    direct = Poly.zero()
    for exp, c in me.terms.items():
        direct = direct + c * Poly.var("q", sum(i * e for i, e in enumerate(exp)))
    assert QSymF(
        {(2, frozenset()): 1}).ps_at(4) == direct


def test_ps_stable_geometric():
    # h_1 = sum x_i -> 1/(1-q)
    f = QSymF.fundamental(frozenset(), 1)
    assert f.ps_stable() == PolyFraction(Poly.one(), 1 - Poly.var("q"))


@st.composite
def qsym_functions(draw):
    """Random QSymF with degrees 0 .. 4, mixed degrees included."""
    keys = [(n, frozenset(S))
            for n in range(5) for r in range(n) for S in itertools.combinations(range(1, n), r)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=6))
    return QSymF({key: draw(st.integers(min_value=-3, max_value=3)) for key in chosen})


def _substituted(f, m):
    """ps_at by definition: x_i -> q^(i-1) in the m-variable expansion."""
    out = Poly.zero()
    for exp, c in f.to_monomial(m).terms.items():
        out = out + c * Poly.var("q", sum(i * e for i, e in enumerate(exp)))
    return out


@given(qsym_functions())
@settings(max_examples=40, deadline=None)
def test_ps_at_matches_substitution(f):
    for m in range(1, 5):
        assert f.ps_at(m) == _substituted(f, m), m
    assert f.ps_at(0) == Poly.const(f.terms.get((0, frozenset()), 0))
    # rational coefficients, and integral Fractions mixed with ints
    g = Fraction(2, 3) * f + QSymF({(2, (1,)): Fraction(1, 5)})
    h = Fraction(2, 1) * f + QSymF({(2, frozenset()): 1, (3, frozenset({1})): Fraction(4, 2)})
    for m in range(4):
        assert g.ps_at(m) == _substituted(g, m), m
        assert h.ps_at(m) == _substituted(h, m), m


@given(qsym_functions())
@settings(max_examples=40, deadline=None)
def test_ps_norm_bounds_what_ps_packed_packs(f):
    # ps_packed at any width packs the substituted polynomial, and ps_norm
    # bounds its L1 norm at every m up to the depth
    depth = 4
    bound = f.ps_norm(depth)
    for w in (3, bound.bit_length() + 1):
        packed = f.ps_packed(depth, w)
        for m in range(depth + 1):
            want = qlist_from_poly(_substituted(f, m))
            assert sum(map(abs, want)) <= bound
            assert packed[m] == qlist_pack(want, w)


@given(qsym_functions())
@settings(max_examples=40, deadline=None)
def test_ps_stable_matches_per_term_definition(f):
    q = Poly.var("q")
    want = PolyFraction(Poly.zero())
    for (n, S), c in f.terms.items():
        want = want + PolyFraction(c * Poly.var("q", sum(S)), pochhammer(q, n))
    assert f.ps_stable() == want
    top = max(f.degrees(), default=0)
    for d in range(top, top + 3):
        assert PolyFraction(qlist_to_poly(f.ps_stable_qlist(d)), pochhammer(q, d)) == want
    if top:
        with pytest.raises(ValueError):
            f.ps_stable_qlist(top - 1)


def test_render_parse():
    f = 3 * sym_s([6]) + sym_s([3, 2, 1])
    assert f.render() == "3*s[6] + s[3,2,1]"
    assert parse_symf(f.render()) == f
    assert parse_symf("1", basis="h") == SymF.one("h")
    assert SymF.zero().render() == "0"


@pytest.mark.parametrize("scalar", [3, True, Fraction(-2, 3), Ratio(5, 7)])
def test_exact_scalars_act_as_constants(scalar):
    f, c = sym_h([2]), SymF("h", {(): scalar})
    assert f * scalar == scalar * f == f * c
    assert f + scalar == scalar + f == f + c
    assert f - scalar == f - c
    assert c == scalar
    g = QSymF.fundamental([1], 2)
    assert (g * scalar).terms == {(2, frozenset([1])): scalar}
    assert SymPoly.wrap(f) * scalar == SymPoly.wrap(f * c)


@pytest.mark.parametrize("scalar", [0.5, Decimal("0.5"), "2"])
def test_inexact_scalars_are_refused(scalar):
    f, g = sym_h([2]), QSymF.fundamental([1], 2)
    x = SymPoly.wrap(f, t=1)
    for op in (lambda: f * scalar, lambda: scalar * f, lambda: f + scalar,
               lambda: f - scalar, lambda: g * scalar,
               lambda: x * scalar, lambda: scalar * x, lambda: x + scalar,
               lambda: scalar + x, lambda: x - scalar):
        with pytest.raises(TypeError):
            op()
    assert f != scalar
    assert x != scalar


def test_sympoly_sum_with_a_symf():
    """A SymF is the coefficient of t^0 r^0 in a sum or a difference, as in
    a product, and a constant is not a SymPoly."""
    x = SymPoly.wrap(sym_h([2]))
    assert x + sym_h([2, 1]) == SymPoly.wrap(sym_h([2]) + sym_h([2, 1]))
    assert x - sym_h([3]) == SymPoly.wrap(sym_h([2]) - sym_h([3]))
    assert SymPoly.wrap(sym_h([1]), t=2) + sym_h([1]) == SymPoly(
        {(2, 0): sym_h([1]), (0, 0): sym_h([1])})
    assert x - sym_h([2]) == SymPoly.zero()
    for constant in (1, Fraction(1, 2)):
        with pytest.raises(TypeError):
            x + constant
        with pytest.raises(TypeError):
            x - constant


def test_sympoly_reflected_operators():
    """A SymF on the left of + or - stands at t^0 r^0, as on the right, and
    keeps its basis there; a constant on the left is refused."""
    x = SymPoly.wrap(sym_h([2]), t=1) + sym_e([2])
    f = sym_s([2, 1])
    assert f + x == SymPoly.wrap(f) + x
    assert f - x == SymPoly.wrap(f) - x
    assert (f + x).coefficient().basis == "s"
    assert -x == SymPoly({(1, 0): -sym_h([2]), (0, 0): -sym_e([2])})
    assert -x + x == SymPoly.zero()
    for constant in (1, Fraction(1, 2), 0.5, "2"):
        with pytest.raises(TypeError):
            constant + x
        with pytest.raises(TypeError):
            constant - x


def test_sympoly_coefficients_are_symfs():
    assert SymPoly({(1, 0): SymF.zero()}) == SymPoly.zero()
    for coefficient in (3, Fraction(1, 2), None):
        with pytest.raises(TypeError):
            SymPoly({(0, 0): coefficient})


def test_power_takes_nonnegative_integers_only():
    f = sym_h([2])
    assert f ** 0 == SymF.one("h")
    assert f ** 2 == f * f
    with pytest.raises(ValueError):
        f ** -1
    for k in (1.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            f ** k


@given(st.sampled_from(small_partitions(4)), st.sampled_from(small_partitions(4)))
@settings(max_examples=40, deadline=None)
def test_product_degree_and_commutativity(lam, mu):
    a, b = sym_s(lam), sym_s(mu)
    assert a * b == b * a
    if not (a * b).is_zero():
        assert (a * b).degree() == Partition(lam).n + Partition(mu).n


def test_plethysm_h():
    # h_2[h_1] = h_2 and h_m[p_1 slice] recovers complete homogeneous
    assert plethysm_h(2, sym_h([1])) == sym_h([2])
    # h_2[h_2] at degree 4, classical expansion
    assert plethysm_h(2, sym_h([2])).to_basis("s") == (
        sym_s([4]) + sym_s([2, 2]))
    # h_2[e_2] = e_4 + s_{2,2} style check via dimensions: evaluate
    # squarefree coefficients in 4 variables
    f = plethysm_h(2, sym_e([2]))
    assert f.to_monomial(4).coefficient_of_squarefree() == 3


def test_restriction():
    # restriction of s_lam sums s_mu over corners removed
    f = sym_s([3, 2]).to_basis("h")
    got = restrict_frobenius(f).to_basis("s")
    assert got == sym_s([2, 2]) + sym_s([3, 1])
    with pytest.raises(ValueError):
        restrict_frobenius(sym_h([2]) + sym_h([1]))
    with pytest.raises(ValueError):
        restrict_frobenius(sym_h([]))


def monomial_restriction(f):
    """Restriction by the monomial route: expand in n = deg(f) variables,
    apply d/dx_n, set x_n = 0 and lift back to m."""
    n = f.degree()
    kept = {e[:-1]: c for e, c in f.to_monomial(n).terms.items() if e[-1] == 1}
    return MonExpansion(n - 1, kept).to_symf().to_basis(f.basis)


def schur_corners_removed(lam):
    """s_mu summed over the shapes mu that remove one corner from lam."""
    out = SymF.zero("s")
    for i, x in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < x:
            out = out + sym_s([y - (k == i) for k, y in enumerate(lam) if y - (k == i)])
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_restriction_matches_monomial_route_and_branching(n):
    for lam in partitions(n):
        for basis in BASES:
            f = SymF.single(basis, lam)
            got = restrict_frobenius(f)
            assert got.basis == basis
            assert got.terms == monomial_restriction(f).terms, (basis, tuple(lam))
        assert restrict_frobenius(sym_s(lam)).terms == schur_corners_removed(lam).terms


@pytest.mark.parametrize("n", range(7))
def test_squarefree_coefficient_matches_monomial_expansion(n):
    slices = [q_symf_oracle(n, j, k) for j in range(n) for k in [None] + list(range(n + 1))]
    slices += [q_symf_type_oracle(lam, j) for lam in partitions(n) for j in range(n)]
    for f in slices:
        for basis in BASES:
            g = f.to_basis(basis)
            assert g.squarefree_coefficient() == g.to_monomial(n).coefficient_of_squarefree()


def old_descent_sets_of_rearrangements(lam):
    """The definition before multiset permutations: every one of the
    len(lam)! orderings of the parts, deduplicated."""
    out = set()
    for arrangement in set(itertools.permutations(lam)):
        acc = 0
        S = []
        for part in arrangement[:-1]:
            acc += part
            S.append(acc)
        out.add(frozenset(S))
    return out


def test_descent_sets_of_rearrangements_match_definition():
    for n in range(9):
        for lam in partitions(n):
            assert _descent_sets_of_rearrangements(lam) == old_descent_sets_of_rearrangements(lam)
    assert _descent_sets_of_rearrangements(Partition([1] * 12)) == {frozenset(range(1, 12))}


def old_m_coeffs(f):
    """The m coefficients of a QSymF by frozensets, or None when it is not
    symmetric: M_T collects the F_S with S inside T, and m_lam is read at the
    descent set of the weakly decreasing word of content lam, after checking
    every rearrangement of lam."""
    out = {}
    for n in f.degrees():
        subsets = [frozenset(T) for r in range(max(n, 1))
                   for T in itertools.combinations(range(1, n), r)]
        coeffs = {T: sum(c for (m, S), c in f.terms.items() if m == n and S <= T)
                  for T in subsets}
        for lam in partitions(n):
            if len({coeffs[T] for T in old_descent_sets_of_rearrangements(lam)}) > 1:
                return None
            word = [v for v in range(len(lam), 0, -1) for _ in range(lam[v - 1])]
            drops = frozenset(i for i in range(1, n) if word[i - 1] > word[i])
            if coeffs[drops]:
                out[lam] = coeffs[drops]
    return out


def test_mask_assembly_matches_frozenset_reference():
    slices = [q_qsym(n, j, k) for n in range(7) for j in range(max(n, 1))
              for k in [None] + list(range(n + 1))]
    slices += [q_qsym_type(lam, j) for n in range(7) for lam in partitions(n)
               for j in range(max(n, 1))]
    for f in slices:
        want = old_m_coeffs(f)
        assert want is not None
        assert f.to_symf() == SymF("m", want)
    # mixed degrees, the constant term and a rational coefficient
    f = QSymF({(0, ()): 2, (2, ()): Fraction(1, 3), (3, (1,)): 1, (3, (2,)): 1})
    assert f.to_symf() == SymF("m", old_m_coeffs(f))
    # F_{{1},3} alone is not symmetric: M_{(1,2)} and M_{(2,1)} differ
    bad = QSymF.fundamental({1}, 3)
    assert old_m_coeffs(bad) is None
    assert not bad.is_symmetric()
    with pytest.raises(ValueError):
        bad.to_symf()


# -- an oracle for the basis layer: polynomials in N variables -------------
# Each basis element is built as an honest polynomial in x_1..x_N from its
# definition, without SymF.to_basis, and its m coefficients are read off the
# exponent vectors of the partitions of n.  With N = n every m_mu of degree
# n is visible.

def mon_product(factors, N):
    out = MonExpansion.one(N)
    for f in factors:
        out = out * f
    return out


def mon_monomials(vars_multisets, N):
    """Sum of x^v over the given multisets of variable positions."""
    out = {}
    for vs in vars_multisets:
        e = [0] * N
        for v in vs:
            e[v] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return MonExpansion(N, out)


def mon_basis(b, lam, N):
    lam = Partition(lam)
    if b == "p":
        return mon_product([mon_monomials([[v] * k for v in range(N)], N) for k in lam], N)
    if b == "h":
        return mon_product([mon_monomials(itertools.combinations_with_replacement(range(N), k), N)
                            for k in lam], N)
    if b == "e":
        return mon_product([mon_monomials(itertools.combinations(range(N), k), N) for k in lam], N)
    if b == "m":
        padded = tuple(lam) + (0,) * (N - len(lam))
        return MonExpansion(N, {e: 1 for e in set(itertools.permutations(padded))})
    return mon_monomials(ssyt_contents(lam, N), N)


def ssyt_contents(lam, N):
    """The entries (0-based) of every semistandard tableau of shape lam with
    entries below N: rows weakly increase, columns strictly increase."""
    cells = [(r, c) for r, length in enumerate(lam) for c in range(length)]
    filling = {}

    def fill(k):
        if k == len(cells):
            yield list(filling.values())
            return
        r, c = cells[k]
        lo = max(filling.get((r, c - 1), 0), filling.get((r - 1, c), -1) + 1)
        for v in range(lo, N):
            filling[(r, c)] = v
            yield from fill(k + 1)
        filling.pop((r, c), None)

    return fill(0)


def m_coefficients(mon, n):
    """{mu: coefficient of x^mu} over the partitions mu of n."""
    out = {}
    for mu in partitions(n):
        c = mon.terms.get(tuple(mu) + (0,) * (mon.N - len(mu)), 0)
        if c:
            out[mu] = c
    return out


@pytest.mark.parametrize("b", "hesp")
def test_to_m_matches_polynomials(b):
    for n in range(8):
        for lam in partitions(n):
            want = m_coefficients(mon_basis(b, lam, n), n)
            assert SymF.single(b, lam).to_basis("m").terms == want, (b, lam)


@pytest.mark.parametrize("b", "sm")
def test_products_match_polynomials(b):
    for lam, mu in itertools.product(small_partitions(4), repeat=2):
        N = Partition(lam).n + Partition(mu).n
        if not 0 < N <= 6:
            continue
        want = m_coefficients(mon_basis(b, lam, N) * mon_basis(b, mu, N), N)
        got = SymF.single(b, lam) * SymF.single(b, mu)
        assert got.basis == b
        assert got.to_basis("m").terms == want, (lam, mu)


def dominates(lam, mu):
    return all(sum(lam[:i]) >= sum(mu[:i]) for i in range(1, len(mu) + 1))


def test_partitions_extend_dominance():
    # the unitriangular solves need a partition listed before all it dominates
    for n in range(13):
        plist = partitions(n)
        for i, j in itertools.combinations(range(len(plist)), 2):
            assert not dominates(plist[j], plist[i]), (plist[i], plist[j])


def test_kostka_unitriangular():
    for n in range(13):
        plist = partitions(n)
        cols = _kostka(n)
        assert len(cols) == len(plist)
        for j, col in enumerate(cols):
            assert col[j] == 1
            for i, k in col.items():
                assert i <= j and k > 0 and dominates(plist[i], plist[j])


def old_to_monomial(f, N):
    """The definition before multiset permutations: all N! orderings of
    each exponent vector, deduplicated."""
    out = {}
    for lam, c in f.to_basis("m").terms.items():
        if lam.length <= N:
            for e in set(itertools.permutations(tuple(lam) + (0,) * (N - lam.length))):
                out[e] = c
    return MonExpansion(N, out)


def test_to_monomial_matches_definition():
    for n in range(8):
        f = SymF("m", {lam: i + 1 for i, lam in enumerate(partitions(n))})
        for N in {max(n - 1, 0), n, 7}:
            assert f.to_monomial(N) == old_to_monomial(f, N), (n, N)
        g = sym_s(partitions(n)[0])
        assert g.to_monomial(n) == old_to_monomial(g, n)
    start = time.perf_counter()
    got = sym_m([1] * 12).to_monomial(12)
    assert time.perf_counter() - start < 1
    assert got == MonExpansion(12, {(1,) * 12: 1})


# ---------------------------------------------------------------------------
# integer p -> s, and coefficientwise SymPoly equality
# ---------------------------------------------------------------------------

def fraction_p_to_s(f):
    """p -> s by the Fraction route: every cell a Fraction times a character."""
    out = {}
    for mu, c in f.terms.items():
        for lam in partitions(mu.n):
            out[lam] = out.get(lam, Fraction(0)) + Fraction(c) * mn_character(lam, mu)
    return {lam: c for lam, c in out.items() if c}


def h_and_e_in_p(n):
    """h_n and e_n written in p: sum over mu of (+-1) p_mu / z_mu."""
    h = SymF("p", {mu: Fraction(1, mu.z()) for mu in partitions(n)})
    e = SymF("p", {mu: Fraction((-1) ** (n - mu.length), mu.z()) for mu in partitions(n)})
    return h, e


@pytest.mark.parametrize("n", range(1, 9))
def test_p_to_s_is_integral_where_the_answer_is(n):
    h, e = h_and_e_in_p(n)
    for f, want in ((h, {Partition([n]): 1}), (e, {Partition([1] * n): 1})):
        got = f.to_basis("s").terms
        assert got == want == fraction_p_to_s(f)
        assert all(type(c) is int for c in got.values())
    for mu in partitions(n):
        got = sym_p(mu).to_basis("s").terms
        assert got == fraction_p_to_s(sym_p(mu)), mu
        assert got == {lam: mn_character(lam, mu) for lam in partitions(n)
                       if mn_character(lam, mu)}
        assert all(type(c) is int for c in got.values()), mu


def test_p_to_s_keeps_a_fraction_where_the_answer_is_not_integral():
    got = sym_p([1], Fraction(1, 2)).to_basis("s").terms
    assert got == {Partition([1]): Fraction(1, 2)}
    assert type(got[Partition([1])]) is Fraction
    # mixed: an integral and a non-integral Schur coefficient in one answer
    f = SymF("p", {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    got = f.to_basis("s").terms
    assert got == fraction_p_to_s(f) == {Partition([2]): 1}
    assert type(got[Partition([2])]) is int
    f = SymF("p", {(2,): Fraction(1, 3), (1, 1): Fraction(1, 6), (1,): 2})
    got = f.to_basis("s").terms
    assert got == fraction_p_to_s(f)
    assert type(got[Partition([1])]) is int
    assert type(got[Partition([2])]) is Fraction


def test_render_prints_int_and_whole_fraction_alike():
    for c in (1, -1, 3, -4):
        assert (SymF("s", {(2, 1): c, (): c}).render()
                == SymF("s", {(2, 1): Fraction(c, 1), (): Fraction(c, 1)}).render())
    h, _ = h_and_e_in_p(4)
    assert h.to_basis("s").render() == "s[4]"


def sympoly_pairs():
    base = SymPoly({(0, 0): sym_h([2]) + 2 * sym_h([1, 1]), (1, 0): sym_e([3]),
                    (2, 1): sym_s([2, 1])})
    yield base, base
    for b in BASES:
        yield base, base.to_basis(b)
        yield base.to_basis(b), base
    yield base, base + SymPoly.wrap(sym_m([1]), t=3)  # extra support
    yield base, base + SymPoly.wrap(sym_p([2]), t=1)  # one coefficient differs
    yield base, base.to_basis("p") + SymPoly.wrap(sym_p([2]), t=1)
    yield base, SymPoly({k: f for k, f in base.terms.items() if k != (2, 1)})
    yield base, base.shift(t=1)
    yield SymPoly.zero(), SymPoly.zero()
    yield SymPoly.zero(), base
    yield base - base, SymPoly.zero()


def test_sympoly_equality_matches_comparison_in_m():
    for a, b in sympoly_pairs():
        want = ({k: f.to_basis("m").terms for k, f in a.terms.items()}
                == {k: f.to_basis("m").terms for k, f in b.terms.items()})
        assert (a == b) is want
        assert (b == a) is want


# ---------------------------------------------------------------------------
# class values: the integer kernel against the Fraction route through p
# ---------------------------------------------------------------------------

def fraction_p(f):
    """f in p by the Fraction route: [p_mu] f is the sum over lam of
    [s_lam] f chi^lam(mu) / z_mu, every cell a Fraction."""
    out = {}
    for lam, c in f.to_basis("s").terms.items():
        for mu in partitions(lam.n):
            out[mu] = out.get(mu, 0) + Fraction(c * mn_character(lam, mu), mu.z())
    return SymF("p", out)


def fraction_plethysm_h(m, f):
    """h_m[f] by the Fraction route the class kernel replaced: in p, from
    h_m = sum over nu of p_nu / z_nu and p_k[p_mu] = p_{k mu}, with t -> t^k
    and r -> r^k inside p_k.  A SymPoly comes back in p."""
    wrapped = isinstance(f, SymF)
    g = SymPoly.wrap(f) if wrapped else f
    g = SymPoly({key: fraction_p(x) for key, x in g.terms.items()})
    total = SymPoly.zero()
    for nu in partitions(m):
        prod = SymPoly.wrap(sym_p([], Fraction(1, nu.z())))
        for part in nu:
            prod = prod * SymPoly({
                (a * part, b * part): SymF("p", {Partition(x * part for x in mu): c
                                                 for mu, c in x.terms.items()})
                for (a, b), x in g.terms.items()})
        total = total + prod
    return total.coefficient(0, 0) if wrapped else total


SCHUR_COMBINATIONS = [
    sym_s([1]),
    sym_s([2]) - sym_s([1, 1]),
    sym_s([1, 1]) + 3 * sym_s([2]),
    2 * sym_s([2, 1]) - sym_s([3]),
    sym_s([2]) + sym_s([1]) + sym_s([]),
]


def test_class_product_matches_the_p_product():
    for f in SCHUR_COMBINATIONS:
        for g in SCHUR_COMBINATIONS:
            got = class_mul({(0, 0): class_values(f), (1, 0): class_values(g)},
                            {(0, 2): class_values(g)})
            want = {(0, 2): fraction_p(f) * fraction_p(g),
                    (1, 2): fraction_p(g) * fraction_p(g)}
            assert got == {key: {mu: c * mu.z() for mu, c in x.terms.items()}
                           for key, x in want.items()}
            assert all(type(v) is int for x in got.values() for v in x.values())


@pytest.mark.parametrize("m", range(5))
def test_plethysm_h_matches_the_fraction_route_on_symf(m):
    for f in SCHUR_COMBINATIONS:
        if m * f.degree() > 9:
            continue
        got = plethysm_h(m, f)
        assert got.basis == "s"
        assert got.terms == fraction_p_to_s(fraction_plethysm_h(m, f)), (m, f)
        assert all(type(c) is int for c in got.terms.values())
        assert plethysm_h(m, f.to_basis("h")) == got.to_basis("h")


@pytest.mark.parametrize("m", range(5))
def test_plethysm_h_matches_the_fraction_route_on_sympoly(m):
    g = SymPoly({(0, 0): sym_s([1]), (1, 0): sym_s([2]) - sym_s([1, 1]),
                 (2, 1): 2 * sym_s([1])})
    got = plethysm_h(m, g)
    want = fraction_plethysm_h(m, g)
    assert got.terms.keys() == want.terms.keys()
    for key, f in got.terms.items():
        assert f.basis == "p"
        assert f.terms == want.terms[key].terms, key


@pytest.mark.parametrize("n", range(9))
def test_schur_class_round_trip(n):
    total = SymF("s")
    for i, lam in enumerate(partitions(n)):
        values = class_values(sym_s(lam))
        assert values == {mu: mn_character(lam, mu) for mu in partitions(n)
                          if mn_character(lam, mu)}
        assert from_class_values(values, "s").terms == {lam: 1}
        total = total + sym_s(lam, i - 3)
    values = class_values(total)
    assert all(type(v) is int for v in values.values())
    assert from_class_values(values, "s") == total
    assert all(type(c) is int for c in from_class_values(values, "s").terms.values())
    for basis in BASES:
        assert from_class_values(values, basis).terms == total.to_basis(basis).terms
    # p -> s takes the same route, from the class values c z_mu of c p_mu
    as_p = SymF("p", {mu: Fraction(v, mu.z()) for mu, v in values.items()})
    assert as_p.to_basis("s") == total
    assert all(type(c) is int for c in as_p.to_basis("s").terms.values())


def test_class_to_s_keeps_a_fraction_where_the_answer_is_not_integral():
    # p_1 / 2, and p_2, whose Schur coefficients are +-1/2 though its class
    # values are integers
    got = from_class_values({Partition([1]): Fraction(1, 2)}, "s").terms
    assert got == {Partition([1]): Fraction(1, 2)}
    assert type(got[Partition([1])]) is Fraction
    assert sym_p([1], Fraction(1, 2)).to_basis("s").terms == got
    got = from_class_values({Partition([2]): 1}, "s").terms
    assert got == {Partition([2]): Fraction(1, 2), Partition([1, 1]): Fraction(-1, 2)}
    assert class_values(sym_p([1], Fraction(1, 2))) == {Partition([1]): Fraction(1, 2)}
    # several degrees in one SymF, each with its own denominators: the
    # coefficient of s_lam in p_mu is chi^lam(mu)
    mixed = SymF("p", {Partition([1]): Fraction(1, 2), Partition([2]): 1,
                       Partition([2, 1]): Fraction(1, 3), Partition([3]): 3})
    want = {}
    for mu, c in mixed.terms.items():
        for lam in partitions(mu.n):
            want[lam] = want.get(lam, 0) + c * mn_character(lam, mu)
    want = {lam: c for lam, c in want.items() if c}
    got = mixed.to_basis("s").terms
    assert got == want
    assert type(got[Partition([2, 1])]) is int and type(got[Partition([3])]) is Fraction
    assert from_class_values(class_values(mixed), "s").terms == want


# ---------------------------------------------------------------------------
# Schur coefficients of signed sums of products, by position
# ---------------------------------------------------------------------------

def random_h(rng, n, terms=3):
    """A random h-expansion of degree n with small signed integer coefficients."""
    plist = partitions(n)
    return SymF("h", {rng.choice(plist): rng.randint(-5, 5) for _ in range(terms)})


def by_partition(d, vec):
    plist = partitions(d)
    return {plist[i]: c for i, c in enumerate(vec) if c}


@pytest.mark.parametrize("d", range(13))
def test_schur_of_products_matches_the_product_in_s(d):
    """On random h-expansions at every split of degree d, the Schur vector
    of a signed sum of products is the sum taken as SymF and converted to s;
    g = None stands for 1, and f and g in e, m, p or s give the same."""
    rng = random.Random(d)
    for _ in range(4):
        products = []
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(0, d)
            f = random_h(rng, a)
            g = None if a == d and rng.random() < 0.5 else random_h(rng, d - a)
            products.append((rng.randint(-3, 3), f, g))
        want = sum((c * f * (1 if g is None else g) for c, f, g in products), SymF.zero("h"))
        got = schur_of_products(d, products)
        assert by_partition(d, got) == want.to_basis("s").terms
        for basis in "emps":
            converted = [(c, f.to_basis(basis), None if g is None else g.to_basis(basis))
                         for c, f, g in products]
            assert schur_of_products(d, converted) == got, basis


@pytest.mark.parametrize("n", [4, 5, 6])
def test_schur_of_products_takes_a_slice_in_p_as_in_h(n):
    """A cycle-type slice from the formulas (in p) and from the census oracle
    (in h) give the same Schur vectors, alone and in the log-concavity
    products; the p coefficients read as if they were h give another."""
    for lam in partitions(n):
        for j in range(n):
            in_p = [q_symf_type(lam, i) for i in (j - 1, j, j + 1)]
            in_h = [q_symf_type_oracle(lam, i) for i in (j - 1, j, j + 1)]
            assert in_p[0].basis == "p" and in_h[0].basis == "h"
            for f, g in zip(in_p, in_h):
                assert schur_of_products(n, [(1, f, None)]) == schur_of_products(n, [(1, g, None)])
            products_p = [(1, in_p[1], in_p[1]), (-1, in_p[2], in_p[0])]
            products_h = [(1, in_h[1], in_h[1]), (-1, in_h[2], in_h[0])]
            got = schur_of_products(2 * n, products_p)
            assert got == schur_of_products(2 * n, products_h), (tuple(lam), j)
            want = in_h[1] * in_h[1] - in_h[2] * in_h[0]
            assert by_partition(2 * n, got) == want.to_basis("s").terms
    f = q_symf_type(Partition([n]), 1)
    misread = SymF("h", f.terms)
    assert schur_of_products(n, [(1, misread, None)]) != schur_of_products(n, [(1, f, None)])
