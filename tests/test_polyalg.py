"""Exact polynomial arithmetic, q-analogs, and truncated series."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerq import (
    Poly,
    PolyFraction,
    TruncSeries,
    parse_poly,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
)
from eulerq.polyalg import (
    P,
    QExpSeries,
    pochhammer,
    qlist_add,
    qlist_binomial,
    qlist_from_poly,
    qlist_mul,
    qlist_norm,
    qlist_p_pochhammer,
    qlist_pack,
    qlist_pochhammer,
    qlist_to_poly,
    qlist_unpack,
)

coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=0, max_value=3)


class Ratio(Fraction):
    """A Fraction subclass, which is still an exact scalar."""


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(
        st.tuples(exps, exps, exps, exps), coeffs, max_size=5))
    return Poly(terms)


@given(polys(), polys(), polys())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a
    assert a * Poly.one() == a
    assert a - a == Poly.zero()


@given(polys())
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(a):
    assert parse_poly(a.render()) == a


def test_parse_poly_forms():
    assert parse_poly("0") == Poly.zero()
    assert parse_poly("1") == Poly.one()
    assert parse_poly("q^2 - 2*q*t + t^2") == (Poly.var("q") - Poly.var("t")) ** 2
    assert parse_poly("3*p + p*q") == Poly.var("p") * (3 + Poly.var("q"))


def test_q_analogs():
    q = Poly.var("q")
    assert q_int(0) == Poly.zero()
    assert q_int(4) == 1 + q + q**2 + q**3
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert q_binomial(4, 2) == 1 + q + 2 * q**2 + q**3 + q**4
    assert q_binomial(5, 0) == Poly.one()
    assert q_binomial(5, 6) == Poly.zero()
    # symmetry and the Pascal recurrences
    for n in range(1, 7):
        for k in range(n + 1):
            b = q_binomial(n, k)
            assert b == q_binomial(n, n - k)
            assert b == q_binomial(n - 1, k - 1) + Poly.var("q", k) * q_binomial(n - 1, k)
    assert q_multinomial(4, (2, 2)) == q_binomial(4, 2)
    assert q_multinomial(6, (3, 2, 1)).substitute(q=Poly.one()) == 60


def test_q_binomial_counts_inversions():
    # [n choose k]_q lists subsets by the sum of (element - position)
    from itertools import combinations
    for n, k in [(5, 2), (6, 3)]:
        hist = {}
        for sub in combinations(range(1, n + 1), k):
            w = sum(sub) - k * (k + 1) // 2
            hist[w] = hist.get(w, 0) + 1
        assert q_binomial(n, k) == Poly({(w, 0, 0, 0): c for w, c in hist.items()})


def test_substitute():
    q, t = Poly.var("q"), Poly.var("t")
    f = q**2 * t + 3 * t
    assert f.substitute(q=Poly.one()) == 4 * t
    assert f.substitute(t=q) == q**3 + 3 * q
    # negative exponents require an invertible monomial image
    g = Poly.term(1, q=-1, t=1)
    assert g.substitute(q=Poly.var("q").monomial_inverse()) == q * t
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        f.substitute(z=q)


def test_substitute_takes_monomials_only():
    q, p, t = Poly.var("q"), Poly.var("p"), Poly.var("t")
    f = q**2 * t + 3 * t
    with pytest.raises(ValueError, match="monomial"):
        f.substitute(q=q + 1)
    # every variable is replaced at once, from the original exponents
    assert (q**2 * p).substitute(q=p, p=q) == p**2 * q
    # 0 kills the positive powers and leaves q^0 alone
    assert f.substitute(q=0) == 3 * t


def test_substitute_negative_exponents():
    t = Poly.var("t")
    g = Poly.term(3, q=-2, t=1)
    # (2t)^-2 t = t^-1 / 4: a non-unit monomial inverts into Fractions
    got = g.substitute(q=2 * t)
    assert got.terms == {(0, 0, -1, 0): Fraction(3, 4)}
    assert isinstance(got.terms[(0, 0, -1, 0)], Fraction)
    # a unit keeps int coefficients
    assert g.substitute(q=-t).terms == {(0, 0, -1, 0): 3}
    assert type(g.substitute(q=-t).terms[(0, 0, -1, 0)]) is int
    with pytest.raises(ValueError, match="cannot substitute 0"):
        g.substitute(q=0)
    with pytest.raises(ValueError, match="cannot substitute 0"):
        g.substitute(q=Poly.zero(), t=0)


monomials = st.builds(lambda c, e: Poly.term(c, *e),
                      st.integers(min_value=-3, max_value=3).filter(bool),
                      st.tuples(*[st.integers(min_value=-2, max_value=2)] * 4))


@given(polys(), st.dictionaries(st.sampled_from("qptr"), monomials, max_size=4))
@settings(max_examples=60, deadline=None)
def test_substitute_matches_products(f, rules):
    # reference: each term as a product of Poly powers of the replacements
    want = Poly.zero()
    for e, c in f.terms.items():
        term = Poly.const(c)
        for name, k in zip("qptr", e):
            term = term * (rules[name] ** k if name in rules else Poly.var(name, k))
        want = want + term
    assert f.substitute(**rules) == want


def test_fraction_coefficients():
    f = Poly.const(Fraction(1, 2)) * Poly.var("q")
    assert f + f == Poly.var("q")


def test_poly_fraction_field():
    q = Poly.var("q")
    half = PolyFraction(Poly.one(), 1 - q)
    assert half * (1 - q) == PolyFraction(Poly.one())
    s = half + PolyFraction(q, 1 - q)
    assert s == PolyFraction(1 + q, 1 - q)
    assert (half - half).is_zero()
    assert half / half == PolyFraction(Poly.one())
    with pytest.raises(ZeroDivisionError):
        PolyFraction(Poly.one(), Poly.zero())


def test_trunc_series_geometric_inverse():
    t = Poly.var("t")
    s = TruncSeries("z", 6, [Poly.one(), -t])
    inv = s.inverse()
    assert inv.coeffs[4] == t**4
    assert s * inv == TruncSeries.one("z", 6)


def test_trunc_series_inverse_needs_unit_constant_term():
    t = Poly.var("t")
    s = TruncSeries("z", 4, [1 - t, t])
    with pytest.raises(ValueError, match=r"constant term 1 - t"):
        s.inverse()
    neg = TruncSeries("z", 4, [Poly.const(-1), t])
    assert neg * neg.inverse() == TruncSeries.one("z", 4)


@pytest.mark.parametrize("scalar", [3, True, Fraction(-2, 3), Ratio(5, 7)])
def test_exact_scalars_act_as_constants(scalar):
    q, c = Poly.var("q"), Poly.const(scalar)
    assert q * scalar == scalar * q == q * c
    assert q + scalar == scalar + q == q + c
    assert q - scalar == q - c and scalar - q == c - q
    assert c == scalar
    assert PolyFraction(scalar) == PolyFraction(c)
    assert QExpSeries([q]) * scalar == QExpSeries([q * c])


@pytest.mark.parametrize("scalar", [0.5, Decimal("0.5"), "2"])
def test_inexact_scalars_are_refused(scalar):
    q = Poly.var("q")
    for op in (lambda: q * scalar, lambda: scalar * q, lambda: q + scalar,
               lambda: q - scalar, lambda: scalar - q, lambda: PolyFraction(scalar)):
        with pytest.raises(TypeError):
            op()
    assert Poly.one() != scalar


def test_a_rational_that_is_no_fraction_is_refused():
    """Scalars are int and Fraction: a type registered as numbers.Rational
    without being a Fraction is no constant."""
    import numbers

    class Tally:
        numerator, denominator = 1, 1

    numbers.Rational.register(Tally)
    q = Poly.var("q")
    for op in (q.__mul__, q.__add__, q.__sub__, q.__eq__):
        assert op(Tally()) in (NotImplemented, False)


def test_trunc_series_holds_polys_only():
    t = Poly.var("t")
    s = TruncSeries("z", 3, [Poly.one(), t])
    with pytest.raises(TypeError, match="cannot coerce"):
        s * PolyFraction(Poly.one(), 1 - t)
    with pytest.raises(TypeError, match="cannot coerce"):
        TruncSeries("z", 3, [PolyFraction(t)])
    assert TruncSeries("z", 3, [1, 2]).coeffs == [Poly.one(), Poly.const(2), Poly.zero(), Poly.zero()]


def test_trunc_series_rejects_series_variable():
    with pytest.raises(ValueError):
        TruncSeries("t", 3, [Poly.var("t")])


def test_pochhammer():
    q = Poly.var("q")
    assert pochhammer(Poly.var("t"), 0) == Poly.one()
    assert pochhammer(Poly.var("t"), 2) == (1 - Poly.var("t")) * (1 - q * Poly.var("t"))
    # [z^1] of (z; q)_3, the p-coefficient list of (p; q)_{2+1}
    assert qlist_to_poly(qlist_p_pochhammer(2)[1]) == -(1 + q + q**2)


def test_qexp_convolution():
    # exp_q(z) * Exp_q(-z) telescopes to 1, the classical q-exponential
    # complement identity
    order = 8
    a = QExpSeries.exp_q(order)
    b = QExpSeries([Poly.var("q", n * (n - 1) // 2) * (-1) ** n for n in range(order + 1)])
    prod = a * b
    assert prod.coeffs[0] == Poly.one()
    assert all(c == Poly.zero() for c in prod.coeffs[1:])


def test_qexp_geometric():
    u = Poly.var("p")
    g = QExpSeries.geometric(u, 5)
    assert g.coeffs[3] == u**3
    one = QExpSeries([Poly.one()] + [Poly.zero()] * 5)
    assert g * one == g


# ---------------------------------------------------------------------------
# coefficient lists in q against Poly
# ---------------------------------------------------------------------------

qlists = st.lists(st.integers(min_value=-5, max_value=5), max_size=6)


@given(qlists, qlists)
@settings(max_examples=60, deadline=None)
def test_qlist_mul_matches_poly(a, b):
    assert qlist_to_poly(qlist_mul(a, b)) == qlist_to_poly(a) * qlist_to_poly(b)


@given(qlists, qlists, st.integers(min_value=0, max_value=4), coeffs)
@settings(max_examples=60, deadline=None)
def test_qlist_add_matches_poly(acc, a, shift, c):
    want = qlist_to_poly(acc) + c * Poly.var("q", shift) * qlist_to_poly(a)
    out = qlist_add(acc, a, shift, c)
    assert out is acc
    assert qlist_to_poly(acc) == want


def test_qlist_from_poly_is_strict():
    assert qlist_from_poly(Poly.zero()) == []
    assert qlist_from_poly(Poly({(2, 0, 0, 0): 5, (0, 0, 0, 0): -1})) == [-1, 0, 5]
    assert qlist_from_poly(Poly.term(2, q=1) + 1) == [1, 2]
    for bad in (Poly.term(1, q=1, p=1), Poly.term(1, t=1), Poly.term(1, r=2),
                Poly.term(1, q=-1), Poly.const(Fraction(1, 2)), Poly.const(Fraction(4, 2))):
        with pytest.raises(ValueError):
            qlist_from_poly(bad)


@given(qlists)
@settings(max_examples=60, deadline=None)
def test_qlist_from_poly_inverts_to_poly(a):
    assert qlist_to_poly(qlist_from_poly(qlist_to_poly(a))) == qlist_to_poly(a)


@given(qlists, qlists)
@settings(max_examples=60, deadline=None)
def test_qlist_pack(a, b):
    # every coefficient of a, b and a b is below 2^(w-1) in absolute value
    w = (qlist_norm(a) * qlist_norm(b) + qlist_norm(a) + qlist_norm(b)).bit_length() + 1
    assert qlist_pack(a, w) * qlist_pack(b, w) == qlist_pack(qlist_mul(a, b), w)
    assert (qlist_pack(a, w) == qlist_pack(b, w)) == (qlist_to_poly(a) == qlist_to_poly(b))
    assert qlist_pack(a + [0, 0], w) == qlist_pack(a, w)


@given(st.integers(min_value=1, max_value=70), st.data())
@settings(max_examples=150, deadline=None)
def test_qlist_unpack_inverts_pack(w, data):
    # signed coefficients up to the widest the width allows, 2^(w-1) - 1
    top = 2 ** (w - 1) - 1
    coeff = st.one_of(st.integers(min_value=-top, max_value=top), st.sampled_from((top, -top)))
    a = data.draw(st.lists(coeff, max_size=6))
    want = list(a)
    while want and want[-1] == 0:
        want.pop()
    assert qlist_unpack(qlist_pack(a, w), w) == want


def test_qlist_unpack_edges():
    assert qlist_unpack(0, 5) == []
    assert qlist_unpack(qlist_pack([0, 0, -15, 0, 15, 0], 5), 5) == [0, 0, -15, 0, 15]
    # 16 is not below 2^4, so at width 5 it reads back as the digits of 32 - 16
    assert qlist_unpack(qlist_pack([16], 5), 5) == [-16, 1]


def test_qlist_trailing_zeros():
    assert qlist_to_poly([1, 0, 0]) == Poly.one()
    assert qlist_to_poly([0, 0]) == Poly.zero() == qlist_to_poly([])
    assert qlist_mul([0, 1, 0], [2, 0]) == [0, 2, 0, 0]
    assert qlist_mul([], [1]) == []
    # a cancellation leaves zeros in the list; the Poly drops them
    acc = qlist_add([1, 1], [1, 1], 0, -1)
    assert acc == [0, 0] and qlist_to_poly(acc).is_zero()


@pytest.mark.parametrize("n", range(9))
def test_qlist_binomial(n):
    for k in range(-1, n + 2):
        got = qlist_to_poly(qlist_binomial(n, k))
        if 0 <= k <= n:
            assert got * q_factorial(k) * q_factorial(n - k) == q_factorial(n)
        else:
            assert qlist_binomial(n, k) == ()
        assert got == q_binomial(n, k)


@pytest.mark.parametrize("n", range(7))
def test_qlist_pochhammers(n):
    q = Poly.var("q")
    for a in (1, 2, 4):
        assert qlist_to_poly(qlist_pochhammer(a, n)) == pochhammer(q ** a, n)
    want = pochhammer(P, n + 1).coefficients_in("p")
    got = qlist_p_pochhammer(n)
    assert len(got) == n + 2
    assert {b: qlist_to_poly(c) for b, c in enumerate(got)} == want
    with pytest.raises(ValueError):
        qlist_pochhammer(0, n)
