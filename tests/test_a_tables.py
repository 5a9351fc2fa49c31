"""The A family as q lists: the public enumerators are Poly views of the
census tables and give the values they gave when they read the census rows
directly, and every packed comparison of the suites has room for its
coefficients."""

import hashlib
from math import comb, factorial

import pytest

from eulerq import Poly, eulerian, partitions, suites
from eulerq.polyalg import qlist_add, qlist_mul, qlist_unpack
from eulerq.suites import (
    _gamma_positive,
    _log_concave,
    t_symmetric,
    t_unimodal,
    verify_derangement_identities,
    verify_positivity,
    verify_qexp_generating_function,
    verify_recurrences,
    verify_structure_identities,
    verify_symmetry_unimodality,
)

# ---------------------------------------------------------------------------
# the public enumerators against the values recorded from the census rows
# ---------------------------------------------------------------------------

# Every stats tuple the suites passed to each enumerator, plus one in inv.
A_STATS = [("maj", "exc", "fix"), ("maj", "exc"), ("comaj", "exc"), ("comaj", "exc", "fix"),
           ("maj", "des", "exc"), ("maj", "des", "exc", "fix"), ("inv", "des", "fix")]
FIX_STATS = [("maj", "des", "exc"), ("maj", "exc"), ("comaj", "exc")]
TYPE_STATS = [("maj", "des", "exc"), ("maj", "exc")]
DERANGEMENT_STATS = [("maj", "exc"), ("comaj", "exc")]


def _calls(name, n):
    if name == "a_poly":
        return [((n, s), eulerian.a_poly(n, s)) for s in A_STATS]
    if name == "a_poly_fix":
        return [((n, k, s), eulerian.a_poly_fix(n, k, s))
                for k in range(n + 1) for s in FIX_STATS]
    if name == "a_poly_type":
        return [((tuple(lam), s), eulerian.a_poly_type(lam, s))
                for lam in partitions(n) for s in TYPE_STATS]
    return [((n, s), eulerian.a_poly_derangements(n, s)) for s in DERANGEMENT_STATS]


# sha256 (first 16 hex digits) of repr([(args, sorted(poly.terms.items()))])
# over the calls of _calls, recorded with the enumerators that built each
# Poly from the census rows of every call
RECORDED = {
    ("a_poly", 0): "281c4a408f9ab2d4",
    ("a_poly_fix", 0): "4fd7f46f6b985be6",
    ("a_poly_type", 0): "99ef26a1108fdcf0",
    ("a_poly_derangements", 0): "721ee7120a9d859b",
    ("a_poly", 1): "71442d04105b2acd",
    ("a_poly_fix", 1): "8ea52e2edc923b47",
    ("a_poly_type", 1): "c55707747fcfb97d",
    ("a_poly_derangements", 1): "4c8603187f8874c6",
    ("a_poly", 2): "8905a4bb3b81998f",
    ("a_poly_fix", 2): "ebee59f0724d7abc",
    ("a_poly_type", 2): "5d28ef18415fa0d2",
    ("a_poly_derangements", 2): "eb2ddca6659266e6",
    ("a_poly", 3): "f8a08502eeaa4d68",
    ("a_poly_fix", 3): "670c83934b204212",
    ("a_poly_type", 3): "cceab0f911833c2e",
    ("a_poly_derangements", 3): "7e126736113fc589",
    ("a_poly", 4): "527613ce6f8a677f",
    ("a_poly_fix", 4): "3bd4faa42ce17a8d",
    ("a_poly_type", 4): "be2d84c4ae02b3fb",
    ("a_poly_derangements", 4): "3dcd0942995ab861",
    ("a_poly", 5): "20aa180b7f075d24",
    ("a_poly_fix", 5): "2603dfaaa5f8b613",
    ("a_poly_type", 5): "66a3588ee8fef723",
    ("a_poly_derangements", 5): "4622d3f76e1db333",
    ("a_poly", 6): "c33478e7d20f4bfe",
    ("a_poly_fix", 6): "5e542762e55c41e8",
    ("a_poly_type", 6): "240f30167e698795",
    ("a_poly_derangements", 6): "bfede794c65a7465",
    ("a_poly", 7): "24d80c2c176cc532",
    ("a_poly_fix", 7): "5b8cd8f58fa2b237",
    ("a_poly_type", 7): "682688b2278bb613",
    ("a_poly_derangements", 7): "5fe7a6b23bdff6b9",
}


@pytest.mark.parametrize("name, n", sorted(RECORDED))
def test_enumerators_give_the_recorded_values(name, n):
    polys = _calls(name, n)
    assert all(type(p) is Poly for _, p in polys)
    text = repr([(args, sorted(p.terms.items())) for args, p in polys])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == RECORDED[name, n]


def test_enumerator_defaults_and_collisions():
    assert eulerian.a_poly(4) == eulerian.a_poly(4, ("maj", "exc", "fix"))
    assert eulerian.a_poly_fix(4, 1) == eulerian.a_poly_fix(4, 1, ("maj", "des", "exc"))
    assert eulerian.a_poly_type((2, 1)) == eulerian.a_poly_type((2, 1), ("maj", "des", "exc"))
    assert eulerian.a_poly_derangements(4) == eulerian.a_poly_fix(4, 0, ("maj", "exc"))
    with pytest.raises(ValueError, match="collide"):
        eulerian.a_poly(3, ("maj", "inv"))


@pytest.mark.parametrize("n", range(7))
def test_tables_are_read_once_per_n(n):
    table = eulerian._a_table(n)
    assert eulerian._a_table(n) is table
    # one q list per (fix, des, exc), with no trailing zeros, counting S_n
    assert all(a and a[-1] for a in table.values())
    assert sum(map(sum, table.values())) == factorial(n)
    for lam in partitions(n):
        assert eulerian._a_type_table(lam) is eulerian._a_type_table(lam)
        assert all(f == lam.mult(1) for f, _, _ in eulerian._a_type_table(lam))


# ---------------------------------------------------------------------------
# the packed comparisons: the width leaves room for every coefficient
# ---------------------------------------------------------------------------


def _unpacked(terms):
    """A sum of products of _sums_agree as a q list, by qlist_mul."""
    out = []
    for c, s, factors in terms:
        x = [1]
        for a in factors:
            x = qlist_mul(x, a)
        qlist_add(out, x, s, c)
    while out and not out[-1]:
        out.pop()
    return out


SUMS_SUITES = [(verify_recurrences, (6,)), (verify_qexp_generating_function, (6,)),
               (verify_derangement_identities, (6,)), (verify_structure_identities, (6, 1, 1))]


@pytest.mark.parametrize("suite, args", SUMS_SUITES, ids=[f.__name__ for f, _ in SUMS_SUITES])
def test_packed_sums_keep_every_coefficient_below_half_the_width(monkeypatch, suite, args):
    """At n <= 6, both sides of every packed comparison, read back unpacked,
    are the sums of products computed on q lists, every coefficient of
    either is below 2^(w-1) in absolute value, and the packed verdict is
    the verdict on the q lists."""
    calls = []
    original = suites._sums_agree

    def spy(left, right):
        got = original(left, right)
        calls.append((left, right, got))
        return got

    monkeypatch.setattr(suites, "_sums_agree", spy)
    assert suite(*args).ok
    assert calls
    for left, right, got in calls:
        w = suites._sums_width(left, right)
        agree = True
        for key in left.keys() | right.keys():
            sides = [_unpacked(side.get(key, ())) for side in (left, right)]
            for side, exact in zip((left, right), sides):
                assert all(abs(c) < 2 ** (w - 1) for c in exact)
                assert qlist_unpack(suites._packed_sum(side.get(key, ()), w), w) == exact
            agree = agree and sides[0] == sides[1]
        assert got == agree


def _poly_coefficients(rows, des):
    """The t-coefficients that _shapes packs, as Polys in q and p: rows
    (des, exc, maj q list), t -> t/q, times q^top, top the largest exc."""
    top = max(e for _, e, _ in rows)
    out = {}
    for d, e, a in rows:
        out[e] = out.get(e, Poly.zero()) + Poly(
            {(i - e + top, d if des else 0, 0, 0): c for i, c in enumerate(a)})
    return out


def _kronecker(poly, stride):
    """The coefficient list of a Poly in q and p at p = q^stride."""
    out = []
    for (i, d, _, _), c in poly.terms.items():
        qlist_add(out, (c,), i + stride * d)
    while out and not out[-1]:
        out.pop()
    return out


def _gamma_values(cs, m):
    """Every value _gamma_positive computes from t-coefficients cs at
    nonnegative powers."""
    work = [cs.get(i, Poly.zero()) for i in range(max(m, *cs) + 1)]
    values = list(work)
    for d in range(m // 2 + 1):
        g = work[d]
        for i in range(m - 2 * d + 1):
            work[d + i] = work[d + i] - g * comb(m - 2 * d, i)
            values.append(work[d + i])
    return values


def _poly_nonneg(f):
    return all(c >= 0 for c in f.terms.values())


SHAPE_SUITES = [(verify_symmetry_unimodality, (6,)), (verify_positivity, (6,))]


@pytest.mark.parametrize("suite, args", SHAPE_SUITES, ids=[f.__name__ for f, _ in SHAPE_SUITES])
def test_packed_shapes_keep_every_coefficient_below_half_the_width(monkeypatch, suite, args):
    """At n <= 6, every packed t-coefficient of the shape records reads back
    as its Poly; every coefficient, difference of neighbours, c_i^2 -
    c_(i-1) c_(i+1) and value of the binomial-basis expansion, computed on
    Polys, is below 2^(w-1) in absolute value; and each shape verdict on the
    packed values is the verdict on the Polys."""
    calls = []
    original = suites._shapes

    def spy(rows, m, des=True):
        calls.append((rows, m, des))
        return original(rows, m, des)

    monkeypatch.setattr(suites, "_shapes", spy)
    assert suite(*args).ok
    assert calls
    for rows, m, des in calls:
        packed, nonneg, zero = original(rows, m, des)
        if not rows:
            assert packed == {}
            continue
        cs = _poly_coefficients(rows, des)
        w = suites._shape_width(sum(sum(a) for _, _, a in rows), m)
        top = max(e for _, e, _ in rows)
        stride = 2 * (max(len(a) for _, _, a in rows) - 1 + top) + 1 if des else 0
        assert set(packed) == set(cs)
        for e, v in packed.items():
            assert qlist_unpack(v, w) == _kronecker(cs[e], stride)
        lo, hi = min(cs), max(cs)
        get = lambda i: cs.get(i, Poly.zero())
        values = [get(i) for i in range(lo, hi + 1)]
        values += [get(i + 1) - get(i) for i in range(lo, hi)]
        values += [get(i) * get(i) - get(i - 1) * get(i + 1) for i in range(lo, hi + 1)]
        values += _gamma_values(cs, m)
        assert all(abs(c) < 2 ** (w - 1) for f in values for c in f.terms.values())
        for center in {m, hi + lo}:
            assert (t_symmetric(packed, center, zero)
                    == t_symmetric(cs, center, Poly.zero()))
            assert (_gamma_positive(packed, center, nonneg, zero)
                    == _gamma_positive(cs, center, _poly_nonneg, Poly.zero()))
        assert t_unimodal(packed, nonneg, zero) == t_unimodal(cs, _poly_nonneg, Poly.zero())
        assert _log_concave(packed, nonneg, zero) == _log_concave(cs, _poly_nonneg, Poly.zero())
