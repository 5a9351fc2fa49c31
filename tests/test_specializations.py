"""The specialization suites run in integer q-polynomials: they build no
PolyFraction, and a wrong oracle fails exactly the records that read it."""

import pytest
from hypothesis import given, settings, strategies as st

from eulerq import Partition, Poly, QSymF, eulerian, polyalg, suites
from eulerq.suites import (
    _first_p_mismatch,
    _p_width,
    finite_specialization_check,
    verify_finite_specialization,
    verify_specializations,
)
from eulerq.polyalg import (
    qlist_add,
    qlist_binomial,
    qlist_mul,
    qlist_norm,
    qlist_p_pochhammer,
    qlist_pack,
    qlist_to_poly,
)


def _failures(*reports):
    return {(r.name, c.identity, tuple(sorted(c.params.items())), c.witness)
            for r in reports for c in r.checks if c.status != "pass"}


def _run():
    return _failures(verify_finite_specialization(5), verify_specializations(6))


def test_suites_build_no_poly_fraction(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("PolyFraction built")

    monkeypatch.setattr(polyalg.PolyFraction, "__init__", refuse)
    # verify_finite_specialization runs finite_specialization_check per class
    assert verify_specializations(6).ok
    assert verify_finite_specialization(5).ok
    with pytest.raises(AssertionError):
        QSymF.fundamental((), 1).ps_stable()


def test_unmutated_suites_pass():
    assert _run() == set()


def test_extra_class_term_fails_its_records(monkeypatch):
    # a_(3) gains q p t (its A table gains q at fix 0, des 1, exc 1): the
    # finite identity breaks at p^1 for j = 1, and the stable one (which
    # reads [t^1] of the maj/exc enumerator) at n = 3
    original = suites._a_type_table

    def mutated(lam):
        out = original(lam)
        if tuple(lam) != (3,):
            return out
        out = dict(out)
        out[0, 1, 1] = tuple(qlist_add(list(out.get((0, 1, 1), ())), (1,), 1))
        return out

    monkeypatch.setattr(suites, "_a_type_table", mutated)
    assert _run() == {
        ("finite-spec", "finite specialization of class enumerator",
         (("j", 1), ("k", 0), ("lam", (3,))), "p-degree 1"),
        ("specializations", "stable specialization, cycle type", (("n", 3),), ""),
    }


def test_extra_fundamental_fails_its_records(monkeypatch):
    # Q(4, 1, 1) gains F_{empty, 4}
    original = suites.q_qsym

    def mutated(n, j, k=None):
        out = original(n, j, k)
        return out + QSymF.fundamental((), 4) if (n, j, k) == (4, 1, 1) else out

    monkeypatch.setattr(suites, "q_qsym", mutated)
    assert _run() == {
        ("finite-spec", "finite specialization, exc/fix form",
         (("j", 1), ("k", 1), ("n", 4)), ""),
        ("specializations", "partitions of the full sum agree", (("n", 4),), ""),
        ("specializations", "specialization positivity transfer", (("n", 4),), ""),
        ("specializations", "stable specialization, exc/fix", (("n", 4),), ""),
    }


# ---------------------------------------------------------------------------
# the packed comparison against the plain convolution
# ---------------------------------------------------------------------------

def _convolution(n, series, d):
    """[p^d] of (p;q)_{n+1} sum_m series[m] p^m, by qlist_mul and qlist_add."""
    poch = qlist_p_pochhammer(n)
    out = []
    for b in range(min(d, n + 1) + 1):
        qlist_add(out, qlist_mul(poch[b], series[d - b]))
    return out


def _packed_mismatch(n, series, lhs):
    """_first_p_mismatch for a series of q lists: the width from _p_width,
    with the largest L1 norm of a series term as its norm bound."""
    w = _p_width(n, max(map(qlist_norm, series), default=0), lhs)
    return _first_p_mismatch(n, [qlist_pack(a, w) for a in series], lhs, w)


def _reference_mismatch(n, series, lhs):
    for d in range(len(series)):
        if qlist_to_poly(_convolution(n, series, d)) != qlist_to_poly(lhs.get(d, [])):
            return d
    return None


# small coefficients, and ones at and next to powers of two, where a packing
# width one bit too small would carry into the next coefficient
signed = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(lambda k, e, sign: sign * (2**k + e),
              st.sampled_from((1, 7, 31, 64)), st.sampled_from((-1, 0, 1)),
              st.sampled_from((-1, 1))))
signed_qlists = st.one_of(st.just([]), st.just([0]), st.lists(signed, max_size=4))


@given(st.integers(min_value=0, max_value=3), st.lists(signed_qlists, max_size=5),
       st.dictionaries(st.integers(min_value=0, max_value=5), signed_qlists, max_size=4))
@settings(max_examples=150, deadline=None)
def test_packed_mismatch_matches_convolution(n, series, lhs):
    assert _packed_mismatch(n, series, lhs) == _reference_mismatch(n, series, lhs)


@given(st.integers(min_value=0, max_value=3), st.lists(signed_qlists, min_size=1, max_size=5),
       st.data())
@settings(max_examples=150, deadline=None)
def test_packed_mismatch_finds_one_perturbed_coefficient(n, series, data):
    # the exact side, with one coefficient moved by delta (possibly 0)
    lhs = {d: _convolution(n, series, d) for d in range(len(series))}
    d = data.draw(st.integers(min_value=0, max_value=len(series) - 1))
    i = data.draw(st.integers(min_value=0, max_value=len(lhs[d]) + 1))
    delta = data.draw(signed)
    lhs[d] = lhs[d] + [0] * (i + 1 - len(lhs[d]))
    lhs[d][i] += delta
    assert _reference_mismatch(n, series, lhs) == (None if delta == 0 else d)
    assert _packed_mismatch(n, series, lhs) == _reference_mismatch(n, series, lhs)


def test_packed_width_covers_the_left_side():
    # the series side alone has coefficients up to 2: its width w = 3 would
    # pack [1 - 2^3, 1] to 1 = the right side; the left side's norm widens w
    n, series = 0, [[1]]
    w = (2 * qlist_norm(series[0])).bit_length() + 1
    assert _packed_mismatch(n, series, {0: [1]}) is None
    assert _packed_mismatch(n, series, {0: [1, 0, 0]}) is None
    assert _packed_mismatch(n, series, {0: [1 - 2**w, 1]}) == 0
    assert _packed_mismatch(n, series, {}) == 0
    assert _packed_mismatch(n, [], {0: [5]}) is None


def test_packed_width_keeps_coefficients_strictly_below_its_half():
    # the bound is 2 * 17 = 34 and [p^1] of the right side is [32]; at
    # width 6, where 32 is not below 2^5, [-32, 1] would pack to 32 as well
    series = [[-15], [17]]
    assert _convolution(0, series, 1) == [32]
    assert _packed_mismatch(0, series, {0: [-15], 1: [32]}) is None
    assert _packed_mismatch(0, series, {0: [-15], 1: [-32, 1]}) == 1


def _p_rows(a):
    """{d: [p^d] a as a q list} for a Poly a in q and p."""
    return {d: polyalg.qlist_from_poly(c) for d, c in a.coefficients_in("p").items()}


def _class_rows(lam, j):
    """The finite-spec left side of the class lam at exc = j, from the
    public enumerator rather than the A table the suite reads."""
    return _p_rows(eulerian.a_poly_type(lam).coefficient("t", j))


# ---------------------------------------------------------------------------
# the packed finite specialization against q lists
# ---------------------------------------------------------------------------

def _ps_at_qlist(qs, m):
    """ps_m(qs) as a q list, term by term with qlist_binomial."""
    out = []
    for (n, S), c in qs.terms.items():
        if n == 0:
            qlist_add(out, (c,))
        elif m >= len(S) + 1:
            qlist_add(out, qlist_binomial(m - len(S) - 1 + n, n), sum(S), c)
    return out


def _shifted_qlists(pieces, j, depth):
    """[sum_i q^{i m + j} ps_m(pieces[i]) for m = 0 .. depth], as q lists."""
    out = [[] for _ in range(depth + 1)]
    for i, qs in enumerate(pieces):
        for m in range(depth + 1):
            qlist_add(out[m], _ps_at_qlist(qs, m), i * m + j)
    return out


@pytest.mark.parametrize("scaled", [(2, 1, 1), (2, 1), (2,)])
def test_scaled_piece_gives_the_list_reference_record(monkeypatch, scaled):
    # one class's Q slices times -2^40: every record of the (2, 1^k) checks
    # equals the first mismatch of the q-list series, and some records fail
    original = suites.q_qsym_type

    def mutated(lam, j):
        out = original(lam, j)
        return -2**40 * out if tuple(lam) == scaled else out

    monkeypatch.setattr(suites, "q_qsym_type", mutated)
    rep = finite_specialization_check((2,), 2)
    assert not rep.ok
    for check in rep.checks:
        k, j = check.params["k"], check.params["j"]
        full = Partition((2,) + (1,) * k)
        lhs = _class_rows(full, j)
        pieces = [mutated(Partition((2,) + (1,) * (k - i)), j) for i in range(k + 1)]
        bad = _reference_mismatch(full.n, _shifted_qlists(pieces, j, full.n + 2), lhs)
        assert check.status == ("pass" if bad is None else "fail")
        assert check.witness == ("" if bad is None else f"p-degree {bad}")


def test_scaled_piece_alone_matches_the_list_reference():
    # the piece alone, scaled by -2^40, against the unscaled left side
    qs = -2**40 * eulerian.q_qsym(4, 1, 1)
    lhs = _p_rows(eulerian.a_poly_fix(4, 1).coefficient("t", 1))
    series = _shifted_qlists([qs], 0, 6)
    assert suites._specialization_mismatch(4, [qs], 0, lhs) == _reference_mismatch(4, series, lhs)
    assert _reference_mismatch(4, series, lhs) is not None
