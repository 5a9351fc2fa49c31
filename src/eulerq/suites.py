"""Verification suites: every identity of the Q and A families and of the
companion models, recomputed from brute force and compared with the closed
formulas.

Each verify_* function returns a VerifyReport with one pass/fail record per
identity and parameter choice: generating function identities in cleared
denominator form, recurrences, q-exponential and finite-variable
specializations, derangement formulas, symmetry and unimodality statements,
character values of the associated virtual representations, the
once-conjectural positivity statements (since settled, so a failure here
always means an implementation bug), and the bridges from the models of
`related` to the Q family.  The formulas and the census oracles are in
`eulerian` and the models in `related`; neither imports this module.
"""
from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb, factorial

from .eulerian import (
    _a_poly_closed,
    _exc_fix_data,
    _oracle_census,
    _type_class_oracle,
    _type_classes,
    a_poly,
    a_poly_derangements,
    a_poly_fix,
    a_poly_type,
    character_value,
    character_value_oracle,
    q_poly,
    q_poly_oracle,
    q_qsym,
    q_qsym_type,
    q_symf_oracle,
    q_symf_type_oracle,
)
from .permstats import (
    Partition,
    class_census,
    eulerian_number,
    eulerian_poly,
    partitions,
    row_stat,
)
from .polyalg import (
    Poly,
    QExpSeries,
    parse_poly,
    q_binomial,
    q_factorial,
    qlist_add,
    qlist_binomial,
    qlist_from_poly,
    qlist_norm,
    qlist_p_pochhammer,
    qlist_pack,
)
from .related import (
    _rearrangement_exc_counts,
    _table,
    d_poly,
    derangements_tdict,
    multiset_derangements,
    no_double_descent_tdict,
    words_no_repeat_tdict,
    y_poly,
)
from .report import VerifyReport
from .symfunc import (
    MonExpansion,
    QSymF,
    SymF,
    SymPoly,
    class_values,
    plethysm_h,
    restrict_frobenius,
    sym_e,
    sym_h,
)

# ---------------------------------------------------------------------------
# helpers: t-geometric factors, cleared identities, and the shape records
# (symmetry, unimodality, log-concavity, binomial basis), each read off one
# dense t-list from _t_list
# ---------------------------------------------------------------------------


def _tq_geometric(k):
    """tq [k - 1]_{tq} = tq + (tq)^2 + .. + (tq)^(k-1)."""
    return Poly({(i, 0, i, 0): 1 for i in range(1, k)})


def times_t_geometric(sp: SymPoly, k) -> SymPoly:
    """sp times t [k - 1]_t = t + t^2 + .. + t^(k-1)."""
    return sum((sp.shift(t=a) for a in range(1, k)), SymPoly.zero())


def cleared_lhs(polys, n, sym):
    """[z^n] of (B(tz) - t B(z)) sum_i polys[i] z^i, B = sum_k sym([k]) z^k:
    the left side of a cleared identity.  None if a polys[i <= n] is None."""
    if any(p is None for p in polys[:n + 1]):
        return None
    out = SymPoly.zero()
    for k in range(n + 1):
        piece = polys[n - k] * sym([k] if k else [])
        out = out + piece.shift(t=k) - piece.shift(t=1)
    return out


def a_coeff(lam, j) -> Poly:
    """maj/des enumerator of the type-lam class at exc = j."""
    return a_poly_type(Partition(lam), ("maj", "des", "exc")).coefficient("t", j)


def shift_exc_by_qinv(poly: Poly) -> Poly:
    """Substitute t -> t/q: divide each term by q to the power of its
    t-exponent (the shift that centers the excedance variable)."""
    return Poly({(a - c, b, c, d): v for (a, b, c, d), v in poly.terms.items()})


def _t_list(tcoeffs, zero):
    """The coefficients of a {power: coefficient} dict from its lowest to its
    highest nonzero power, with zero filled in between, and the lowest power
    (([], 0) when every coefficient is zero)."""
    keys = [j for j, c in tcoeffs.items() if not c.is_zero()]
    if not keys:
        return [], 0
    lo = min(keys)
    return [tcoeffs.get(i, zero) for i in range(lo, max(keys) + 1)], lo


def t_symmetric(tcoeffs, double_center, zero) -> bool:
    """Is the coefficient sequence palindromic about double_center / 2?"""
    cs, lo = _t_list(tcoeffs, zero)
    return not cs or (2 * lo + len(cs) - 1 == double_center and cs == cs[::-1])


def t_unimodal(tcoeffs, positive, zero) -> bool:
    """Do consecutive differences toward the middle lie in the cone tested by
    `positive`?  Both slopes are checked, so asymmetric input can fail."""
    cs, _ = _t_list(tcoeffs, zero)
    n = len(cs)
    return (all(positive(cs[i + 1] - cs[i]) for i in range((n - 1) // 2))
            and all(positive(cs[i] - cs[i + 1]) for i in range(n // 2, n - 1))
            and (n % 2 == 1 or n == 0 or cs[n // 2 - 1] == cs[n // 2]))


def _log_concave(tcoeffs, positive, zero) -> bool:
    """Does c_i^2 - c_(i-1) c_(i+1) lie in the cone tested by `positive` at
    every interior power?"""
    cs, _ = _t_list(tcoeffs, zero)
    return all(positive(b * b - a * c) for a, b, c in zip(cs, cs[1:], cs[2:]))


def _gamma_positive(tcoeffs, m, positive, zero) -> bool:
    """Is sum_j c_j t^j = sum_d g_d t^d (1 + t)^(m - 2d) with every g_d in the
    cone tested by `positive`?  False when no such expansion exists, which
    happens exactly when the input is not symmetric about m / 2."""
    cs, lo = _t_list(tcoeffs, zero)
    if lo < 0:
        return False
    # powers past m are never reduced, so they fail the remainder test
    work = [zero] * lo + cs + [zero] * (m + 1 - lo - len(cs))
    gammas = []
    for d in range(m // 2 + 1):
        g = work[d]
        gammas.append(g)
        if g.is_zero():
            continue
        for i in range(m - 2 * d + 1):
            work[d + i] = work[d + i] - g * comb(m - 2 * d, i)
    return all(c.is_zero() for c in work) and all(positive(g) for g in gammas)


def _h_positive(f) -> bool:
    return f.to_basis("h").is_positive()


def _schur_positive(f) -> bool:
    return f.to_basis("s").is_positive()


def _poly_nonneg(f) -> bool:
    return all(c >= 0 for c in f.terms.values())


def sympoly_t_coeffs(sp: SymPoly, r=0):
    return {a: f for (a, b), f in sp.terms.items() if b == r}


def _int_unimodal(seq) -> bool:
    """Do the nonzero steps of a nonnegative integer sequence rise first and
    then fall?"""
    rises = [b > a for a, b in zip(seq, seq[1:]) if b != a]
    return rises == sorted(rises, reverse=True)


def _q_coeff_seq(f: Poly):
    """Integer coefficient sequence of a polynomial in q alone."""
    cs, _ = _t_list(f.coefficients_in("q"), Poly.zero())
    return [c.constant_value() for c in cs]


# ---------------------------------------------------------------------------
# generating function identities
# ---------------------------------------------------------------------------


def verify_main_generating_function(n_max) -> VerifyReport:
    """Cleared form of the master generating function for sum Q_n(t, r) z^n:
    per degree n,

        sum_{k=0}^{n} (t^k - t) h_k Q_{n-k}(t, r) = (1 - t) r^n h_n.
    """
    rep = VerifyReport("genfun")
    polys = [q_poly_oracle(n) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        lhs = cleared_lhs(polys, n, sym_h)
        hn = sym_h([n] if n else [])
        rhs = SymPoly.wrap(hn, r=n) - SymPoly.wrap(hn, t=1, r=n)
        rep.record("cleared generating identity", {"n": n}, lhs == rhs)
    return rep


def verify_recurrences(n_max) -> VerifyReport:
    """Recurrences and closed formulas that pin down the Q and A families."""
    rep = VerifyReport("recurrences")
    for n in range(2, n_max + 1):
        ok = True
        witness = ""
        for j in range(n):
            rhs = SymF.zero("h")
            for m in range(n - 1):
                for i in range(max(0, j + m - n + 1), j):
                    rhs = rhs + q_symf_oracle(m, i, 0) * sym_h([n - m])
            if q_symf_oracle(n, j, 0) != rhs:
                ok = False
                witness = f"j={j}"
                break
        rep.record("derangement-part recurrence", {"n": n}, ok, witness=witness)
    for n in range(n_max + 1):
        ok = all(
            q_symf_oracle(n, j, k) == sym_h([k] if k else []) * q_symf_oracle(n - k, j, 0)
            for k in range(n + 1)
            for j in range(n + 1)
        )
        rep.record("fixed-point factor splits off", {"n": n}, ok)
    for n in range(n_max + 1):
        rhs = SymPoly.wrap(sym_h([n] if n else []), r=n)
        for k in range(n - 1):
            rhs = rhs + times_t_geometric(q_poly_oracle(k) * sym_h([n - k]), n - k)
        rep.record("two-variable recurrence", {"n": n}, q_poly_oracle(n) == rhs)
        rep.record("closed h-positive formula", {"n": n}, q_poly(n) == q_poly_oracle(n))
    for n in range(n_max + 1):
        an = a_poly(n)
        rhs = Poly.term(1, r=n)
        for k in range(n - 1):
            rhs = rhs + q_binomial(n, k) * a_poly(k) * _tq_geometric(n - k)
        rep.record("three-statistic recurrence", {"n": n}, an == rhs)
        rep.record("three-statistic closed formula", {"n": n}, an == _a_poly_closed(n))
    return rep


def verify_qexp_generating_function(n_max) -> VerifyReport:
    """q-exponential identity for the maj/exc/fix enumerators: in the
    divided-power encoding z^n / [n]_q! the cleared identity reads

        sum_k [n choose k]_q ((tq)^k - tq) A_{n-k} = (1 - tq) r^n.
    """
    rep = VerifyReport("qexp")
    tq = Poly.term(1, q=1, t=1)
    A = QExpSeries([a_poly(n) for n in range(n_max + 1)])
    lhs = (QExpSeries.geometric(tq, n_max) - QExpSeries.exp_q(n_max) * tq) * A
    rhs = QExpSeries.geometric(Poly.var("r"), n_max) * (Poly.one() - tq)
    for n in range(n_max + 1):
        rep.record("cleared q-exponential identity", {"n": n},
                   lhs.coeffs[n] == rhs.coeffs[n])
    for n in range(n_max + 1):
        total = a_poly(n).substitute(t=1, r=1)
        rep.record("total maj enumerator is [n]_q!", {"n": n}, total == q_factorial(n))
    return rep


def verify_four_stat_series(z_max) -> VerifyReport:
    """Four-statistic generating series compared per (z, p) coefficient, both
    up to order z_max.

    The left side pairs brute force maj/des/exc/fix enumerators with the
    q-binomial expansion of 1 / (p; q)_{n+1}.  Per p-order m the right side
    is num/den with den = ((z;q)_m - qt (qtz;q)_m) (rz;q)_{m+1}, whose
    constant term 1 - qt is not a unit in the polynomials.  So the identity
    is checked in cleared form, L den == num mod z^{z_max+1}, with L the
    truncated z-series of the left sides.  Since den has a nonzero constant
    term and the polynomials are an integral domain, the first z-power where
    L den - num is nonzero is the first z-power where L differs from num/den.

    Every z-coefficient is a dict (t, r) -> int, the int being that
    coefficient's q list packed at q = 2^w (qlist_pack), so the series
    products are integer products (_series_rows).  Width rule: w is one bit
    above an L1 bound on every coefficient of L den - num, found by running
    the same products on L1 norms (_series_width).  Then every coefficient
    of the difference is below 2^(w-1) in absolute value, it packs to 0
    exactly when it is 0, and the comparison is exact.
    """
    rep = VerifyReport("series")
    groups = _series_groups(z_max)
    w = _series_width(groups)
    for m, row in enumerate(_series_rows(groups, lambda a: qlist_pack(a, w))):
        bad = next((d for d, c in enumerate(row) if any(c.values())), None)
        rep.record("series coefficient row", {"p_order": m, "z_max": z_max}, bad is None,
                   witness="" if bad is None else f"first mismatch at z^{bad}")
    return rep


def _series_groups(z_max):
    """For n = 0 .. z_max, A_n(maj, des, exc, fix) as {(des, exc, fix): maj
    q list}: the p, t and r exponents of a_poly's terms and their q lists.
    A negative exponent raises ValueError."""
    groups = []
    for n in range(z_max + 1):
        g = {}
        for e, c in a_poly(n, ("maj", "des", "exc", "fix")).terms.items():
            if min(e) < 0:
                raise ValueError(f"negative exponent in A_{n}: {e}")
            qlist_add(g.setdefault(e[1:], []), (c,), e[0])
        groups.append(g)
    return groups


def _series_width(groups):
    """The packing width of verify_four_stat_series: one bit above the
    largest L1 bound that _series_rows gives on the coefficients of
    L den - num when every q list is replaced by its L1 norm (the norm of
    [z^i] (uz; q)_k is C(k, i))."""
    bound = max(v for row in _series_rows(groups, qlist_norm) for c in row for v in c.values())
    return bound.bit_length() + 1


def _series_rows(groups, f):
    """For p-order m = 0 .. z_max, the z-coefficients of L den - num up to
    z^z_max (see verify_four_stat_series), each a dict (t, r) -> int, with
    every q list x that enters replaced by f(x).  With f = qlist_pack at a
    width w this is L den - num at q = 2^w; with f = qlist_norm every value
    bounds the L1 norm of its q list, since the L1 norm of a sum or product
    is at most the sum or product of the norms."""
    z_max = len(groups) - 1
    mapped = [{k: f(a) for k, a in g.items()} for g in groups]
    minus_qt = [{(1, 0): f((0, -1))}]
    one_minus_qt = [{(0, 0): f((1,)), (1, 0): f((0, -1))}]
    minus_one = [{(0, 0): f((-1,))}]
    rows = []
    for m in range(z_max + 1):
        # [z^i] (uz; q)_k is u^i (-1)^i q^(i choose 2) [k choose i]_q, listed
        # by qlist_p_pochhammer(k - 1)
        poch = qlist_p_pochhammer(m - 1)[:z_max + 1]
        zq = [{(0, 0): f(a)} for a in poch]
        zt = [{(i, 0): f((0,) * i + a)} for i, a in enumerate(poch)]
        zr = [{(0, i): f(a)} for i, a in enumerate(qlist_p_pochhammer(m)[:z_max + 1])]
        left = []
        for n, g in enumerate(mapped):
            binom = [f(qlist_binomial(m - b + n, n)) for b in range(m + 1)]
            row = {}
            for (b, t, r), v in g.items():
                if b <= m:
                    row[t, r] = row.get((t, r), 0) + v * binom[b]
            left.append(row)
        den = _zmul(_zadd(zq, _zmul(zt, minus_qt, z_max)), zr, z_max)
        num = _zmul(_zmul(zq, zt, z_max), one_minus_qt, z_max)
        rows.append(_zadd(_zmul(left, den, z_max), _zmul(num, minus_one, z_max)))
    return rows


def _zmul(a, b, z_max):
    """The product of two z-series, truncated after z^z_max; each is a list
    of z-coefficients, each a dict (t, r) -> int."""
    out = [{} for _ in range(min(z_max + 1, len(a) + len(b) - 1))]
    for i, x in enumerate(a[:z_max + 1]):
        for j, y in enumerate(b[:z_max + 1 - i]):
            o = out[i + j]
            for (t1, r1), u in x.items():
                for (t2, r2), v in y.items():
                    k = (t1 + t2, r1 + r2)
                    o[k] = o.get(k, 0) + u * v
    return out


def _zadd(a, b):
    """The sum of two z-series of _zmul's form."""
    out = [dict(x) for x in a] + [{} for _ in range(len(b) - len(a))]
    for o, y in zip(out, b):
        for k, v in y.items():
            o[k] = o.get(k, 0) + v
    return out


# ---------------------------------------------------------------------------
# finite-variable principal specialization
# ---------------------------------------------------------------------------


def _p_width(n, norm, lhs):
    """The packing width of _first_p_mismatch: one bit above the largest L1
    bound on either side, given a bound norm on the L1 norm of every series
    term (the p-coefficients of (p;q)_{n+1} have L1 norms summing to
    2^(n+1)).  Then every coefficient of either side is below 2^(w-1) in
    absolute value, the two pack to the same integer only when they agree,
    and the comparison is exact."""
    bound = max(norm << (n + 1), max(map(qlist_norm, lhs.values()), default=0))
    return bound.bit_length() + 1


def _first_p_mismatch(n, series, lhs, w):
    """The first p-degree d < len(series) where [p^d] of
    (p;q)_{n+1} sum_m series[m] p^m differs from lhs.get(d, 0), or None.

    series holds q polynomials packed at q = 2^w (qlist_pack), with w from
    _p_width, and lhs maps p-degrees to q lists; the series side needs
    series[m] only for m <= d, so comparing up to a finite degree is exact.
    Each degree costs a few integer products and one integer comparison.
    """
    poch = _packed_p_pochhammer(n, w)
    for d in range(len(series)):
        rhs = sum(poch[b] * series[d - b] for b in range(min(d, n + 1) + 1))
        if rhs != qlist_pack(lhs.get(d, ()), w):
            return d
    return None


@lru_cache(maxsize=None)
def _packed_p_pochhammer(n, w):
    """The p-coefficients of (p;q)_{n+1} (qlist_p_pochhammer), packed at
    q = 2^w."""
    return tuple(qlist_pack(a, w) for a in qlist_p_pochhammer(n))


def _p_rows(a):
    """{d: [p^d] a as a q list} for a Poly a in q and p (qlist_from_poly); a
    term in t or r, or a negative power of q or p, raises ValueError."""
    rows = a.coefficients_in("p")
    if rows and min(rows) < 0:
        raise ValueError(f"negative power of p in {a}")
    return {d: qlist_from_poly(c) for d, c in rows.items()}


def _specialization_mismatch(n, pieces, j, lhs):
    """_first_p_mismatch for the series sum_i q^{i m + j} ps_m(pieces[i]),
    m = 0 .. n + 2.  The width comes first, from ps_norm (a shift by a power
    of q keeps a norm), and then every ps_m is built packed (ps_packed)."""
    depth = n + 2
    w = _p_width(n, sum(qs.ps_norm(depth) for qs in pieces), lhs)
    series = [0] * (depth + 1)
    for i, qs in enumerate(pieces):
        for m, v in enumerate(qs.ps_packed(depth, w)):
            series[m] += v << (w * (i * m + j))
    return _first_p_mismatch(n, series, lhs, w)


def finite_specialization_check(lam, k_max, rep=None) -> VerifyReport:
    """maj/des enumerators of the classes (lam, 1^k) against finite-variable
    specializations of the Q family: for every j,

        a_{(lam,1^k),j}(q,p)
            = (p;q)_{n+1} sum_m p^m sum_{i=0}^{k} q^{im+j} ps_m(Q_{(lam,1^{k-i}),j}),

    compared on the p-coefficients up to degree n + 2 (the series side only
    needs ps_m for m up to the degree inspected, so the check is exact).  All
    arithmetic is on q polynomials packed into integers
    (_specialization_mismatch).
    """
    lam = Partition(lam)
    if 1 in lam:
        raise ValueError("lam must not contain parts of size 1")
    rep = rep if rep is not None else VerifyReport("finite-spec")
    for k in range(k_max + 1):
        full = Partition(tuple(lam) + (1,) * k)
        n = full.n
        for j in range(max(n, 1)):
            lhs = _p_rows(a_coeff(full, j))
            pieces = [q_qsym_type(Partition(tuple(lam) + (1,) * (k - i)), j)
                      for i in range(k + 1)]
            bad = _specialization_mismatch(n, pieces, j, lhs)
            rep.record("finite specialization of class enumerator",
                       {"lam": tuple(lam), "k": k, "j": j}, bad is None,
                       witness="" if bad is None else f"p-degree {bad}")
    return rep


def verify_finite_specialization(total_max) -> VerifyReport:
    """The finite-variable specialization identity over all classes
    (lam, 1^k) with bounded |lam| + k, plus its exc/fix consequence at n = 4

        [t^j] a_{n,k}(q,p)
            = (p;q)_{n+1} sum_m p^m sum_{i=0}^{k} q^{im+j} ps_m(Q_{n-i,j,k-i}),

    both on q polynomials packed into integers, up to p-degree n + 2."""
    rep = VerifyReport("finite-spec")
    for size in range(total_max + 1):
        for lam in partitions(size):
            if 1 in lam:
                continue
            finite_specialization_check(lam, total_max - size, rep)
    n = 4
    for k in range(n + 1):
        for j in range(n):
            lhs = _p_rows(a_poly_fix(n, k).coefficient("t", j))
            pieces = [q_qsym(n - i, j, k - i) for i in range(k + 1)]
            ok = _specialization_mismatch(n, pieces, j, lhs) is None
            rep.record("finite specialization, exc/fix form", {"n": n, "k": k, "j": j}, ok)
    return rep


# ---------------------------------------------------------------------------
# derangement identities
# ---------------------------------------------------------------------------


def verify_derangement_identities(n_max) -> VerifyReport:
    """Fixed-point reductions and inclusion-exclusion for maj/exc, their
    comajor-index mirrors, and the comaj q-exponential identity."""
    rep = VerifyReport("derangements")
    for n in range(n_max + 1):
        ok = all(
            a_poly_fix(n, k, ("maj", "exc")) == q_binomial(n, k) * a_poly_derangements(n - k)
            for k in range(n + 1)
        )
        rep.record("fixed-point reduction", {"n": n}, ok)
        rhs = Poly.zero()
        for k in range(n + 1):
            rhs = rhs + (-1) ** k * Poly.var("q", comb(k, 2)) * q_binomial(n, k) * a_poly(
                n - k, ("maj", "exc")
            )
        rep.record("derangement inclusion-exclusion", {"n": n},
                   a_poly_derangements(n) == rhs)
        dn = a_poly_derangements(n).substitute(q=1, t=1).constant_value()
        classical = sum((-1) ** k * comb(n, k) * factorial(n - k) for k in range(n + 1))
        rep.record("derangement count", {"n": n}, dn == classical)
    for n in range(n_max + 1):
        ok = all(
            a_poly_fix(n, k, ("comaj", "exc"))
            == Poly.var("q", comb(k, 2)) * q_binomial(n, k)
            * a_poly_derangements(n - k, ("comaj", "exc"))
            for k in range(n + 1)
        )
        rep.record("fixed-point reduction, comaj", {"n": n}, ok)
        rhs = Poly.zero()
        for k in range(n + 1):
            rhs = rhs + (-1) ** k * q_binomial(n, k) * a_poly(n - k, ("comaj", "exc"))
        rep.record("derangement inclusion-exclusion, comaj", {"n": n},
                   a_poly_derangements(n, ("comaj", "exc")) == rhs)
    tq1 = Poly.term(1, q=-1, t=1)
    A = QExpSeries([a_poly(n, ("comaj", "exc", "fix")) for n in range(n_max + 1)])
    lhs = (_geom_upper(tq1, n_max) - QExpSeries.exp_q_upper(n_max) * tq1) * A
    for n in range(n_max + 1):
        rhs = Poly.var("q", comb(n, 2)) * Poly.term(1, r=n) * (Poly.one() - tq1)
        rep.record("cleared q-exponential identity, comaj", {"n": n},
                   lhs.coeffs[n] == rhs)
    return rep


def _geom_upper(u, order):
    """Divided-power series with coefficients q^(n choose 2) u^n."""
    return QExpSeries([Poly.var("q", comb(n, 2)) * u ** n for n in range(order + 1)])


# ---------------------------------------------------------------------------
# symmetry and unimodality
# ---------------------------------------------------------------------------

A4_T1_COEFF = "3*p + 2*p*q + p*q^2 + 2*p^2*q^2 + 2*p^2*q^3 + p^2*q^4"


def verify_symmetry_unimodality(n_max) -> VerifyReport:
    """Palindromicity and unimodality of every slice of the Q and A families,
    including the size-4 witness showing where four-statistic symmetry dies,
    and the expansions in the binomial basis t^d (1+t)^(span-2d)."""
    rep = VerifyReport("symmetry")
    for n in range(1, n_max + 1):
        hpos = all(
            _h_positive(q_symf_oracle(n, j, k)) and _h_positive(q_symf_oracle(n, j))
            for j in range(n)
            for k in range(n + 1)
        )
        rep.record("h-positivity", {"n": n}, hpos)
        z = SymF.zero("h")
        for k in range(n + 1):
            coeffs = sympoly_t_coeffs(q_poly_oracle(n), r=k)
            if not coeffs:
                continue
            rep.record("t-symmetry of fixed-fix slice", {"n": n, "k": k},
                       t_symmetric(coeffs, n - k, z))
            rep.record("t-unimodality of fixed-fix slice", {"n": n, "k": k},
                       t_unimodal(coeffs, _h_positive, z))
            rep.record("binomial-basis coefficients Schur positive, fixed fix",
                       {"n": n, "k": k},
                       _gamma_positive(coeffs, n - k, _schur_positive, z))
        total = {j: q_symf_oracle(n, j) for j in range(n) if not q_symf_oracle(n, j).is_zero()}
        rep.record("t-symmetry of full slice", {"n": n}, t_symmetric(total, n - 1, z))
        rep.record("t-unimodality of full slice", {"n": n},
                   t_unimodal(total, _h_positive, z))
        rep.record("binomial-basis coefficients Schur positive, full slice",
                   {"n": n}, _gamma_positive(total, n - 1, _schur_positive, z))
    for n in range(1, n_max + 1):
        ok_sym = all(
            q_qsym_type(lam, j).is_symmetric()
            for lam in partitions(n)
            for j in range(n)
        )
        rep.record("every cycle-type slice is symmetric", {"n": n}, ok_sym)
        ok_pal = all(
            q_symf_type_oracle(lam, j) == q_symf_type_oracle(lam, lam.n - lam.mult(1) - j)
            for lam in partitions(n)
            for j in range(n)
        )
        rep.record("cycle-type palindromicity", {"n": n}, ok_pal)
        ok_full = all(q_symf_oracle(n, j) == q_symf_oracle(n, n - 1 - j) for j in range(n))
        rep.record("full-slice palindromicity", {"n": n}, ok_full)
    for n in range(1, n_max + 1):
        zero = Poly.zero()
        for k in range(n + 1):
            af = a_poly_fix(n, k)
            if af.is_zero():
                continue
            shifted = shift_exc_by_qinv(af).coefficients_in("t")
            rep.record("shifted fixed-fix enumerator t-symmetric", {"n": n, "k": k},
                       t_symmetric(shifted, n - k, zero))
            if k == 0:
                rep.record("shifted derangement enumerator t-unimodal", {"n": n},
                           t_unimodal(shifted, _poly_nonneg, zero))
                rep.record("binomial-basis q,p-nonnegativity, derangement case",
                           {"n": n}, _gamma_positive(shifted, n, _poly_nonneg, zero))
            at1 = shift_exc_by_qinv(af.substitute(p=1)).coefficients_in("t")
            rep.record("shifted fixed-fix enumerator at p=1 symmetric unimodal",
                       {"n": n, "k": k},
                       t_symmetric(at1, n - k, zero) and t_unimodal(at1, _poly_nonneg, zero))
            rep.record("binomial-basis q-nonnegativity at p=1", {"n": n, "k": k},
                       _gamma_positive(at1, n - k, _poly_nonneg, zero))
        full = shift_exc_by_qinv(a_poly(n, ("maj", "exc"))).coefficients_in("t")
        rep.record("shifted full enumerator t-symmetric and t-unimodal", {"n": n},
                   t_symmetric(full, n - 1, zero) and t_unimodal(full, _poly_nonneg, zero))
        rep.record("binomial-basis q-nonnegativity, full enumerator", {"n": n},
                   _gamma_positive(full, n - 1, _poly_nonneg, zero))
    a4 = shift_exc_by_qinv(a_poly(4, ("maj", "des", "exc")))
    t1 = a4.coefficient("t", 1)
    rep.record("four-letter witness coefficient", {"n": 4, "t": 1},
               t1 == parse_poly(A4_T1_COEFF), witness=t1.render())
    rep.record("four-letter enumerator is NOT t-symmetric", {"n": 4},
               not t_symmetric(a4.coefficients_in("t"), 3, Poly.zero()))
    for n in range(1, n_max + 1):
        for lam in partitions(n):
            k = lam.mult(1)
            plain = a_poly_type(lam)
            shifted = shift_exc_by_qinv(plain).coefficients_in("t")
            rep.record("shifted cycle-type enumerator t-symmetric",
                       {"lam": tuple(lam)},
                       t_symmetric(shifted, n - k, Poly.zero()))
            flipped = plain.substitute(q=Poly.term(1, q=-1), p=Poly.term(1, q=n, p=1))
            ok = all(
                plain.coefficient("t", j) == flipped.coefficient("t", n - k - j)
                for j in range(n)
                if 0 <= n - k - j <= n
            )
            rep.record("value-reversal functional equation", {"lam": tuple(lam)}, ok)
            ok = all(
                plain.coefficient("t", j)
                == Poly.term(1, q=2 * j + k - n) * flipped.coefficient("t", j)
                for j in range(n)
            )
            rep.record("self-reversal with q-power twist", {"lam": tuple(lam)}, ok)
    return rep


# ---------------------------------------------------------------------------
# positivity confirmations
# ---------------------------------------------------------------------------


# Cycle-type log-concavity is FALSE from n = 8 on: two 4-cycles give the
# smallest counterexample (the trivial-isotypic multiplicities of the (4,4)
# slices are 1,1,2,1,1 across exc = 2..6, and 1*1 - 2*1 < 0, because the center
# slice gains one invariant from each of h_2[V_(4),2] and V_(4),1 x V_(4),3).
# Through n = 11 each exception is (4,4), (4,4,2) or (5,5) plus fixed points.
# The positivity suite asserts exactly these sets, so a regression that loses
# or grows one is caught.
_CYCLE_TYPE_LC_EXCEPTIONS = {
    8: {((4, 4), 3), ((4, 4), 5)},
    9: {((4, 4, 1), 3), ((4, 4, 1), 5)},
    10: {((4, 4, 1, 1), 3), ((4, 4, 1, 1), 5), ((4, 4, 2), 4), ((4, 4, 2), 6),
         ((5, 5), 3), ((5, 5), 7)},
    11: {((4, 4, 1, 1, 1), 3), ((4, 4, 1, 1, 1), 5), ((4, 4, 2, 1), 4),
         ((4, 4, 2, 1), 6), ((5, 5, 1), 3), ((5, 5, 1), 7)},
}


def verify_positivity(n_max) -> VerifyReport:
    """Positivity statements confirmed at desk scale: Schur positivity of the
    cycle-type slices and their consecutive differences, unimodality of the
    shifted enumerators, and log-concavity of each family of slices.  All are
    settled results in this range, so failures are build-breaking.  Sizes
    past the last row of _CYCLE_TYPE_LC_EXCEPTIONS raise ValueError.
    """
    if n_max > max(_CYCLE_TYPE_LC_EXCEPTIONS):
        raise ValueError(f"n_max={n_max} is past the known log-concavity exceptions")
    rep = VerifyReport("positivity")
    for n in range(1, n_max + 1):
        for lam in partitions(n):
            k = lam.mult(1)
            ok = all(_schur_positive(q_symf_type_oracle(lam, j)) for j in range(n))
            rep.record("cycle-type slice Schur positive", {"lam": tuple(lam)}, ok)
            ok = all(
                _schur_positive(q_symf_type_oracle(lam, j) - q_symf_type_oracle(lam, j - 1))
                for j in range(1, (n - k) // 2 + 1)
            )
            rep.record("cycle-type differences Schur positive", {"lam": tuple(lam)}, ok)
            al = shift_exc_by_qinv(a_poly_type(lam))
            rep.record("shifted cycle-type enumerator t-unimodal", {"lam": tuple(lam)},
                       t_unimodal(al.coefficients_in("t"), _poly_nonneg, Poly.zero()))
            ok = all(
                _int_unimodal(_q_coeff_seq(pc))
                for tc in a_poly_type(lam).coefficients_in("t").values()
                for pc in tc.coefficients_in("p").values()
            )
            rep.record("inner q-unimodality of cycle-type enumerator",
                       {"lam": tuple(lam)}, ok)
    # The oracles are in h, where a product is a concatenation of integer
    # terms, and each is the zero function for j < 0 or j >= n; Schur
    # positivity of a difference of products is then a Kostka conversion.
    for n in range(1, n_max + 1):
        ok = all(_log_concave_at(lambda i: q_symf_oracle(n, i), j) for j in range(n))
        rep.record("log-concavity of full slices", {"n": n}, ok)
        ok = all(_log_concave_at(lambda i: q_symf_oracle(n, i, k), j)
                 for k in range(n + 1) for j in range(n))
        rep.record("log-concavity of fixed-fix slices", {"n": n}, ok)
        failures = _cycle_type_lc_failures(n, q_symf_type_oracle)
        expected = _CYCLE_TYPE_LC_EXCEPTIONS.get(n, set())
        rep.record("log-concavity of cycle-type slices, known exception list",
                   {"n": n}, failures == expected,
                   witness="" if failures == expected else str(sorted(failures)))
    for n in range(1, n_max + 1):
        ok = all(_log_concave(shift_exc_by_qinv(a_poly_fix(n, k)).coefficients_in("t"),
                              _poly_nonneg, Poly.zero())
                 for k in range(n + 1))
        rep.record("log-concavity of shifted fixed-fix enumerators", {"n": n}, ok)
        full = shift_exc_by_qinv(a_poly(n, ("maj", "exc"))).coefficients_in("t")
        rep.record("log-concavity of shifted full enumerator", {"n": n},
                   _log_concave(full, _poly_nonneg, Poly.zero()))
    return rep


def _log_concave_at(f, j) -> bool:
    """Is f(j)^2 - f(j + 1) f(j - 1) Schur positive?"""
    return _schur_positive(f(j) * f(j) - f(j + 1) * f(j - 1))


def _cycle_type_lc_failures(n, slice_of):
    """The (lam, j) with lam a partition of n where the slices slice_of(lam, j)
    are not log-concave in j."""
    return {(tuple(lam), j) for lam in partitions(n) for j in range(n)
            if not _log_concave_at(lambda i: slice_of(lam, i), j)}


# ---------------------------------------------------------------------------
# characters of the single-cycle slices
# ---------------------------------------------------------------------------


def verify_character_formula(n_max) -> VerifyReport:
    """Character values of the single-cycle slices from the gcd-erasure
    polynomial against the census, plus the power-sum expansion of the full
    slices (which also holds at size 1, where the single-cycle formula does
    not apply)."""
    rep = VerifyReport("characters")
    for n in range(2, n_max + 1):
        ok = True
        bad = ""
        for mu in partitions(n):
            for j in range(n):
                if character_value(n, j, mu) != character_value_oracle(n, j, mu):
                    ok = False
                    bad = f"mu={tuple(mu)} j={j}"
        rep.record("gcd-erasure character formula", {"n": n}, ok, witness=bad)
        ok = all(
            character_value_oracle(n, j, Partition([1] * n)) == eulerian_number(n - 1, j - 1)
            for j in range(n)
        )
        rep.record("identity-class column is Eulerian", {"n": n}, ok)
        ok = all(
            character_value_oracle(n, j, mu) == character_value_oracle(n, n - j, mu)
            for mu in partitions(n)
            for j in range(1, n)
        )
        rep.record("character columns palindromic", {"n": n}, ok)
    for n in range(1, n_max + 1):
        ok = True
        values = [class_values(q_symf_oracle(n, j)) for j in range(n)]
        for mu in partitions(n):
            want = eulerian_poly(mu.length)
            for part in mu:
                want = want * Poly({(0, 0, i, 0): 1 for i in range(part)})
            got = Poly.zero()
            for j in range(n):
                c = values[j].get(mu, 0)
                if c:
                    got = got + Poly.term(c, t=j)
            if got != want:
                ok = False
        rep.record("power-sum expansion of the full slice", {"n": n}, ok)
    return rep


# ---------------------------------------------------------------------------
# plethysm, dimensions, restriction
# ---------------------------------------------------------------------------


def verify_structure_identities(n_max, restrict_max, dims_max) -> VerifyReport:
    """Multiplicative structure of the family: plethystic product over cycle
    sizes, the disjoint-type product rule, the doubled-part evaluation,
    dimensions, and restriction to one fewer letter."""
    rep = VerifyReport("structure")
    for n in range(1, n_max + 1):
        for lam in partitions(n):
            oracle = {(j, 0): v for j in range(n) if (v := _type_class_oracle(lam, j))}
            rep.record("plethysm product over cycle sizes", {"lam": tuple(lam)},
                       _type_classes(lam) == oracle)
    for total in range(2, n_max + 1):
        for a in range(1, total // 2 + 1):
            b = total - a
            for lam in partitions(a):
                for mu in partitions(b):
                    if set(lam) & set(mu):
                        continue
                    joint = Partition(tuple(lam) + tuple(mu))
                    ok = a_poly_type(joint, ("maj", "exc")) == q_binomial(
                        total, a
                    ) * a_poly_type(lam, ("maj", "exc")) * a_poly_type(mu, ("maj", "exc"))
                    rep.record("disjoint cycle-type product",
                               {"lam": tuple(lam), "mu": tuple(mu)}, ok)
    h2 = sym_h([2])
    for j in range(n_max // 2 + 1):
        for k in range(n_max - 2 * j + 1):
            lam = Partition([2] * j + [1] * k)
            want = plethysm_h(j, h2) * sym_h([k] if k else [])
            rep.record("doubled-part plethysm formula", {"j": j, "k": k},
                       q_symf_type_oracle(lam, j) == want)
    N = 3
    for n in range(1, min(n_max, 5) + 1):
        for a in range(n // 2 + 1):
            lam = Partition([2] * a + [1] * (n - 2 * a))
            got = q_qsym_type(lam, a).to_monomial(N)
            rep.record("pair/single generating product", {"n": n, "pairs": a},
                       got == _pair_single_expansion(n, a, N))
    for n in range(1, dims_max + 1):
        for lam in partitions(n):
            exc = row_stat("exc", n)
            counts = Counter()
            for row, c in class_census(lam).items():
                counts[exc(row)] += c
            ok = all(
                q_symf_type_oracle(lam, j).squarefree_coefficient() == counts.get(j, 0)
                for j in range(n)
            )
            rep.record("dimension counts the class", {"lam": tuple(lam)}, ok)
    for n in range(2, dims_max + 1):
        ok = all(
            q_symf_type_oracle(Partition([n]), j).squarefree_coefficient()
            == eulerian_number(n - 1, j - 1)
            for j in range(n)
        )
        rep.record("single-cycle dimension is Eulerian", {"n": n}, ok)
    for n in range(2, restrict_max + 1):
        ok = all(
            restrict_frobenius(q_symf_type_oracle(Partition([n]), j))
            == q_symf_oracle(n - 1, j - 1)
            for j in range(1, n)
        )
        rep.record("restriction drops to the full slice", {"n": n}, ok)
    return rep


def _pair_single_expansion(n, a, N):
    """Coefficient of z^n t^a in the product of geometric factors over the
    variables and over unordered variable pairs, expanded in N variables."""
    total = MonExpansion.zero(N)
    singles = list(range(1, N + 1))
    pairs = list(itertools.combinations_with_replacement(range(1, N + 1), 2))
    for chosen_pairs in itertools.combinations_with_replacement(pairs, a):
        for chosen_singles in itertools.combinations_with_replacement(singles, n - 2 * a):
            exps = [0] * N
            for u, v in chosen_pairs:
                exps[u - 1] += 1
                exps[v - 1] += 1
            for u in chosen_singles:
                exps[u - 1] += 1
            total = total + MonExpansion(N, {tuple(exps): 1})
    return total


# ---------------------------------------------------------------------------
# specialization bridges
# ---------------------------------------------------------------------------


def _cleared_stable(qs, n):
    """(q;q)_n ps_stable(qs) as a q list, which needs no division, or None
    when qs has a term of degree above n (the Q family is homogeneous of
    degree n, so such a term fails the check)."""
    if any(d > n for d in qs.degrees()):
        return None
    return qs.ps_stable_qlist(n)


def _q_terms(a, shift=0):
    """The terms dict of the Poly q^shift sum_i a[i] q^i, for a q list a."""
    return {(i, 0, 0, 0): c for i, c in enumerate(a, shift) if c}


def _stable_matches(terms, qs, n, j) -> bool:
    """Is the Poly whose terms dict is terms equal to q^j (q;q)_n ps_stable(qs)?"""
    num = _cleared_stable(qs, n)
    return num is not None and terms == _q_terms(num, j)


def _summed_terms(slices):
    """The terms dict of the sum of QSymF slices, zero coefficients dropped."""
    out = {}
    for qs in slices:
        for key, c in qs.terms.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def verify_specializations(n_max) -> VerifyReport:
    """Stable and finite principal specializations against brute force, plus
    the partition-of-unity decompositions of the full EXD sum.  The stable
    identities [t^j] A = q^j (q;q)_n ps(Q) are checked with (q;q)_n cleared
    on coefficient dicts and the finite ones on packed q polynomials, so
    nothing is divided."""
    rep = VerifyReport("specializations")
    for n in range(n_max + 1):
        ok = all(
            _stable_matches(a_poly_type(lam, ("maj", "exc")).coefficient("t", j).terms,
                            q_qsym_type(lam, j), n, j)
            for lam in partitions(n)
            for j in range(max(n, 1))
        )
        rep.record("stable specialization, cycle type", {"n": n}, ok)
        ok = all(
            _stable_matches(a_poly_fix(n, k, ("maj", "exc")).coefficient("t", j).terms,
                            q_qsym(n, j, k), n, j)
            for k in range(n + 1)
            for j in range(max(n, 1))
        )
        rep.record("stable specialization, exc/fix", {"n": n}, ok)
        total_jk = _summed_terms(q_qsym(n, j, k) for j in range(n + 1) for k in range(n + 1))
        total_type = _summed_terms(q_qsym_type(lam, j)
                                   for lam in partitions(n) for j in range(n + 1))
        rows, fields = _oracle_census(n)
        exd = row_stat("exd_set", n, fields)
        sets = Counter()
        for row, c in rows.items():
            sets[(n, exd(row))] += c
        everything = QSymF(dict(sets)).terms
        rep.record("partitions of the full sum agree", {"n": n},
                   total_jk == everything and total_type == everything)
        nums = [_cleared_stable(q_qsym(n, j), n) for j in range(max(n, 1))]
        ok = None not in nums
        if ok:
            weighted = []
            for j, num in enumerate(nums):
                qlist_add(weighted, num, j)
            ok = _q_terms(weighted) == q_factorial(n).terms
        rep.record("weighted stable specialization totals", {"n": n}, ok)
    for n in range(1, n_max + 1):
        ok = True
        for k in range(n + 1):
            for j in range(n):
                counter = _exc_fix_data(n).get((j, k))
                if not counter:
                    continue
                qs = q_qsym(n, j, k)
                brute = []
                witness = {}
                for S, cnt in counter.items():
                    qlist_add(brute, (cnt,), sum(S))
                    qlist_add(witness.setdefault(len(S) + 1, []), (cnt,), sum(S))
                if not _stable_matches(_q_terms(brute), qs, n, 0):
                    ok = False
                if any(c < 0 for w in [brute, *witness.values()] for c in w):
                    ok = False
                if _specialization_mismatch(n, [qs], 0, witness) is not None:
                    ok = False
        rep.record("specialization positivity transfer", {"n": n}, ok)
    return rep


# ---------------------------------------------------------------------------
# the companion models against the Q family
# ---------------------------------------------------------------------------

def _lift(tdict, basis):
    """Lift {t-power: MonExpansion} to a SymPoly with coefficients in basis,
    or None if a grade fails to be symmetric in its variables."""
    out = SymPoly.zero()
    for j, mon in tdict.items():
        if mon.is_zero():
            continue
        if not mon.is_symmetric():
            return None
        out = out + SymPoly.wrap(mon.to_symf().to_basis(basis), t=j)
    return out


# Each model is lifted into the basis its identities are stated in (e for the
# derangement and no-repeat words, h for the no-double-descent words), so
# their products are concatenations and their comparisons dict comparisons.

def _d_sympoly(n):
    return _lift(_table(derangements_tdict, n, max(n, 1)), "e")


def _y_sympoly(n):
    return _lift(_table(words_no_repeat_tdict, n, max(n, 1)), "e")


def _q_sympoly(n):
    out = SymPoly.zero()
    for j in range(max(n, 1)):
        f = q_symf_oracle(n, j)
        if not f.is_zero():
            out = out + SymPoly.wrap(f, t=j)
    return out


DERANGEMENT_COUNTS = [1, 0, 1, 2, 9, 44, 265, 1854]


def verify_related(n_words, n_gessel) -> VerifyReport:
    """Check the companion models against the Q family and their own
    generating identities."""
    rep = VerifyReport("related")

    one2 = MonExpansion(2, {(1, 1): 1})
    rep.record("smallest multiset derangement", {"n": 2},
               d_poly(2, 1, 2) == one2 and d_poly(2, 0, 2).is_zero())
    rep.record("no derangement of order one", {"n": 1},
               all(d_poly(1, j, 3).is_zero() for j in range(2)))
    rep.record("empty array contributes one", {"n": 0},
               d_poly(0, 0, 3) == MonExpansion.one(3))
    rep.record("single letters carry no descent", {"n": 1},
               y_poly(1, 0, 2) == MonExpansion(2, {(1, 0): 1, (0, 1): 1}))
    rep.record("two-letter words split by the descent", {"n": 2},
               y_poly(2, 0, 2) == one2 and y_poly(2, 1, 2) == one2)

    # the object-level enumeration agrees with the memoized counting kernel
    for n in range(5):
        N = max(n, 1)
        seen = {}
        for D in multiset_derangements(n, N):
            key = (D.exc(), D.monomial(N))
            seen[key] = seen.get(key, 0) + 1
        built = {}
        for j in range(n + 1):
            for e, c in d_poly(n, j, N).terms.items():
                built[(j, e)] = c
        rep.record("array enumeration matches counting kernel", {"n": n},
                   seen == built)

    # bridges: omega images of the fixed-excedance slices
    for n in range(1, n_words + 1):
        okd = all(
            d_poly(n, j, n) == q_symf_oracle(n, j, 0).omega().to_monomial(n)
            for j in range(n)
        )
        rep.record("derangement enumerator is the omega image of the "
                   "fixed-point-free slice", {"n": n}, okd)
        oky = all(
            y_poly(n, j, n) == q_symf_oracle(n, j).omega().to_monomial(n)
            for j in range(n)
        )
        rep.record("no-repeat word enumerator is the omega image of the "
                   "excedance slice", {"n": n}, oky)
        rep.record("model enumerators are symmetric", {"n": n},
                   all(d_poly(n, j, n).is_symmetric()
                       and y_poly(n, j, n).is_symmetric() for j in range(n)))

    # derangement recurrence cleared from 1 / (1 - sum t [i-1]_t e_i z^i)
    dpolys = [_d_sympoly(n) for n in range(n_words + 1)]
    for n in range(1, n_words + 1):
        rhs = SymPoly.zero()
        for i in range(2, n + 1):
            rhs = rhs + times_t_geometric(dpolys[n - i] * sym_e([i]), i)
        rep.record("derangement enumerator recurrence", {"n": n},
                   dpolys[n] is not None and dpolys[n] == rhs)

    # no-repeat word series, total and descent-graded
    ypolys = [_y_sympoly(n) for n in range(n_words + 1)]
    ytotal = [SymF.zero("e") if yp is None else
              sum((yp.coefficient(t=j) for j in yp.t_support()), SymF.zero("e"))
              for yp in ypolys]
    for n in range(1, n_words + 1):
        rhs = sym_e([n])
        for i in range(2, n + 1):
            rhs = rhs + (i - 1) * (sym_e([i]) * ytotal[n - i])
        rep.record("no-repeat word series recurrence", {"n": n},
                   ytotal[n] == rhs)
        lhs = cleared_lhs(ypolys, n, sym_e)
        target = SymPoly.wrap(sym_e([n])) - SymPoly.wrap(sym_e([n]), t=1)
        rep.record("descent-graded no-repeat word identity", {"n": n},
                   lhs is not None and lhs == target)

    # no-double-descent identities and their bridge to the excedance family
    gfirst = [_lift(_table(no_double_descent_tdict, n, max(n, 1)), "h")
              for n in range(n_gessel + 1)]
    gboth = [_lift(_table(no_double_descent_tdict, n, max(n, 1), True), "h")
             for n in range(n_gessel + 1)]
    qpolys = [_q_sympoly(n) for n in range(n_gessel + 1)]
    rep.record("length-one words reduce to the complete homogeneous slice",
               {"n": 1}, n_gessel < 1 or gfirst[1] == SymPoly.wrap(sym_h([1])))
    rep.record("tightened two-letter enumerator", {"n": 2},
               n_gessel < 2 or gboth[2] == SymPoly.wrap(sym_h([2]), t=1))
    for n in range(1, n_gessel + 1):
        lhs = cleared_lhs(gfirst, n, sym_h)
        target = SymPoly.wrap(sym_h([n])) - SymPoly.wrap(sym_h([n]), t=1)
        rep.record("weighted no-double-descent identity", {"n": n},
                   lhs is not None and lhs == target)
        rep.record("weighted enumerator matches the excedance polynomial",
                   {"n": n}, gfirst[n] == qpolys[n])
        rhs = SymPoly.zero()
        for k in range(n + 1):
            if gboth[n - k] is not None:
                rhs = rhs + gboth[n - k] * sym_h([k] if k else [])
        rep.record("tightened variant rebuilds the excedance polynomial",
                   {"n": n},
                   all(g is not None for g in gboth[:n + 1]) and rhs == qpolys[n])

    # distinct top rows are classical derangements
    for n in range(7):
        total = sum(_rearrangement_exc_counts((1,) * n).values())
        rep.record("distinct-entry arrays reduce to derangement counts",
                   {"n": n}, total == DERANGEMENT_COUNTS[n])

    # numeric weight check at t = 1: each word counts 2^(n-1-2 des)
    for n in range(1, n_words + 1):
        lhs = 0
        for mon in _table(no_double_descent_tdict, n, n).values():
            lhs += sum(mon.terms.values())
        qn = sum((q_symf_oracle(n, j) for j in range(n)), SymF.zero("h"))
        rhs = sum(qn.to_monomial(n).terms.values())
        rep.record("doubling weight totals match", {"n": n}, lhs == rhs)

    return rep
