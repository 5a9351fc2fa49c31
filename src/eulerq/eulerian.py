"""The Eulerian quasisymmetric functions: closed formulas and census oracles.

Three families are constructed from the EXD statistic:

    Q(n, j)        sum of F_{EXD(sigma), n} over sigma in S_n with exc = j
    Q(n, j, k)     the same with fix = k as well
    Q(lam, j)      the same with cycle type lam

together with the matching generating polynomials in the extra variables t
(excedance), r (fixed points), q (major index), and p (descents).  The Q
family comes from closed formulas: the h-positive expansion of the
generating function, the plethysm product over cycle sizes, and the
gcd-erasure character formula for the single-cycle slices.  None of them
reads the census.  Brute force over the census is kept only as the oracle,
behind the *_oracle names, and the A family of statistic polynomials is read
off it.  The suites that compare formulas with oracles live in `suites`.
"""
from collections import Counter
from functools import lru_cache
from math import comb, factorial, gcd, prod

from .permstats import (
    CENSUS_FIELDS,
    Partition,
    census,
    class_census,
    eulerian_poly,
    partitions,
    row_stat,
    stat_field,
)
from .polyalg import Poly, q_multinomial, qlist_mul
from .symfunc import (
    QSymF,
    SymF,
    SymPoly,
    class_mul,
    class_plethysm_h,
    class_values,
    from_class_values,
)

# ---------------------------------------------------------------------------
# raw class data: EXD multisets per selected class, grouped from the census
# ---------------------------------------------------------------------------

# The census fields the oracle reads: every field but inv, which no suite
# asks for.  All oracles over S_n share this one projection per n; only an
# A-polynomial in inv reads the full row.
_ORACLE_FIELDS = ("exc", "fix", "des", "maj", "exd_mask")


def _oracle_census(n, stats=()):
    """(rows, fields): the census projection of S_n that holds the listed
    statistics, and its fields."""
    fields = _ORACLE_FIELDS
    if any(stat_field(s) not in fields for s in stats):
        fields = CENSUS_FIELDS
    return census(n, fields), fields


def _group_exd(rows, n, key, fields=CENSUS_FIELDS):
    """dict key(row) -> Counter of EXD sets over a Counter of census rows."""
    exd = row_stat("exd_set", n, fields)
    out = {}
    for row, count in rows.items():
        k = key(row)
        counter = out.get(k)
        if counter is None:
            counter = out[k] = Counter()
        counter[exd(row)] += count
    return out


@lru_cache(maxsize=None)
def _exc_fix_data(n):
    """dict (exc, fix) -> Counter of EXD sets over S_n."""
    rows, fields = _oracle_census(n)
    exc, fix = row_stat("exc", n, fields), row_stat("fix", n, fields)
    return _group_exd(rows, n, lambda row: (exc(row), fix(row)), fields)


@lru_cache(maxsize=None)
def _type_data(lam):
    """dict exc -> Counter of EXD sets over the conjugacy class of type lam."""
    return _group_exd(class_census(lam), lam.n, row_stat("exc", lam.n))


def _qsym(counters, n):
    total = {}
    for counter in counters:
        for S, c in counter.items():
            total[(n, S)] = total.get((n, S), 0) + c
    return QSymF(total)


# ---------------------------------------------------------------------------
# the Q family by brute force: the oracles the suites check the formulas with
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def q_qsym(n, j, k=None) -> QSymF:
    """Q(n, j) or Q(n, j, k) in the fundamental quasisymmetric basis."""
    data = _exc_fix_data(n)
    if k is None:
        picks = [c for (jj, _), c in data.items() if jj == j]
    else:
        picks = [c for (jj, kk), c in data.items() if jj == j and kk == k]
    return _qsym(picks, n)


@lru_cache(maxsize=None)
def q_qsym_type(lam, j) -> QSymF:
    lam = Partition(lam)
    counter = _type_data(lam).get(j)
    return _qsym([counter] if counter else [], lam.n)


@lru_cache(maxsize=None)
def q_symf_oracle(n, j, k=None) -> SymF:
    """q_symf from the census: assembled in the m basis, returned in h, the
    basis the suites read it in, and converted once per (n, j, k)."""
    return q_qsym(n, j, k).to_symf().to_basis("h")


@lru_cache(maxsize=None)
def q_symf_type_oracle(lam, j) -> SymF:
    """q_symf_type from the census: assembled in the m basis, returned in
    h and converted once per (lam, j)."""
    return q_qsym_type(Partition(lam), j).to_symf().to_basis("h")


@lru_cache(maxsize=None)
def q_poly_oracle(n) -> SymPoly:
    """sum over j, k of Q(n, j, k) t^j r^k, with the h-basis slices of
    q_symf_oracle as coefficients."""
    out = SymPoly.zero()
    for j, k in sorted(_exc_fix_data(n)):
        out = out + SymPoly.wrap(q_symf_oracle(n, j, k), t=j, r=k)
    return out


@lru_cache(maxsize=None)
def _type_class_oracle(lam, j) -> dict:
    """The class values of q_symf_type_oracle(lam, j), computed once per
    (lam, j)."""
    return class_values(q_symf_type_oracle(lam, j))


def character_value_oracle(n, j, mu) -> int:
    """character_value read off the census."""
    return _type_class_oracle(Partition([n]), j).get(Partition(mu), 0)


# ---------------------------------------------------------------------------
# the Q family: closed formulas
# ---------------------------------------------------------------------------


def _closed_terms(n):
    """(k, mu, w, c) for k = 0..n and mu a partition of n - k with parts >= 2:
    w counts the orderings of the parts of mu, l(mu)! / prod_i m_i(mu)! (the
    prod_i m_i! is z_mu / prod_i mu_i), and c lists prod_i x [mu_i - 1]_x."""
    for k in range(n + 1):
        for mu in partitions(n - k):
            if mu and mu[-1] < 2:
                continue
            c = [1]
            for part in mu:
                c = qlist_mul(c, [0] + [1] * (part - 1))
            yield k, mu, factorial(mu.length) * prod(mu) // mu.z(), c


@lru_cache(maxsize=None)
def q_poly(n) -> SymPoly:
    """sum over j, k of Q(n, j, k) t^j r^k in the h basis, by the closed
    h-positive formula summed over partitions rather than ordered tuples of
    parts >= 2 (the h factors commute): the sum over k >= 0 and mu of n - k of
    (orderings of mu) r^k h_{mu + (k)} prod_i t [mu_i - 1]_t.  Each term is
    one h_lam, so its coefficients are written in with no product."""
    slices = {}
    for k, mu, w, c in _closed_terms(n):
        lam = mu.concat((k,)) if k else mu
        for j, cj in enumerate(c):
            if cj:
                slices.setdefault((j, k), {})[lam] = w * cj
    return SymPoly({jk: SymF("h", terms) for jk, terms in slices.items()})


def _a_poly_closed(n) -> Poly:
    """a_poly(n) by the closed formula, grouped by parts as in q_poly (the
    q-multinomial is symmetric in its parts): the sum over k and mu of
    (orderings of mu) [n choose k, mu]_q r^k prod_i tq [mu_i - 1]_{tq}."""
    out = Poly.zero()
    for k, mu, w, c in _closed_terms(n):
        tq = Poly({(j, 0, j, k): w * cj for j, cj in enumerate(c) if cj})
        out = out + q_multinomial(n, (k,) + mu) * tq
    return out


def q_symf(n, j, k=None) -> SymF:
    """Q(n, j, k) in the h basis: [t^j r^k] of q_poly(n), summed over k when
    k is None."""
    poly = q_poly(n)
    ks = range(n + 1) if k is None else (k,)
    return sum((poly.coefficient(t=j, r=kk) for kk in ks), SymF.zero("h"))


def character_poly(lam) -> Poly:
    """Character generating polynomial of the single-cycle slices at the
    class lam: t A_{l-1}(t) prod_i [lam_i]_t with every t^i erased whose
    exponent shares a factor with the gcd of the parts (A_m the descent
    enumerator of S_m)."""
    lam = Partition(lam)
    out = Poly.var("t") * eulerian_poly(lam.length - 1)
    for part in lam:
        out = out * Poly({(0, 0, i, 0): 1 for i in range(part)})
    g = lam.gcd_of_parts()
    if g > 1:
        out = Poly({e: c for e, c in out.terms.items() if gcd(g, e[2]) == 1})
    return out


@lru_cache(maxsize=None)
def _single_cycle_classes(n) -> dict:
    """sum over j of Q((n), j) t^j as a graded class function (symfunc): the
    value of Q((n), j) at mu is [t^j] character_poly(mu), and Q((1), 0) = p_1."""
    if n == 1:
        return {(0, 0): {Partition([1]): 1}}
    slices = {}
    for mu in partitions(n):
        for (_, _, j, _), c in character_poly(mu).terms.items():
            slices.setdefault((j, 0), {})[mu] = c
    return slices


@lru_cache(maxsize=None)
def _type_classes(lam) -> dict:
    """sum over j of Q(lam, j) t^j as a graded class function, by the
    plethysm product over cycle sizes prod_i h_{m_i}[sum_j Q((i), j) t^j]."""
    out = {(0, 0): {Partition(): 1}}
    for i, m in sorted(Partition(lam).multiplicities().items()):
        out = class_mul(out, class_plethysm_h(m, _single_cycle_classes(i)))
    return out


def q_type_poly(lam) -> SymPoly:
    """sum over j of Q(lam, j) t^j in the p basis, slice by slice from
    q_symf_type."""
    lam = Partition(lam)
    return SymPoly({key: q_symf_type(lam, key[0]) for key in _type_classes(lam)})


def q_symf_type(lam, j, basis="p") -> SymF:
    """Q(lam, j) in basis, from the class values of the t^j slice of
    _type_classes(lam): in p each divided by z_mu, in h, e, s and m through
    s with integer coefficients, so no Fraction is built."""
    return from_class_values(_type_classes(Partition(lam)).get((j, 0), {}), basis)


def character_value(n, j, mu) -> int:
    """Character of the degree-n single-cycle slice at the class mu: the
    value at mu of the t^j slice of _type_classes((n))."""
    mu = Partition(mu)
    if mu.n != n:
        raise ValueError("partition sizes differ")
    return _type_classes(Partition([n])).get((j, 0), {}).get(mu, 0)


def char_table(n):
    """Character table of the single-cycle slices: one row per partition of n
    in (length, descending-lex) order, columns j = 1 .. floor(n/2)."""
    js = list(range(1, n // 2 + 1))
    return js, [(mu, [character_value(n, j, mu) for j in js]) for mu in partitions(n)]


# ---------------------------------------------------------------------------
# the A family: brute-force statistic polynomials
# ---------------------------------------------------------------------------

# The A family is read off the census once per n, and once per class, into
# a table {(fix, des, exc): q list}: the distribution of maj (or of inv) over
# the permutations with those fix, des and exc, as a dense coefficient list
# with no trailing zeros.  comaj is maj read from binomial(n, 2) down.  The
# suites compare these lists, and a_poly and its relatives are Poly views of
# them.

_VAR_OF = {"maj": "q", "comaj": "q", "inv": "q", "des": "p", "exc": "t", "fix": "r"}


def _a_lists(rows, fields, qstat):
    """The A table of a Counter of census rows with the given fields, its q
    lists holding qstat ("maj" or "inv")."""
    fix, des, exc, q = map(fields.index, ("fix", "des", "exc", qstat))
    out = {}
    for row, count in rows.items():
        a = out.setdefault((row[fix], row[des], row[exc]), [])
        i = row[q]
        if len(a) <= i:
            a.extend([0] * (i + 1 - len(a)))
        a[i] += count
    return {key: tuple(a) for key, a in out.items()}


@lru_cache(maxsize=None)
def _a_table(n, qstat="maj"):
    """{(fix, des, exc): qstat q list} over S_n, qstat "maj" or "inv"."""
    rows, fields = _oracle_census(n, (qstat,))
    return _a_lists(rows, fields, qstat)


@lru_cache(maxsize=None)
def _a_type_table(lam, qstat="maj"):
    """{(fix, des, exc): qstat q list} over the class of type lam."""
    lam = Partition(lam)
    return _a_lists(class_census(lam), CENSUS_FIELDS, qstat)


def _table_for(table, key, stats):
    """table(key), or table(key, "inv") when stats lists inv; the maj table
    is always asked for in the one form, so that it is cached once."""
    return table(key, "inv") if "inv" in stats else table(key)


def _a_view(table, n, stats, fix=None) -> Poly:
    """The joint distribution of the listed statistics (maj/comaj/inv tracked
    by q, des by p, exc by t, fix by r) over the rows of an A table of S_n,
    or over its rows with fix fixed points."""
    names = tuple(stats)
    vars_ = [_VAR_OF[s] for s in names]
    if len(set(vars_)) != len(vars_):
        raise ValueError(f"statistics {names} collide on a variable")
    # the q exponent of q list index i is sign i + top
    sign, top = (-1, comb(n, 2)) if "comaj" in names else (int("q" in vars_), 0)
    use = [s in names for s in ("des", "exc", "fix")]
    acc = {}
    for (f, d, e), a in table.items():
        if fix is not None and f != fix:
            continue
        rest = (d * use[0], e * use[1], f * use[2])
        for i, c in enumerate(a):
            if c:
                key = (sign * i + top,) + rest
                acc[key] = acc.get(key, 0) + c
    return Poly(acc)


def a_poly(n, stats=("maj", "exc", "fix")) -> Poly:
    return _a_view(_table_for(_a_table, n, stats), n, stats)


def a_poly_fix(n, k, stats=("maj", "des", "exc")) -> Poly:
    """a_poly over the permutations of S_n with k fixed points."""
    return _a_view(_table_for(_a_table, n, stats), n, stats, fix=k)


def a_poly_type(lam, stats=("maj", "des", "exc")) -> Poly:
    lam = Partition(lam)
    return _a_view(_table_for(_a_type_table, lam, stats), lam.n, stats)


def a_poly_derangements(n, stats=("maj", "exc")) -> Poly:
    return a_poly_fix(n, 0, stats)
