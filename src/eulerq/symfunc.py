"""Quasisymmetric and symmetric function algebra with exact arithmetic.

Three faithful representations cooperate here:

  * QSymF: finite sums of fundamental quasisymmetric functions F_{S,n},
    keyed by (n, S) with S a subset of [n-1];
  * MonExpansion: honest truncations to N variables, keyed by exponent
    vectors, used for cross checks and for model comparisons;
  * SymF: symmetric functions tagged by a basis in {m, h, e, p, s} and
    keyed by partitions.

Basis conversions route through the Schur basis, by integer tables whose
columns one builder makes by adding strips: horizontal strips give the
Kostka numbers (Macdonald, ch. I, section 6, by the Pieri rule of section
3) and border strips the characters (Murnaghan-Nakayama, section 7).
h and e expand along the Kostka columns (e with conjugated shapes), s
expands in m along their rows, and m -> s and s -> h, e are unitriangular
solves.  p is read through class values, chi_f(mu) = z_mu [p_mu] f, an
integer for a virtual character: s -> class takes the same dot product with
the border-strip columns as s -> m takes with the Kostka columns, and
class -> s sums (n!/z_mu) chi_f(mu) chi^lam(mu) over those columns in plain
integers and divides once per result by n!, so an integral answer comes
back in ints.  p -> s is class -> s applied to the class values c z_mu of
the terms c p_mu, and s -> p divides each class value by z_mu, which serves
the p target alone.  Products of s or m operands are taken in h, where they
are concatenations; plethysm works on class values, where a product is an
induction with integer weights and p_k[-] rescales the classes.
"""
import itertools
from functools import lru_cache
from math import comb, factorial, lcm, prod

from .permstats import Partition, partitions
from .polyalg import (
    Poly,
    PolyFraction,
    _fraction,
    _is_scalar,
    _join_signed,
    _signed_chunks,
    _term_body,
    qlist_add,
    qlist_binomial,
    qlist_mul,
    qlist_pack,
    qlist_pochhammer,
    qlist_to_poly,
)

BASES = ("m", "h", "e", "p", "s")


def _addto(d, k, v):
    s = d.get(k, 0) + v
    if s:
        d[k] = s
    else:
        d.pop(k, None)


# ---------------------------------------------------------------------------
# fundamental quasisymmetric functions
# ---------------------------------------------------------------------------

class QSymF:
    """A finite linear combination of fundamental quasisymmetric functions.

    terms maps (n, frozenset S) with S a subset of {1, .., n-1} to a nonzero
    rational coefficient. F_{emptyset, 0} = 1 carries the constant term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (n, S), c in (terms or {}).items():
            S = frozenset(S)
            if not all(1 <= i <= n - 1 for i in S):
                raise ValueError(f"descent set {set(S)} out of range for n={n}")
            if c:
                clean[(n, S)] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def fundamental(cls, S, n):
        return cls({(n, frozenset(S)): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            _addto(out, k, c)
        return QSymF(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, c):
        if not _is_scalar(c):
            return NotImplemented
        return QSymF({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return -1 * self

    def __eq__(self, other):
        return isinstance(other, QSymF) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "QSymF(0)"
        bits = []
        for (n, S), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
            bits.append(f"{c}*F[{sorted(S)},{n}]")
        return "QSymF(" + " + ".join(bits) + ")"

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({n for (n, _) in self.terms})

    def omega(self):
        """The standard involution: F_{S,n} maps to F_{[n-1] minus S, n}."""
        return QSymF({(n, frozenset(range(1, n)) - S): c for (n, S), c in self.terms.items()})

    # -- monomial quasisymmetric coefficients -------------------------------
    def _monomial_qsym_coeffs(self, n):
        """The coefficients of the monomial quasisymmetric M_{comp(T),n}, as a
        list indexed by the bitmask of T (bit i - 1 set for i in T).

        Uses F_{S,n} = sum over T containing S of M_{T,n}, via a subset sum
        (zeta) transform over bitmask encodings of subsets of [n-1].
        """
        size = 1 << max(n - 1, 0)
        g = [0] * size
        for (m, S), c in self.terms.items():
            if m == n:
                g[_mask(S)] += c
        bit = 1
        while bit < size:
            for low in range(0, size, 2 * bit):
                for mask in range(low + bit, low + 2 * bit):
                    g[mask] += g[mask - bit]
            bit *= 2
        return g

    def _m_coeffs(self):
        """dict lambda -> coefficient of m_lambda, or None when the function is
        not symmetric: it is symmetric iff its monomial quasisymmetric
        coefficients are constant on compositions with the same sorted part
        multiset, and then the coefficient of m_lambda is the one at
        D(lambda), the descent set of the unique weakly decreasing word of
        content lambda.  Both sets are read by bitmask from _m_table."""
        out = {}
        for n in self.degrees():
            g = self._monomial_qsym_coeffs(n)
            for lam, drop, masks in _m_table(n):
                c = g[drop]
                for T in masks:
                    if g[T] != c:
                        return None
                if c:
                    out[lam] = c
        return out

    def is_symmetric(self):
        """True iff the function is symmetric."""
        return self._m_coeffs() is not None

    def to_symf(self):
        """The m-basis expansion, valid only when the function is symmetric."""
        out = self._m_coeffs()
        if out is None:
            raise ValueError("not symmetric; no m-basis expansion")
        return SymF("m", out)

    def to_monomial(self, N):
        """Truncated expansion in x_1..x_N, keyed by exponent vectors."""
        out = {}
        for (n, S), c in self.terms.items():
            for seq in _weakly_decreasing_sequences(n, N, S):
                exps = [0] * N
                for v in seq:
                    exps[v - 1] += 1
                _addto(out, tuple(exps), c)
        return MonExpansion(N, out)

    # -- principal specializations ------------------------------------------
    def _ps_numerators(self):
        """dict (n, k) -> coefficient list of the sum of c q^{sum S} over the
        terms c F_{S,n} with |S| = k."""
        groups = {}
        for (n, S), c in self.terms.items():
            num = groups.setdefault((n, len(S)), [])
            i = sum(S)
            if len(num) <= i:
                num.extend([0] * (i + 1 - len(num)))
            num[i] += c
        return groups

    def ps_stable_qlist(self, d):
        """(q;q)_d times the stable principal specialization, as a coefficient
        list: the sum over c F_{S,n} of c q^{sum S} (q^{n+1}; q)_{d-n}.  Every
        degree must be at most d, or the product need not be a polynomial."""
        by_degree = {}
        for (n, _), num in self._ps_numerators().items():
            if n > d:
                raise ValueError(f"degree {n} exceeds {d}")
            qlist_add(by_degree.setdefault(n, []), num)
        out = []
        for n, num in by_degree.items():
            qlist_add(out, num if n == d else qlist_mul(num, qlist_pochhammer(n + 1, d - n)))
        return out

    def ps_norm(self, depth):
        """A bound on the L1 norm of ps_at(m) for every m <= depth: the sum
        over c F_{S,n} of |c| C(depth - |S| - 1 + n, n), since the L1 norm of
        [a choose b]_q is C(a, b) and grows with a.  Integer coefficients."""
        norms = {}
        for (n, S), c in self.terms.items():
            key = (n, len(S))
            norms[key] = norms.get(key, 0) + abs(c)
        return sum(v if n == 0 else v * comb(depth - k - 1 + n, n)
                   for (n, k), v in norms.items() if n == 0 or depth > k)

    def ps_packed(self, depth, w):
        """[ps_at(m) packed at q = 2^w (qlist_pack) for m = 0 .. depth], each
        the sum over (n, k) of the packed numerator of _ps_numerators, built
        as the sum of c 2^(w sum S), times the packed
        [m - k - 1 + n choose n]_q, for m >= k + 1 (or n = 0).  Packing is
        evaluation at 2^w, so these are exact at every w; a width above
        ps_norm(depth).bit_length() also lets the specialization suites
        compare them as integers.  Integer coefficients."""
        groups = {}
        for (n, S), c in self.terms.items():
            key = (n, len(S))
            groups[key] = groups.get(key, 0) + (c << (w * sum(S)))
        out = [0] * (depth + 1)
        for (n, k), v in groups.items():
            for m in range(0 if n == 0 else k + 1, depth + 1):
                out[m] += v if n == 0 else v * _packed_binomial(m - k - 1 + n, n, w)
        return out

    def ps_stable(self):
        """Stable principal specialization x_i -> q^{i-1}.

        F_{S,n} specializes to q^{sum S} / (q;q)_n; mixed degrees are put over
        the common denominator (q;q)_{max degree}.  Returns a PolyFraction
        whose numerator is ps_stable_qlist of the top degree; a check against
        a polynomial is cheaper in that cleared form.
        """
        if not self.terms:
            return PolyFraction(Poly.zero())
        N = max(n for (n, _) in self.terms)
        return PolyFraction(qlist_to_poly(self.ps_stable_qlist(N)),
                            qlist_to_poly(qlist_pochhammer(1, N)))

    def ps_at(self, m):
        """Principal specialization in m variables, x_i -> q^{i-1} for i <= m.

        F_{S,n} contributes q^{sum S} [m - |S| - 1 + n choose n]_q, which is
        zero when m <= |S|; F_{emptyset,0} contributes 1.  Summed over the
        numerators of _ps_numerators as coefficient lists.
        """
        out = []
        for (n, k), num in self._ps_numerators().items():
            qlist_add(out, qlist_mul(num, qlist_binomial(m - k - 1 + n, n)) if n else num)
        return qlist_to_poly(out)


def fundamental(S, n):
    return QSymF.fundamental(S, n)


def _rearrangements(vec):
    """The distinct rearrangements of vec, generated as multiset
    permutations, so (1^n) costs one, not n!."""
    left = {}
    for v in vec:
        left[v] = left.get(v, 0) + 1
    return _place(left, [None] * len(vec), 0)


def _place(left, word, i):
    """The words that fill word[i:] with the letters left ({letter: count
    still to place}), word[:i] kept, each yielded as a tuple of all of word."""
    if i == len(word):
        yield tuple(word)
        return
    for v, m in left.items():
        if m:
            left[v] = m - 1
            word[i] = v
            yield from _place(left, word, i + 1)
            left[v] = m


def _partial_sums(parts):
    """The partial sums of parts short of the whole: the descent set of the
    weakly decreasing word whose runs of equal letters, first to last, have
    lengths parts."""
    return frozenset(itertools.accumulate(parts[:-1]))


def _descent_sets_of_rearrangements(lam):
    """Descent sets realizable by weakly decreasing words of every content
    that is a rearrangement of lam: the partial-sum sets of the distinct
    rearrangements of the parts."""
    return frozenset(_partial_sums(parts) for parts in _rearrangements(tuple(lam)))


def _mask(S):
    """The bitmask of a subset S of [n-1]: bit i - 1 set for i in S."""
    mask = 0
    for i in S:
        mask |= 1 << (i - 1)
    return mask


@lru_cache(maxsize=None)
def _m_table(n):
    """For every partition lam of n, in partitions(n) order: (lam, mask of
    the descent set of the weakly decreasing word with content lam, masks of
    _descent_sets_of_rearrangements(lam)), the subsets at which
    QSymF._m_coeffs reads degree n."""
    return tuple((lam, _mask(_partial_sums(lam[::-1])),
                  tuple(_mask(T) for T in _descent_sets_of_rearrangements(lam)))
                 for lam in partitions(n))


@lru_cache(maxsize=None)
def _packed_binomial(a, b, w):
    """[a choose b]_q packed at q = 2^w (qlist_pack), for QSymF.ps_packed."""
    return qlist_pack(qlist_binomial(a, b), w)


def _weakly_decreasing_sequences(n, N, strict_at):
    """All (s_1 >= ... >= s_n) with values in [N], strict drop at i in strict_at."""
    if n == 0:
        yield ()
        return
    yield from _decreasing_from([0] * n, 0, N, frozenset(strict_at))


def _decreasing_from(seq, i, hi, strict_at):
    """The sequences of _weakly_decreasing_sequences that keep seq[:i] and
    start seq[i:] at most hi, each yielded as a tuple of all of seq."""
    if hi < 1:
        return
    if i == len(seq):
        yield tuple(seq)
        return
    for v in range(hi, 0, -1):
        seq[i] = v
        nxt = v - 1 if (i + 1) in strict_at else v
        yield from _decreasing_from(seq, i + 1, nxt, strict_at)


# ---------------------------------------------------------------------------
# truncated monomial expansions
# ---------------------------------------------------------------------------

class MonExpansion:
    """A polynomial in x_1..x_N keyed by exponent vectors, exact coefficients."""

    __slots__ = ("N", "terms")

    def __init__(self, N, terms=None):
        self.N = N
        self.terms = {}
        for e, c in (terms or {}).items():
            if len(e) != N:
                raise ValueError(f"exponent vector {e} has wrong length for N={N}")
            if c:
                self.terms[tuple(e)] = c

    @classmethod
    def zero(cls, N):
        return cls(N)

    @classmethod
    def one(cls, N):
        return cls(N, {tuple([0] * N): 1})

    def __add__(self, other):
        self._chk(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _addto(out, e, c)
        return MonExpansion(self.N, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if _is_scalar(other):
            return MonExpansion(self.N, {e: c * other for e, c in self.terms.items()})
        self._chk(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                _addto(out, e, c1 * c2)
        return MonExpansion(self.N, out)

    __rmul__ = __mul__

    def _chk(self, other):
        if self.N != other.N:
            raise ValueError("variable count mismatch")

    def __eq__(self, other):
        return isinstance(other, MonExpansion) and self.N == other.N and self.terms == other.terms

    def __repr__(self):
        return f"MonExpansion(N={self.N}, {len(self.terms)} terms)"

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def is_symmetric(self):
        """True iff coefficients are constant on exponent-multiset orbits and
        every rearrangement of a supported exponent vector is supported."""
        groups = {}
        for e, c in self.terms.items():
            groups.setdefault(tuple(sorted(e, reverse=True)), []).append(c)
        for rep, coeffs in groups.items():
            if len(set(coeffs)) > 1:
                return False
            orbit = _distinct_permutation_count(rep)
            if len(coeffs) != orbit:
                return False
        return True

    def to_symf(self):
        """Lift to m-basis coefficients; requires symmetry and degree <= N."""
        if not self.is_symmetric():
            raise ValueError("expansion is not symmetric")
        if self.degree() > self.N:
            raise ValueError("degree exceeds N; truncation is not faithful")
        out = {}
        for e, c in self.terms.items():
            if list(e) == sorted(e, reverse=True):
                out[Partition(x for x in e if x)] = c
        return SymF("m", out)

    def coefficient_of_squarefree(self):
        """Coefficient of x_1 x_2 .. x_N."""
        return self.terms.get(tuple([1] * self.N), 0)


def _distinct_permutation_count(vec):
    total = factorial(len(vec))
    for v in set(vec):
        total //= factorial(vec.count(v))
    return total


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _index(n):
    """Position of each partition of n in partitions(n)."""
    return {lam: i for i, lam in enumerate(partitions(n))}


@lru_cache(maxsize=None)
def _conjugates(n):
    """Position in partitions(n) of the conjugate of each partition of n."""
    index = _index(n)
    return tuple(index[lam.conjugate()] for lam in partitions(n))


@lru_cache(maxsize=None)
def _horizontal_strips(shape, r):
    """Every shape, as a plain tuple, that adds a horizontal strip of r boxes
    to shape, with weight 1: row i grows to at most the old length of row
    i - 1, and the boxes left over start a new row no longer than the old
    last row.  Cached, as a tuple of (shape, weight) pairs."""
    grown = [((), r)]  # (rows so far, boxes left)
    for i, x in enumerate(shape):
        room = shape[i - 1] - x if i else r
        grown = [(rows + (x + d,), left - d)
                 for rows, left in grown for d in range(min(left, room) + 1)]
    last = shape[-1] if shape else r
    return tuple((rows + (left,) if left else rows, 1) for rows, left in grown if left <= last)


@lru_cache(maxsize=None)
def _border_strips(shape, r):
    """Every shape, as a plain tuple, that adds a border strip of r boxes to
    shape, with weight (-1)^height (Macdonald, ch. I, section 7).  Cached,
    as a tuple of (shape, weight) pairs.

    On the beta set of shape padded with r zero rows, a strip moves the bead
    b of row i to the empty place b + r, landing in row p <= i: rows p + 1
    to i each take the old row above plus one box, and the height is i - p.
    """
    ell = len(shape) + r
    rows = shape + (0,) * r
    beta = [x + ell - 1 - i for i, x in enumerate(rows)]
    beads = set(beta)
    out = []
    p = 0
    for i, b in enumerate(beta):
        if b + r in beads:
            continue
        while beta[p] > b + r:
            p += 1
        grown = (rows[:p] + (b + r - (ell - 1 - p),) + tuple(x + 1 for x in rows[p:i])
                 + rows[i + 1:len(shape)])
        out.append((grown, -1 if (i - p) % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _column(strips, mu):
    """Column mu of the table that adding strips builds: a dict from position
    in partitions(|mu|) to the nonzero entry.

    Column mu comes from column mu-minus-its-last-part, one degree set lower:
    each shape there grows by every strip of mu's last part, times the
    strip's weight.  With _horizontal_strips the entry at lam is the Kostka
    number K_{lam, mu}, the coefficient of s_lam in h_mu (the Pieri rule);
    with _border_strips it is the character chi^lam(mu) (Murnaghan-Nakayama).
    """
    if not mu:
        return {0: 1}
    r = mu[-1]
    smaller = partitions(sum(mu) - r)
    index = _index(sum(mu))
    col = {}
    for i, v in _column(strips, mu[:-1]).items():
        for shape, w in strips(smaller[i], r):
            j = index[shape]
            col[j] = col.get(j, 0) + v * w
    return {j: v for j, v in col.items() if v}


def mn_character(lam, mu) -> int:
    """Irreducible character chi^lam(mu), read from border-strip column mu."""
    lam = Partition(lam)
    mu = Partition(mu)
    if lam.n != mu.n:
        raise ValueError("partition sizes differ")
    return _column(_border_strips, mu).get(_index(lam.n)[lam], 0)


@lru_cache(maxsize=None)
def _kostka(n):
    """The Kostka matrix at degree n, by positions in partitions(n): column j
    maps i to K_{lam_i, mu_j} > 0, the coefficient of s_{lam_i} in h_{mu_j}.

    K_{lam, mu} is nonzero only when lam dominates mu, and partitions(n)
    lists a partition before every one it dominates, so K is upper
    unitriangular: the solves below rely on it.
    """
    return tuple(_column(_horizontal_strips, mu) for mu in partitions(n))


def _by_degree(terms):
    """{n: {position in partitions(n): coefficient}} for a coefficient dict."""
    out = {}
    for lam, c in terms.items():
        n = lam.n
        out.setdefault(n, {})[_index(n)[lam]] = c
    return out


def _exact(c, d):
    """c / d: an int when d divides the int c, else a Fraction."""
    return c // d if type(c) is int and c % d == 0 else _fraction(c, d)


def _column_dots(strips, n, vec):
    """{mu: sum_i vec[i] column_mu[i]} over the partitions mu of n, for the
    degree-n Schur vector vec: with _horizontal_strips the coefficient of
    m_mu, with _border_strips the class value chi_f(mu)."""
    out = {}
    for mu in partitions(n):
        c = sum(vec.get(i, 0) * k for i, k in _column(strips, mu).items())
        if c:
            out[mu] = c
    return out


def _column_sums(strips, n, vec):
    """sum_j vec[j] column_j as a list by position in partitions(n), for vec a
    dict from position j in partitions(n) to coefficient: with
    _horizontal_strips the Schur coefficients of sum_j vec[j] h_{mu_j}, with
    _border_strips the sum over the classes mu_j of vec[j] chi^lam(mu_j)."""
    plist = partitions(n)
    out = [0] * len(plist)
    for j, c in vec.items():
        if c:
            for i, k in _column(strips, plist[j]).items():
                out[i] += c * k
    return out


def _class_to_s(values):
    """Schur coefficients of the class function {mu: chi_f(mu)}: degree n
    sums (n!/z_mu) chi_f(mu) chi^lam(mu) over the border-strip columns,
    scaled by the lcm d of the values' denominators, in plain integers, and
    divides once per result by n! d, which keeps a Fraction only where the
    coefficient is not integral."""
    out = {}
    for n, vec in _by_degree(values).items():
        d = lcm(*(c.denominator for c in vec.values()))
        top = factorial(n)
        plist = partitions(n)
        scaled = {j: c.numerator * (d // c.denominator) * (top // plist[j].z())
                  for j, c in vec.items()}
        for i, c in enumerate(_column_sums(_border_strips, n, scaled)):
            if c:
                out[plist[i]] = _exact(c, top * d)
    return out


def _to_s(basis, terms):
    """Schur coefficients of the coefficient dict terms in basis."""
    if basis == "s":
        return terms
    if basis == "p":
        # p_mu has class value z_mu at mu and 0 elsewhere
        return _class_to_s({mu: c * mu.z() for mu, c in terms.items()})
    out = {}
    for n, vec in _by_degree(terms).items():
        plist = partitions(n)
        if basis == "m":
            # m_mu has coefficient sum_i b_i K_{i, mu}: solve forwards, where
            # b_j, not yet known, reads as 0 against the diagonal K_{jj} = 1
            b = {}
            for j, col in enumerate(_kostka(n)):
                c = vec.get(j, 0) - sum(b.get(i, 0) * k for i, k in col.items())
                if c:
                    b[j] = c
            for i, c in b.items():
                out[plist[i]] = c
            continue
        # h_mu is column mu of K, e_mu the same with conjugated shapes
        target = _conjugates(n) if basis == "e" else range(len(plist))
        for i, c in enumerate(_column_sums(_horizontal_strips, n, vec)):
            if c:
                out[plist[target[i]]] = c
    return out


@lru_cache(maxsize=None)
def _concat_positions(a, b):
    """Rows [i][j]: the position in partitions(a + b) of the concatenation of
    the partitions at position i in partitions(a) and j in partitions(b)."""
    index = _index(a + b)
    return tuple(tuple(index[la.concat(lb)] for lb in partitions(b)) for la in partitions(a))


def schur_of_products(d, products):
    """The Schur coefficients at degree d of sum c f g over products (c, f, g),
    as a list by position in partitions(d); g is None for 1.

    f and g are read in h, converted from any other basis: there the product
    of h_lam and h_mu is h of their concatenation, which _concat_positions
    places, and the h-vector of the sum goes through the Kostka columns once.
    """
    hvec = {}
    for c, f, g in products:
        gd = {0: {0: 1}} if g is None else _h_positions(g)
        for a, fv in _h_positions(f).items():
            gv = gd.get(d - a)
            if gv:
                cat = _concat_positions(a, d - a)
                for i, x in fv.items():
                    row = cat[i]
                    for j, y in gv.items():
                        hvec[row[j]] = hvec.get(row[j], 0) + c * x * y
    return _column_sums(_horizontal_strips, d, hvec)


def _h_positions(f):
    """{n: {position in partitions(n): coefficient}} of f in h."""
    return _by_degree((f if f.basis == "h" else f.to_basis("h")).terms)


def _from_s(sterms, basis):
    """Coefficients in basis of the Schur coefficient dict sterms."""
    if basis == "s":
        return sterms
    out = {}
    for n, vec in _by_degree(sterms).items():
        plist = partitions(n)
        if basis == "m":
            # the coefficient of m_mu is sum_i b_i K_{i, mu}
            out.update(_column_dots(_horizontal_strips, n, vec))
            continue
        if basis == "p":
            # the coefficient of p_mu is the class value at mu over z_mu
            for mu, c in _column_dots(_border_strips, n, vec).items():
                out[mu] = _exact(c, mu.z())
            continue
        if basis == "e":
            # omega sends s_lam to s_lam' and e_mu to h_mu
            conj = _conjugates(n)
            vec = {conj[i]: c for i, c in vec.items()}
        # h_mu is column mu of K: peel the columns off from the last one
        cols = _kostka(n)
        for j in range(len(plist) - 1, -1, -1):
            c = vec.pop(j, 0)
            if c:
                out[plist[j]] = c
                for i, k in cols[j].items():
                    if i != j:
                        _addto(vec, i, -c * k)
    return out


def _pdict_mul(a, b):
    """Product of two coefficient dicts in a multiplicative basis (h, e or
    p): the index partitions concatenate."""
    out = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            _addto(out, la.concat(lb), ca * cb)
    return out


# ---------------------------------------------------------------------------
# symmetric functions
# ---------------------------------------------------------------------------

class SymF:
    """A symmetric function expressed in a tagged basis.

    terms maps Partition -> nonzero rational coefficient. The empty partition
    indexes the constant term in every basis.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.terms = {}
        for lam, c in (terms or {}).items():
            if c:
                self.terms[lam if isinstance(lam, Partition) else Partition(lam)] = c

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, basis="m"):
        return cls(basis)

    @classmethod
    def one(cls, basis="h"):
        return cls(basis, {Partition(): 1})

    @classmethod
    def single(cls, basis, lam, coeff=1):
        return cls(basis, {Partition(lam): coeff})

    # -- structure --------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({lam.n for lam in self.terms})

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def degree(self):
        return max((lam.n for lam in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, SymF):
            if not _is_scalar(other):
                return NotImplemented
            other = SymF(self.basis, {Partition(): other})
        if other.basis != self.basis:
            other = other.to_basis(self.basis)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            _addto(out, lam, c)
        return SymF(self.basis, out)

    __radd__ = __add__

    def __neg__(self):
        return -1 * self

    def __sub__(self, other):
        if not isinstance(other, SymF) and _is_scalar(other):
            other = SymF(self.basis, {Partition(): other})
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SymF):
            if not _is_scalar(other):
                return NotImplemented
            return SymF(self.basis, {lam: c * other for lam, c in self.terms.items()})
        if self.basis == other.basis and self.basis in ("h", "e", "p"):
            return SymF(self.basis, _pdict_mul(self.terms, other.terms))
        a = self.to_basis("h")
        b = other.to_basis("h")
        return SymF("h", _pdict_mul(a.terms, b.terms)).to_basis(self.basis)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            raise ValueError("a symmetric function has no negative powers")
        out = SymF.one(self.basis)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, SymF):
            if not _is_scalar(other):
                return NotImplemented
            other = SymF(self.basis, {Partition(): other})
        if self.basis == other.basis:
            return self.terms == other.terms
        return self.to_basis("m").terms == other.to_basis("m").terms

    def __repr__(self):
        return f"SymF({self.render()})"

    # -- conversions ---------------------------------------------------------
    def to_basis(self, basis):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if basis == self.basis:
            return SymF(self.basis, dict(self.terms))
        return SymF(basis, _from_s(_to_s(self.basis, self.terms), basis))

    def omega(self):
        """The fundamental involution: h <-> e, p_mu -> (-1)^(|mu|-l) p_mu, s -> conjugate."""
        b = self.basis
        if b == "h":
            return SymF("e", dict(self.terms))
        if b == "e":
            return SymF("h", dict(self.terms))
        if b == "p":
            return SymF("p", {lam: c * (-1) ** (lam.n - lam.length) for lam, c in self.terms.items()})
        if b == "s":
            return SymF("s", {lam.conjugate(): c for lam, c in self.terms.items()})
        return SymF("s", _to_s("m", self.terms)).omega().to_basis("m")

    def to_monomial(self, N):
        mm = self.to_basis("m")
        out = {}
        for lam, c in mm.terms.items():
            if lam.length > N:
                continue
            base = tuple(lam) + (0,) * (N - lam.length)
            for arrangement in _rearrangements(base):
                out[arrangement] = c
        return MonExpansion(N, out)

    def coefficient(self, lam):
        return self.terms.get(Partition(lam), 0)

    def squarefree_coefficient(self):
        """Coefficient of x_1 x_2 .. x_n for n = deg(f) (for homogeneous f,
        the dimension of the corresponding representation): in h or e, each
        h_mu or e_mu of degree n contributes n!/prod_i mu_i!."""
        f = self if self.basis in ("h", "e") else self.to_basis("h")
        n = self.degree()
        top = factorial(n)
        return sum(c * (top // prod(map(factorial, lam)))
                   for lam, c in f.terms.items() if lam.n == n)

    def is_positive(self, basis=None):
        f = self if basis in (None, self.basis) else self.to_basis(basis)
        return all(c > 0 for c in f.terms.values())

    # -- rendering ------------------------------------------------------------
    def render(self):
        keys = sorted(self.terms, key=lambda lam: (lam.n, lam.length, tuple(-x for x in lam)))
        return _join_signed([
            _term_body(self.terms[lam], f"{self.basis}[{','.join(map(str, lam))}]" if lam else "")
            for lam in keys
        ])

    __str__ = render


def parse_symf(text, basis=None):
    """Inverse of SymF.render."""
    terms = {}
    seen_basis = basis
    for sign, chunk in _signed_chunks(text):
        if "[" not in chunk:
            _addto(terms, Partition(), sign * _parse_rat(chunk))
            continue
        head, _, rest = chunk.partition("[")
        parts = rest.rstrip("]").strip()
        lam = Partition(int(x) for x in parts.split(",") if x.strip()) if parts else Partition()
        coeff = 1
        if "*" in head:
            cs, _, bname = head.rpartition("*")
            coeff = _parse_rat(cs)
        else:
            bname = head
        bname = bname.strip()
        if seen_basis is None:
            seen_basis = bname
        elif bname != seen_basis:
            raise ValueError(f"mixed bases in {text!r}")
        _addto(terms, lam, sign * coeff)
    return SymF(seen_basis or "m", terms)


def _parse_rat(s):
    s = s.strip()
    return _fraction(s) if "/" in s else int(s)


def sym_h(lam, coeff=1):
    return SymF.single("h", lam, coeff)


def sym_e(lam, coeff=1):
    return SymF.single("e", lam, coeff)


def sym_p(lam, coeff=1):
    return SymF.single("p", lam, coeff)


def sym_s(lam, coeff=1):
    return SymF.single("s", lam, coeff)


def sym_m(lam, coeff=1):
    return SymF.single("m", lam, coeff)


# ---------------------------------------------------------------------------
# symmetric function valued polynomials in t and r
# ---------------------------------------------------------------------------

def _addsym(d, k, f):
    """d[k] += f for a SymF f, storing no zero coefficient."""
    if k in d:
        s = d[k] + f
        if s.is_zero():
            del d[k]
        else:
            d[k] = s
    elif not f.is_zero():
        d[k] = f


class SymPoly:
    """A polynomial in t and r whose coefficients are symmetric functions:
    the constructor refuses any coefficient that is not a SymF.  In +, -
    and * a SymF operand stands at t^0 r^0, and * also takes a rational
    scalar; any other operand is refused."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for (a, b), f in (terms or {}).items():
            if not isinstance(f, SymF):
                raise TypeError(f"coefficient of t^{a} r^{b} is not a SymF: {f!r}")
            if not f.is_zero():
                self.terms[(a, b)] = f

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def wrap(cls, f, t=0, r=0):
        return cls({(t, r): f})

    def coefficient(self, t=0, r=0):
        return self.terms.get((t, r), SymF.zero())

    def t_support(self):
        return sorted({a for (a, _) in self.terms})

    @staticmethod
    def _operand(other):
        """other as a SymPoly, a SymF at t^0 r^0; None for any other type."""
        if isinstance(other, SymPoly):
            return other
        if isinstance(other, SymF):
            return SymPoly.wrap(other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, f in other.terms.items():
            _addsym(out, k, f)
        return SymPoly(out)

    def __radd__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other + self

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + other.scale(-1)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return SymPoly({k: f * c for k, f in self.terms.items()})

    def shift(self, t=0, r=0):
        """Multiply by t^t r^r."""
        return SymPoly({(a + t, b + r): f for (a, b), f in self.terms.items()})

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = {}
        for (a1, b1), f1 in self.terms.items():
            for (a2, b2), f2 in other.terms.items():
                _addsym(out, (a1 + a2, b1 + b2), f1 * f2)
        return SymPoly(out)

    __rmul__ = __mul__

    def to_basis(self, basis):
        return SymPoly({k: f.to_basis(basis) for k, f in self.terms.items()})

    def __eq__(self, other):
        """Coefficientwise: the same (t, r) support, then SymF equality at
        each, a dict comparison where the bases match and through m only
        where they differ.  No zero coefficient is stored, so this is
        equality of the polynomials."""
        if not isinstance(other, SymPoly):
            return NotImplemented
        theirs = other.terms
        return (self.terms.keys() == theirs.keys()
                and all(f == theirs[k] for k, f in self.terms.items()))

    def __repr__(self):
        bits = [f"t^{a} r^{b}: {f.render()}" for (a, b), f in sorted(self.terms.items())]
        return "SymPoly(" + "; ".join(bits) + ")"


# ---------------------------------------------------------------------------
# class functions: the value chi_f(mu) = z_mu [p_mu] f, an integer for a
# virtual character.  A graded class function maps (t, r) exponents to a
# dict mu -> value, as SymPoly.terms maps them to a SymF.
# ---------------------------------------------------------------------------

def class_values(f):
    """{mu: chi_f(mu)} for a SymF f, read through s except from p."""
    if f.basis == "p":
        return {mu: c * mu.z() for mu, c in f.terms.items()}
    out = {}
    for n, vec in _by_degree(_to_s(f.basis, f.terms)).items():
        out.update(_column_dots(_border_strips, n, vec))
    return out


def from_class_values(values, basis):
    """The SymF in basis with class values {mu: chi_f(mu)}: in p each value
    divided by z_mu, in any other basis through s (_class_to_s)."""
    if basis == "p":
        return SymF("p", {mu: _exact(c, mu.z()) for mu, c in values.items()})
    return SymF(basis, _from_s(_class_to_s(values), basis))


@lru_cache(maxsize=None)
def _induction(mu, nu):
    """(mu u nu, z_{mu u nu} / (z_mu z_nu)): p_mu p_nu = p_{mu u nu}, so
    a product's class value at mu u nu takes this integer weight, a product
    of binomials in the multiplicities."""
    lam = mu.concat(nu)
    return lam, lam.z() // (mu.z() * nu.z())


def class_mul(f, g):
    """The product of two graded class functions: an induction from the
    Young subgroup, exponents adding."""
    out = {}
    for (a1, b1), x in f.items():
        for (a2, b2), y in g.items():
            acc = out.setdefault((a1 + a2, b1 + b2), {})
            for mu, u in x.items():
                for nu, v in y.items():
                    lam, w = _induction(mu, nu)
                    _addto(acc, lam, w * u * v)
    return {key: acc for key, acc in out.items() if acc}


def _adams(g, k):
    """p_k[g] for a graded class function g: mu goes to k mu and the value
    gains k^l(mu), since z_{k mu} = k^l(mu) z_mu; t and r go to t^k, r^k."""
    return {(a * k, b * k): {Partition(x * k for x in mu): v * k ** len(mu)
                             for mu, v in x.items()}
            for (a, b), x in g.items()}


def class_plethysm_h(m, g):
    """h_m[g] for a graded class function g, with t and r as monomial
    weights: (1/m!) sum over nu of (m!/z_nu) prod_i p_{nu_i}[g], one exact
    division by m! per value."""
    top = factorial(m)
    adams = {k: _adams(g, k) for k in range(1, m + 1)}
    total = {}
    for nu in partitions(m):
        prod = {(0, 0): {Partition(): top // nu.z()}}
        for part in nu:
            prod = class_mul(prod, adams[part])
        for key, x in prod.items():
            acc = total.setdefault(key, {})
            for mu, v in x.items():
                _addto(acc, mu, v)
    return {key: {mu: _exact(v, top) for mu, v in acc.items()}
            for key, acc in total.items() if acc}


# ---------------------------------------------------------------------------
# plethysm with h_m and restriction
# ---------------------------------------------------------------------------

def plethysm_h(m, f):
    """h_m[f] for f a SymF or SymPoly; t and r act as monomial weights.

    Computed on class values (class_plethysm_h); a SymF comes back in its
    own basis, a SymPoly in p.
    """
    if isinstance(f, SymF):
        values = class_plethysm_h(m, {(0, 0): class_values(f)}).get((0, 0), {})
        return from_class_values(values, f.basis)
    g = {key: class_values(x) for key, x in f.terms.items()}
    return SymPoly({key: from_class_values(x, "p")
                    for key, x in class_plethysm_h(m, g).items()})


def restrict_frobenius(f):
    """Frobenius characteristic of restriction to the next smaller symmetric
    group: the derivation d/dp_1, which in the h basis sends h_mu to the sum
    over i of h_{mu - e_i}, mu with its part mu_i lowered by one.

    Requires homogeneous input of positive degree.
    """
    if not f.is_homogeneous() or f.is_zero():
        raise ValueError("restriction needs a nonzero homogeneous input")
    if f.degree() == 0:
        raise ValueError("cannot restrict a constant")
    out = {}
    for mu, c in f.to_basis("h").terms.items():
        for part, m in mu.multiplicities().items():
            lowered = list(mu)
            lowered[lowered.index(part)] -= 1
            _addto(out, Partition(x for x in lowered if x), c * m)
    return SymF("h", out).to_basis(f.basis)
