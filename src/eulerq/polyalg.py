"""Exact sparse polynomial, polynomial fraction, and truncated series arithmetic.

Everything here is exact: coefficients are Python integers (or Fractions where
rational scalars enter), exponents are machine integers that may be negative,
so the same class covers Laurent polynomials. The variable set is fixed to
(q, p, t, r); a distinguished series variable (z or p) lives at the series
level, never inside a coefficient.  Polynomials in q alone also have a dense
form, integer coefficient lists (the qlist_* functions), which the principal
specializations use.
"""
import sys
from functools import lru_cache
from math import comb


def _is_scalar(x):
    """x is an exact scalar: an int (bool included) or a Fraction, of any
    subclass.  float, Decimal and str are not.  A Fraction exists only once
    `fractions` is loaded, so its class is read from sys.modules, and a
    launch that builds none never imports it."""
    if isinstance(x, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _fraction(*args):
    """Fraction(*args).  `fractions` (and the `decimal` it loads) is imported
    here on first use, so a launch that stays in the integers loads neither."""
    from fractions import Fraction
    return Fraction(*args)


VARS = ("q", "p", "t", "r")
_VIDX = {v: i for i, v in enumerate(VARS)}
_ZERO4 = (0, 0, 0, 0)


def _exps(q=0, p=0, t=0, r=0):
    return (q, p, t, r)


class Poly:
    """Sparse polynomial in q, p, t, r with exact coefficients.

    terms maps exponent 4-tuples to nonzero coefficients. Exponents may be
    negative (Laurent usage, e.g. substituting q -> 1/q).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({_ZERO4: c}) if c else cls()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def var(cls, name, e=1):
        exps = [0, 0, 0, 0]
        exps[_VIDX[name]] = e
        return cls({tuple(exps): 1})

    @classmethod
    def term(cls, coeff, q=0, p=0, t=0, r=0):
        return cls({_exps(q, p, t, r): coeff}) if coeff else cls()

    # -- predicates ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {_ZERO4: 1}

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            other = Poly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly) and not _is_scalar(other):
            return NotImplemented
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            return Poly({e: c * other for e, c in self.terms.items()}) if other else Poly()
        out = {}
        get = out.get
        right = list(other.terms.items())
        for (a0, a1, a2, a3), c1 in self.terms.items():
            for (b0, b1, b2, b3), c2 in right:
                e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                out[e] = get(e, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            inv = self.monomial_inverse()
            return inv ** (-k)
        result = Poly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def monomial_inverse(self):
        if len(self.terms) != 1:
            raise ValueError(f"only monomials are invertible: {self}")
        ((e, c),) = self.terms.items()
        if c in (1, -1):
            inv_c = c
        else:
            inv_c = _fraction(1) / c
        return Poly({tuple(-x for x in e): inv_c})

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        return _is_scalar(other) and self.terms == Poly.const(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries ---------------------------------------------------------
    def degree(self, name):
        i = _VIDX[name]
        return max((e[i] for e in self.terms), default=0)

    def coefficient(self, name, power):
        """Coefficient of name**power, as a Poly in the remaining variables."""
        i = _VIDX[name]
        out = {}
        for e, c in self.terms.items():
            if e[i] == power:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return Poly(out)

    def coefficients_in(self, name):
        """dict power -> Poly coefficient, covering the support in name."""
        i = _VIDX[name]
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i] = 0
            out.setdefault(e[i], {})[tuple(e2)] = c
        return {k: Poly(v) for k, v in sorted(out.items())}

    def substitute(self, **rules):
        """Substitute variables by monomials, exactly.

        Each replacement must be a monomial or 0 (an int or Fraction counts as
        a constant monomial); anything with more than one term raises
        ValueError.  A negative exponent divides by the replacement, so a
        coefficient other than +-1 gives Fraction coefficients, and 0 raises
        ValueError there (e.g. q -> 1/q, p -> q**n * p, t -> 1).
        """
        keep = [1, 1, 1, 1]
        repl = []
        for name, val in rules.items():
            if name not in _VIDX:
                raise ValueError(f"unknown variable {name!r}")
            val = _coerce(val)
            if len(val.terms) > 1:
                raise ValueError(f"substitute needs a monomial for {name}, not {val}")
            ((mono, mc),) = val.terms.items() or ((_ZERO4, 0),)
            keep[_VIDX[name]] = 0
            repl.append((_VIDX[name], mono, mc))
        out = {}
        for e, c in self.terms.items():
            exps = [x * m for x, m in zip(e, keep)]
            for i, mono, mc in repl:
                k = e[i]
                if not k:
                    continue
                if k > 0:
                    c = c * mc**k
                elif not mc:
                    raise ValueError(f"cannot substitute 0 for {VARS[i]}^{k}")
                else:
                    c = c * (mc**-k if mc in (1, -1) else _fraction(1) / mc**-k)
                exps = [x + k * y for x, y in zip(exps, mono)]
            if c:
                key = tuple(exps)
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Poly(out)

    # -- rendering ---------------------------------------------------------
    def render(self):
        """Canonical text form, terms in ascending graded-lex exponent order."""
        return _join_signed([
            _term_body(self.terms[e], "*".join(
                f"{VARS[i]}^{e[i]}" if e[i] != 1 else VARS[i] for i in range(4) if e[i]))
            for e in sorted(self.terms, key=lambda e: (sum(e), e))
        ])

    __str__ = render

    def __repr__(self):
        return f"Poly({self.render()})"


def _coerce(x):
    if isinstance(x, Poly):
        return x
    if _is_scalar(x):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {x!r} to Poly")


Q = Poly.var("q")
P = Poly.var("p")
T = Poly.var("t")
R = Poly.var("r")


def _term_body(c, mono):
    """The text of c times a monomial written mono ("" for 1)."""
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def _join_signed(bodies):
    """Term bodies (each with its own leading "-" if negative) joined as
    `a + b - c`; "0" for no terms.  _signed_chunks reads it back."""
    if not bodies:
        return "0"
    return " ".join([bodies[0], *(f"- {b[1:]}" if b.startswith("-") else f"+ {b}"
                                  for b in bodies[1:])])


def _signed_chunks(text):
    """The (sign, body) pairs, sign 1 or -1, of a sum written as _join_signed
    writes it ("0" reads as one zero term)."""
    for chunk in text.replace("- ", "+ -").replace("+ ", "+").split("+"):
        chunk = chunk.strip()
        if chunk.startswith("-"):
            yield -1, chunk[1:]
        elif chunk:
            yield 1, chunk


def parse_poly(text):
    """Inverse of Poly.render."""
    out = Poly()
    for sign, chunk in _signed_chunks(text):
        coeff = 1
        exps = [0, 0, 0, 0]
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor[0].isdigit() or factor[0] == "-":
                coeff = int(factor) if "/" not in factor else _fraction(factor)
            else:
                name, _, e = factor.partition("^")
                exps[_VIDX[name]] += int(e) if e else 1
        out = out + Poly({tuple(exps): sign * coeff})
    return out


# ---------------------------------------------------------------------------
# q-analogs
# ---------------------------------------------------------------------------

def q_int(n):
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    return Poly({(i, 0, 0, 0): 1 for i in range(n)})


def q_factorial(n):
    """[n]_q! with [0]_q! = 1 (see qlist_factorial)."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    return qlist_to_poly(qlist_factorial(n))


@lru_cache(maxsize=None)
def q_binomial(n, k):
    """Gaussian binomial [n choose k]_q (see qlist_binomial)."""
    return qlist_to_poly(qlist_binomial(n, k))


def q_multinomial(n, ks):
    """[n choose k_1, ..., k_m]_q as a product of Gaussian binomials."""
    ks = tuple(ks)
    if any(k < 0 for k in ks) or sum(ks) != n:
        raise ValueError(f"multinomial parts {ks!r} must be nonnegative and sum to {n}")
    out = Poly.one()
    acc = 0
    for k in ks:
        acc += k
        out = out * q_binomial(acc, k)
    return out


def pochhammer(a, n):
    """(a; q)_n = prod_{i=0}^{n-1} (1 - a q^i) for a polynomial argument a."""
    a = _coerce(a)
    out = Poly.one()
    for i in range(n):
        out = out * (Poly.one() - a * Poly.var("q", i))
    return out


# Polynomials in q alone as coefficient lists: index i holds the coefficient
# of q^i.  The principal specializations (QSymF.ps_at and ps_stable) run on
# these, and the specialization suites on them or on them packed into
# integers by qlist_pack (QSymF.ps_packed), with no dict per term.  Cached
# values are tuples and accumulators are lists.  A list may end in zeros, so
# compare two of them through qlist_to_poly, which drops zero coefficients,
# or packed, which ignores them; qlist_unpack reads a packed one back
# without them.

def qlist_add(acc, a, shift=0, coeff=1):
    """acc += coeff q^shift a, in place; returns acc."""
    if len(acc) < shift + len(a):
        acc.extend([0] * (shift + len(a) - len(acc)))
    for i, c in enumerate(a, shift):
        if c:
            acc[i] += coeff * c
    return acc


def qlist_mul(a, b):
    """The product of two coefficient lists, as a new list."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def qlist_to_poly(a):
    """The Poly in q with coefficient list a."""
    return Poly({(i, 0, 0, 0): c for i, c in enumerate(a) if c})


def qlist_from_poly(a):
    """The coefficient list of a Poly in q alone, the inverse of qlist_to_poly.
    A term in p, t or r, a negative power of q or a coefficient that is not
    an int raises ValueError: none of them has a place in the list."""
    out = []
    for e, c in a.terms.items():
        i = e[0]
        if e[1:] != (0, 0, 0) or i < 0 or not isinstance(c, int):
            raise ValueError(f"not an integer polynomial in q alone: {a}")
        if len(out) <= i:
            out.extend([0] * (i + 1 - len(out)))
        out[i] = c
    return out


def qlist_norm(a):
    """The L1 norm sum |a_i|: no coefficient of a b exceeds it times the
    largest |b_i|."""
    return sum(map(abs, a))


def qlist_pack(a, w):
    """The integer sum_i a_i 2^(w i), a evaluated at q = 2^w (Kronecker
    substitution).  When every coefficient of two lists is below 2^(w-1) in
    absolute value, they pack to the same integer exactly when they agree up
    to trailing zeros, and a product of packed lists packs their product as
    long as its coefficients stay under that bound."""
    v = 0
    for c in reversed(a):
        v = (v << w) + c
    return v


def qlist_unpack(v, w):
    """The coefficient list a, with no trailing zeros, that qlist_pack packs
    to v at width w when every a_i is below 2^(w-1) in absolute value: the
    base-2^w digits of v, each taken in (-2^(w-1), 2^(w-1))."""
    out = []
    full, half = 1 << w, 1 << (w - 1)
    while v:
        c = v & (full - 1)
        if c >= half:
            c -= full
        out.append(c)
        v = (v - c) >> w
    return out


@lru_cache(maxsize=None)
def qlist_binomial(n, k):
    """Gaussian binomial [n choose k]_q via the q-Pascal recurrence."""
    if k < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    return tuple(qlist_add(list(qlist_binomial(n - 1, k - 1)), qlist_binomial(n - 1, k), k))


@lru_cache(maxsize=None)
def qlist_factorial(n):
    """[n]_q! = [1]_q [2]_q .. [n]_q, with [0]_q! = 1."""
    if n <= 0:
        return (1,)
    return tuple(qlist_mul(qlist_factorial(n - 1), (1,) * n))


@lru_cache(maxsize=None)
def qlist_pochhammer(a, m):
    """(q^a; q)_m = prod_{i=0}^{m-1} (1 - q^(a+i)) for a >= 1."""
    if a < 1:
        raise ValueError("qlist_pochhammer needs a >= 1")
    if m == 0:
        return (1,)
    prev = qlist_pochhammer(a, m - 1)
    return tuple(qlist_add(list(prev), prev, a + m - 1, -1))


@lru_cache(maxsize=None)
def qlist_p_pochhammer(n):
    """The p-coefficients of (p; q)_{n+1}: by the q-binomial theorem,
    [p^b] is (-1)^b q^(b choose 2) [n+1 choose b]_q, for b = 0 .. n+1."""
    return tuple(tuple(qlist_add([], qlist_binomial(n + 1, b), comb(b, 2), (-1) ** b))
                 for b in range(n + 2))


# ---------------------------------------------------------------------------
# polynomial fractions
# ---------------------------------------------------------------------------

class PolyFraction:
    """A formal quotient of sparse polynomials.

    No gcd reduction is attempted beyond integer content; equality is decided
    by cross multiplication, which is exact and total.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = Poly.one() if den is None else _coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.one()
        self.num = num
        self.den = den

    def __add__(self, other):
        other = _coerce_frac(other)
        return PolyFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return PolyFraction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_coerce_frac(other))

    def __rsub__(self, other):
        return _coerce_frac(other) - self

    def __mul__(self, other):
        other = _coerce_frac(other)
        return PolyFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero fraction")
        return PolyFraction(self.den, self.num)

    def __truediv__(self, other):
        return self * _coerce_frac(other).inverse()

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        other = _coerce_frac(other)
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("PolyFraction is unhashable (equality is cross-multiplicative)")

    def __repr__(self):
        if self.den.is_one():
            return f"PolyFraction({self.num.render()})"
        return f"PolyFraction(({self.num.render()}) / ({self.den.render()}))"


def _coerce_frac(x):
    if isinstance(x, PolyFraction):
        return x
    if isinstance(x, Poly) or _is_scalar(x):
        return PolyFraction(_coerce(x))
    raise TypeError(f"cannot coerce {x!r} to PolyFraction")


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class TruncSeries:
    """Power series in one distinguished variable, truncated at a fixed order.

    Coefficients are Poly objects in the remaining variables (ints and
    Fractions are coerced); the distinguished variable must not occur inside
    a coefficient (checked when it is one of q, p, t, r).
    """

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var, order, coeffs):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = [_coerce(c) for c in coeffs]
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        coeffs += [Poly.zero()] * (order + 1 - len(coeffs))
        if var in _VIDX:
            i = _VIDX[var]
            for c in coeffs:
                if any(e[i] for e in c.terms):
                    raise ValueError(f"coefficient contains the series variable {var}")
        self.var = var
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, var, order):
        return cls(var, order, [])

    @classmethod
    def one(cls, var, order):
        return cls(var, order, [Poly.one()])

    def _align(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries(self.var, self.order, [other])
        if other.var != self.var:
            raise ValueError(f"series variable mismatch: {self.var} vs {other.var}")
        order = min(self.order, other.order)
        return other, order

    def coefficient(self, d):
        return self.coeffs[d]

    def __add__(self, other):
        other, order = self._align(other)
        return TruncSeries(self.var, order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other, order = self._align(other)
        return TruncSeries(self.var, order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncSeries(self.var, self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly) or _is_scalar(other):
            return TruncSeries(self.var, self.order, [c * other for c in self.coeffs])
        other, order = self._align(other)
        out = [Poly.zero() for _ in range(order + 1)]
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a.is_zero():
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncSeries(self.var, order, out)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse of a series whose constant term is +-1.

        Any other constant term is not a unit in the polynomials, so the
        inverse has no Poly coefficients and this raises ValueError; check an
        identity A = N / D as A D == N instead.
        """
        c0 = self.coeffs[0]
        if not (c0.is_one() or c0 == Poly.const(-1)):
            raise ValueError(
                f"constant term {c0.render()} is not +-1; the inverse has no Poly coefficients")
        sign = 1 if c0.is_one() else -1
        inv = [Poly.const(sign)]
        for m in range(1, self.order + 1):
            acc = Poly.zero()
            for k in range(1, m + 1):
                acc = acc + self.coeffs[k] * inv[m - k]
            inv.append(acc * (-sign))
        return TruncSeries(self.var, self.order, inv)

    def __eq__(self, other):
        other, order = self._align(other)
        return self.coeffs[: order + 1] == other.coeffs[: order + 1]

    def __repr__(self):
        body = ", ".join(f"{self.var}^{i}: {c!r}" for i, c in enumerate(self.coeffs))
        return f"TruncSeries({body})"


# ---------------------------------------------------------------------------
# q-exponential style series: sum c_n z^n / [n]_q!
# ---------------------------------------------------------------------------

class QExpSeries:
    """Series written against the q-divided-power basis z^n/[n]_q!.

    Multiplication is the q-binomial convolution
        (A B)_n = sum_k [n choose k]_q a_k b_{n-k}.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [_coerce(c) for c in coeffs]

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def geometric(cls, u, order):
        """exp_q of u*z in this encoding: c_n = u^n."""
        u = _coerce(u)
        return cls([u**n for n in range(order + 1)])

    @classmethod
    def exp_q(cls, order):
        return cls([Poly.one()] * (order + 1))

    def __add__(self, other):
        n = min(self.order, other.order)
        return QExpSeries([a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])])

    def __sub__(self, other):
        n = min(self.order, other.order)
        return QExpSeries([a - b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])])

    def __mul__(self, other):
        if isinstance(other, Poly) or _is_scalar(other):
            return QExpSeries([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        out = []
        for m in range(n + 1):
            acc = Poly.zero()
            for k in range(m + 1):
                acc = acc + q_binomial(m, k) * self.coeffs[k] * other.coeffs[m - k]
            out.append(acc)
        return QExpSeries(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __repr__(self):
        return f"QExpSeries({[c.render() for c in self.coeffs]})"
