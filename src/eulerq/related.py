"""Companion combinatorial models for the fixed-excedance families.

Three models are implemented, each counted by content: the coefficient of
m_lam in its enumerator counts the objects whose letters are lam_1 ones,
lam_2 twos, and so on.

  * multiset derangements: 2 x n arrays with weakly increasing top row,
    rearranged bottom row, and no repeated column; graded by excedance
    (columns where the bottom entry is larger).  The grade-j enumerator
    equals omega applied to the derangement slice Q(n, j, 0).
  * words with no adjacent repeats, graded by descent number; the grade-j
    enumerator equals omega applied to Q(n, j).
  * words with no double descents and no final descent (optionally none at
    the start either), weighted by t^des (1+t)^(n-1-2 des); their generating
    function reproduces sum_j Q(n, j) t^j without any omega twist.

Each model is counted by a memoised recursion over the remaining content,
the letter the next one is compared with (the last letter written, or for
the arrays the top entry of the next column) and, for the no-double-descent
words, whether the last step fell.  One cache serves every content, and the
recursion returns {grade: count} at any composition; `_table` reads it at
each partition of n.  The models read nothing of the Q family; the related
suite in `suites` checks them against it, and `multiset_derangements` lists
the arrays themselves, apart from the count.
"""

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from types import MappingProxyType

from .permstats import partitions
from .symfunc import MonExpansion, SymF, _rearrangements


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class MultisetDerangement:
    """A 2 x n array of positive integers: weakly increasing top row, a
    rearrangement of it below, and the two entries distinct in every column."""

    __slots__ = ("top", "bottom")

    def __init__(self, top, bottom):
        top = tuple(top)
        bottom = tuple(bottom)
        if any(x < 1 for x in top):
            raise ValueError("entries must be positive")
        if list(top) != sorted(top):
            raise ValueError("top row must be weakly increasing")
        if sorted(bottom) != list(top):
            raise ValueError("bottom row must rearrange the top row")
        if any(a == b for a, b in zip(top, bottom)):
            raise ValueError("columns must contain distinct entries")
        self.top = top
        self.bottom = bottom

    @property
    def n(self):
        return len(self.top)

    def exc(self):
        """Number of columns whose bottom entry exceeds the top entry."""
        return sum(1 for a, b in zip(self.top, self.bottom) if a < b)

    def monomial(self, N):
        """Exponent vector of x^D = prod_i x_{top_i} in N variables."""
        e = [0] * N
        for v in self.top:
            e[v - 1] += 1
        return tuple(e)

    def __repr__(self):
        return f"MultisetDerangement({self.top}, {self.bottom})"

    def __eq__(self, other):
        return (isinstance(other, MultisetDerangement)
                and self.top == other.top and self.bottom == other.bottom)

    def __hash__(self):
        return hash((self.top, self.bottom))


def multiset_derangements(n, N):
    """All multiset derangements of order n with entries at most N, listed
    apart from the count by content."""
    for content in combinations_with_replacement(range(1, N + 1), n):
        for bottom in _rearrangements(content):
            if all(a != b for a, b in zip(content, bottom)):
                yield MultisetDerangement(content, bottom)


# ---------------------------------------------------------------------------
# counting by content
# ---------------------------------------------------------------------------
#
# A content is a composition: content[i] copies of the letter i (0-based
# here, letter i + 1 of the models).  The memoised recursions return cached
# dicts; the entry points hand out copies.

def _take(rem, c):
    """The remaining content rem with one letter c used."""
    return rem[:c] + (rem[c] - 1,) + rem[c + 1:]


def _shift_into(out, counts, d):
    """Add the grade distribution counts, every grade raised by d, into out."""
    for j, v in counts.items():
        out[j + d] = out.get(j + d, 0) + v


@lru_cache(maxsize=None)
def _bottom_rows(top, rem):
    """{exc: count} of the bottom rows of content rem under the weakly
    increasing top row top with no column equal: the column under top[0]
    takes any other letter left, an excedance if it is the larger."""
    if not top:
        return {0: 1}
    a = top[0]
    out = {}
    for c, r in enumerate(rem):
        if r and c != a:
            _shift_into(out, _bottom_rows(top[1:], _take(rem, c)), c > a)
    return out


def derangement_counts(content):
    """{exc: count} of the multiset derangements whose top row has the given
    content, at any composition."""
    top = tuple(c for c, r in enumerate(content) for _ in range(r))
    return dict(_bottom_rows(top, tuple(content)))


@lru_cache(maxsize=None)
def _no_repeat_words(rem, last):
    """{des: count} of the words of content rem with no equal neighbours
    that may follow the letter last (-1 before the first letter)."""
    if not any(rem):
        return {0: 1}
    out = {}
    for c, r in enumerate(rem):
        if r and c != last:
            _shift_into(out, _no_repeat_words(_take(rem, c), c), c < last)
    return out


def no_repeat_counts(content):
    """{des: count} of the words of the given content with no equal
    neighbours."""
    return dict(_no_repeat_words(tuple(content), -1))


@lru_cache(maxsize=None)
def _no_double_descent_words(rem, last, fell):
    """{des: count} of the words of content rem that may follow the letter
    last with no double descent and no final descent, where fell says that
    the step into last was a descent."""
    if not any(rem):
        return {} if fell else {0: 1}
    out = {}
    for c, r in enumerate(rem):
        if r and not (fell and c < last):
            _shift_into(out, _no_double_descent_words(_take(rem, c), c, c < last), c < last)
    return out


def no_double_descent_counts(content, guard_first=False):
    """The t-weighted count of the words of the given content with no double
    descents and no final descent, as {t-power: count}.

    Each word contributes t^des (1+t)^(n-1-2 des), binomially expanded.
    With guard_first the words follow a letter above all of theirs, so the
    first step must not descend, and that extra descent tightens the weight
    to t^(des+1) (1+t)^(n-2-2 des).  Length 0 contributes 1; with
    guard_first length 1 contributes nothing (the tightened weight has no
    room).
    """
    n = sum(content)
    if not n:
        return {0: 1}
    out = {}
    start = len(content) if guard_first else -1
    for d, v in _no_double_descent_words(tuple(content), start, False).items():
        span = n - 1 - 2 * d + guard_first
        for i in range(span + 1):
            out[d + i] = out.get(d + i, 0) + v * comb(span, i)
    return out


@lru_cache(maxsize=None)
def _table(counts, n, *args):
    """The m coefficients of a model at order n, {grade: {lam: count}}, read
    from counts(lam, *args) at each partition lam of n: built once per
    model, order and arguments, and shared read-only."""
    out = {}
    for lam in partitions(n):
        for j, c in counts(lam, *args).items():
            out.setdefault(j, {})[lam] = c
    return MappingProxyType({j: MappingProxyType(m) for j, m in sorted(out.items())})


def d_poly(n, j, N) -> MonExpansion:
    """Enumerator of multiset derangements of order n with j excedances and
    entries at most N, as a monomial expansion in x_1..x_N: grade j of the
    derangement table at n."""
    return SymF("m", _table(derangement_counts, n).get(j, {})).to_monomial(N)


def y_poly(n, j, N) -> MonExpansion:
    """Enumerator of no-adjacent-repeat words of length n with j descents and
    letters at most N: grade j of the word table at n."""
    return SymF("m", _table(no_repeat_counts, n).get(j, {})).to_monomial(N)
