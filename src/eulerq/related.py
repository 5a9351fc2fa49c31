"""Companion combinatorial models for the fixed-excedance families.

Three models are implemented, each with a monomial enumerator in x_1..x_N:

  * multiset derangements: 2 x n arrays with weakly increasing top row,
    rearranged bottom row, and no repeated column; graded by excedance
    (columns where the bottom entry is larger).  The grade-j enumerator
    equals omega applied to the derangement slice Q(n, j, 0).
  * words with no adjacent repeats, graded by descent number; the grade-j
    enumerator equals omega applied to Q(n, j).
  * words with no double descents and no final descent (optionally none at
    the start either), weighted by t^des (1+t)^(n-1-2 des); their generating
    function reproduces sum_j Q(n, j) t^j without any omega twist.

The models are enumerated directly and read nothing of the Q family; the
related suite in `suites` checks them against it.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from math import comb
from types import MappingProxyType

from .symfunc import MonExpansion, _rearrangements


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


WORD_CONSTRAINTS = ("no_adjacent_repeat", "no_double_descent_last",
                    "no_double_descent_first_last")


class ConstrainedWord:
    """A word over the positive integers together with a constraint tag.

    no_adjacent_repeat bans w(i) = w(i+1); the other two tags ban descents
    in adjacent positions and in the last position, the stricter one also in
    the first position.
    """

    __slots__ = ("word", "constraint")

    def __init__(self, word, constraint):
        word = tuple(word)
        if constraint not in WORD_CONSTRAINTS:
            raise ValueError(f"unknown constraint {constraint!r}")
        if any(x < 1 for x in word):
            raise ValueError("letters must be positive")
        if not _word_ok(word, constraint):
            raise ValueError(f"word {word} violates {constraint}")
        self.word = word
        self.constraint = constraint

    @property
    def n(self):
        return len(self.word)

    def des(self):
        return sum(1 for i in range(len(self.word) - 1)
                   if self.word[i] > self.word[i + 1])

    def monomial(self, N):
        e = [0] * N
        for v in self.word:
            e[v - 1] += 1
        return tuple(e)

    def __repr__(self):
        return f"ConstrainedWord({self.word}, {self.constraint!r})"


def _word_ok(word, constraint):
    n = len(word)
    steps = [word[i] > word[i + 1] for i in range(n - 1)]
    if constraint == "no_adjacent_repeat":
        return all(word[i] != word[i + 1] for i in range(n - 1))
    if any(a and b for a, b in zip(steps, steps[1:])):
        return False
    if steps and steps[-1]:
        return False
    if constraint == "no_double_descent_first_last" and steps and steps[0]:
        return False
    return True


@lru_cache(maxsize=None)
def _table(tdict, *args):
    """tdict(*args), one of the graded enumerators below ({grade:
    MonExpansion}), built once per enumerator and arguments and shared
    read-only: every grade is read from it."""
    return MappingProxyType(tdict(*args))


# ---------------------------------------------------------------------------
# multiset derangements
# ---------------------------------------------------------------------------

def _profile_rearrangements(profile):
    """Yield bottom rows (values 0..k-1) over a sorted top row with the given
    multiplicity profile, every column distinct."""
    top = tuple(v for v, m in enumerate(profile) for _ in range(m))
    n = len(top)
    rem = list(profile)
    cur = [0] * n

    def rec(s):
        if s == n:
            yield tuple(cur)
            return
        for v in range(len(profile)):
            if rem[v] and v != top[s]:
                rem[v] -= 1
                cur[s] = v
                yield from rec(s + 1)
                rem[v] += 1

    yield from rec(0)


@lru_cache(maxsize=None)
def _rearrangement_exc_counts(profile):
    """Excedance distribution of column-distinct rearrangements; only the
    multiplicity profile of the top row matters, not the letter values."""
    top = tuple(v for v, m in enumerate(profile) for _ in range(m))
    out = {}
    for bottom in _profile_rearrangements(profile):
        j = sum(1 for s, v in enumerate(bottom) if v > top[s])
        out[j] = out.get(j, 0) + 1
    return out


def _content_profile(content):
    return tuple(len(list(g)) for _, g in groupby(content))


def multiset_derangements(n, N):
    """All multiset derangements of order n with entries at most N, listed
    apart from the counting kernel _profile_rearrangements."""
    for content in combinations_with_replacement(range(1, N + 1), n):
        for bottom in _rearrangements(content):
            if all(a != b for a, b in zip(content, bottom)):
                yield MultisetDerangement(content, bottom)


def derangements_tdict(n, N):
    """Excedance-graded enumerator of multiset derangements of order n with
    entries at most N: a dict {exc: MonExpansion}, from one walk over the
    contents."""
    if n == 0:
        return {0: MonExpansion.one(N)}
    out = {}
    for content in combinations_with_replacement(range(1, N + 1), n):
        e = [0] * N
        for v in content:
            e[v - 1] += 1
        e = tuple(e)
        for j, c in _rearrangement_exc_counts(_content_profile(content)).items():
            out.setdefault(j, {})[e] = c
    return {j: MonExpansion(N, terms) for j, terms in sorted(out.items())}


def d_poly(n, j, N) -> MonExpansion:
    """Enumerator of multiset derangements of order n with j excedances and
    entries at most N, as a monomial expansion in x_1..x_N: grade j of the
    table that one walk over the contents builds per (n, N)."""
    return _table(derangements_tdict, n, N).get(j, MonExpansion.zero(N))


# ---------------------------------------------------------------------------
# words with no adjacent repeats
# ---------------------------------------------------------------------------

def words_no_repeat_tdict(n, N):
    """Descent-graded enumerator of length-n words over 1..N with no equal
    adjacent letters: a dict {des: MonExpansion}."""
    if n == 0:
        return {0: MonExpansion.one(N)}
    out = {}
    evec = [0] * N

    def rec(s, prev, des):
        if s == n:
            grade = out.setdefault(des, {})
            key = tuple(evec)
            grade[key] = grade.get(key, 0) + 1
            return
        for c in range(1, N + 1):
            if c == prev:
                continue
            evec[c - 1] += 1
            rec(s + 1, c, des + (1 if prev is not None and prev > c else 0))
            evec[c - 1] -= 1

    rec(0, None, 0)
    return {j: MonExpansion(N, terms) for j, terms in out.items()}


def y_poly(n, j, N) -> MonExpansion:
    """Enumerator of no-adjacent-repeat words of length n with j descents and
    letters at most N: grade j of the word table, which one enumeration
    builds per (n, N)."""
    return _table(words_no_repeat_tdict, n, N).get(j, MonExpansion.zero(N))


# ---------------------------------------------------------------------------
# words with no double descents
# ---------------------------------------------------------------------------

def no_double_descent_tdict(n, N, guard_first=False):
    """The t-weighted enumerator of length-n words over 1..N with no double
    descents and no final descent, as {t-power: MonExpansion}.

    Each word contributes t^des (1+t)^(n-1-2 des), binomially expanded; with
    guard_first the first descent is banned too and the weight tightens to
    t^(des+1) (1+t)^(n-2-2 des).  Length 0 contributes 1; with guard_first
    length 1 contributes nothing (the tightened weight has no room).
    """
    if n == 0:
        return {0: MonExpansion.one(N)}
    if guard_first and n == 1:
        return {}
    out = {}
    evec = [0] * N

    def emit(des):
        span = n - 1 - 2 * des - (1 if guard_first else 0)
        lead = des + (1 if guard_first else 0)
        key = tuple(evec)
        for i in range(span + 1):
            grade = out.setdefault(lead + i, {})
            grade[key] = grade.get(key, 0) + comb(span, i)

    def rec(s, prev, prev_desc, des):
        if s == n:
            if not prev_desc:
                emit(des)
            return
        for c in range(1, N + 1):
            desc = prev is not None and prev > c
            if desc and prev_desc:
                continue
            if desc and guard_first and s == 1:
                continue
            evec[c - 1] += 1
            rec(s + 1, c, desc, des + (1 if desc else 0))
            evec[c - 1] -= 1

    rec(0, None, False, 0)
    return {j: MonExpansion(N, terms) for j, terms in out.items()}
