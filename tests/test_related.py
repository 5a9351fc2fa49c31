"""Multiset derangements and word enumerators tied to the Q family."""

from collections import Counter
from itertools import permutations
from math import comb

import pytest

from eulerq import (
    MonExpansion,
    MultisetDerangement,
    Partition,
    SymF,
    d_poly,
    multiset_derangements,
    partitions,
    q_symf,
    verify_related,
    y_poly,
)
from eulerq import cli, related
from eulerq.related import (
    derangement_counts,
    no_double_descent_counts,
    no_repeat_counts,
)
from eulerq.suites import DERANGEMENT_COUNTS


def test_multiset_derangement_basics():
    d = MultisetDerangement((1, 1, 2, 2), (2, 2, 1, 1))
    assert d.n == 4
    assert d.exc() == 2
    assert d.monomial(2) == (2, 2)
    with pytest.raises(ValueError):
        MultisetDerangement((2, 1), (1, 2))  # top must weakly increase
    with pytest.raises(ValueError):
        MultisetDerangement((1, 2), (1, 2))  # equal column
    with pytest.raises(ValueError):
        MultisetDerangement((1, 2), (2, 2))  # bottom not a rearrangement


def test_smallest_cases():
    assert d_poly(0, 0, 2) == MonExpansion.one(2)
    assert d_poly(1, 0, 2).is_zero()
    assert d_poly(2, 1, 2) == MonExpansion(2, {(1, 1): 1})
    assert d_poly(2, 0, 2).is_zero()
    assert y_poly(1, 0, 3) == MonExpansion(3, {(1, 0, 0): 1, (0, 1, 0): 1,
                                               (0, 0, 1): 1})
    assert y_poly(0, 0, 2) == MonExpansion.one(2)


def test_enumeration_matches_counting_kernel():
    for n in range(0, 5):
        seen = {}
        for d in multiset_derangements(n, 3):
            j = d.exc()
            seen[j] = seen.get(j, MonExpansion.zero(3)) + MonExpansion(
                3, {d.monomial(3): 1})
        for j in range(n + 1):
            assert seen.get(j, MonExpansion.zero(3)) == d_poly(n, j, 3)


def test_distinct_top_reduces_to_classical_derangements():
    for n in range(0, 7):
        got = sum(1 for d in multiset_derangements(n, n)
                  if len(set(d.top)) == n)
        assert got == DERANGEMENT_COUNTS[n]


def test_omega_bridges():
    # both enumerators are omega images of Q slices
    for n in range(0, 5):
        for j in range(n + 1):
            qd = q_symf(n, j, 0).omega().to_monomial(n) if n else \
                MonExpansion.one(0)
            assert d_poly(n, j, n) == qd
            qy = q_symf(n, j).omega().to_monomial(n) if n else \
                MonExpansion.one(0)
            assert y_poly(n, j, n) == qy


def test_no_repeat_words_des_distribution():
    # over two letters the only length-3 words are 121 and 212
    assert [j for j in range(4) if not y_poly(3, j, 2).is_zero()] == [1]
    assert y_poly(3, 1, 2) == MonExpansion(2, {(2, 1): 1, (1, 2): 1})
    # length-2 words over three letters: all ordered pairs of distinct values
    total = sum((y_poly(2, j, 3) for j in range(3)), MonExpansion.zero(3))
    assert total == MonExpansion(3, {(1, 1, 0): 2, (1, 0, 1): 2, (0, 1, 1): 2})


# ---------------------------------------------------------------------------
# brute-force references: every word or array of a content, listed
# ---------------------------------------------------------------------------

def compositions(n):
    """Every composition of n, as a tuple of positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def words_of(content):
    """Every word with content[i] copies of the letter i."""
    return set(permutations([c for c, r in enumerate(content) for _ in range(r)]))


def descents(w):
    return [a > b for a, b in zip(w, w[1:])]


def listed_derangements(content):
    top = sorted(c for c, r in enumerate(content) for _ in range(r))
    return Counter(sum(b > a for a, b in zip(top, w)) for w in words_of(content)
                   if all(a != b for a, b in zip(top, w)))


def listed_no_repeat_words(content):
    return Counter(sum(descents(w)) for w in words_of(content)
                   if all(a != b for a, b in zip(w, w[1:])))


def listed_no_double_descent_words(content, guard_first):
    n = sum(content)
    if n == 0:
        return Counter({0: 1})
    out = Counter()
    for w in words_of(content):
        steps = descents(w)
        if (any(a and b for a, b in zip(steps, steps[1:])) or (steps and steps[-1])
                or (guard_first and (n == 1 or steps[0]))):
            continue
        des = sum(steps)
        span = n - 1 - 2 * des - guard_first
        for i in range(span + 1):
            out[des + guard_first + i] += comb(span, i)
    return out


@pytest.mark.parametrize("n", range(7))
def test_counts_by_content_match_the_listed_objects(n):
    """At every composition of n, each count by content gives, grade by
    grade, what listing the arrays or words of that content gives."""
    for content in compositions(n):
        assert derangement_counts(content) == dict(listed_derangements(content)), content
        assert no_repeat_counts(content) == dict(listed_no_repeat_words(content)), content
        for guard_first in (False, True):
            assert (no_double_descent_counts(content, guard_first)
                    == dict(listed_no_double_descent_words(content, guard_first))), \
                (content, guard_first)


def test_verify_related_small():
    rep = verify_related(4, 3)
    assert rep.ok, rep.failures()


def test_related_registry():
    """The related suite closes the suite table and is selectable by name."""
    assert cli.SUITES[-1].name == "related"
    assert [name for name, _ in cli.selected_entries("related", "ci", 0)] == ["related"]


COUNTS = ("derangement_counts", "no_repeat_counts", "no_double_descent_counts")
KERNELS = ("_table", "_bottom_rows", "_no_repeat_words", "_no_double_descent_words")


@pytest.fixture
def cold_tables():
    for name in KERNELS:
        getattr(related, name).cache_clear()
    yield
    for name in KERNELS:
        getattr(related, name).cache_clear()


def test_each_model_table_is_built_once(cold_tables, monkeypatch):
    """verify_related reads every grade of a model from one table per order
    and arguments: each content is counted once, not once per grade."""
    calls = {}
    for name in COUNTS:
        original = getattr(related, name)
        counter = calls[name] = Counter()

        def counted(content, *args, original=original, counter=counter):
            counter[(tuple(content),) + args] += 1
            return original(content, *args)

        # verify_related imports the counts from related when it runs
        monkeypatch.setattr(related, name, counted)
    assert verify_related(5, 4).ok
    for name, counter in calls.items():
        assert counter and max(counter.values()) == 1, (name, counter)
    every = {(tuple(lam),) for n in range(1, 6) for lam in partitions(n)}
    assert every <= set(calls["derangement_counts"])
    assert every <= set(calls["no_repeat_counts"])
    assert every <= set(calls["no_double_descent_counts"])
    assert ({(tuple(lam), True) for n in range(1, 5) for lam in partitions(n)}
            <= set(calls["no_double_descent_counts"]))


def test_array_enumeration_is_checked_apart_from_the_counting_kernel(cold_tables, monkeypatch):
    """A count that drops every bottom row starting with the largest letter
    fails the record that compares it with the listed arrays, at each order
    where such a row exists."""
    original = related._bottom_rows
    first_column = []

    def dropping(top, rem):
        if first_column or not top:
            return original(top, rem)
        # the outermost call fills the first column: every letter left but
        # the largest, len(rem) - 1, as the count itself would
        first_column.append(top[0])
        try:
            out = Counter()
            for c in range(len(rem) - 1):
                if rem[c] and c != top[0]:
                    for j, v in original(top[1:], related._take(rem, c)).items():
                        out[j + (c > top[0])] += v
            return dict(out)
        finally:
            first_column.pop()

    monkeypatch.setattr(related, "_bottom_rows", dropping)
    failing = {c.params["n"] for c in verify_related(4, 3).failures()
               if c.identity == "array enumeration matches counting kernel"}
    assert failing == {2, 3, 4}


def test_model_tables_are_read_only(cold_tables):
    table = related._table(no_repeat_counts, 3)
    with pytest.raises(TypeError):
        table[0] = {}
    with pytest.raises(TypeError):
        table[1][Partition([2, 1])] = 0
    for counts, args in [(no_repeat_counts, ()), (derangement_counts, ()),
                         (no_double_descent_counts, ()), (no_double_descent_counts, (True,))]:
        for n in range(6):
            assert related._table(counts, n, *args) == related._table.__wrapped__(counts, n, *args)
    assert related._table(derangement_counts, 0) == {0: {(): 1}}
    assert related._table(no_double_descent_counts, 1, True) == {}
    for j in range(5):
        assert y_poly(4, j, 4) == SymF("m", related._table(no_repeat_counts, 4).get(j, {})).to_monomial(4)
        assert d_poly(4, j, 4) == SymF("m", related._table(derangement_counts, 4).get(j, {})).to_monomial(4)
