"""Multiset derangements and word enumerators tied to the Q family."""

from collections import Counter

import pytest

from eulerq import (
    ConstrainedWord,
    MonExpansion,
    MultisetDerangement,
    d_poly,
    multiset_derangements,
    q_symf,
    verify_related,
    y_poly,
)
from eulerq import cli, related, suites
from eulerq.related import WORD_CONSTRAINTS, derangements_tdict, words_no_repeat_tdict
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


def test_constrained_word_basics():
    w = ConstrainedWord((1, 2, 1), "no_adjacent_repeat")
    assert w.des() == 1
    assert w.monomial(2) == (2, 1)
    with pytest.raises(ValueError):
        ConstrainedWord((1, 1, 2), "no_adjacent_repeat")
    with pytest.raises(ValueError):
        ConstrainedWord((1, 2), "unknown_tag")
    # equal adjacent letters are fine here; 3,1,2 has one isolated descent
    ConstrainedWord((1, 1, 2), "no_double_descent_last")
    ConstrainedWord((3, 1, 2), "no_double_descent_last")
    with pytest.raises(ValueError):
        ConstrainedWord((3, 2, 1, 1), "no_double_descent_last")  # double
    with pytest.raises(ValueError):
        ConstrainedWord((1, 3, 2), "no_double_descent_last")  # final descent
    with pytest.raises(ValueError):
        ConstrainedWord((2, 1, 3), "no_double_descent_first_last")
    assert set(WORD_CONSTRAINTS) == {
        "no_adjacent_repeat", "no_double_descent_last",
        "no_double_descent_first_last"}


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
    td = words_no_repeat_tdict(3, 2)
    assert sorted(td) == [1]
    assert td[1] == MonExpansion(2, {(2, 1): 1, (1, 2): 1})
    # length-2 words over three letters: all ordered pairs of distinct values
    total = sum(words_no_repeat_tdict(2, 3).values(), MonExpansion.zero(3))
    assert total == MonExpansion(3, {(1, 1, 0): 2, (1, 0, 1): 2, (0, 1, 1): 2})


def test_verify_related_small():
    rep = verify_related(4, 3)
    assert rep.ok, rep.failures()


def test_related_registry():
    """The related suite closes the suite table and is selectable by name."""
    assert cli.SUITES[-1].name == "related"
    assert [name for name, _ in cli.selected_entries("related", "ci", 0)] == ["related"]


BUILDERS = ("words_no_repeat_tdict", "derangements_tdict", "no_double_descent_tdict")


@pytest.fixture
def cold_tables():
    related._table.cache_clear()
    related._rearrangement_exc_counts.cache_clear()
    yield
    related._table.cache_clear()
    related._rearrangement_exc_counts.cache_clear()


def test_each_model_table_is_built_once(cold_tables, monkeypatch):
    """verify_related reads every grade of a model from one table per
    argument tuple: each enumeration runs once, not once per grade."""
    calls = {}
    for builder in BUILDERS:
        original = getattr(related, builder)
        counter = calls[builder] = Counter()

        def counted(*args, original=original, counter=counter):
            counter[args] += 1
            return original(*args)

        for module in (related, suites):
            monkeypatch.setattr(module, builder, counted)
    assert verify_related(5, 4).ok
    for builder, counter in calls.items():
        assert counter and max(counter.values()) == 1, (builder, counter)
    assert {(n, n) for n in range(1, 6)} <= set(calls["words_no_repeat_tdict"])
    assert {(n, n) for n in range(1, 6)} <= set(calls["derangements_tdict"])


def test_array_enumeration_is_checked_apart_from_the_counting_kernel(cold_tables, monkeypatch):
    """A counting kernel that drops every bottom row starting with the
    largest letter fails the record that compares it with the listed
    arrays, at each order where such a row exists."""
    original = related._profile_rearrangements

    def dropping(profile):
        return (b for b in original(profile) if not b or b[0] != len(profile) - 1)

    monkeypatch.setattr(related, "_profile_rearrangements", dropping)
    failing = {c.params["n"] for c in verify_related(4, 3).failures()
               if c.identity == "array enumeration matches counting kernel"}
    assert failing == {2, 3, 4}


def test_model_tables_are_read_only(cold_tables):
    table = related._table(words_no_repeat_tdict, 3, 2)
    with pytest.raises(TypeError):
        table[0] = MonExpansion.zero(2)
    assert table == words_no_repeat_tdict(3, 2)
    assert related._table(derangements_tdict, 4, 4) == derangements_tdict(4, 4)
    assert dict(related._table(derangements_tdict, 0, 3)) == {0: MonExpansion.one(3)}
    for j in range(5):
        assert y_poly(4, j, 4) == words_no_repeat_tdict(4, 4).get(j, MonExpansion.zero(4))
        assert d_poly(4, j, 4) == derangements_tdict(4, 4).get(j, MonExpansion.zero(4))
