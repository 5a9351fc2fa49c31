"""The integer census: rows against statistics(), and the A-polynomials
grouped from it against their per-permutation definition."""

import itertools
import math
import sys
from collections import Counter
from functools import lru_cache

import pytest

from eulerq import (
    CapacityError,
    Partition,
    Poly,
    a_poly,
    a_poly_derangements,
    a_poly_fix,
    a_poly_type,
    census,
    class_census,
    derangements,
    enumerate_by_cycle_type,
    enumerate_permutations,
    partitions,
    statistics,
    z_lambda,
)
from eulerq import cli, eulerian, permstats
from eulerq.permstats import CENSUS_FIELDS, _row, row_stat, stat_field

VAR_OF = {"maj": "q", "comaj": "q", "inv": "q", "des": "p", "exc": "t", "fix": "r"}


def row_of(st):
    return (st.exc, st.fix, st.des, st.maj, st.inv, sum(1 << i for i in st.exd_set))


def counted(perms):
    return Counter(row_of(statistics(sigma)) for sigma in perms)


def per_permutation_poly(perms, stats):
    """The joint distribution as the A-polynomials defined it before the
    census: one statistics() call per permutation."""
    acc = Counter()
    for sigma in perms:
        st = statistics(sigma)
        e = {VAR_OF[s]: getattr(st, s) for s in stats}
        acc[(e.get("q", 0), e.get("p", 0), e.get("t", 0), e.get("r", 0))] += 1
    return Poly(dict(acc))


@pytest.mark.parametrize("n", range(8))
def test_census_matches_statistics(n):
    got = census(n)
    assert got == counted(enumerate_permutations(n))
    assert sum(got.values()) == math.factorial(n)


@pytest.mark.parametrize("lam", [lam for n in range(8) for lam in partitions(n)],
                         ids=lambda lam: ",".join(map(str, lam)) or "empty")
def test_class_census_matches_statistics(lam):
    got = class_census(lam)
    assert got == counted(enumerate_by_cycle_type(lam))
    assert sum(got.values()) == math.factorial(lam.n) // z_lambda(lam)


def test_class_censuses_partition_the_census():
    for n in range(7):
        total = Counter()
        for lam in partitions(n):
            total.update(class_census(lam))
        assert total == census(n)


def test_class_censuses_take_one_pass(monkeypatch):
    """Every class of S_6 comes from one pass over its 720 words, cached per
    n: reading them all again lists no word."""
    calls = []
    original = permstats._row
    monkeypatch.setattr(permstats, "_row", lambda w: calls.append(w) or original(w))
    permstats._class_censuses.cache_clear()
    first = [class_census(lam) for lam in partitions(6)]
    assert len(calls) == 720
    calls.clear()
    again = [class_census(lam) for lam in partitions(6)]
    assert calls == []
    assert all(a is b for a, b in zip(again, first))


def test_census_capacity():
    with pytest.raises(CapacityError, match="exceeds cap 10"):
        census(11)
    with pytest.raises(CapacityError):
        class_census(Partition([11]))


def test_census_is_read_only():
    for counts in (census(4), class_census(Partition([2, 1, 1]))):
        row = next(iter(counts))
        with pytest.raises(TypeError):
            counts[row] += 1
        with pytest.raises(AttributeError):
            counts.update({row: 1})
    assert sum(census(4).values()) == 24


def test_row_stat_reads_every_statistic():
    for sigma in enumerate_permutations(5):
        row, st = _row(sigma.word), statistics(sigma)
        for name in CENSUS_FIELDS[:-1] + ("comaj", "exd_set"):
            assert row_stat(name, 5)(row) == getattr(st, name)


STATS = [("maj", "exc", "fix"), ("maj", "des", "exc"), ("comaj", "exc"),
         ("inv", "des", "fix"), ("comaj", "des", "exc", "fix"), ("inv",)]


@pytest.mark.parametrize("stats", STATS, ids="-".join)
def test_a_polys_match_per_permutation_definition(stats):
    for n in range(7):
        assert a_poly(n, stats) == per_permutation_poly(enumerate_permutations(n), stats)
        assert a_poly_derangements(n, stats) == per_permutation_poly(derangements(n), stats)
        for k in range(n + 1):
            want = per_permutation_poly(
                (s for s in enumerate_permutations(n) if statistics(s).fix == k), stats)
            assert a_poly_fix(n, k, stats) == want
        for lam in partitions(n):
            assert a_poly_type(lam, stats) == per_permutation_poly(
                enumerate_by_cycle_type(lam), stats)


def test_a_poly_rejects_colliding_statistics():
    with pytest.raises(ValueError, match="collide"):
        a_poly(3, ("maj", "inv"))


# ---------------------------------------------------------------------------
# the projected census against the word pass it replaced
# ---------------------------------------------------------------------------

# every projection the package reads: one column of `stats`, the Eulerian
# self-check, the shared oracle projection, and the full row
PROJECTIONS = sorted({(stat_field(s),) for s in cli._STAT_NAMES}) + [
    ("des", "exc"), eulerian._ORACLE_FIELDS, CENSUS_FIELDS]


@lru_cache(maxsize=None)
def word_pass(n):
    """Counter of _row over every one line word of S_n: the census as it
    was computed before the dynamic program."""
    return Counter(map(_row, itertools.permutations(range(1, n + 1))))


def distribution(read, rows):
    out = Counter()
    for row, c in rows.items():
        out[read(row)] += c
    return out


def projected(n, fields):
    index = [CENSUS_FIELDS.index(f) for f in fields]
    out = Counter()
    for row, c in word_pass(n).items():
        out[tuple(row[i] for i in index)] += c
    return out


@pytest.mark.parametrize("fields", PROJECTIONS, ids="-".join)
@pytest.mark.parametrize("n", range(9))
def test_projected_census_matches_word_pass(n, fields):
    got = census(n, fields)
    assert got == projected(n, fields)
    names = [s for s in CENSUS_FIELDS + ("comaj", "exd_set") if stat_field(s) in fields]
    for name in names:
        read, full = row_stat(name, n, fields), row_stat(name, n)
        assert distribution(read, got) == distribution(full, word_pass(n))


def test_projected_census_in_any_field_order():
    assert census(5, ("maj", "exc")) == Counter(
        {(maj, exc): c for (exc, maj), c in census(5, ("exc", "maj")).items()})
    assert census(4, ()) == {(): 24}
    with pytest.raises(ValueError, match="census fields"):
        census(4, ("exc", "exc"))
    with pytest.raises(ValueError, match="census fields"):
        census(4, ("comaj",))


@pytest.mark.parametrize("fields", PROJECTIONS, ids="-".join)
def test_projected_census_is_read_only_and_capped(fields):
    counts = census(4, fields)
    row = next(iter(counts))
    with pytest.raises(TypeError):
        counts[row] += 1
    with pytest.raises(AttributeError):
        counts.update({row: 1})
    assert census(4, list(fields)) is counts
    with pytest.raises(CapacityError, match="exceeds cap 10"):
        census(11, fields)


def test_stats_and_chartable_list_no_words(monkeypatch, capsys):
    """`stats --n 8` and `chartable 8 --output json` read census
    projections only: no _row call, so no word of S_n is listed."""
    calls = []
    original = permstats._row

    def counted_row(w):
        calls.append(w)
        return original(w)

    for name, module in list(sys.modules.items()):
        if name.startswith("eulerq") and getattr(module, "_row", None) is original:
            monkeypatch.setattr(module, "_row", counted_row)
    permstats._census.cache_clear()
    permstats.eulerian_counts.cache_clear()
    assert cli.main(["stats", "--n", "8"]) == 0
    assert "cross-check vs closed forms: OK" in capsys.readouterr().out
    assert cli.main(["chartable", "8", "--output", "json"]) == 0
    capsys.readouterr()
    assert calls == []


def test_stats_reaches_the_cap(capsys):
    assert cli.main(["stats", "--n", "10"]) == 0
    out = capsys.readouterr().out
    assert "permutations: 3628800" in out
    assert "cross-check vs closed forms: OK" in out


# p(n), the number of partitions of n, for n = 0..20 (OEIS A000041).
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
                    385, 490, 627]


def sorted_partitions(n):
    """The definition partitions() keeps: every partition of n, validated
    through Partition, sorted by (length, descending lex)."""
    if n < 0:
        return ()

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted((Partition(p) for p in gen(n, n)),
                        key=lambda p: (p.length, tuple(-x for x in p))))


@pytest.mark.parametrize("n", range(-2, 21))
def test_partitions_are_generated_in_order(n):
    got = partitions(n)
    assert got == sorted_partitions(n)
    assert all(type(p) is Partition for p in got)
    assert len(got) == (PARTITION_COUNTS[n] if n >= 0 else 0)
    if n == 0:
        assert got == (Partition(),)
