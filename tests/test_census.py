"""The integer census: rows against statistics(), and the A-polynomials
grouped from it against their per-permutation definition."""

import math
from collections import Counter

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
from eulerq.permstats import CENSUS_FIELDS, _row, row_stat

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
