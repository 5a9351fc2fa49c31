"""Permutation statistics: pinned values, identities, and enumeration."""

import itertools
import math

import pytest

from eulerq import (
    CapacityError,
    Partition,
    Permutation,
    derangements,
    enumerate_by_cycle_type,
    enumerate_permutations,
    eulerian_counts,
    eulerian_number,
    eulerian_poly,
    exd_set,
    partitions,
    statistics,
    z_lambda,
)
from eulerq.permstats import _cycle_type


def test_reference_permutation():
    sigma = Permutation([3, 2, 5, 4, 1])
    st = statistics(sigma)
    assert st.des_set == frozenset({1, 3, 4})
    assert st.exc_set == frozenset({1, 3})
    assert st.exd_set == frozenset({2, 4})
    assert (st.des, st.exc, st.inv) == (3, 2, 6)
    assert (st.maj, st.comaj, st.fix) == (8, 2, 2)
    assert sigma.cycle_type() == Partition([3, 1, 1])


def test_second_reference_permutation():
    assert exd_set(Permutation([5, 3, 1, 4, 6, 2])) == frozenset({1, 4})


def test_empty_permutation_conventions():
    st = statistics(Permutation([]))
    assert (st.des, st.exc, st.maj, st.comaj, st.inv, st.fix) == (0, 0, 0, 0, 0, 0)
    assert st.exd_set == frozenset()
    assert Permutation([]).cycle_type() == Partition()


def test_identity_permutation():
    st = statistics(Permutation([1, 2, 3, 4]))
    assert (st.des, st.exc, st.maj, st.fix) == (0, 0, 0, 4)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([2, 3])


@pytest.mark.parametrize("n", range(0, 7))
def test_exd_index_sum_and_size(n):
    # the exd set always sums to maj - exc; its size is des, less one
    # when the first letter is not a fixed point of value 1
    for sigma in enumerate_permutations(n):
        st = statistics(sigma)
        assert sum(st.exd_set) == st.maj - st.exc
        expected = st.des if (n == 0 or sigma.word[0] == 1) else st.des - 1
        assert len(st.exd_set) == expected


@pytest.mark.parametrize("n", range(0, 8))
def test_des_exc_equidistribution(n):
    des_hist = {}
    exc_hist = {}
    for sigma in enumerate_permutations(n):
        st = statistics(sigma)
        des_hist[st.des] = des_hist.get(st.des, 0) + 1
        exc_hist[st.exc] = exc_hist.get(st.exc, 0) + 1
    assert des_hist == exc_hist
    assert des_hist == {j: c for j, c in enumerate(eulerian_counts(n)) if c}


def test_eulerian_numbers():
    assert eulerian_counts(0) == (1,)
    assert eulerian_counts(1) == (1,)
    assert eulerian_counts(4) == (1, 11, 11, 1)
    assert eulerian_number(5, 2) == 66
    assert eulerian_number(5, 9) == 0
    assert sum(eulerian_counts(6)) == math.factorial(6)
    p = eulerian_poly(4)
    assert p.coefficient("t", 1) == 11


@pytest.mark.parametrize("n", range(0, 7))
def test_maj_inv_equidistribution(n):
    maj_hist = {}
    inv_hist = {}
    for sigma in enumerate_permutations(n):
        st = statistics(sigma)
        maj_hist[st.maj] = maj_hist.get(st.maj, 0) + 1
        inv_hist[st.inv] = inv_hist.get(st.inv, 0) + 1
    assert maj_hist == inv_hist


def test_partitions_order():
    assert [tuple(p) for p in partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [tuple(p) for p in partitions(0)] == [()]
    assert len(partitions(8)) == 22


def test_partition_basics():
    lam = Partition([1, 3, 2, 3])
    assert tuple(lam) == (3, 3, 2, 1)
    assert lam.n == 9
    assert lam.length == 4
    assert lam.conjugate() == Partition([4, 3, 2])
    assert lam.conjugate().conjugate() == lam
    assert Partition([2, 2, 1]).z() == 8 == z_lambda((2, 2, 1))
    with pytest.raises(ValueError):
        Partition([0, 1])


def test_partition_of_a_partition_is_itself():
    lam = Partition([2, 3, 1])
    assert Partition(lam) is lam
    assert Partition(tuple(lam)) == lam and Partition(tuple(lam)) is not lam


@pytest.mark.parametrize("lam, other", [((3, 1), (2, 2, 1)), ((), (1,)), ((4,), ()),
                                        ((2, 1, 1), (5, 1, 3))])
def test_partition_concat_is_the_multiset_union(lam, other):
    want = Partition(list(lam) + list(other))
    for right in (Partition(other), tuple(other), list(other)):
        got = Partition(lam).concat(right)
        assert type(got) is Partition and got == want
        assert tuple(got) == tuple(sorted(got, reverse=True))


@pytest.mark.parametrize("bad", [(0,), (2, -1)])
def test_partition_still_validates_plain_input(bad):
    with pytest.raises(ValueError):
        Partition(bad)
    with pytest.raises(ValueError):
        Partition((3, 1)).concat(bad)


@pytest.mark.parametrize("lam", [(3, 1, 1), (2, 2), (4,), (1, 1, 1)])
def test_cycle_type_class_sizes(lam):
    lam = Partition(lam)
    got = list(enumerate_by_cycle_type(lam))
    assert len(got) == math.factorial(lam.n) // z_lambda(lam)
    assert all(s.cycle_type() == lam for s in got)


@pytest.mark.parametrize("n", range(8))
def test_cycle_type_walk_matches_cycles(n):
    for w in itertools.permutations(range(1, n + 1)):
        assert _cycle_type(w) == Permutation(w).cycle_type()


def test_derangement_counts():
    assert [len(list(derangements(n))) for n in range(7)] == [
        1, 0, 1, 2, 9, 44, 265]


def test_capacity_guard():
    with pytest.raises(CapacityError):
        next(enumerate_permutations(11))
    with pytest.raises(CapacityError):
        next(derangements(12))


def test_statistic_totals():
    # closed forms for the column sums over all of S_n
    for n in range(2, 7):
        tot = {"des": 0, "exc": 0, "maj": 0, "comaj": 0, "inv": 0, "fix": 0}
        for sigma in enumerate_permutations(n):
            st = statistics(sigma)
            for k in tot:
                tot[k] += getattr(st, k)
        f = math.factorial(n)
        assert tot["des"] == tot["exc"] == f * (n - 1) // 2
        assert tot["maj"] == tot["comaj"] == tot["inv"] == f * n * (n - 1) // 4
        assert tot["fix"] == f


def test_perm_stats_value_semantics():
    st = statistics([3, 2, 5, 4, 1])
    again = statistics(Permutation([3, 2, 5, 4, 1]))
    assert st == again and hash(st) == hash(again)
    assert st != statistics([1, 2, 3, 4, 5])
    assert len({statistics(sigma) for sigma in enumerate_permutations(4)}) == 24
    with pytest.raises(AttributeError):
        st.maj = 0
    with pytest.raises(AttributeError):
        st.extra = 0
    assert st.maj == 8
