"""Necklaces, ornaments, banners, and the maps between them."""

import itertools

import pytest

from eulerq import (
    Banner,
    Necklace,
    Ornament,
    Partition,
    Permutation,
    banner_to_ornament,
    compatible_sequences,
    enumerate_banners,
    enumerate_necklaces,
    enumerate_ornaments,
    enumerate_permutations,
    gamma,
    gamma_inverse,
    gr_eta,
    gr_phi,
    increasing_factorize,
    lyndon_factorize,
    ornament_to_banner,
    parse_banner,
    parse_ornament,
    partitions,
    statistics,
)
from eulerq.bijections import (
    CompatiblePair,
    Letter,
    MarkedSequence,
    banner_weight_sum,
    enumerate_seamless_banners,
    involution_complement,
    involution_complement_banner,
    involution_swap_values,
    letter_key,
    ornament_weight_sum,
    parse_word,
    render_word,
    word_key,
)
from eulerq.eulerian import q_symf_type


def test_word_parse_render():
    w = parse_word("7'5'47")
    assert [a.value for a in w] == [7, 5, 4, 7]
    assert [a.barred for a in w] == [True, True, False, False]
    assert render_word(w) == "7'5'47"
    big = parse_word("11,2',3")
    assert render_word(big) == "11,2',3"
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("2x")


def test_letter_order():
    # 1 < 1' < 2 < 2' < ...
    assert letter_key(parse_word("1")[0]) < letter_key(parse_word("1'")[0])
    assert letter_key(parse_word("1'")[0]) < letter_key(parse_word("2")[0])


def test_necklace_normalization():
    a = Necklace(parse_word("7'5'47"))
    b = Necklace(parse_word("477'5'"))
    assert a == b
    assert a.size == 4 and a.bars == 2
    assert a.values() == [4, 5, 7, 7]
    # singletons must be unbarred; words must be primitive
    with pytest.raises(ValueError):
        Necklace(parse_word("3'"))
    with pytest.raises(ValueError):
        Necklace(parse_word("2'22'2"))
    with pytest.raises(ValueError):
        Necklace(parse_word("25"))


def test_banner_validation():
    assert parse_banner("2'27'57'5'47").length == 8
    with pytest.raises(ValueError):
        parse_banner("12'")
    with pytest.raises(ValueError):
        parse_banner("2'3")
    assert parse_banner("").word == ()


def test_factorizations_reference_word():
    w = parse_word(",".join("87886699558795"))
    inc = increasing_factorize(w)
    assert inc == [parse_word(",".join(t))
                   for t in ("87", "8866", "995587", "95")]
    lyn = lyndon_factorize(w)
    assert lyn == [parse_word(",".join(t))
                   for t in ("87", "8866", "99558795")]


def test_banner_lyndon_reference():
    orn = parse_ornament("(7'5'47)(7'5)(2'2)")
    b = ornament_to_banner(orn)
    assert b.render() == "2'27'57'5'47"
    assert lyndon_factorize(b.word) == [
        parse_word("2'2"), parse_word("7'5"), parse_word("7'5'47")]
    assert b.lyndon_type() == Partition([4, 2, 2])
    assert banner_to_ornament(b) == orn


def all_letter_words(n, max_value):
    from itertools import product
    letters = [parse_word(s)[0]
               for v in range(1, max_value + 1) for s in (str(v), str(v) + "'")]
    return product(letters, repeat=n)


def test_lyndon_factorization_properties():
    # each factor beats its rotations, factors weakly increase by uv >= vu
    for n in range(1, 6):
        for w in all_letter_words(n, 2):
            fs = lyndon_factorize(w)
            assert sum(fs, ()) == tuple(w)
            for f in fs:
                ks = tuple(letter_key(a) for a in f)
                assert all(ks > ks[i:] + ks[:i] for i in range(1, len(f)))
            for u, v in zip(fs, fs[1:]):
                ku = tuple(letter_key(a) for a in u + v)
                kv = tuple(letter_key(a) for a in v + u)
                assert ku <= kv


def test_increasing_factorization_matches_lyndon_type():
    for n in range(0, 6):
        for b in enumerate_banners(n, 2):
            inc = increasing_factorize(b.word)
            if n == 0:
                assert inc == []
                continue
            if 1 in b.lyndon_type():
                assert inc is None
            else:
                assert inc is not None
                assert sum(inc, ()) == b.word
                for f in inc:
                    head = f[0]
                    tail = [a for a in f if a != head]
                    assert all(letter_key(a) < letter_key(head) for a in tail)


def test_compatible_pair_validation():
    sigma = Permutation([3, 2, 5, 4, 1])  # Exd = {2, 4}
    CompatiblePair(sigma, (5, 5, 3, 3, 1))
    for s, message in (
        ((5, 5, 5, 3, 1), "sequence must drop at position 2"),
        ((5, 4, 3, 3, 3), "sequence must drop at position 4"),
        ((5, 5, 3, 3), "sequence length must match permutation size"),
        ((5, 6, 3, 3, 1), "sequence must be weakly decreasing"),
        ((5, 5, 3, 3, 0), "sequence values must be positive"),
    ):
        with pytest.raises(ValueError) as exc:
            CompatiblePair(sigma, s)
        assert str(exc.value) == message


@pytest.mark.parametrize("values,mark,message", [
    ((2,), 1, "marked sequence needs length at least 2"),
    ((0, 2), 1, "values must be positive"),
    ((3, 2), 1, "values must weakly increase"),
    ((2, 3), 0, "mark must lie in 1..length-1"),
    ((2, 3), 2, "mark must lie in 1..length-1"),
])
def test_marked_sequence_messages(values, mark, message):
    with pytest.raises(ValueError) as exc:
        MarkedSequence(values, mark)
    assert str(exc.value) == message


def test_record_classes_value_semantics():
    sigma = Permutation([3, 2, 5, 4, 1])
    pair = CompatiblePair(sigma, [5, 5, 3, 3, 1])
    assert pair.s == (5, 5, 3, 3, 1)
    assert pair == CompatiblePair(sigma=sigma, s=(5, 5, 3, 3, 1))
    assert hash(pair) == hash(CompatiblePair(sigma, (5, 5, 3, 3, 1)))
    assert pair != CompatiblePair(sigma, (6, 5, 3, 3, 1))
    ms = MarkedSequence([2, 2, 3], 1)
    assert ms.values == (2, 2, 3) and ms.mark == 1
    assert ms == MarkedSequence((2, 2, 3), 1) and ms != MarkedSequence((2, 2, 3), 2)
    assert hash(ms) == hash(MarkedSequence((2, 2, 3), 1))
    a = Letter(3)
    assert a == Letter(3, False) and a != Letter(3, True)
    assert hash(a) == hash(Letter(value=3, barred=False))
    assert (a.render(), Letter(3, True).render()) == ("3", "3'")
    for obj, field in ((pair, "s"), (pair, "sigma"), (ms, "values"), (ms, "mark"),
                       (a, "barred"), (pair, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def _is_compatible(sigma, s):
    try:
        CompatiblePair(sigma, s)
    except ValueError:
        return False
    return True


def test_compatible_sequence_counts():
    # sequences with values <= m are counted by a single binomial
    from math import comb
    for n in range(0, 5):
        for sigma in enumerate_permutations(n):
            d = len(statistics(sigma).exd_set)
            for m in range(1, 6):
                seqs = compatible_sequences(sigma, m)
                want = comb(m - d - 1 + n, n) if m >= d + 1 else 0
                if n == 0:
                    want = 1
                assert len(seqs) == want
                # the list itself, in reverse lexicographic order, is every
                # weakly decreasing sequence the validating constructor accepts
                assert seqs == [s for s in itertools.product(range(m, 0, -1), repeat=n)
                                if all(a >= b for a, b in zip(s, s[1:]))
                                and _is_compatible(sigma, s)]


# Counts at n <= 5 and max_value <= 3, keyed (size, max_value).
NECKLACE_COUNTS = {
    (1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 1): 1, (2, 2): 3, (2, 3): 6,
    (3, 1): 2, (3, 2): 8, (3, 3): 20, (4, 1): 3, (4, 2): 18, (4, 3): 60,
    (5, 1): 6, (5, 2): 48, (5, 3): 204,
}
BANNER_COUNTS = {
    (0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 1): 1, (1, 2): 2, (1, 3): 3,
    (2, 1): 2, (2, 2): 6, (2, 3): 12, (3, 1): 4, (3, 2): 18, (3, 3): 48,
    (4, 1): 8, (4, 2): 54, (4, 3): 192, (5, 1): 16, (5, 2): 162, (5, 3): 768,
}


def test_necklace_and_banner_enumerations():
    for (n, m), count in NECKLACE_COUNTS.items():
        necks = enumerate_necklaces(n, m)
        assert len(necks) == count == len(set(necks))
        assert necks == sorted(necks)
        assert all(Necklace(k.word) == k for k in necks)
    for (n, m), count in BANNER_COUNTS.items():
        banners = enumerate_banners(n, m)
        assert len(banners) == count == len(set(banners))
        # in the order 1 < 1' < 2 < 2' < .. of letters, read left to right
        words = [b.word for b in banners]
        assert words == sorted(words, key=word_key)
    assert enumerate_necklaces(0, 3) == []


def test_phi_reference():
    pair = CompatiblePair(Permutation([4, 5, 1, 6, 2, 3, 8, 7]),
                          (7, 7, 7, 5, 5, 4, 2, 2))
    orn = gr_phi(pair)
    assert orn == parse_ornament("(7'5'47)(7'5)(2'2)")
    assert gr_eta(orn) == pair


def test_eta_reference():
    orn = Ornament([
        Necklace(parse_word("7'3'35")),
        Necklace(parse_word("7'35'3")),
        Necklace(parse_word("7'35'3")),
        Necklace(parse_word("5")),
    ])
    pair = gr_eta(orn)
    assert pair.sigma == Permutation([8, 11, 12, 9, 10, 1, 7, 13, 2, 3, 4, 5, 6])
    assert pair.s == (7,) * 3 + (5,) * 4 + (3,) * 6
    assert gr_phi(pair) == orn


@pytest.mark.parametrize("n", range(0, 5))
def test_phi_eta_round_trip(n):
    images = []
    for sigma in enumerate_permutations(n):
        st = statistics(sigma)
        for s in compatible_sequences(sigma, n):
            pair = CompatiblePair(sigma, s)
            orn = gr_phi(pair)
            assert orn.bars == st.exc
            assert Partition(k.size for k in orn.necklaces) == st.cycle_type
            assert tuple(orn.values()) == tuple(sorted(s))
            assert gr_eta(orn) == pair
            images.append(orn)
    # phi is injective and onto the ornaments with values bounded by n
    assert len(set(images)) == len(images)
    expected = set()
    for lam in partitions(n):
        expected.update(enumerate_ornaments(lam, n))
    assert set(images) == expected


@pytest.mark.parametrize("n", range(0, 5))
def test_banner_ornament_round_trip(n):
    for b in enumerate_banners(n, 3):
        orn = banner_to_ornament(b)
        assert Partition(k.size for k in orn.necklaces) == b.lyndon_type()
        assert orn.bars == b.bars
        assert ornament_to_banner(orn) == b


@pytest.mark.parametrize("n", range(0, 5))
def test_swap_involution(n):
    for b in enumerate_banners(n, 3):
        orn = banner_to_ornament(b)
        for k in (1, 2):
            sw = involution_swap_values(orn, k)
            assert involution_swap_values(sw, k) == orn
            assert sw.bars == orn.bars
            want = sorted(k + k + 1 - v if v in (k, k + 1) else v
                          for v in orn.values())
            assert sw.values() == want


@pytest.mark.parametrize("n", range(1, 5))
def test_complement_involutions(n):
    for b in enumerate_banners(n, 3):
        orn = banner_to_ornament(b)
        co = involution_complement(orn)
        singles = sum(1 for k in orn.necklaces if k.size == 1)
        assert co.bars == n - singles - orn.bars
        assert involution_complement(co) == orn
        cb = involution_complement_banner(b)
        assert involution_complement_banner(cb) == b


def test_gamma_reference_case1():
    b = parse_banner("2'2'2'15'224'28'8'7'5'2235")
    out, ms = gamma(b)
    assert ms == MarkedSequence((2, 2, 3, 5, 5, 7, 8, 8), 4)
    assert out == parse_banner("2'2'2'15'224'2")
    assert gamma_inverse(out, ms) == b


def test_gamma_reference_case2_unbarred_stop():
    b = parse_banner("2'2'2'15'224'28'8'7'5'22356'24")
    out, ms = gamma(b)
    assert ms == MarkedSequence((2, 2, 3, 5, 5, 7), 2)
    assert out == parse_banner("2'2'2'15'224'28'8'6'24")
    assert gamma_inverse(out, ms) == b


def test_gamma_reference_case2_barred_stop():
    b = parse_banner("2'2'2'15'224'28'8'7'5'2235'46'24")
    out, ms = gamma(b)
    assert ms == MarkedSequence((2, 2, 3, 5, 5, 7), 3)
    assert out == parse_banner("2'2'2'15'224'28'8'46'24")
    assert gamma_inverse(out, ms) == b


def test_gamma_rejects_bad_input():
    with pytest.raises(ValueError):
        gamma(parse_banner("3"))
    with pytest.raises(ValueError):
        gamma(parse_banner("2'13"))  # Lyndon type (2, 1)
    with pytest.raises(ValueError):
        MarkedSequence((2, 1), 1)
    with pytest.raises(ValueError):
        MarkedSequence((1, 2), 2)


@pytest.mark.parametrize("n", range(2, 5))
def test_gamma_round_trip(n):
    for b in enumerate_seamless_banners(n, 3):
        out, ms = gamma(b)
        assert b.values() == sorted(out.values() + list(ms.values))
        assert b.bars == out.bars + ms.mark
        assert gamma_inverse(out, ms) == b


def test_weight_sums_match_cycle_type_slices():
    # the enumerative content of the two main bijections
    for m in range(0, 5):
        for lam in partitions(m):
            for j in range(m + 1):
                expected = q_symf_type(lam, j).to_monomial(3)
                assert ornament_weight_sum(lam, j, 3) == expected
                assert banner_weight_sum(lam, j, 3) == expected
