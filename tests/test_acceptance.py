"""Acceptance gate: fifteen criteria, one line of output each.

Each test prints `criterion NN: PASS/FAIL (elapsed)` and asserts the
underlying facts.  Bounds follow the standard tier; set EULERQ_EXTENDED=1
to raise the tiers that define one (four-statistic series, character
formula, positivity).
"""

import json
import os
import time

import pytest

from eulerq import (
    Partition,
    Permutation,
    Poly,
    banner_to_ornament,
    compatible_sequences,
    enumerate_banners,
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
    parse_poly,
    partitions,
    q_symf,
    q_symf_type,
    statistics,
    sym_h,
    verify_related,
)
from eulerq.bijections import (
    CompatiblePair,
    MarkedSequence,
    Necklace,
    Ornament,
    enumerate_seamless_banners,
    involution_swap_values,
    parse_word,
)
from eulerq.eulerian import a_poly, char_table
from eulerq.suites import (
    A4_T1_COEFF,
    shift_exc_by_qinv,
    t_symmetric,
    verify_character_formula,
    verify_derangement_identities,
    verify_finite_specialization,
    verify_four_stat_series,
    verify_main_generating_function,
    verify_positivity,
    verify_qexp_generating_function,
    verify_recurrences,
    verify_structure_identities,
    verify_symmetry_unimodality,
)
from eulerq import cli
from fixtures_tables import CHAR_TABLES

EXTENDED = os.environ.get("EULERQ_EXTENDED") == "1"

_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_lines(capsys):
    # route the per-criterion lines past pytest's capture so they always show
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num, ok, t0, detail=""):
    elapsed = time.perf_counter() - t0
    tail = f" [{detail}]" if detail else ""
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s){tail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok


def suite_ok(rep):
    assert rep.ok, rep.failures()
    return True


def test_criterion_01_statistics_fixtures_fast():
    t0 = time.perf_counter()
    statistics(Permutation([3, 2, 5, 4, 1]))  # warm
    best = min(
        _timed(lambda: statistics(Permutation([3, 2, 5, 4, 1])))
        for _ in range(5))
    st = statistics(Permutation([3, 2, 5, 4, 1]))
    ok = (st.des_set == frozenset({1, 3, 4}) and st.exc_set == frozenset({1, 3})
          and st.exd_set == frozenset({2, 4}) and st.des == 3 and st.exc == 2
          and st.maj == 8 and st.comaj == 2 and st.inv == 6 and st.fix == 2
          and st.cycle_type == Partition([3, 1, 1]) and best < 0.001)
    report(1, ok, t0, f"best {best * 1e6:.0f}us")


def _timed(fn):
    a = time.perf_counter()
    fn()
    return time.perf_counter() - a


def test_criterion_02_exd_identities_exhaustive():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 9):
        for sigma in enumerate_permutations(n):
            st = statistics(sigma)
            if sum(st.exd_set) != st.maj - st.exc:
                ok = False
            want = st.des if (n == 0 or sigma.word[0] == 1) else st.des - 1
            if len(st.exd_set) != want:
                ok = False
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 60, t0, "n <= 8")


def test_criterion_03_main_generating_function():
    t0 = time.perf_counter()
    ok = suite_ok(verify_main_generating_function(6))
    ok = suite_ok(verify_recurrences(7)) and ok
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 300, t0, "expansion n <= 6, recurrences n <= 7")


def test_criterion_04_qexp_generating_function():
    t0 = time.perf_counter()
    ok = suite_ok(verify_qexp_generating_function(6))
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 120, t0, "n <= 6")


def test_criterion_05_four_stat_series():
    t0 = time.perf_counter()
    z = 8 if EXTENDED else 4
    ok = suite_ok(verify_four_stat_series(z))
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 600, t0, f"orders z {z}, p {z}")


def test_criterion_06_bijection_round_trips():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 6):
        for sigma in enumerate_permutations(n):
            st = statistics(sigma)
            for s in compatible_sequences(sigma, n):
                pair = CompatiblePair(sigma, s)
                orn = gr_phi(pair)
                ok = ok and orn.bars == st.exc
                ok = ok and Partition(k.size for k in orn.necklaces) == st.cycle_type
                ok = ok and tuple(orn.values()) == tuple(sorted(s))
                ok = ok and gr_eta(orn) == pair
    for n in range(0, 7):
        for b in enumerate_banners(n, 3):
            orn = banner_to_ornament(b)
            ok = ok and ornament_to_banner(orn) == b
            for k in (1, 2):
                sw = involution_swap_values(orn, k)
                ok = ok and involution_swap_values(sw, k) == orn
                ok = ok and sw.bars == orn.bars
                want = sorted(2 * k + 1 - v if v in (k, k + 1) else v
                              for v in orn.values())
                ok = ok and sw.values() == want
    for n in range(2, 6):
        for b in enumerate_seamless_banners(n, 3):
            out, ms = gamma(b)
            ok = ok and b.values() == sorted(out.values() + list(ms.values))
            ok = ok and b.bars == out.bars + ms.mark
            ok = ok and gamma_inverse(out, ms) == b
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed < 300, t0,
           "pairing n <= 5, value swap length <= 6, peeling n <= 5")


def test_criterion_07_worked_reference_examples():
    t0 = time.perf_counter()
    ok = statistics(Permutation([5, 3, 1, 4, 6, 2])).exd_set == frozenset({1, 4})

    pair = CompatiblePair(Permutation([4, 5, 1, 6, 2, 3, 8, 7]),
                          (7, 7, 7, 5, 5, 4, 2, 2))
    ok = ok and gr_phi(pair) == parse_ornament("(7'5'47)(7'5)(2'2)")

    orn = Ornament([Necklace(parse_word("7'3'35")),
                    Necklace(parse_word("7'35'3")),
                    Necklace(parse_word("7'35'3")),
                    Necklace(parse_word("5"))])
    pair2 = gr_eta(orn)
    ok = ok and pair2.sigma == Permutation(
        [8, 11, 12, 9, 10, 1, 7, 13, 2, 3, 4, 5, 6])
    ok = ok and pair2.s == (7,) * 3 + (5,) * 4 + (3,) * 6

    w = parse_word(",".join("87886699558795"))
    ok = ok and increasing_factorize(w) == [
        parse_word(",".join(t)) for t in ("87", "8866", "995587", "95")]
    ok = ok and lyndon_factorize(w) == [
        parse_word(",".join(t)) for t in ("87", "8866", "99558795")]

    b = ornament_to_banner(parse_ornament("(7'5'47)(7'5)(2'2)"))
    ok = ok and b.render() == "2'27'57'5'47"
    ok = ok and lyndon_factorize(b.word) == [
        parse_word("2'2"), parse_word("7'5"), parse_word("7'5'47")]

    cases = [
        ("2'2'2'15'224'28'8'7'5'2235", (2, 2, 3, 5, 5, 7, 8, 8), 4,
         "2'2'2'15'224'2"),
        ("2'2'2'15'224'28'8'7'5'22356'24", (2, 2, 3, 5, 5, 7), 2,
         "2'2'2'15'224'28'8'6'24"),
        ("2'2'2'15'224'28'8'7'5'2235'46'24", (2, 2, 3, 5, 5, 7), 3,
         "2'2'2'15'224'28'8'46'24"),
    ]
    for text, values, mark, remainder in cases:
        big = parse_banner(text)
        out, ms = gamma(big)
        ok = ok and ms == MarkedSequence(values, mark)
        ok = ok and out == parse_banner(remainder)
        ok = ok and gamma_inverse(out, ms) == big
    report(7, ok, t0)


def test_criterion_08_single_cycle_expansion():
    t0 = time.perf_counter()
    f = q_symf_type((6,), 3)
    hexp = f.to_basis("h")
    ok = hexp == (sym_h([5, 1]) + 2 * sym_h([4, 2]) - sym_h([4, 1, 1])
                  + sym_h([3, 2, 1]))
    ok = ok and hexp.coefficient(Partition([4, 1, 1])) == -1
    ok = ok and f.to_basis("s").render() == (
        "3*s[6] + 3*s[5,1] + 3*s[4,2] + s[3,3] + s[3,2,1]")
    report(8, ok, t0)


def test_criterion_09_character_tables():
    t0 = time.perf_counter()
    ok = True
    for n in sorted(CHAR_TABLES):
        js, rows = char_table(n)
        ok = ok and js == list(range(1, n // 2 + 1))
        ok = ok and [mu for mu, _ in rows] == list(partitions(n))
        for mu, vals in rows:
            ok = ok and tuple(vals) == CHAR_TABLES[n][tuple(mu)]
    bound = 8 if EXTENDED else 7
    ok = ok and suite_ok(verify_character_formula(bound))
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 1200, t0, f"tables 4..8, formula n <= {bound}")


def test_criterion_10_symmetry_and_its_limit():
    t0 = time.perf_counter()
    ok = suite_ok(verify_symmetry_unimodality(7))
    a4 = shift_exc_by_qinv(a_poly(4, ("maj", "des", "exc")))
    ok = ok and a4.coefficient("t", 1) == parse_poly(A4_T1_COEFF)
    # the four-statistic refinement genuinely loses the symmetry
    ok = ok and not t_symmetric(a4.coefficients_in("t"), 3, Poly.zero())
    report(10, ok, t0, "n <= 7 plus the size-4 witness")


def test_criterion_11_positivity():
    t0 = time.perf_counter()
    bound = 8 if EXTENDED else 7
    ok = suite_ok(verify_positivity(bound))
    report(11, ok, t0, f"n <= {bound}")


def test_criterion_12_companion_models():
    t0 = time.perf_counter()
    ok = suite_ok(verify_related(5, 4))
    elapsed = time.perf_counter() - t0
    report(12, ok and elapsed < 300, t0, "arrays/words n <= 5, tail models n <= 4")


def test_criterion_13_derangement_identities():
    t0 = time.perf_counter()
    ok = suite_ok(verify_derangement_identities(6))
    ok = ok and suite_ok(verify_finite_specialization(5))
    report(13, ok, t0, "q-analogs n <= 6, finite families size <= 5")


def test_criterion_14_structure_identities():
    t0 = time.perf_counter()
    ok = suite_ok(verify_structure_identities(6, 6, 7))
    report(14, ok, t0, "products n <= 6, dimensions n <= 7")


def test_criterion_15_deterministic_verify_all(capsys):
    t0 = time.perf_counter()
    outs = []
    codes = []
    for _ in range(2):
        codes.append(cli.main(["verify", "all", "--mode", "ci", "--output", "json"]))
        outs.append(capsys.readouterr().out)
    ok = codes == [0, 0] and outs[0] == outs[1] and len(outs[0]) > 0
    payload = json.loads(outs[0])
    ok = ok and payload["passed"] is True and len(payload["suites"]) == 12
    report(15, ok, t0, f"{len(outs[0])} bytes, two runs")
