"""The specialization suites run in integer q-polynomials: they build no
PolyFraction, and a wrong oracle fails exactly the records that read it."""

import pytest

from eulerq import Poly, QSymF, eulerian, polyalg
from eulerq.eulerian import verify_finite_specialization, verify_specializations


def _failures(*reports):
    return {(r.name, c.identity, tuple(sorted(c.params.items())), c.witness)
            for r in reports for c in r.checks if c.status != "pass"}


def _run():
    return _failures(verify_finite_specialization(5), verify_specializations(6))


def test_suites_build_no_poly_fraction(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("PolyFraction built")

    monkeypatch.setattr(polyalg.PolyFraction, "__init__", refuse)
    # verify_finite_specialization runs finite_specialization_check per class
    assert verify_specializations(6).ok
    assert verify_finite_specialization(5).ok
    with pytest.raises(AssertionError):
        QSymF.fundamental((), 1).ps_stable()


def test_unmutated_suites_pass():
    assert _run() == set()


def test_extra_class_term_fails_its_records(monkeypatch):
    # a_(3) gains q p t: the finite identity breaks at p^1 for j = 1, and the
    # stable one (which reads [t^1] of the maj/exc enumerator) at n = 3
    original = eulerian.a_poly_type

    def mutated(lam, stats=("maj", "des", "exc")):
        out = original(lam, stats)
        return out + Poly.term(1, q=1, p=1, t=1) if tuple(lam) == (3,) else out

    monkeypatch.setattr(eulerian, "a_poly_type", mutated)
    assert _run() == {
        ("finite-spec", "finite specialization of class enumerator",
         (("j", 1), ("k", 0), ("lam", (3,))), "p-degree 1"),
        ("specializations", "stable specialization, cycle type", (("n", 3),), ""),
    }


def test_extra_fundamental_fails_its_records(monkeypatch):
    # Q(4, 1, 1) gains F_{empty, 4}
    original = eulerian.q_qsym

    def mutated(n, j, k=None):
        out = original(n, j, k)
        return out + QSymF.fundamental((), 4) if (n, j, k) == (4, 1, 1) else out

    monkeypatch.setattr(eulerian, "q_qsym", mutated)
    assert _run() == {
        ("finite-spec", "finite specialization, exc/fix form",
         (("j", 1), ("k", 1), ("n", 4)), ""),
        ("specializations", "partitions of the full sum agree", (("n", 4),), ""),
        ("specializations", "specialization positivity transfer", (("n", 4),), ""),
        ("specializations", "stable specialization, exc/fix", (("n", 4),), ""),
    }
