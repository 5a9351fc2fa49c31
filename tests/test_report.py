"""Verify report records: value semantics and their JSON form."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerq import cli
from eulerq.permstats import Partition
from eulerq.report import Check, VerifyReport


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_check_value_semantics():
    check = Check("id", {"n": 3}, "pass")
    assert check.witness == ""
    assert check == Check(identity="id", params={"n": 3}, status="pass", witness="")
    assert check != Check("id", {"n": 3}, "fail", "w")
    for field in ("identity", "params", "status", "witness", "extra"):
        with pytest.raises(AttributeError):
            setattr(check, field, None)
    with pytest.raises(TypeError):
        hash(check)  # its params are a dict


def test_check_to_jsonable_bytes():
    assert dumps(Check("id", {"n": 3, "lam": (2, 1)}, "pass").to_jsonable()) == (
        '{"identity":"id","params":{"lam":[2,1],"n":3},"status":"pass"}')
    assert dumps(Check("id", {"b": [(1,), 2], "a": 0}, "fail", "x").to_jsonable()) == (
        '{"identity":"id","params":{"a":0,"b":[[1],2]},"status":"fail","witness":"x"}')


def test_reports_do_not_share_checks():
    first, second = VerifyReport("a"), VerifyReport("b")
    first.record("id", {"n": 1}, True)
    assert len(first.checks) == 1
    assert second.checks == []
    assert VerifyReport("c").checks == []


def test_verify_report_value_semantics():
    rep = VerifyReport("s")
    assert rep.record("one", {"n": 1}, True, witness="ignored") is True
    assert rep.record("two", {"n": 2}, 0, witness=5) is False
    assert rep.checks == [Check("one", {"n": 1}, "pass"), Check("two", {"n": 2}, "fail", "5")]
    same = VerifyReport("s", list(rep.checks))
    assert rep == same and rep != VerifyReport("s") and rep != VerifyReport("t", rep.checks)
    with pytest.raises(TypeError):
        hash(rep)
    assert (rep.passed, rep.failed, rep.ok) == (1, 1, False)
    assert rep.failures() == [Check("two", {"n": 2}, "fail", "5")]
    assert rep.summary() == "s: FAIL (1 passed, 1 failed)"
    assert dumps(rep.to_jsonable()) == (
        '{"checks":[{"identity":"one","params":{"n":1},"status":"pass"},'
        '{"identity":"two","params":{"n":2},"status":"fail","witness":"5"}],'
        '"failed":1,"passed":1,"suite":"s"}')
    assert rep.extend(VerifyReport("u", [Check("three", {}, "pass")])) is rep
    assert [c.identity for c in rep.checks] == ["one", "two", "three"]


# Text with the characters JSON escapes or writes as \uXXXX: quotes,
# backslashes, control characters, non-ASCII and astral ones, surrogates too.
TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f \u00e9\u2028\ud800\U0001F600az')
               | st.characters(), max_size=12)

PARTITIONS = st.lists(st.integers(1, 6), max_size=5).map(Partition)

# Every kind of value a check's params hold, lists and tuples nested.
PARAM_VALUES = st.recursive(
    st.integers(-10**20, 10**20) | st.booleans() | st.none() | TEXT | PARTITIONS,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=8)

CHECKS = st.builds(Check, TEXT, st.dictionaries(TEXT, PARAM_VALUES, max_size=4),
                   st.sampled_from(["pass", "fail"]), st.just("") | TEXT)

REPORTS = st.lists(st.builds(VerifyReport, TEXT, st.lists(CHECKS, max_size=4)), max_size=3)


def verify_json(mode, suite, passed, reports):
    """What cli._print_verify_json prints, and the json.dumps bytes of the
    to_jsonable tree it writes without building."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._print_verify_json(mode, suite, passed, reports)
    tree = {"command": "verify", "mode": mode, "suite": suite, "passed": passed,
            "suites": [r.to_jsonable() for r in reports]}
    return buf.getvalue(), dumps(tree) + "\n"


@settings(max_examples=150, deadline=None)
@given(TEXT, TEXT, st.booleans(), REPORTS)
def test_verify_writer_matches_json_dumps_of_the_tree(mode, suite, passed, reports):
    written, reference = verify_json(mode, suite, passed, reports)
    assert written == reference


def test_verify_writer_writes_a_partition_param_as_a_list():
    report = VerifyReport("s", [Check("id", {"lam": Partition([2, 1]), "mu": [Partition([1])]},
                                      "fail", 'got "x"\n')])
    written, reference = verify_json("ci", "s", False, [report])
    assert written == reference == (
        '{"command":"verify","mode":"ci","passed":false,"suite":"s","suites":[{"checks":'
        '[{"identity":"id","params":{"lam":[2,1],"mu":[[1]]},"status":"fail",'
        '"witness":"got \\"x\\"\\n"}],"failed":1,"passed":0,"suite":"s"}]}\n')


@settings(max_examples=40, deadline=None)
@given(REPORTS, st.sampled_from([0.5, Fraction(1, 3)]), st.booleans(), st.data())
def test_verify_writer_refuses_a_float_or_fraction_param(reports, bad, nested, data):
    params = {"n": 1, "bad": [0, (bad,)] if nested else bad}
    checks = [Check("id", params, "pass")]
    reports = reports + [VerifyReport("s", checks)]
    reports = data.draw(st.permutations(reports))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        with pytest.raises(TypeError):
            cli._print_verify_json("ci", "all", True, reports)
        with pytest.raises(TypeError):
            cli._print_json({"suites": [r.to_jsonable() for r in reports]})
    assert buf.getvalue() == ""


class Key(str):
    pass


@pytest.mark.parametrize("check", [Check("n", {Key("n"): 1}, "pass"),
                                   Check(Key("n"), {"n": 1}, "pass"),
                                   Check("n", {"n": [Key("n")]}, "pass")],
                         ids=["param key", "identity", "param value"])
def test_verify_writer_refuses_a_str_subclass(check):
    """Even where an equal string was written before it."""
    reports = [VerifyReport("n", [Check("n", {"n": "n"}, "pass"), check])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        with pytest.raises(TypeError):
            cli._print_verify_json("n", "n", True, reports)
        with pytest.raises(TypeError):
            cli._print_json({"suites": [r.to_jsonable() for r in reports]})
    assert buf.getvalue() == ""
