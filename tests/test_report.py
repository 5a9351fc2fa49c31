"""Verify report records: value semantics and their JSON form."""

import json

import pytest

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
