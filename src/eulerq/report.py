"""Structured pass/fail reporting for the identity verification suites.

A VerifyReport is an ordered list of Check records.  Suites append checks in a
deterministic order, so two runs over the same parameters serialize to the
same JSON bytes regardless of how the work was scheduled.  The command line
writes those bytes straight from the checks (`cli._print_verify_json`);
to_jsonable gives the same document as a tree of dicts and lists.
"""
from collections import namedtuple


class Check(namedtuple("Check", "identity params status witness", defaults=("",))):
    """One recorded identity: its params dict, status "pass" or "fail", and
    a witness string for a failure."""

    __slots__ = ()

    def to_jsonable(self):
        out = {
            "identity": self.identity,
            "params": {k: _plain(v) for k, v in sorted(self.params.items())},
            "status": self.status,
        }
        if self.witness:
            out["witness"] = self.witness
        return out


def _plain(v):
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


class VerifyReport:
    """A suite's name and its checks, in the order they were recorded."""

    def __init__(self, name, checks=None):
        self.name = name
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.checks) == (other.name, other.checks)

    def __repr__(self):
        return f"VerifyReport(name={self.name!r}, checks={self.checks!r})"

    def record(self, identity, params, ok, witness="") -> bool:
        """Append one check; returns ok so callers can chain on it."""
        self.checks.append(
            Check(identity, dict(params), "pass" if ok else "fail", "" if ok else str(witness))
        )
        return bool(ok)

    def extend(self, other: "VerifyReport"):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def to_jsonable(self):
        return {
            "suite": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "checks": [c.to_jsonable() for c in self.checks],
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.name}: {status} ({self.passed} passed, {self.failed} failed)"
