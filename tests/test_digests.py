"""Every rendered answer the benchmark can ask for keeps its recorded bytes.

perfbench/digests.json holds the sha256 of the stdout of every command that
perfbench/workloads.py can draw.  This replays those commands in this
process, the rendering commands against an empty table store, and compares
digests.  It reads both files and writes neither.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import shlex
from pathlib import Path

import pytest

from eulerq.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
VERIFY_COMMANDS = sorted({WORKLOADS.key(argv)
                          for workload in WORKLOADS.WORKLOADS
                          for argv in WORKLOADS.domain(workload)
                          if WORKLOADS.is_verify(argv)})


def _digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0, argv
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("workload", ["cli-algebra", "cli-census"])
def test_commands_print_recorded_bytes(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("EULERQ_CACHE_DIR", str(tmp_path / "store"))
    commands = [argv for argv in WORKLOADS.domain(workload) if not WORKLOADS.is_verify(argv)]
    assert commands
    differ = [WORKLOADS.key(argv) for argv in commands
              if _digest(argv) != DIGESTS[WORKLOADS.key(argv)]]
    assert differ == []


@pytest.mark.parametrize("command", VERIFY_COMMANDS)
def test_verify_commands_print_recorded_bytes(command):
    assert _digest(shlex.split(command)) == DIGESTS[command]


# sha256 of `verify SUITE --mode extended --output json` for the suites that
# run on packed q-lists, monomial substitution and Partition fast paths,
# recorded before those kernels were introduced (series: before its Poly
# products became packed integer products): the widest coefficients they
# meet leave the output byte-identical
EXTENDED = {
    "finite-spec": "c2509b737eeab53d9fec0a86797a747686bf0babff4efea30fa72665f91ec427",
    "specializations": "399804fecfe241d62923abacf9652cd5987253ba3dcdb25e568360ef112fc6fc",
    "symmetry": "45c9eb714b7c78185b0d37c53f12cde66b792c19e57b8f651727e75642c5b620",
    "qexp": "e7e19ba139863df260b8cbe88f64dd36e2fec32d5b6c94f84bf22b96c1ce06d3",
    "series": "d40bb59c67d34e3684c93d4ff19975ddba1b6bc24cbeac2cafe2bd18bfe564a7",
}


@pytest.mark.parametrize("suite", sorted(EXTENDED))
def test_extended_verify_prints_recorded_bytes(suite):
    argv = ["verify", suite, "--mode", "extended", "--output", "json"]
    assert _digest(argv) == EXTENDED[suite]
