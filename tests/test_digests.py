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
def test_commands_print_recorded_bytes(workload):
    commands = [argv for argv in WORKLOADS.domain(workload) if not WORKLOADS.is_verify(argv)]
    assert commands
    differ = [WORKLOADS.key(argv) for argv in commands
              if _digest(argv) != DIGESTS[WORKLOADS.key(argv)]]
    assert differ == []


@pytest.mark.parametrize("command", VERIFY_COMMANDS)
def test_verify_commands_print_recorded_bytes(command):
    assert _digest(shlex.split(command)) == DIGESTS[command]


# sha256 of `verify SUITE --mode extended --output json` for every suite.
# Each was recorded before the kernel it now runs on was introduced: packed
# q-lists, monomial substitution and Partition fast paths (series: before
# its Poly products became packed integer products; genfun, recurrences,
# derangements, positivity, characters, structure and related: before the
# monomial quasisymmetric coefficients were read by bitmask).  The widest
# coefficients they meet leave the output byte-identical.
EXTENDED = {
    "characters": "60931a4dce687034efae6caba0e327e5ec7fdad0baa23bcc5f0a7d103a4cb0a2",
    "derangements": "79ecf733020dd714398d76903b2f7e4155e199b2f1d080c51f3d359b16543d8a",
    "finite-spec": "c2509b737eeab53d9fec0a86797a747686bf0babff4efea30fa72665f91ec427",
    "genfun": "97ddf3b4b7e70e74e7c94f1797833be63368599e6711539e80e6cc6c24d678eb",
    "positivity": "0e54a2b5f2a828ba786d738e083e1a3421b2c797aee7daa693adfd15aa085f83",
    "qexp": "e7e19ba139863df260b8cbe88f64dd36e2fec32d5b6c94f84bf22b96c1ce06d3",
    "recurrences": "46d0de1b05689725900220f3ad65c06ac735adcc98d255314a0be79d601ab809",
    "related": "0d2edaad13b0ba2b028db0d5d300960e0dd082e28600628c0c0e79b9543d8cb5",
    "series": "d40bb59c67d34e3684c93d4ff19975ddba1b6bc24cbeac2cafe2bd18bfe564a7",
    "specializations": "399804fecfe241d62923abacf9652cd5987253ba3dcdb25e568360ef112fc6fc",
    "structure": "7a889b683403e88ab3ccbaa9a30e60dccb115eaea0a0daaa911e959c5e9353ec",
    "symmetry": "45c9eb714b7c78185b0d37c53f12cde66b792c19e57b8f651727e75642c5b620",
}


@pytest.mark.parametrize("suite", sorted(EXTENDED))
def test_extended_verify_prints_recorded_bytes(suite):
    argv = ["verify", suite, "--mode", "extended", "--output", "json"]
    assert _digest(argv) == EXTENDED[suite]
