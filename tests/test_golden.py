"""Golden CLI outputs: exit code and exact stdout of fixed commands.

The files in tests/golden/ were recorded before the a-coefficient,
Schur and hook-inverse cross-checks moved off the production path, and
the S_3 hp0 cases (two generators, tests/golden/s3.json) before the
invariant bases moved from the Reynolds average to the generators'
fixed space.  The S_4 hp0 cases (three generators on six variables,
tests/golden/s4.json) were recorded before the invariance and
functional rows went sparse, and the Z/4 (tests/golden/z4.json) and
S_4 degree-4 --dual-check cases before the dual read orbit sums, and
classify_n3_reject_1e12 (|f(0)| ~ 1e12, no integer root) before integer
roots came from bisection instead of trial division.  A refactor that
changes any byte of a report fails here.
"""

import json
import os

import pytest

from morita.cli import run

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN, "cases.json")) as _fh:
    CASES = json.load(_fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    case = CASES[name]
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a
            for a in case["argv"]]
    code = run(argv)
    with open(os.path.join(GOLDEN, name + ".out"), newline="") as fh:
        expected = fh.read()
    assert (code, capsys.readouterr().out) == (case["exit"], expected)
