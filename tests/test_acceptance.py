"""The gate: one test per criterion, each printing its pass/fail line.

Criterion 7's monotone clause asks for mu_{n,10} at n = 8 and 16, where
n*theta*log(1/theta) = M has no solution (the left side is capped at n/e
< 10); the criterion is implemented as stated and marked strict-xfail so
the defect stays visible without drowning the rest of the suite. The
feasible clauses of the same criterion are asserted separately.
"""

import subprocess
import sys

import pytest
from conftest import child_env

from innerlab import acceptance


def _check(record):
    print(f"criterion {record['name']}: {'PASS' if record['passed'] else 'FAIL'}")
    for line in record["details"]:
        print(f"    {line}")
    assert record["passed"], "\n".join(record["details"])


def test_criterion_01_liouville():
    _check(acceptance.criterion_01())


def test_criterion_02_jensen_entropy():
    _check(acceptance.criterion_02())


def test_criterion_03_dirichlet_oracle():
    _check(acceptance.criterion_03())


def test_criterion_04_monotonicity():
    _check(acceptance.criterion_04())


def test_criterion_05_roberts():
    _check(acceptance.criterion_05())


def test_criterion_06_subadditivity():
    _check(acceptance.criterion_06())


@pytest.fixture(scope="module")
def criterion_07_record():
    """One criterion-07 run, shared by its strict-xfail and feasible-clause tests."""
    return acceptance.criterion_07()


@pytest.mark.xfail(
    strict=True,
    reason="theta_n with n*theta*log(1/theta) = 10 has no solution for n in {8, 16} "
    "(the product is capped at n/e); the monotone clause over {8,16,32,64} is "
    "mathematically infeasible as stated - see the decisions ledger",
)
def test_criterion_07_diffuse_direction(criterion_07_record):
    _check(criterion_07_record)


def test_criterion_07_feasible_clauses(criterion_07_record):
    rec = criterion_07_record
    details = "\n".join(rec["details"])
    print(details)
    assert "n=64 gaps" in details and ": True" in rec["details"][0]
    assert "monotone over the solvable subrange {32,64}: True" in details


def test_criterion_08_fundamental_identity():
    _check(acceptance.criterion_08())


def test_criterion_09_bergman_oracles():
    _check(acceptance.criterion_09())


def test_criterion_10_outer_function():
    _check(acceptance.criterion_10())


def test_criterion_11_regression_guards():
    _check(acceptance.criterion_11())


def test_criterion_12_selftest_determinism(tmp_path):
    """Two selftest runs produce byte-identical output and equal exit codes."""
    cmd = [sys.executable, "-m", "innerlab.cli", "selftest"]
    runs = [
        subprocess.run(cmd, capture_output=True, timeout=1800, env=child_env())
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode
    assert b"criterion" in runs[0].stdout
    print("criterion 12 Selftest determinism: PASS")
    print(f"    {len(runs[0].stdout)} bytes, identical across runs")
