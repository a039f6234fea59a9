"""Acceptance gate: every shipped guarantee, one test per criterion.

Criteria 1 through 11 run the corresponding named suite check at seed 42
with its canonical trial counts and tolerances; criterion 12 re-runs the
full suite twice in separate processes, compares the JSON reports byte
for byte and pins the report's md5.  Each test prints a single PASS/FAIL
line.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from extsq.suite import run_check


def _criterion(number, name):
    res = run_check(name, 42)
    verdict = "PASS" if res.passed else "FAIL"
    print(f"{verdict} criterion-{number:02d} {name}: {res.detail}")
    assert res.passed, f"criterion {number} ({name}): {res.detail}"


def test_criterion_01_gamma_anchors_and_quadrature():
    _criterion(1, "anchors-gdelta")


def test_criterion_02_minor_formula_decomposition():
    _criterion(2, "udl-explicit")


def test_criterion_03_superdiagonal_sum():
    _criterion(3, "superdiag")


def test_criterion_04_alternating_sum():
    _criterion(4, "altsum")


def test_criterion_05_lower_factor_recursion():
    _criterion(5, "recursion")


def test_criterion_06_whittaker_dual_paths():
    _criterion(6, "whittaker")


def test_criterion_07_kappa_sign_identity():
    _criterion(7, "kappa")


def test_criterion_08_gamma_table_assembly():
    _criterion(8, "gamma-table")


def test_criterion_09_functional_equation_ratio():
    _criterion(9, "fe-ratio")


def test_criterion_10_pole_bookkeeping():
    _criterion(10, "holomorphy")


def test_criterion_11_euler_factors():
    _criterion(11, "euler")


def test_criterion_12_report_determinism():
    cmd = [sys.executable, "-m", "extsq.cli", "suite", "--seed", "42", "--json"]
    a = subprocess.run(cmd, capture_output=True, text=True, timeout=55)
    b = subprocess.run(cmd, capture_output=True, text=True, timeout=55)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion-12 report-determinism: two seeded runs, byte-compared")
    assert a.returncode == 0, a.stderr
    assert b.returncode == 0, b.stderr
    assert a.stdout == b.stdout, "seeded suite reports differ between processes"
    # the behavioural contract: a change that keeps behaviour keeps this report
    assert hashlib.md5(a.stdout.encode()).hexdigest() == "b6477da24bba2d4958198f8b449d09de"
    doc = json.loads(a.stdout)
    assert all(c["passed"] for c in doc["checks"])
