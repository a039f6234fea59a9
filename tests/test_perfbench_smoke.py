"""Small passes of the benchmark's ``suite``, ``analytic``, ``decomp`` and
``unfold`` workloads.

``perfbench/`` has its own tests (``python -m pytest perfbench``); these
keep the harness's view of the suite report, the quadrature oracle, the
functional equation, the pole checks, both triangular decompositions and
the unfolding identities inside the default test run.
"""

import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_suite_pass_is_correct():
    workloads = load_workloads()
    workload, first_quad_s = workloads.prepare("suite", 1, trials=1)
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert first_quad_s >= 0.0
    # the run itself and its twelve checks
    assert tally.attempted == 13
    assert tally.failed == 0
    assert tally.correct, tally.wrong


def test_analytic_pass_is_correct():
    workloads = load_workloads()
    workload, first_quad_s = workloads.prepare(
        "analytic", 1, points=20, repr_sizes=range(1, 3), per_size=1
    )
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert first_quad_s >= 0.0
    assert tally.attempted == 24
    assert tally.failed == 0
    assert tally.correct, tally.wrong


def test_decomp_pass_is_correct():
    workloads = load_workloads()
    workload, first_quad_s = workloads.prepare(
        "decomp", 1, generic_sizes=(3, 4), rational_sizes=range(2, 5), per_size=2
    )
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert first_quad_s == 0.0
    assert tally.attempted == 8
    assert tally.failed == 0
    assert tally.correct, tally.wrong


def test_unfold_pass_is_correct():
    workloads = load_workloads()
    workload, first_quad_s = workloads.prepare(
        "unfold", 1, symbolic_n=3, rational_sizes=(4,), per_size=1
    )
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert first_quad_s == 0.0
    assert tally.attempted == 8
    assert tally.failed == 0
    assert tally.correct, tally.wrong
