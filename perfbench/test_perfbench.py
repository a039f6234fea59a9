"""Tests of the benchmark itself: wrapper coverage at tiny sizes, and a smoke run.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import extsq  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "suite": {"trials": 1},
    "decomp": {"generic_sizes": (2, 3), "rational_sizes": (2, 3), "per_size": 1},
    "unfold": {"symbolic_n": 2, "rational_sizes": (3,), "per_size": 1},
    "analytic": {"points": 4, "repr_sizes": (1, 2), "per_size": 1},
}


def _traced_pass(name):
    workload, _ = workloads.prepare(name, 7, **TINY[name])
    tally = workloads.Tally()
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.run_pass(tally)
    finally:
        tracer.uninstall()
    return tally, spans.layer_metrics(tracer.spans, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_declared_layers_register_calls(name):
    tally, metrics = _traced_pass(name)
    assert tally.correct, tally.wrong
    silent = [s for s in spans.EXERCISED[name] if metrics[f"{s}.calls"] == 0]
    assert not silent, f"wrapped but never called on {name}: {silent}"
    if name == "suite":
        for check in spans.CHECK_NAMES:
            assert metrics[f"suite.check.{check}.wall_s"] > 0, check


def test_analytic_runs_no_exact_algebra():
    _, metrics = _traced_pass("analytic")
    algebra = {k: v for k, v in metrics.items()
               if k.startswith(spans.ALGEBRA_LAYERS) and k.endswith(".calls")}
    assert algebra and not any(algebra.values()), algebra


# the representation on which the suite's holomorphy check fails at seed 77
SEED77_REPR = {"n": 4, "eta": 1, "sign_blocks": [], "ds_blocks": [
    {"k": 3, "s": "-37/100-4/5i"}, {"k": 3, "s": "-13/100-4/5i"},
    {"k": 3, "s": "13/100-4/5i"}, {"k": 3, "s": "37/100-4/5i"}]}


def test_vanishing_verdict_in_suite_is_confirmed():
    workload = workloads.Suite(77)
    workload.argv += ["--check", "holomorphy"]
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert tally.correct, tally.wrong
    assert (tally.attempted, tally.failed, tally.verdicts) == (2, 0, 1)


def test_vanishing_verdict_in_analytic_is_confirmed():
    tally = workloads.Tally()
    rd = extsq.repr_from_json(SEED77_REPR)
    tally.run("seed 77", lambda: workloads._holomorphy_holds(rd, tally))
    assert tally.correct, tally.wrong
    assert (tally.attempted, tally.failed, tally.verdicts) == (1, 0, 1)


def _fail_holomorphy(monkeypatch, module, note):
    real = extsq.holomorphy_check

    def broken(rd):
        report = real(rd)
        return type(report)(False, report.poles, report.notes + (note,))

    monkeypatch.setattr(module, "holomorphy_check", broken)


OTHER_NOTES = [
    "local factor contains reciprocal Gamma factors",
    "pole at 1/2: G-product order 0 below required 1",
]


@pytest.mark.parametrize("note", OTHER_NOTES)
def test_other_holomorphy_note_in_suite_is_wrong(monkeypatch, note):
    import extsq.suite

    _fail_holomorphy(monkeypatch, extsq.suite, note)
    workload = workloads.Suite(7, trials=1)
    workload.argv += ["--check", "holomorphy"]
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert not tally.correct
    assert tally.refused == tally.verdicts == 0


@pytest.mark.parametrize("note", OTHER_NOTES)
def test_other_holomorphy_note_in_analytic_is_wrong(monkeypatch, note):
    _fail_holomorphy(monkeypatch, extsq, note)
    workload, _ = workloads.prepare("analytic", 7, points=1, repr_sizes=(1,), per_size=1)
    tally = workloads.Tally()
    workload.run_pass(tally)
    assert not tally.correct
    assert tally.refused == tally.verdicts == 0


@pytest.mark.parametrize("note", [
    "pole at 1/2: partial product 6 vanishes to order 1",
    "pole at 1/2+8/5i: partial product 6 vanishes to order 2",
])
def test_vanishing_note_the_recount_denies_is_wrong(monkeypatch, note):
    _fail_holomorphy(monkeypatch, extsq, note)
    tally = workloads.Tally()
    rd = extsq.repr_from_json(SEED77_REPR)
    tally.run("seed 77", lambda: workloads._holomorphy_holds(rd, tally))
    assert not tally.correct
    assert tally.verdicts == 0


def test_host_speed_sampler_keeps_its_time_apart():
    import signal
    import time

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert 0 < sampler.spent < 0.35
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    mean = sum(sampler.samples) / len(sampler.samples)
    assert sampler.to_reference(2.0) == pytest.approx(2.0 * hostspeed.REF_S / mean)


def test_uninstall_restores_every_binding():
    import extsq.polynomials as polynomials
    import extsq.ratfunc as ratfunc
    import extsq.suite as suite

    before = (polynomials.poly_gcd, ratfunc.poly_gcd, extsq.Polynomial.__mul__,
              extsq.Polynomial.__rmul__, dict(suite.CHECKS))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ratfunc.poly_gcd is polynomials.poly_gcd is not before[0]
        assert extsq.Polynomial.__rmul__ is extsq.Polynomial.__mul__ is not before[2]
    finally:
        tracer.uninstall()
    after = (polynomials.poly_gcd, ratfunc.poly_gcd, extsq.Polynomial.__mul__,
             extsq.Polynomial.__rmul__, dict(suite.CHECKS))
    assert after == before


def test_self_time_excludes_wrapped_callees():
    all_spans = [
        ["decomp.nhn_decompose", 0, 100, -1, None],
        ["polynomials.mul", 10, 40, 0, 3],
        ["polynomials.exact_div", 50, 60, 0, "none"],
        ["polynomials.mul", 52, 55, 2, 7],
    ]
    m = spans.layer_metrics(all_spans, 0)
    assert m["decomp.nhn_decompose.self_s"] == 60e-9
    assert m["polynomials.exact_div.self_s"] == 7e-9
    assert m["polynomials.mul.calls"] == 2
    assert m["polynomials.exact_div.fail_ratio"] == 1.0
    assert m["polynomials.max_terms"] == 7


def test_per_layer_list_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == [
        n for n, _ in spans.per_layer_metric_names()]
    assert [m["unit"] for m in declared["per_layer"]] == [
        u for _, u in spans.per_layer_metric_names()]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, names", [
    ("0", ["wall_s", "setup_s", "peak_rss_mb"]),
    ("1", [n for n, _ in spans.per_layer_metric_names()]),
])
def test_smoke_run_prints_every_metric(trace, names):
    proc = _run(ROOT, "--workload", "analytic", "--seed", "3", "--seconds", "0.1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0
    assert list(result["metrics"]) == names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "decomp", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
