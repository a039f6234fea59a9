import random

import pytest

from extsq.suite import CHECKS, CheckContext, CheckResult, run_check, run_suite


EXPECTED_CHECKS = {
    "anchors-gdelta",
    "udl-explicit",
    "superdiag",
    "altsum",
    "recursion",
    "whittaker",
    "kappa",
    "gamma-table",
    "fe-ratio",
    "holomorphy",
    "euler",
    "report-determinism",
}


def test_check_registry():
    assert set(CHECKS) == EXPECTED_CHECKS


def test_run_check_is_seed_stable():
    a = run_check("kappa", 3)
    b = run_check("kappa", 3)
    assert a == b
    assert a.passed


def test_run_check_captures_exceptions():
    def boom(ctx):
        raise RuntimeError("nope")

    CHECKS["_boom"] = boom
    try:
        res = run_check("_boom", 0)
    finally:
        del CHECKS["_boom"]
    assert not res.passed
    assert "RuntimeError" in res.detail


def test_run_suite_subset_ordering():
    results = run_suite(5, names=["kappa", "altsum", "euler"])
    assert [r.name for r in results] == ["altsum", "euler", "kappa"]
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results)


def test_run_suite_rejects_unknown_names():
    with pytest.raises(KeyError):
        run_suite(0, names=["no-such-check"])


def test_trials_override_shrinks_work():
    small = run_check("whittaker", 1, trials=2)
    assert small.passed
    assert "2 draws" in small.detail


@pytest.mark.parametrize(
    "override", [{"trials": 0}, {"trials": -3}], ids=["trials=0", "trials=-3"]
)
def test_non_positive_overrides_are_rejected(override):
    with pytest.raises(ValueError):
        run_check("whittaker", 0, **override)
    with pytest.raises(ValueError):
        run_suite(0, names=["kappa"], **override)


def test_only_a_missing_override_means_the_default():
    rng = random.Random(0)
    assert CheckContext(rng, None, 0).count(7) == 7
    # the entry points reject a zero count; the context passes it through
    assert CheckContext(rng, 0, 0).count(7) == 0
