import dataclasses
import random

import pytest

import extsq.suite
import extsq.unfold
from extsq.lfactors import GammaExpr
from extsq.suite import CHECKS, CheckContext, CheckResult, run_check, run_suite, whittaker_draws


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


class _NoDraws:
    """An rng that refuses every use, so a check that samples fails."""

    def __getattr__(self, name):
        raise AssertionError(f"the check read rng.{name}")


@pytest.mark.parametrize("name", ["udl-explicit", "superdiag", "altsum", "recursion"])
def test_algebra_checks_draw_nothing(name):
    passed, detail = CHECKS[name](CheckContext(_NoDraws(), None, 0))
    assert passed, detail


def _plus_one(real):
    return lambda v: real(v) + 1


def _perturbed_rhs(real):
    def altsum(v):
        lhs, rhs = real(v)
        return lhs, rhs + 1

    return altsum


def _on_x_only(fault):
    """The fault, applied only to x indeterminates (symbolic_x)."""

    def wrap(real):
        wrong = fault(real)
        return lambda v: wrong(v) if str(v.x(1, 2)) == "x1_2" else real(v)

    return wrap


def _one_x_doubled(real):
    return lambda n_half, x: real(n_half, {**x, (1, 2): x[(1, 2)] * 2})


def _one_factor_entry_corrupted(real):
    def udl(g):
        factors = real(g)
        factors.b_plus.data[0][1] += 1
        return factors

    return udl


def _eta_flipped(real):
    return lambda e, eta: real(e, 1 - eta)


def _stray_g_factor(real):
    return lambda e, eta: real(e, eta) * GammaExpr.g_factor(0, 0)


def _kappa2_negated(real):
    # kappa2 is a sign that multiplies the whole closed form
    return lambda v, e: -real(v, e)


def _first_h_doubled(real):
    def factors(n_half):
        f = real(n_half)
        return dataclasses.replace(f, diag=(2 * f.diag[0],) + f.diag[1:])

    return factors


# the first gamma-table draw at seed 42
_GAMMA_TABLE_SEED_42 = (
    "table and product disagree for {'n': 3, 'eta': 0, 'sign_blocks': "
    "[{'eps': 0, 's': '-3/20-11/10i'}, {'eps': 0, 's': '-3/50+6/5i'}, "
    "{'eps': 0, 's': '3/50+6/5i'}, {'eps': 0, 's': '3/20-11/10i'}], "
    "'ds_blocks': [{'k': 4, 's': '-7/5i'}]}"
)

# each side of each proved identity, made wrong on its own
FAULTS = {
    "superdiag-closed-form": (
        "superdiag",
        "superdiag_closed_form",
        _plus_one,
        "symbolic mismatch at n_half=2",
    ),
    "superdiag-closed-form-x": (
        "superdiag",
        "superdiag_closed_form_x",
        _plus_one,
        "symbolic x-form mismatch at n_half=2",
    ),
    "superdiag-closed-form-on-x": (
        "superdiag",
        "superdiag_closed_form",
        _on_x_only(_plus_one),
        "closed forms disagree at n_half=2",
    ),
    "altsum-rhs": ("altsum", "altsum_check", _perturbed_rhs, "symbolic mismatch at n_half=2"),
    "altsum-rhs-on-x": (
        "altsum",
        "altsum_check",
        _on_x_only(_perturbed_rhs),
        "symbolic x-form mismatch at n_half=2",
    ),
    "recursion-x": (
        "recursion",
        "lower_factor_recursive",
        _one_x_doubled,
        "symbolic mismatch at n_half=2",
    ),
    "udl-entry": (
        "udl-explicit",
        "udl_explicit",
        _one_factor_entry_corrupted,
        "generic reconstruction fails at n=2",
    ),
    "gamma-table-eta": (
        "gamma-table",
        "unfolded_gamma_table",
        _eta_flipped,
        _GAMMA_TABLE_SEED_42,
    ),
    "gamma-table-stray-factor": (
        "gamma-table",
        "script_g",
        _stray_g_factor,
        _GAMMA_TABLE_SEED_42,
    ),
    "whittaker-closed-form": (
        "whittaker",
        "shuffled_whittaker_eval",
        _kappa2_negated,
        "dual paths differ by 2.000e+00 at n_half=2",
    ),
    "whittaker-factors": (
        "whittaker",
        "shuffled_factors",
        _first_h_doubled,
        "dual paths differ by 4.142e-01 at n_half=2",
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_committed_fault_fails_its_check(monkeypatch, fault):
    name, attr, wrap, detail = FAULTS[fault]
    assert run_check(name, 42).passed
    monkeypatch.setattr(extsq.suite, attr, wrap(getattr(extsq.suite, attr)))
    assert run_check(name, 42) == CheckResult(name, False, detail)


def test_whittaker_draws_decompose_once_per_call(monkeypatch):
    # one symbolic decomposition per call, none per draw, and none kept
    # from one call to the next
    calls = []

    def counted(real, attr):
        def spy(*args):
            calls.append(attr)
            return real(*args)

        return spy

    for module in (extsq.suite, extsq.unfold):
        for attr in ("build_B", "nhn_decompose"):
            monkeypatch.setattr(module, attr, counted(getattr(module, attr), attr))
    rng = random.Random(0)
    for _ in range(2):
        failure, _ = whittaker_draws(rng, 3, 25, 1e-10)
        assert failure is None
    assert calls == ["build_B", "nhn_decompose"] * 2
