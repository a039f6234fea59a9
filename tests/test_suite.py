import dataclasses
import random
import re

import pytest

import extsq.decomp
import extsq.suite
import extsq.unfold
from extsq.lfactors import GammaExpr
from extsq.suite import CHECKS, CheckContext, CheckResult, run_check, run_suite, whittaker_proof


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
    small = run_check("gamma-table", 1, trials=2)
    assert small.passed
    assert small.detail == "2 random embeddings"


@pytest.mark.parametrize(
    "override", [{"trials": 0}, {"trials": -3}], ids=["trials=0", "trials=-3"]
)
def test_non_positive_overrides_are_rejected(override):
    with pytest.raises(ValueError):
        run_check("gamma-table", 0, **override)
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


@pytest.mark.parametrize(
    "name", ["udl-explicit", "superdiag", "altsum", "recursion", "whittaker"]
)
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


def _first_pivot_doubled(real):
    def rec(n_half, x):
        mat = real(n_half, x)
        mat.data[0][0] = 2 * mat.data[0][0]
        return mat

    return rec


def _scaled(factor):
    return lambda real: lambda *args: real(*args) * factor


def _negated(real):
    return lambda *args: -real(*args)


def _one_fewer_lambda_when_partial(real):
    return lambda d, lam, eta, full: real(d, lam if full else lam[:-1], eta, full)


def _last_coefficient_dropped(real):
    return lambda d: real(d)[:-1]


def _first_index_flipped(real):
    # delta_1 joins kappa2's index set
    return lambda delta: -real(delta) if delta[0] else real(delta)


def _closed_form_changed(change):
    """The closed form with the fields that change(form) returns replaced."""

    def wrap(real):
        def closed(n_half):
            form = real(n_half)
            return dataclasses.replace(form, **change(form))

        return closed

    return wrap


def _offset_raised(form):
    const, lam = form.exponents["x1_2"]
    return {"exponents": {**form.exponents, "x1_2": (const + 1, lam)}}


def _parity_flipped(form):
    first, *rest = form.parities["x1_2"]
    return {"parities": {**form.parities, "x1_2": (1 - first, *rest)}}


# the first gamma-table draw at seed 42
_GAMMA_TABLE_SEED_42 = (
    "table and product disagree for {'n': 3, 'eta': 0, 'sign_blocks': "
    "[{'eps': 0, 's': '-3/20-11/10i'}, {'eps': 0, 's': '-3/50+6/5i'}, "
    "{'eps': 0, 's': '3/50+6/5i'}, {'eps': 0, 's': '3/20-11/10i'}], "
    "'ds_blocks': [{'k': 4, 's': '-7/5i'}]}"
)

# the first fe-ratio draw at seed 42; the float values depend on libm
_FE_RATIO_SEED_42 = re.compile(
    r"functional-equation ratio mismatch at s=\(0\.9104810165632051\+0\.4011330302004339j\): "
    r"lhs=\S+, rhs=\S+, solved constant \S+ for "
    + re.escape(
        "{'n': 4, 'eta': 1, 'sign_blocks': [{'eps': 1, 's': '-13/100+6/5i'}, "
        "{'eps': 0, 's': '7/10i'}, {'eps': 0, 's': '9/10i'}, {'eps': 1, 's': '13/100+6/5i'}], "
        "'ds_blocks': [{'k': 3, 's': '-21/50-13/10i'}, {'k': 3, 's': '21/50-13/10i'}]}"
    )
)

# each side of each proved identity, and each sampled check, made wrong on
# its own; a detail is the exact text or a pattern it must match in full
FAULTS = {
    "anchors-gdelta-scaled": (
        "anchors-gdelta",
        "g_delta",
        _scaled(1 + 1e-9),
        "closed-form value at 1/2 is (1.000000001+0j)",
    ),
    "euler-pairwise-degree": (
        "euler",
        "ext2_reciprocal_poly",
        _last_coefficient_dropped,
        "pairwise degree wrong at size 2",
    ),
    "fe-ratio-omega": ("fe-ratio", "lfactors._omega", _negated, _FE_RATIO_SEED_42),
    "holomorphy-partial-product": (
        "holomorphy",
        "lfactors._g_product",
        _one_fewer_lambda_when_partial,
        "raised IdentityMismatchError: partial products do not reassemble the G-product",
    ),
    "kappa2-first-index": (
        "kappa",
        "unfold.kappa2_sign",
        _first_index_flipped,
        "sign identity fails at delta=(1, 0, 0, 0), eta=0",
    ),
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
        _closed_form_changed(_offset_raised),
        "exponent of x1_2 differs at n_half=2",
    ),
    "whittaker-factors": (
        "whittaker",
        "unfold.lower_factor_recursive",
        _first_pivot_doubled,
        "h_11 is not a signed monomial at n_half=2",
    ),
    "whittaker-kappa2": (
        "whittaker",
        "unfold.kappa2_sign",
        _first_index_flipped,
        "sign constant differs at n_half=2",
    ),
    "whittaker-parity": (
        "whittaker",
        "shuffled_whittaker_eval",
        _closed_form_changed(_parity_flipped),
        "parity of x1_2 differs at n_half=2",
    ),
    "whittaker-phase": (
        "whittaker",
        "shuffled_whittaker_eval",
        _closed_form_changed(lambda form: {"phase": form.phase + 1}),
        "phase differs at n_half=2",
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_committed_fault_fails_its_check(monkeypatch, fault):
    name, target, wrap, detail = FAULTS[fault]
    assert run_check(name, 42).passed
    # a bare name is read from extsq.suite, a dotted one from that module
    module, _, attr = target.rpartition(".")
    owner = getattr(extsq, module or "suite")
    monkeypatch.setattr(owner, attr, wrap(getattr(owner, attr)))
    got = run_check(name, 42)
    assert (got.name, got.passed) == (name, False)
    if isinstance(detail, re.Pattern):
        assert detail.fullmatch(got.detail), got.detail
    else:
        assert got.detail == detail


def test_every_check_has_a_committed_fault():
    # report-determinism re-runs two seeded checks; no single fault is its own
    assert {name for name, *_ in FAULTS.values()} == set(CHECKS) - {"report-determinism"}


@pytest.mark.parametrize("n_half", [2, 3, 4, 5])
def test_whittaker_proof_eliminates_nothing(monkeypatch, n_half):
    # the factors come from the recursion and the superdiagonal sum
    calls, real = [], extsq.decomp.nhn_decompose

    def spy(g):
        calls.append(g)
        return real(g)

    assert not hasattr(extsq.unfold, "nhn_decompose")
    for module in (extsq.suite, extsq.unfold, extsq.decomp):
        monkeypatch.setattr(module, "nhn_decompose", spy, raising=False)
    assert whittaker_proof(n_half) is None
    assert calls == []
