"""Verification checks shared by the command-line front end.

Every check that samples draws its randomness from its own stream, keyed
by the run seed and the check name, so the report is reproducible and
independent of execution order.  Each check returns a pass flag and a
short detail string; tolerances are fixed here.

The decomposition and unfolding identities are polynomial identities, so
their checks prove them exactly on indeterminates and draw nothing:
``udl-explicit`` at generic n = 2..5, and ``superdiag_proof``,
``altsum_proof`` and ``recursion_proof`` at one symbolic n_half each,
which the suite runs at n_half = 2, 3, 4 and ``shuffle-verify`` at its
``--n``.  Each proof returns the failure text or None.  The
``whittaker_draws`` and ``kappa_sweep`` loops are shared the same way,
and the functional-equation ratio draws through ``fe_draws``, which the
``fe-ratio`` check and the ``fe-check`` command share.

``gamma-table`` proves its identity exactly as well: the unfolded Gamma
table equals ``script_g`` as a ``GammaExpr``, with no point s evaluated.
It still draws the random embeddings it compares the two on.

``whittaker`` still compares two float evaluations at drawn x, lambda and
delta, but no draw decomposes a matrix: each ``whittaker_draws`` call runs
one symbolic decomposition (``shuffled_factors``) and evaluates its exact
factors at every draw's rational x.  Each call pays for its own
decomposition, as nothing is kept between calls; at n_half = 5 and 6,
with ``shuffle-verify``'s default 20 draws, that costs more than
eliminating at each draw would.
"""

import cmath
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .decomp import (
    nhn_decompose,
    nhn_matches_udl,
    udl_explicit,
    verify_udl_reconstruction,
)
from .euler import (
    SatakeData,
    ext2_factor,
    ext2_reciprocal_poly,
    poly_degree,
    standard_reciprocal_poly,
)
from .lfactors import (
    EmbeddingParams,
    IdentityMismatchError,
    PoleProximityError,
    casselman_embedding,
    fe_ratio_check,
    holomorphy_check,
    random_repr_data,
    repr_to_json,
    script_g,
)
from .matrices import generic_matrix
from .rational import RationalComplex
from .specialfn import CutoffSpec, g_delta, g_delta_integral, gamma_c, gamma_r
from .unfold import (
    UnfoldVars,
    _x_index_set,
    altsum_check,
    build_B,
    kappa_signs,
    lower_factor_recursive,
    shuffled_factors,
    shuffled_whittaker_eval,
    shuffled_whittaker_oracle,
    superdiag_closed_form,
    superdiag_closed_form_x,
    superdiag_sum,
    unfolded_gamma_table,
)

ORACLE_CUTOFF = CutoffSpec(1.0, 2.0, 4)


@dataclass(frozen=True)
class CheckContext:
    rng: random.Random
    trials: int | None
    seed: int

    def count(self, default: int) -> int:
        return default if self.trials is None else self.trials


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_x_vars(rng, n_half: int) -> dict:
    return {
        key: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        for key in _x_index_set(n_half)
    }


# -- the unfolding identities, shared with shuffle-verify --------------------


def superdiag_proof(n_half: int):
    """The superdiagonal sum against its closed form, on c/z and on x
    indeterminates; on x both readings of the closed form must agree."""
    v = UnfoldVars.symbolic(n_half)
    if superdiag_sum(v) != superdiag_closed_form(v):
        return f"symbolic mismatch at n_half={n_half}"
    vx = UnfoldVars.symbolic_x(n_half)
    total = superdiag_sum(vx)
    if total != superdiag_closed_form_x(vx):
        return f"symbolic x-form mismatch at n_half={n_half}"
    if total != superdiag_closed_form(vx):
        return f"closed forms disagree at n_half={n_half}"
    return None


def altsum_proof(n_half: int):
    """Both sides of the alternating sum, on c/z and on x indeterminates."""
    lhs, rhs = altsum_check(UnfoldVars.symbolic(n_half))
    if lhs != rhs:
        return f"symbolic mismatch at n_half={n_half}"
    lhs, rhs = altsum_check(UnfoldVars.symbolic_x(n_half))
    if lhs != rhs:
        return f"symbolic x-form mismatch at n_half={n_half}"
    return None


def recursion_proof(n_half: int):
    """The recursive lower factor against the elimination of build_B."""
    vx = UnfoldVars.symbolic_x(n_half)
    x = {key: vx.x(*key) for key in _x_index_set(n_half)}
    nhn = nhn_decompose(build_B(vx))
    if nhn.h * nhn.n_minus != lower_factor_recursive(n_half, x):
        return f"symbolic mismatch at n_half={n_half}"
    return None


def whittaker_draws(rng, n_half: int, draws: int, tol: float):
    """Return the failure text (or None) and the worst relative error.

    The oracle side's exact factors come from one symbolic decomposition
    per call, evaluated at each draw's rational x; no draw decomposes.
    """
    factors = shuffled_factors(n_half)
    worst = 0.0
    for _ in range(draws):
        v = UnfoldVars.from_x(n_half, _random_x_vars(rng, n_half))
        lam = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(2 * n_half))
        delta = tuple(rng.randint(0, 1) for _ in range(2 * n_half))
        e = EmbeddingParams(lam, delta)
        a = shuffled_whittaker_eval(v, e)
        b = shuffled_whittaker_oracle(factors, v, e)
        err = abs(a - b) / max(abs(b), 1e-300)
        worst = max(worst, err)
        if err > tol:
            return f"dual paths differ by {err:.3e} at n_half={n_half}", worst
    return None, worst


def fe_draws(rng, samples: int, tol: float, r=None):
    """Return the failure text (or None) and the worst relative deviation.

    Each sample draws induction data, unless r is given, and then a point
    s; a point too close to a pole is redrawn, within 50 * samples
    attempts in all.
    """
    worst, done = 0.0, 0
    for _ in range(50 * samples):
        rd = random_repr_data(rng) if r is None else r
        s = complex(rng.uniform(0.2, 1.2), rng.uniform(-1.0, 1.0))
        try:
            res = fe_ratio_check(rd, s, tol=tol)
        except PoleProximityError:
            continue
        except IdentityMismatchError as exc:
            return (str(exc) if r is not None else f"{exc} for {repr_to_json(rd)}"), worst
        worst = max(worst, abs(res.lhs - res.rhs) / abs(res.lhs))
        done += 1
        if done == samples:
            return None, worst
    return f"could not sample away from poles in {50 * samples} attempts", worst


def kappa_sweep(n_half: int):
    """Return the failure text (or None) and the number of choices checked."""
    count = 0
    for delta in itertools.product((0, 1), repeat=2 * n_half):
        for eta in (0, 1):
            eps = (sum(delta) + n_half * eta) % 2
            try:
                kappa_signs(n_half, delta, eps, eta)
            except ArithmeticError:
                return f"sign identity fails at delta={delta}, eta={eta}", count
            count += 1
            try:
                kappa_signs(n_half, delta, 1 - eps, eta)
            except ValueError:
                pass
            else:
                return "parity constraint is not enforced", count
    return None, count


# -- the twelve checks -------------------------------------------------------


def check_anchors_gdelta(ctx: CheckContext):
    v = g_delta(0, 0.5)
    if abs(v - 1.0) > 1e-12:
        return False, f"closed-form value at 1/2 is {v!r}"
    q = g_delta_integral(0, 0.5, ORACLE_CUTOFF)
    if abs(q - 1.0) > 1e-6:
        return False, f"quadrature value at 1/2 is {q!r}"
    n_ref = ctx.count(100)
    for _ in range(n_ref):
        delta = ctx.rng.randint(0, 1)
        s = complex(ctx.rng.uniform(0.1, 0.9), ctx.rng.uniform(-2.0, 2.0))
        lhs = g_delta(delta, s) * g_delta(delta, 1 - s)
        rhs = -1.0 if delta else 1.0
        if abs(lhs - rhs) > 1e-10:
            return False, f"reflection fails at delta={delta}, s={s!r}: {lhs!r}"
    for _ in range(2 * n_ref):
        s = complex(ctx.rng.uniform(0.1, 2.5), ctx.rng.uniform(-2.0, 2.0))
        lhs = gamma_c(s)
        rhs = gamma_r(s) * gamma_r(s + 1)
        if abs(lhs - rhs) > 1e-12 * abs(rhs):
            return False, f"doubling fails at s={s!r}"
    return True, f"anchor, quadrature oracle, {n_ref} reflection and {2 * n_ref} doubling samples"


def check_udl_explicit(ctx: CheckContext):
    for n in range(2, 6):
        g = generic_matrix(n)
        udl = udl_explicit(g)
        if not verify_udl_reconstruction(g, udl):
            return False, f"generic reconstruction fails at n={n}"
        if not nhn_matches_udl(udl, nhn_decompose(g)):
            return False, f"generic factors disagree at n={n}"
    return True, "generic n=2..5"


def _prove(proof, detail: str):
    for n_half in (2, 3, 4):
        failure = proof(n_half)
        if failure:
            return False, failure
    return True, detail


def check_superdiag(ctx: CheckContext):
    return _prove(superdiag_proof, "symbolic n_half=2..4 in c/z and x, closed forms agree")


def check_altsum(ctx: CheckContext):
    return _prove(altsum_proof, "symbolic n_half=2..4 in c/z and x")


def check_recursion(ctx: CheckContext):
    return _prove(recursion_proof, "symbolic n_half=2..4")


def check_whittaker(ctx: CheckContext):
    per = ctx.count(100)
    worst = 0.0
    for n_half in (2, 3):
        failure, err = whittaker_draws(ctx.rng, n_half, per, 1e-10)
        worst = max(worst, err)
        if failure:
            return False, failure
    return True, f"{per} draws per n_half in (2, 3), worst {worst:.3e}"


def check_kappa(ctx: CheckContext):
    total = 0
    for n_half in (2, 3):
        failure, count = kappa_sweep(n_half)
        total += count
        if failure:
            return False, failure
    return True, f"{total} exhaustive parameter choices"


def check_gamma_table(ctx: CheckContext):
    draws = ctx.count(50)
    for _ in range(draws):
        rd = random_repr_data(ctx.rng)
        e = casselman_embedding(rd)
        if unfolded_gamma_table(e, rd.eta) != script_g(e, rd.eta):
            return False, f"table and product disagree for {repr_to_json(rd)}"
    return True, f"{draws} random embeddings"


def check_fe_ratio(ctx: CheckContext):
    samples = ctx.count(50)
    failure, _ = fe_draws(ctx.rng, samples, 1e-8)
    if failure:
        return False, failure
    return True, f"{samples} samples across random data"


def check_holomorphy(ctx: CheckContext):
    draws = ctx.count(50)
    for _ in range(draws):
        rd = random_repr_data(ctx.rng)
        rep = holomorphy_check(rd)
        if not rep.ok:
            return False, f"analysis fails for {repr_to_json(rd)}: {rep.notes}"
    return True, f"{draws} random data, lattice scans agree with family lists"


def check_euler(ctx: CheckContext):
    for size in (2, 4, 6):
        alpha = tuple(
            RationalComplex(
                Fraction(ctx.rng.randint(1, 9), 10), Fraction(ctx.rng.randint(1, 9), 10)
            )
            for _ in range(size)
        )
        d = SatakeData(3, alpha, RationalComplex(1, 1))
        if poly_degree(ext2_reciprocal_poly(d)) != size * (size - 1) // 2:
            return False, f"pairwise degree wrong at size {size}"
        if poly_degree(standard_reciprocal_poly(d)) != size:
            return False, f"standard degree wrong at size {size}"
    draws = ctx.count(20)
    for _ in range(draws):
        p = ctx.rng.choice((2, 3, 5, 7))
        na, nb = 2 * ctx.rng.randint(1, 2), 2 * ctx.rng.randint(1, 2)
        chi = RationalComplex(Fraction(1, 2), Fraction(ctx.rng.randint(-3, 3), 7))
        draw = lambda: RationalComplex(
            Fraction(ctx.rng.randint(-9, 9), 10), Fraction(ctx.rng.randint(-9, 9), 10)
        )
        a = [draw() for _ in range(na)]
        b = [draw() for _ in range(nb)]
        s = complex(ctx.rng.uniform(1.5, 2.5), ctx.rng.uniform(-1.0, 1.0))
        x = cmath.exp(-s * cmath.log(p))
        try:
            whole = ext2_factor(SatakeData(p, tuple(a + b), chi), s)
            parts = ext2_factor(SatakeData(p, tuple(a), chi), s) * ext2_factor(
                SatakeData(p, tuple(b), chi), s
            )
            a_f, b_f, chi_f = [complex(v) for v in a], [complex(v) for v in b], complex(chi)
            for ai in a_f:
                for bj in b_f:
                    parts /= 1.0 - ai * bj * chi_f * x
            perm = list(a + b)
            ctx.rng.shuffle(perm)
            shuffled = ext2_factor(SatakeData(p, tuple(perm), chi), s)
        except (ZeroDivisionError, ArithmeticError):
            continue
        if abs(whole - parts) > 1e-14 * abs(whole) * 10:
            return False, f"splitting fails at p={p}, s={s!r}"
        if abs(shuffled - whole) > 1e-14 * abs(whole) * 10:
            return False, f"permutation changes the factor at p={p}"
    return True, f"symbolic degrees at sizes 2, 4, 6 and {draws} numeric draws"


def check_report_determinism(ctx: CheckContext):
    sub = ("anchors-gdelta", "euler")
    first = [run_check(name, ctx.seed, ctx.trials) for name in sub]
    second = [run_check(name, ctx.seed, ctx.trials) for name in sub]
    if first != second:
        return False, "re-running seeded checks changed their results"
    return True, f"double-run of {len(sub)} seeded checks is bytewise stable"


CHECKS = {
    "anchors-gdelta": check_anchors_gdelta,
    "udl-explicit": check_udl_explicit,
    "superdiag": check_superdiag,
    "altsum": check_altsum,
    "recursion": check_recursion,
    "whittaker": check_whittaker,
    "kappa": check_kappa,
    "gamma-table": check_gamma_table,
    "fe-ratio": check_fe_ratio,
    "holomorphy": check_holomorphy,
    "euler": check_euler,
    "report-determinism": check_report_determinism,
}


def run_check(name: str, seed: int, trials=None) -> CheckResult:
    """Run one check; trials overrides its default draw counts when given."""
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    fn = CHECKS[name]
    ctx = CheckContext(random.Random(f"{seed}:{name}"), trials, seed)
    try:
        passed, detail = fn(ctx)
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, bool(passed), detail)


def run_suite(seed: int, trials=None, names=None) -> list:
    """Run the named checks (all of them by default), sorted by name."""
    todo = sorted(names if names is not None else CHECKS)
    unknown = [n for n in todo if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {', '.join(unknown)}")
    return [run_check(n, seed, trials) for n in todo]
