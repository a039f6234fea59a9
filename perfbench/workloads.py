"""The four benchmark workloads: inputs made from a seed, and one pass each.

Every workload is built in two steps.  The constructor draws all inputs
from ``random.Random(f"perfbench:<name>:<seed>")``, and ``prepare`` adds the
lazy start-up work a user pays once per process (the first quadrature call,
which imports ``scipy.integrate``).  ``run_pass`` then verifies the
workload's whole set of identities once, recording every instance in a
``Tally``.  A pass never draws new inputs, so passes are identical.

An instance is one input pushed through two independent computations that
must agree exactly (or, for quadrature, within the suite's 1e-6 oracle
tolerance).  The tally separates three outcomes:

* a mismatch, or an ``AssertionError`` raised by one of the program's own
  internal cross-checks: a wrong output;
* a refusal the API documents for a hard input (``QuadratureToleranceError``
  when the oracle misses the error budget asked for, ``PoleProximityError``
  on every candidate point): a failed instance, but not a wrong output;
* any other exception: a failed instance and a wrong output.

A ``holomorphy_check`` report whose only notes say that a partial product
vanishes at a pole is the program's verdict about its input, not a failed
operation.  The benchmark recounts each such note (``_vanishing_confirmed``)
and counts the instance as correct when the recount agrees, and as wrong
when it does not; the same holds when the suite's ``holomorphy`` check
fails on such a report.  Confirmed verdicts are counted apart, in
``Tally.verdicts``.  Any other ``holomorphy_check`` note is a wrong output.
"""

import contextlib
import hashlib
import io
import ast
import json
import random
import re
import time
from fractions import Fraction

import extsq
import extsq.cli

# The cutoff and the absolute tolerance the suite uses for its quadrature
# oracle.
ORACLE_CUTOFF = extsq.CutoffSpec(1.0, 2.0, 4)
ORACLE_TOL = 1e-6
FE_TOL = 1e-8
# Seeded points offered to ``fe_ratio_check`` per representation.
FE_CANDIDATES = 8
# The ``holomorphy_check`` note that describes the input rather than a
# broken computation: a partial product vanishing at a pole it should cover.
VANISHING_NOTE = re.compile(
    r"pole at (?P<pole>.+): partial product (?P<part>\d+) vanishes to order (?P<order>\d+)")


class Tally:
    """Counts of attempted, failed and wrong instances, with their times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.refused = 0
        self.verdicts = 0
        self.instance_s = []

    @property
    def correct(self) -> bool:
        return not self.wrong

    def record(self, label: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong.append(f"{label}: computations disagree")

    def refuse(self):
        """Count a failed instance that is not a wrong output."""
        self.attempted += 1
        self.failed += 1
        self.refused += 1

    def run(self, label: str, check, refusals=()):
        """Time ``check()``, which returns True when its computations agree."""
        t0 = time.perf_counter()
        try:
            ok = check()
        except refusals:
            self.refuse()
            return
        except AssertionError as exc:
            self.attempted += 1
            self.failed += 1
            self.wrong.append(f"{label}: internal cross-check failed: {exc}")
            return
        except Exception as exc:
            self.attempted += 1
            self.failed += 1
            self.wrong.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            self.instance_s.append(time.perf_counter() - t0)
        self.record(label, ok)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{name}:{seed}")


def _first_quadrature() -> float:
    """Make the first quadrature call of the process; return its seconds."""
    t0 = time.perf_counter()
    q = extsq.g_delta_integral(0, 0.5, ORACLE_CUTOFF)
    elapsed = time.perf_counter() - t0
    if abs(q - 1.0) > ORACLE_TOL:
        raise RuntimeError(f"first quadrature call gave {q!r}, expected 1")
    return elapsed


class Suite:
    """``extsq suite --seed <seed> --json`` through ``extsq.cli.main``."""

    uses_quadrature = True

    def __init__(self, seed: int, trials=None):
        self.argv = ["suite", "--seed", str(seed), "--json"]
        if trials is not None:
            self.argv += ["--trials", str(trials)]
        self.report = None

    @property
    def report_md5(self):
        return hashlib.md5(self.report).hexdigest() if self.report else None

    def run_pass(self, tally: Tally):
        tally.run("suite run", lambda: self._run(tally))

    def _run(self, tally: Tally) -> bool:
        """Run the suite once; true when its status matches its report and
        the report has the first pass's bytes."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = extsq.cli.main(self.argv)
        raw = out.getvalue().encode()
        report = json.loads(raw)
        for check in report["checks"]:
            verdict = not check["passed"] and _vanishing_verdict(check)
            tally.verdicts += verdict
            tally.record(f"suite check {check['name']}", check["passed"] or verdict)
        if self.report is None:
            self.report = raw
        return (status == 0) == report["passed"] and raw == self.report


def _vanishing_verdict(check) -> bool:
    """True when the suite's failed holomorphy check reports a confirmed
    vanishing verdict.

    The detail reads ``analysis fails for <repr>: <notes tuple>``.  The
    representation is read back from it and checked again, which must give
    the same notes, and those notes must pass ``_vanishing_confirmed``.  A
    detail that does not parse that way is not this verdict.
    """
    if check["name"] != "holomorphy":
        return False
    m = re.fullmatch(r"analysis fails for (\{.*\}): (\(.*\))", check["detail"], re.S)
    try:
        rd = extsq.repr_from_json(ast.literal_eval(m.group(1)))
        notes = ast.literal_eval(m.group(2))
    except (AttributeError, KeyError, TypeError, ValueError, SyntaxError):
        return False
    report = extsq.holomorphy_check(rd)
    return report.notes == notes and _vanishing_confirmed(rd, report)


def _vanishing_confirmed(rd, report) -> bool:
    """True when every note of a failed ``holomorphy_check`` report says that
    a partial product vanishes at one of ``report.poles``, to the order that
    a recount of that product's reciprocal Gamma factors on the pole
    lattice gives."""
    if not report.notes:
        return False
    parts = extsq.partial_products(extsq.normalize(rd))
    poles = {str(rec.location): rec.location for rec in report.poles}
    for note in report.notes:
        m = VANISHING_NOTE.fullmatch(note)
        if not m or m["pole"] not in poles or not 1 <= int(m["part"]) <= len(parts):
            return False
        point = poles[m["pole"]]
        order = sum(-p for fac, p in parts[int(m["part"]) - 1].factors.items()
                    if p < 0 and _on_pole_lattice(fac, point))
        if order != int(m["order"]):
            return False
    return True


def _on_pole_lattice(fac, point) -> bool:
    """Is the factor's argument at ``point`` a pole of its Gamma function: a
    nonpositive integer, and even for Gamma_R?"""
    z = fac.const + point if fac.orient == 1 else fac.const - point
    step = 2 if fac.kind == "R" else 1
    return z.imag == 0 and z.real <= 0 and z.real.denominator == 1 and z.real % step == 0


class Decomp:
    """Both triangular decompositions and their two cross-checks.

    The generic symbolic matrices put nearly all the time into polynomial
    multiplication and exact division.  The rational matrices run the same
    code on ``Fraction`` entries, so a change that speeds up polynomials but
    slows fractions shows.  Each rational matrix is built as U * D * L with
    unit triangular U, L and a nonzero diagonal D, so every trailing
    principal minor is nonzero by construction and no input is degenerate.
    """

    uses_quadrature = False

    def __init__(self, seed: int, generic_sizes=(3, 4, 5), rational_sizes=range(2, 9),
                 per_size=2):
        rng = _rng("decomp", seed)
        self.instances = [(f"generic n={n}", extsq.generic_matrix(n)) for n in generic_sizes]
        for n in rational_sizes:
            for k in range(per_size):
                self.instances.append((f"rational n={n} #{k}", _udl_product(rng, n)))

    def run_pass(self, tally: Tally):
        for label, g in self.instances:
            tally.run(label, lambda: _decompose_and_compare(g))


def _decompose_and_compare(g) -> bool:
    udl = extsq.udl_explicit(g)
    if not extsq.verify_udl_reconstruction(g, udl):
        return False
    return extsq.nhn_matches_udl(udl, extsq.nhn_decompose(g))


def _udl_product(rng, n: int):
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            upper[i][j] = Fraction(rng.randint(-3, 3))
            lower[j][i] = Fraction(rng.randint(-3, 3))
    diag = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(n)]
    rows = [
        [sum(upper[i][k] * diag[k] * lower[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return extsq.Matrix(rows)


def _x_keys(n_half: int):
    return [(i, j) for i in range(1, n_half) for j in range(2 * i, 2 * n_half)]


def _random_x(rng, n_half: int) -> dict:
    return {
        key: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for key in _x_keys(n_half)
    }


def _recursion_matches(n_half: int, v) -> bool:
    x = {key: v.x(*key) for key in _x_keys(n_half)}
    rec = extsq.lower_factor_recursive(n_half, x)
    nhn = extsq.nhn_decompose(extsq.build_B(v))
    return nhn.h * nhn.n_minus == rec


def _altsum_holds(v) -> bool:
    lhs, rhs = extsq.altsum_check(v)
    return lhs == rhs


class Unfold:
    """Superdiagonal, alternating-sum and recursion identities.

    The symbolic half runs many small gcd and content computations plus
    determinants over rational functions; the rational half puts
    determinants of ``Fraction`` matrices up to 9 x 9 on the path.
    """

    uses_quadrature = False

    def __init__(self, seed: int, symbolic_n=4, rational_sizes=(5, 6), per_size=4):
        rng = _rng("unfold", seed)
        n = symbolic_n
        v = extsq.UnfoldVars.symbolic(n)
        vx = extsq.UnfoldVars.symbolic_x(n)
        self.instances = [
            (f"symbolic superdiag c/z n_half={n}",
             lambda: extsq.superdiag_sum(v) == extsq.superdiag_closed_form(v)),
            (f"symbolic superdiag x n_half={n}",
             lambda: extsq.superdiag_sum(vx) == extsq.superdiag_closed_form_x(vx)),
            (f"symbolic altsum c/z n_half={n}", lambda: _altsum_holds(v)),
            (f"symbolic altsum x n_half={n}", lambda: _altsum_holds(vx)),
            (f"symbolic recursion x n_half={n}", lambda: _recursion_matches(n, vx)),
        ]
        for size in rational_sizes:
            for k in range(per_size):
                w = extsq.UnfoldVars.from_x(size, _random_x(rng, size))
                tag = f"n_half={size} #{k}"
                self.instances += [
                    (f"rational superdiag {tag}", lambda w=w: _superdiag_rational(w)),
                    (f"rational altsum {tag}", lambda w=w: _altsum_holds(w)),
                    (f"rational recursion {tag}",
                     lambda w=w, size=size: _recursion_matches(size, w)),
                ]

    def run_pass(self, tally: Tally):
        for label, check in self.instances:
            tally.run(label, check)


def _superdiag_rational(v) -> bool:
    total = extsq.superdiag_sum(v)
    return total == extsq.superdiag_closed_form(v) == extsq.superdiag_closed_form_x(v)


class Analytic:
    """The float path: quadrature oracle, functional equation and poles.

    No exact algebra runs here, so every change to the polynomial,
    rational-function or matrix code should leave this workload unchanged.
    """

    uses_quadrature = True

    def __init__(self, seed: int, points=300, repr_sizes=range(1, 6), per_size=10):
        rng = _rng("analytic", seed)
        self.points = [
            (rng.randint(0, 1), complex(rng.uniform(0.1, 2.5), rng.uniform(-2.0, 2.0)))
            for _ in range(points)
        ]
        self.reprs = []
        for n_half in repr_sizes:
            for _ in range(per_size):
                rd = extsq.random_repr_data(rng, n_half=n_half)
                tries = [complex(rng.uniform(0.2, 1.2), rng.uniform(-1.0, 1.0))
                         for _ in range(FE_CANDIDATES)]
                self.reprs.append((rd, tries))

    def run_pass(self, tally: Tally):
        for delta, s in self.points:
            tally.run(f"quadrature delta={delta} s={s!r}",
                      lambda: _quadrature_agrees(delta, s),
                      refusals=extsq.QuadratureToleranceError)
        for rd, tries in self.reprs:
            label = f"repr {extsq.repr_to_json(rd)}"
            tally.run(label, lambda: _fe_ratio_holds(rd, tries),
                      refusals=extsq.PoleProximityError)
            tally.run(label, lambda: _holomorphy_holds(rd, tally))


def _quadrature_agrees(delta, s) -> bool:
    # absolute, like the suite's anchor and ``extsq gamma --oracle``; the
    # error budget asked for is the tolerance checked here
    q = extsq.g_delta_integral(delta, s, ORACLE_CUTOFF, budget=ORACLE_TOL)
    return abs(q - extsq.g_delta(delta, s)) <= ORACLE_TOL


def _fe_ratio_holds(rd, tries) -> bool:
    for s in tries[:-1]:
        try:
            res = extsq.fe_ratio_check(rd, s, tol=FE_TOL)
        except extsq.PoleProximityError:
            continue
        break
    else:
        res = extsq.fe_ratio_check(rd, tries[-1], tol=FE_TOL)
    if abs(res.lhs - res.rhs) > FE_TOL * abs(res.lhs):
        return False
    return abs(abs(res.omega) - 1.0) <= 1e-12 and abs(res.omega**4 - 1.0) <= 1e-12


def _holomorphy_holds(rd, tally: Tally) -> bool:
    """Run ``holomorphy_check``; true when it reports no note, or only
    vanishing partial products that ``_vanishing_confirmed`` confirms.

    The two computations compared here are the program's own internal
    cross-checks: ``pole_enumeration`` asserts that its lattice scan agrees
    with the structural pole families, and ``partial_products`` that the
    partial products multiply back to the G-product.  Either assertion
    failing is a wrong output.
    """
    report = extsq.holomorphy_check(rd)
    if report.ok:
        return True
    confirmed = _vanishing_confirmed(rd, report)
    tally.verdicts += confirmed
    return confirmed


WORKLOADS = {"suite": Suite, "decomp": Decomp, "unfold": Unfold, "analytic": Analytic}


def prepare(name: str, seed: int, **sizes):
    """Build a workload and do its one-time start-up work.

    Returns the workload and the seconds of its first quadrature call
    (0.0 for workloads that make none).
    """
    workload = WORKLOADS[name](seed, **sizes)
    first_quad_s = _first_quadrature() if workload.uses_quadrature else 0.0
    return workload, first_quad_s
