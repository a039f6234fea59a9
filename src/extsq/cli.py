"""Command-line front end.

Every subcommand prints either tab-delimited text or, with --json, one
deterministic JSON document (sorted keys, fixed separators, no timing
fields), so identical seeds and inputs give byte-identical reports.
Exit status is 0 exactly when every check in the run passed.

Each ``cmd_*`` function only builds the command's ``RunReport``.  ``main``
alone times the command, prints its report and turns an input error into
one ``error:`` line on stderr with exit status 2.
"""

import argparse
import json
import math
import random
import sys
import time
from dataclasses import dataclass

from .decomp import (
    DegenerateMinorError,
    nhn_decompose,
    nhn_matches_udl,
    udl_explicit,
    verify_udl_reconstruction,
)
from .euler import (
    ConvergenceGuardError,
    VanishingFactorError,
    partial_L,
    ext2_factor,
    standard_factor,
    satake_from_json,
)
from .lfactors import (
    IdentityMismatchError,
    _checked,
    _l_inf,
    _omega,
    omega_closed_form,
    pole_enumeration,
    repr_from_json,
)
from .matrices import genmatrix_from_json, genmatrix_to_json
from .rational import parse_rational_complex
from .specialfn import PoleError, QuadratureToleranceError, g_delta, g_delta_integral
from .suite import (
    CHECKS,
    CheckResult,
    ORACLE_CUTOFF,
    altsum_proof,
    fe_draws,
    kappa_sweep,
    recursion_proof,
    run_suite,
    superdiag_proof,
    whittaker_proof,
)


@dataclass(frozen=True)
class RunReport:
    command: str
    seed: int | None
    checks: tuple
    output: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        # timing is deliberately left out so reports are reproducible
        obj = {
            "command": self.command,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }
        if self.output:
            obj["output"] = self.output
        return obj


def _make_report(command, seed, checks, output=None) -> RunReport:
    ordered = tuple(sorted(checks, key=lambda c: c.name))
    return RunReport(command, seed, ordered, output or {})


def _emit(report: RunReport, as_json: bool, wall_ms: float) -> int:
    if as_json:
        print(json.dumps(report.to_json_obj(), sort_keys=True, separators=(",", ":")))
    else:
        for key, val in sorted(report.output.items()):
            print(f"{key}\t{val}")
        for c in report.checks:
            print(f"{c.name}\t{'PASS' if c.passed else 'FAIL'}\t{c.detail}")
        n_pass = sum(c.passed for c in report.checks)
        if report.checks:
            print(
                f"# {n_pass}/{len(report.checks)} checks passed "
                f"in {wall_ms:.0f} ms"
            )
    return 0 if report.passed else 1


def _cx(z) -> str:
    z = complex(z)
    re, im = repr(z.real), repr(z.imag)
    return f"{re}+{im}i" if not im.startswith("-") else f"{re}{im}i"


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _parse_s(text: str) -> complex:
    """The --s literal as a complex; an unreadable or out-of-range one names the option."""
    try:
        return complex(parse_rational_complex(text))
    except ValueError as exc:
        raise ValueError(f"--s: {exc}") from None
    except OverflowError:
        raise OverflowError(f"--s {text!r} is outside the float range") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


# -- subcommands -------------------------------------------------------------


def cmd_decompose(args) -> RunReport:
    g = genmatrix_from_json(_load_json(args.matrix))
    udl = udl_explicit(g)
    nhn = nhn_decompose(g)
    checks = [
        CheckResult(
            "reconstruction",
            verify_udl_reconstruction(g, udl),
            "minor-form product returns the input",
        ),
        CheckResult(
            "normalized-match",
            nhn_matches_udl(udl, nhn),
            "rescaled minor factors equal the elimination factors",
        ),
    ]
    output = {}
    for name, m in (
        ("b_plus", udl.b_plus),
        ("a", udl.a),
        ("b_minus", udl.b_minus),
        ("n_upper", nhn.n),
        ("h", nhn.h),
        ("n_lower", nhn.n_minus),
    ):
        output[name] = genmatrix_to_json(m) if args.json else _flat(m)
    return _make_report("decompose", None, checks, output)


def _flat(m) -> str:
    return " | ".join(
        " ".join(str(e) for e in row) for row in genmatrix_to_json(m)["entries"]
    )


def cmd_shuffle_verify(args) -> RunReport:
    n = args.n
    if n < 2 or n > 6:
        raise ValueError("--n must be between 2 and 6")
    checks = []
    for name, proof in (
        ("superdiag", superdiag_proof),
        ("altsum", altsum_proof),
        ("recursion", recursion_proof),
        ("whittaker", whittaker_proof),
    ):
        failure = proof(n)
        detail = failure or f"symbolic proof at n_half={n}"
        checks.append(CheckResult(name, failure is None, detail))
    failure, count = kappa_sweep(n)
    detail = failure or f"{count} exhaustive choices"
    checks.append(CheckResult("kappa", failure is None, detail))
    return _make_report("shuffle-verify", None, checks, {"n": n})


def cmd_gamma(args) -> RunReport:
    s = _parse_s(args.s)
    closed = g_delta(args.delta, s)
    output = {"closed": _cx(closed), "delta": args.delta, "s": _cx(s)}
    checks = []
    if args.oracle:
        tol = args.tol or 1e-6
        try:
            quad = g_delta_integral(args.delta, s, ORACLE_CUTOFF)
        except QuadratureToleranceError as exc:
            ok = False
            detail = (
                f"quadrature refused: error estimate {exc.achieved:.3e} "
                f"exceeds budget {exc.budget:.3e}"
            )
        else:
            diff = abs(closed - quad)
            output["quadrature"] = _cx(quad)
            output["difference"] = repr(diff)
            ok = diff <= tol
            detail = f"closed form and quadrature differ by {diff:.3e} (tol {tol:g})"
        checks.append(CheckResult("oracle-agreement", ok, detail))
    return _make_report("gamma", None, checks, output)


def cmd_lfactor(args) -> RunReport:
    c = _checked(repr_from_json(_load_json(args.repr)))
    expr = _l_inf(c)
    output = {"factors": list(expr.describe()), "omega": _cx(_omega(c))}
    if args.s is not None:
        s = _parse_s(args.s)
        output["s"] = _cx(s)
        try:
            output["value"] = _cx(expr.value(s))
        except PoleError:
            output["value"] = "pole"
    if not args.json:
        output["factors"] = "; ".join(output["factors"])
    return _make_report("lfactor", None, [], output)


def cmd_poles(args) -> RunReport:
    r = repr_from_json(_load_json(args.repr))
    poles = pole_enumeration(r)
    rows = [
        {
            "location": str(p.location),
            "order": p.order,
            "provenance": list(p.provenance),
        }
        for p in poles
    ]
    if args.json:
        output = {"count": len(rows), "poles": rows}
    else:
        output = {"count": len(rows)}
        for i, row in enumerate(rows):
            output[f"pole-{i}"] = (
                f"{row['location']}\torder {row['order']}\t"
                + ",".join(row["provenance"])
            )
    return _make_report("poles", None, [], output)


def cmd_fe_check(args) -> RunReport:
    r = repr_from_json(_load_json(args.repr))
    rng = random.Random(f"{args.seed}:fe-check")
    failure, worst = fe_draws(rng, args.samples, args.tol, r)
    detail = failure or (
        f"{args.samples} samples, worst relative deviation {worst:.3e} (tol {args.tol:g})"
    )
    output = {} if failure else {"omega": _cx(omega_closed_form(r)), "samples": args.samples}
    return _make_report(
        "fe-check", args.seed, [CheckResult("identity", not failure, detail)], output
    )


def cmd_euler(args) -> RunReport:
    raw = _load_json(args.satake)
    objs = raw if isinstance(raw, list) else [raw]
    data = [satake_from_json(o) for o in objs]
    if args.primes is not None:
        data = [d for d in data if d.p < args.primes]
    s = _parse_s(args.s)
    factor = ext2_factor if args.kind == "ext2" else standard_factor
    output = {"kind": args.kind, "s": _cx(s), "places": len(data)}
    for d in sorted(data, key=lambda d: d.p):
        output[f"factor-{d.p}"] = _cx(factor(d, s))
    output["partial-product"] = _cx(partial_L(data, s, kind=args.kind))
    return _make_report("euler", None, [], output)


def cmd_suite(args) -> RunReport:
    results = run_suite(args.seed, trials=args.trials, names=args.check or None)
    return _make_report("suite", args.seed, results)


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="extsq",
        description="exact decompositions, shuffle identities, and archimedean "
        "factors for exterior-square L-functions",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factor a matrix through its minors")
    p.add_argument("matrix", help="JSON file with rows/cols/entries")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("shuffle-verify", help="run the unfolding identities at one size")
    p.add_argument("--n", type=int, required=True, help="half-size n (2..6), proved symbolically")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_shuffle_verify)

    p = sub.add_parser("gamma", help="evaluate one Gamma-ratio factor")
    p.add_argument("--delta", type=int, choices=(0, 1), required=True)
    p.add_argument("--s", required=True, help='point, e.g. "0.5" or "1/2+2i"')
    p.add_argument("--oracle", action="store_true", help="compare with quadrature")
    p.add_argument("--tol", type=_positive_float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("lfactor", help="assemble the archimedean factor")
    p.add_argument("repr", help="JSON file with induction data")
    p.add_argument("--s", default=None, help="optional evaluation point")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_lfactor)

    p = sub.add_parser("poles", help="list poles in the right half-plane")
    p.add_argument("repr", help="JSON file with induction data")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_poles)

    p = sub.add_parser("fe-check", help="test the functional-equation ratio")
    p.add_argument("repr", help="JSON file with induction data")
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fe_check)

    p = sub.add_parser("euler", help="evaluate unramified Euler factors")
    p.add_argument("satake", help="JSON file with one place or a list of places")
    p.add_argument("--s", required=True, help='point, e.g. "2" or "3/2+i"')
    p.add_argument("--primes", type=int, default=None, help="use places with p below this")
    p.add_argument("--kind", choices=("ext2", "standard"), default="ext2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("suite", help="run the full seeded verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--check", action="append", choices=sorted(CHECKS), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_suite)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        report = args.fn(args)
        return _emit(report, args.json, (time.monotonic() - t0) * 1000.0)
    except (
        OSError,
        ValueError,
        DegenerateMinorError,
        VanishingFactorError,
        ConvergenceGuardError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PoleError as exc:
        print(f"error: pole at {exc.location}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # every number the commands evaluate in floats is exact input, so a
        # value past the float range is an input error
        print(f"error: out of range: {exc}", file=sys.stderr)
        return 2
    except IdentityMismatchError as exc:
        print(f"error: identity mismatch: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
