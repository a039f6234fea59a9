"""Spans around extsq's public functions, recorded from outside ``src/``.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper
that appends one span ``[name, start_ns, end_ns, parent, tag]`` to an
in-memory list; ``uninstall`` puts the originals back.  A function is
replaced under every name it is bound to: as a class attribute (which
covers aliases such as ``__rmul__ = __mul__``) and as a global of every
extsq module.  That matters because several modules import functions by
name: ``ratfunc`` binds ``poly_gcd``, ``_gcd_core`` recurses through the
``poly_gcd`` global of ``polynomials``, and ``suite`` and ``cli`` bind the
checked functions at import.  ``unfold.superdiag_sum`` imports
``nhn_decompose`` at call time, so it sees the replaced module attribute.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
Self time is a span's duration minus the durations of its direct child
spans, so it excludes every wrapped callee.
"""

import functools
import importlib
import json
import statistics
import time
from collections import Counter

import extsq

MODULES = (
    "polynomials", "ratfunc", "matrices", "rational", "decomp", "unfold",
    "specialfn", "lfactors", "euler", "suite", "cli",
)

# (module, attribute, span name).  "Class.method" wraps a method.
TARGETS = (
    ("polynomials", "Polynomial.__mul__", "polynomials.mul"),
    ("polynomials", "Polynomial.exact_div", "polynomials.exact_div"),
    ("polynomials", "poly_gcd", "polynomials.poly_gcd"),
    ("polynomials", "Polynomial.content_and_primitive", "polynomials.content_and_primitive"),
    ("ratfunc", "RatFunc.__add__", "ratfunc.arith"),
    ("ratfunc", "RatFunc.__sub__", "ratfunc.arith"),
    ("ratfunc", "RatFunc.__rsub__", "ratfunc.arith"),
    ("ratfunc", "RatFunc.__mul__", "ratfunc.arith"),
    ("ratfunc", "RatFunc.__truediv__", "ratfunc.arith"),
    ("ratfunc", "RatFunc.__rtruediv__", "ratfunc.arith"),
    ("ratfunc", "FactoredFraction.reduce", "ratfunc.reduce"),
    ("ratfunc", "FactorBasis.add", "ratfunc.basis_add"),
    ("matrices", "Matrix.det", "matrices.det"),
    ("matrices", "Matrix.__mul__", "matrices.matmul"),
    ("decomp", "udl_explicit", "decomp.udl_explicit"),
    ("decomp", "nhn_decompose", "decomp.nhn_decompose"),
    ("decomp", "verify_udl_reconstruction", "decomp.verify_udl_reconstruction"),
    ("decomp", "nhn_matches_udl", "decomp.nhn_matches_udl"),
    ("unfold", "build_B", "unfold.build_B"),
    ("unfold", "superdiag_sum", "unfold.superdiag_sum"),
    ("unfold", "altsum_check", "unfold.altsum_check"),
    ("unfold", "lower_factor_recursive", "unfold.lower_factor_recursive"),
    ("unfold", "whittaker_eval", "unfold.whittaker"),
    ("unfold", "shuffled_whittaker_eval", "unfold.whittaker"),
    ("unfold", "shuffled_whittaker_oracle", "unfold.whittaker"),
    ("specialfn", "g_delta_integral", "specialfn.g_delta_integral"),
    ("specialfn", "g_delta", "specialfn.g_delta"),
    ("specialfn", "gamma_r", "specialfn.gamma"),
    ("specialfn", "gamma_c", "specialfn.gamma"),
    ("lfactors", "fe_ratio_check", "lfactors.fe_ratio_check"),
    ("lfactors", "pole_enumeration", "lfactors.pole_enumeration"),
    ("lfactors", "holomorphy_check", "lfactors.holomorphy_check"),
    ("lfactors", "GammaExpr.value", "lfactors.gamma_value"),
    ("euler", "ext2_factor", "euler.ext2_factor"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
CHECK_NAMES = tuple(sorted(extsq.CHECKS))

# Span names each workload must reach; the coverage test holds them to it.
# On analytic the prediction is the reverse: no exact algebra at all.
ALGEBRA_LAYERS = ("polynomials.", "ratfunc.", "matrices.")
EXERCISED = {
    "suite": SPAN_NAMES,
    "decomp": (
        "polynomials.mul", "polynomials.exact_div", "polynomials.poly_gcd",
        "polynomials.content_and_primitive", "ratfunc.reduce", "ratfunc.basis_add",
        "matrices.det", "decomp.udl_explicit", "decomp.nhn_decompose",
        "decomp.verify_udl_reconstruction", "decomp.nhn_matches_udl",
    ),
    "unfold": (
        "polynomials.mul", "polynomials.exact_div", "polynomials.poly_gcd",
        "polynomials.content_and_primitive", "ratfunc.arith", "matrices.det",
        "matrices.matmul", "decomp.nhn_decompose", "unfold.build_B",
        "unfold.superdiag_sum", "unfold.altsum_check", "unfold.lower_factor_recursive",
    ),
    "analytic": (
        "specialfn.g_delta_integral", "specialfn.g_delta",
        "lfactors.fe_ratio_check", "lfactors.pole_enumeration",
        "lfactors.holomorphy_check", "lfactors.gamma_value",
    ),
}


def _terms(p):
    return len(p.terms)


def _entry_kind(matrix) -> str:
    kinds = {type(e).__name__ for row in matrix.data for e in row}
    if "RatFunc" in kinds:
        return "ratfunc"
    if "Polynomial" in kinds:
        return "poly"
    return "fraction"


def _g_delta_error(original_g_delta):
    def tag(args, result):
        exact = original_g_delta(args[0], args[1])
        return abs(result - exact) / abs(exact)
    return tag


# What a span keeps about its call, by span name: tag(args, result).
TAGGERS = {
    "polynomials.mul": lambda args, r: _terms(r) if isinstance(r, extsq.Polynomial) else None,
    "polynomials.exact_div": lambda args, r: "none" if r is None else _terms(r),
    "polynomials.poly_gcd": lambda args, r: "one" if r.is_one() else _terms(r),
    "polynomials.content_and_primitive": lambda args, r: _terms(r[1]),
    "matrices.det": lambda args, r: (_entry_kind(args[0]), args[0].nrows),
}


class Tracer:
    """Install span-recording wrappers; keep the spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._restore = []

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        mods = {m: importlib.import_module(f"extsq.{m}") for m in MODULES}
        taggers = dict(TAGGERS)
        taggers["specialfn.g_delta_integral"] = _g_delta_error(mods["specialfn"].g_delta)
        namespaces = [extsq, *mods.values()]
        for mod, attr, name in TARGETS:
            owner = mods[mod]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[fn_name]
            wrapper = self._wrap(original, name, taggers.get(name))
            for ns in [owner] if cls_path else namespaces:
                self._rebind(ns, original, wrapper)
        checks = mods["suite"].CHECKS
        for check in CHECK_NAMES:
            original = checks[check]
            checks[check] = self._wrap(original, f"suite.check.{check}", None)
            self._restore.append((checks.__setitem__, check, original))

    def uninstall(self):
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)

    def _rebind(self, owner, original, wrapper):
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, wrapper)
                self._restore.append((functools.partial(setattr, owner), key, original))

    def _wrap(self, fn, name, tagger):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if tagger is not None:
                rec[4] = tagger(args, result)
            return result

        return wrapper

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, tag."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def per_layer_metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        ("polynomials.exact_div.fail_ratio", "ratio"),
        ("polynomials.poly_gcd.trivial_ratio", "ratio"),
        ("polynomials.max_terms", "count"),
        ("matrices.det.max_size", "count"),
        ("matrices.det.fraction_s", "s"),
        ("matrices.det.poly_s", "s"),
        ("matrices.det.ratfunc_s", "s"),
        ("decomp.instance_max_s", "s"),
        ("specialfn.g_delta_integral.fail_ratio", "ratio"),
        ("specialfn.g_delta_integral.max_rel_err", "ratio"),
        ("specialfn.first_quad_s", "s"),
        ("lfactors.fe_ratio_check.redraw_ratio", "ratio"),
    ]
    out += [(f"suite.check.{c}.wall_s", "s") for c in CHECK_NAMES]
    out += [
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


def layer_metrics(all_spans, first: int) -> dict:
    """Per-layer metrics of one pass: the spans from index ``first`` on.

    The run-level metrics (``decomp.instance_max_s``, ``specialfn.first_quad_s``
    and ``trace.wall_s``/``trace.overhead_s``) are left to the caller.

    The pass starts with no span open, so every parent index it records
    is -1 or at least ``first``.
    """
    spans = all_spans[first:]
    n = len(spans)
    child_ns = [0] * n
    in_check = [False] * n
    for k, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            p = parent - first
            child_ns[p] += end - start
            in_check[k] = in_check[p] or spans[p][0].startswith("suite.check.")
    calls = Counter()
    self_ns = Counter()
    tags = {}
    check_ns = Counter()
    for k, (name, start, end, parent, tag) in enumerate(spans):
        calls[name] += 1
        own = end - start - child_ns[k]
        self_ns[name] += own
        if tag is not None:
            tags.setdefault(name, []).append((tag, own))
        if name.startswith("suite.check.") and not in_check[k]:
            check_ns[name] += end - start
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_ns[name] / 1e9

    def tagged(name):
        return tags.get(name, [])

    def share(name, hit):
        return sum(1 for t, _ in tagged(name) if hit(t)) / calls[name] if calls[name] else 0.0

    m["polynomials.exact_div.fail_ratio"] = share("polynomials.exact_div", lambda t: t == "none")
    m["polynomials.poly_gcd.trivial_ratio"] = share("polynomials.poly_gcd", lambda t: t == "one")
    m["polynomials.max_terms"] = max(
        (t for name in SPAN_NAMES if name.startswith("polynomials.")
         for t, _ in tagged(name) if isinstance(t, int)),
        default=0,
    )
    det = [(t, own) for t, own in tagged("matrices.det") if isinstance(t, tuple)]
    m["matrices.det.max_size"] = max((t[1] for t, _ in det), default=0)
    for kind in ("fraction", "poly", "ratfunc"):
        m[f"matrices.det.{kind}_s"] = sum(own for t, own in det if t[0] == kind) / 1e9
    quad = "specialfn.g_delta_integral"
    m[f"{quad}.fail_ratio"] = share(quad, lambda t: t == "QuadratureToleranceError")
    m[f"{quad}.max_rel_err"] = max(
        (t for t, _ in tagged(quad) if isinstance(t, float)), default=0.0
    )
    m["lfactors.fe_ratio_check.redraw_ratio"] = share(
        "lfactors.fe_ratio_check", lambda t: t == "PoleProximityError"
    )
    for check in CHECK_NAMES:
        name = f"suite.check.{check}"
        m[f"{name}.wall_s"] = check_ns[name] / 1e9
    m["trace.spans"] = n
    return m


def median_metrics(per_pass) -> dict:
    """Median of each metric across passes."""
    keys = per_pass[0].keys()
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}
