import cmath
import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

import extsq.lfactors as lfactors
from extsq.lfactors import (
    DSBlock,
    EmbeddingParams,
    GammaExpr,
    IdentityMismatchError,
    PoleProximityError,
    ReprData,
    SignBlock,
    casselman_embedding,
    contragredient,
    fe_ratio_check,
    holomorphy_check,
    l_inf,
    normalize,
    omega_closed_form,
    partial_products,
    pole_enumeration,
    random_repr_data,
    repr_from_json,
    repr_to_json,
    script_g,
    script_g_full,
    script_g_tilde,
    validate,
)
from extsq.rational import RationalComplex
from extsq.specialfn import g_delta, gamma_r, gcancel
from extsq.unfold import unfolded_gamma_table

RC = RationalComplex
F = Fraction


def _rc(num, den=1, im=0):
    return RC(F(num, den), im if isinstance(im, F) else F(im))


TRIVIAL = ReprData(1, 0, ((0, 0), (0, 0)), ())
TEMPERED = ReprData(1, 0, ((0, 0), (1, 0)), ())
SIGN4 = ReprData(
    2,
    0,
    (
        (0, _rc(-2, 5)),
        (0, _rc(-1, 4)),
        (0, _rc(1, 4)),
        (0, _rc(2, 5)),
    ),
    (),
)
DS_PAIR = ReprData(2, 0, (), ((2, _rc(-3, 10)), (2, _rc(3, 10))))
MIXED = ReprData(
    2,
    0,
    ((1, _rc(-1, 10)), (1, _rc(1, 10))),
    ((3, RC(0, F(1, 2))),),
)


def _dual_violations(r):
    """The violations of the lattice dual that fe_ratio_check builds from r."""
    return lfactors._violations(lfactors._dual(lfactors._checked(r)))


def test_validate_accepts_the_fixtures():
    for r in (TRIVIAL, TEMPERED, SIGN4, DS_PAIR, MIXED):
        assert validate(r) == []
        # fe_ratio_check relies on this and does not check the dual again
        assert _dual_violations(r) == []


def test_validate_violation_labels():
    def labels(r):
        return [v.split(":")[0] for v in validate(r)]

    assert "size" in labels(ReprData(2, 0, ((0, 0), (0, 0)), ()))
    assert "r1-parity" in labels(ReprData(2, 0, ((0, 0),), ((2, RC(0, 0)),)))
    assert "k-range" in labels(ReprData(1, 0, (), ((1, RC(0, 0)),)))
    assert "(b)" in labels(ReprData(1, 0, ((0, _rc(1, 2)), (0, _rc(-1, 2))), ()))
    assert "(a)" in labels(ReprData(1, 0, ((0, _rc(-1, 5)), (1, _rc(1, 5))), ()))
    assert "ordering" in labels(
        ReprData(1, 0, ((0, _rc(1, 5)), (0, _rc(-1, 5))), ())
    )


def test_normalize_sorts_and_dual_reflects():
    r = ReprData(1, 0, ((0, _rc(1, 5)), (0, _rc(-1, 5))), ())
    rn = normalize(r)
    assert [b.s.real for b in rn.sign_blocks] == [F(-1, 5), F(1, 5)]
    dual = lfactors._dual(lfactors._checked(rn))
    assert lfactors._violations(dual) == []
    # d = 10, so the real parts -1/5 and 1/5 sit at -2 and 2
    assert (dual.d, [x for _, x, _ in dual.sign]) == (10, [-2, 2])


def test_repr_json_round_trip():
    for r in (SIGN4, DS_PAIR, MIXED):
        again = repr_from_json(repr_to_json(r))
        assert again == r
    obj = {"n": 1, "sign_blocks": [{"eps": 0, "s": "0"}, {"eps": 1, "s": "0"}]}
    assert repr_from_json(obj) == TEMPERED


def test_embedding_example():
    e = casselman_embedding(MIXED)
    assert [str(v) for v in e.lam] == ["1/10", "-1-1/2i", "1-1/2i", "-1/10"]
    assert e.delta == (1, 1, 0, 1)
    back = contragredient(e)
    assert sorted(str(-v) for v in back.lam) == sorted(str(v) for v in e.lam)
    assert back.delta == tuple(reversed(e.delta))


def test_l_inf_trivial_is_single_gamma_r():
    expr = l_inf(TRIVIAL)
    rng = random.Random(3)
    for _ in range(20):
        s = complex(rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0))
        assert expr.value(s) == pytest.approx(gamma_r(s), rel=1e-14)


def test_l_inf_describe_strings():
    got = l_inf(SIGN4).describe()
    assert got == (
        "Gamma_R(s-13/20)",
        "Gamma_R(s-3/20)",
        "Gamma_R(s)^2",
        "Gamma_R(s+3/20)",
        "Gamma_R(s+13/20)",
    )


def test_gamma_expr_structure():
    a = GammaExpr.gamma_r(F(1, 2))
    b = GammaExpr.gamma_r(F(1, 2))
    prod = a * b
    assert prod.describe() == ("Gamma_R(s+1/2)^2",)
    assert prod == GammaExpr(0, {next(iter(a.factors)): 2})
    assert a != prod


def test_the_factors_view_is_read_only():
    r = random_repr_data(random.Random(3), n_half=2)
    e = l_inf(r)
    before = e.describe()
    assert before
    first = next(iter(e.factors))
    with pytest.raises(TypeError):
        e.factors[first] = 5
    with pytest.raises(TypeError):
        del e.factors[first]
    assert e.describe() == before
    assert e == l_inf(r)


def reference_mul(a, b):
    """The product rebuilt through the constructor, which drops zero powers."""
    merged = dict(a.factors)
    for fac, power in b.factors.items():
        merged[fac] = merged.get(fac, 0) + power
    return GammaExpr(a.unit_ipow + b.unit_ipow, merged)


def test_gamma_expr_product_drops_cancelled_factors_in_place():
    left = GammaExpr.g_factor(1, F(1, 3)) * GammaExpr.gamma_c(F(1, 4)) * GammaExpr.gamma_r(0)
    cancel = GammaExpr(3, {next(iter(GammaExpr.g_factor(1, F(1, 3)).factors)): -1})
    prod = left * cancel * GammaExpr.gamma_r(F(-1, 2))
    assert prod == reference_mul(reference_mul(left, cancel), GammaExpr.gamma_r(F(-1, 2)))
    assert [(f.kind, f.orient, str(f.const), p) for f, p in prod.factors.items()] == [
        ("R", -1, "5/3", -1),
        ("C", 1, "1/4", 1),
        ("R", 1, "0", 1),
        ("R", 1, "-1/2", 1),
    ]
    assert prod.describe() == (
        "Gamma_C(s+1/4)",
        "Gamma_R(s-1/2)",
        "Gamma_R(s)",
        "Gamma_R(-s+5/3)^-1",
    )
    assert prod.unit_ipow == 0
    assert (prod * GammaExpr(0, {f: -p for f, p in prod.factors.items()})) == GammaExpr.one()


def test_gamma_expr_product_keeps_the_reference_order():
    rng = random.Random(29)
    for _ in range(20):
        e = casselman_embedding(random_repr_data(rng))
        got, want = GammaExpr.one(), GammaExpr.one()
        for i in range(len(e.lam)):
            for j in range(i + 1, len(e.lam)):
                factor = GammaExpr.g_factor(rng.randint(0, 1), -(e.lam[i] + e.lam[j]))
                if rng.random() < 0.3:
                    factor = GammaExpr(factor.unit_ipow, {f: -p for f, p in factor.factors.items()})
                got, want = got * factor, reference_mul(want, factor)
                assert list(got.factors.items()) == list(want.factors.items())
                assert got.unit_ipow == want.unit_ipow


def test_each_shift_is_converted_to_complex_once():
    expr = l_inf(MIXED) * script_g(casselman_embedding(MIXED), 0)
    point = complex(0.3, 0.7)
    want = (expr.value(point), expr.nearest_pole_distance(point))
    fresh = expr * GammaExpr.one()
    assert fresh._terms is None
    assert (fresh.value(point), fresh.nearest_pole_distance(point)) == want
    # the float terms are built once per expression and reused at every point
    terms = fresh._float_terms()
    fresh.value(1 - point)
    fresh.nearest_pole_distance(1 - point)
    assert fresh._float_terms() is terms
    # each term is the exact shift rounded once, bit for bit
    assert len(terms) == len(fresh.factors)
    for (kind, orient, z, power), (fac, p) in zip(terms, fresh.factors.items()):
        assert (kind, orient, power) == (fac.kind, fac.orient, p)
        assert (z.real.hex(), z.imag.hex()) == (
            complex(fac.const).real.hex(),
            complex(fac.const).imag.hex(),
        )


def test_each_builder_constructs_its_expression_once(monkeypatch):
    # multiplying factor by factor copies the whole dict at every step
    r = random_repr_data(random.Random(43), n_half=5, eta=1)
    assert r.sign_blocks and r.ds_blocks
    e = casselman_embedding(r)
    counts = Counter()
    expr, init, mul = lfactors._expr, GammaExpr.__init__, GammaExpr.__mul__

    def counting_expr(*args):
        counts["expr"] += 1
        return expr(*args)

    def counting_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(lfactors, "_expr", counting_expr)
    monkeypatch.setattr(GammaExpr, "__init__", counting_init)
    monkeypatch.setattr(GammaExpr, "__mul__", counting_mul)
    for build in (lambda: script_g_full(e, r.eta), lambda: l_inf(r)):
        counts.clear()
        build()
        assert counts == {"expr": 1}
    counts.clear()
    partial_products(r)
    # script_g and the six parts, then the five products of the reassembly check
    assert counts == {"expr": 1 + 6 + 5, "mul": 5}


def test_the_float_path_builds_no_exact_factor(monkeypatch):
    built = []
    make = lfactors.GammaFactor

    def counting(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(lfactors, "GammaFactor", counting)
    fe_ratio_check(MIXED, complex(0.83, 0.17))
    assert built == []
    pole_free = [TEMPERED, *(random_repr_data(random.Random(47), n_half=n) for n in (3, 4))]
    for r in pole_free:
        report = holomorphy_check(r)
        assert report.ok and len(report.poles) == 0
    assert built == []
    # the view is where the exact factors come from
    assert len(l_inf(MIXED).factors) == len(built) > 0


# -- an independent reference for the lattice builders ------------------------
#
# The builders below redo every Gamma product with RationalComplex arithmetic
# in dicts keyed by GammaFactor, as the products are defined, and share no
# code with the integer-lattice builders in lfactors.


def _ref_put(factors, kind, orient, const, power=1):
    fac = lfactors.GammaFactor(kind, orient, const)
    total = factors.get(fac, 0) + power
    if total:
        factors[fac] = total
    else:
        del factors[fac]


def _ref_g(factors, parity, shift):
    """G(parity, shift) = i^parity Gamma_R(s+shift+parity) / Gamma_R(1-s-shift+parity)."""
    _ref_put(factors, "R", 1, shift + parity)
    _ref_put(factors, "R", -1, (1 + parity) - shift, -1)
    return parity


def _ref_l_inf(r):
    sb, db, eta = r.sign_blocks, r.ds_blocks, r.eta
    factors = {}
    for b in db:
        _ref_put(factors, "R", 1, b.s * 2 + (b.k + eta) % 2)
    for a in sb:
        for b in db:
            _ref_put(factors, "C", 1, a.s + b.s + F(b.k - 1, 2))
    for i, a in enumerate(sb):
        for b in sb[i + 1 :]:
            _ref_put(factors, "R", 1, a.s + b.s + (a.eps + b.eps + eta) % 2)
    for j, a in enumerate(db):
        for b in db[j + 1 :]:
            _ref_put(factors, "C", 1, a.s + b.s + F(a.k + b.k - 2, 2))
            _ref_put(factors, "C", 1, a.s + b.s + F(abs(a.k - b.k), 2))
    return 0, factors


def _ref_g_product(e, eta, full):
    two_n = len(e.lam)
    factors, unit = {}, 0
    for i in range(two_n):
        for j in range(i + 1, two_n):
            if full or i + j + 2 <= two_n:
                parity = (e.delta[i] + e.delta[j] + eta) % 2
                unit += _ref_g(factors, parity, -(e.lam[i] + e.lam[j]))
    return unit, factors


def _ref_partials(r):
    sb, db, eta = r.sign_blocks, r.ds_blocks, r.eta
    h, r2 = len(sb) // 2, len(db)
    parts = [(0, {}) for _ in range(6)]

    def g(part, parity, shift):
        unit, factors = parts[part - 1]
        parts[part - 1] = (unit + _ref_g(factors, parity, shift), factors)

    for i in range(h):
        for m in range(i + 1, h):
            g(1, (sb[i].eps + sb[m].eps + eta) % 2, sb[i].s + sb[m].s)
    for i in range(1, h + 1):
        for m in range(1, h - i + 1):
            a, b = sb[i - 1], sb[h + m - 1]
            g(2, (a.eps + b.eps + eta) % 2, a.s + b.s)
    for a in sb[:h]:
        for b in db:
            g(3, (a.eps + b.k + eta) % 2, a.s + b.s + F(b.k - 1, 2))
            g(3, (a.eps + eta) % 2, a.s + b.s - F(b.k - 1, 2))
    for b in db[: r2 // 2]:
        g(4, (b.k + eta) % 2, b.s * 2)
    for l in range(r2 // 2):
        a, b = db[l], db[r2 - 1 - l]
        g(5, (a.k + b.k + eta) % 2, a.s + b.s + F(a.k + b.k - 2, 2))
    for l1 in range(1, r2 + 1):
        for l2 in range(l1 + 1, r2 - l1 + 1):
            a, b = db[l1 - 1], db[l2 - 1]
            h1, h2 = F(a.k - 1, 2), F(b.k - 1, 2)
            g(6, (a.k + b.k + eta) % 2, a.s + b.s + h1 + h2)
            g(6, (a.k + eta) % 2, a.s + b.s + h1 - h2)
            g(6, (b.k + eta) % 2, a.s + b.s - h1 + h2)
            g(6, eta, a.s + b.s - h1 - h2)
    return parts


def _assert_matches_reference(expr, ref):
    unit, factors = ref
    assert expr == GammaExpr(unit, factors)
    assert expr.unit_ipow == unit % 4
    assert list(expr.factors.items()) == list(factors.items())
    # the float shifts are the exact constants rounded once, bit for bit
    got = [(k, o, z.real.hex(), z.imag.hex(), p) for k, o, z, p in expr._float_terms()]
    want = [(f.kind, f.orient, complex(f.const), p) for f, p in factors.items()]
    assert got == [(k, o, z.real.hex(), z.imag.hex(), p) for k, o, z, p in want]


# shifts with denominators 3, 7 and 9 in both parts: the common denominator
# is odd before the factor 2 that the half-integer weights need
THIRDS_SEVENTHS = normalize(
    ReprData(
        4,
        0,
        ((0, RC(F(-1, 3), F(2, 7))), (0, RC(F(1, 3), F(2, 7)))),
        ((3, RC(F(-2, 9), F(1, 3))), (3, RC(F(2, 9), F(1, 3))), (2, RC(0, F(5, 7)))),
    )
)
NINTHS = normalize(
    ReprData(
        4,
        1,
        (
            (1, RC(F(-3, 7), F(-1, 9))),
            (0, RC(0, F(4, 9))),
            (1, RC(0, F(-2, 3))),
            (1, RC(F(3, 7), F(-1, 9))),
        ),
        ((5, RC(F(-1, 9), F(2, 3))), (5, RC(F(1, 9), F(2, 3)))),
    )
)


def _reference_inputs():
    rng = random.Random(53)
    drawn = [
        random_repr_data(rng, n_half=n_half, eta=eta)
        for n_half in range(1, 7)
        for eta in (0, 1)
        for _ in range(2)
    ]
    hand = [
        ReprData(h.n_half, eta, h.sign_blocks, h.ds_blocks)
        for h in (THIRDS_SEVENTHS, NINTHS)
        for eta in (0, 1)
    ]
    return drawn + hand


def test_lattice_builders_match_an_independent_reference():
    for r in _reference_inputs():
        assert validate(r) == []
        _assert_matches_reference(l_inf(r), _ref_l_inf(r))
        e = casselman_embedding(r)
        _assert_matches_reference(script_g(e, r.eta), _ref_g_product(e, r.eta, False))
        _assert_matches_reference(script_g_full(e, r.eta), _ref_g_product(e, r.eta, True))
        for got, want in zip(partial_products(r), _ref_partials(r), strict=True):
            _assert_matches_reference(got, want)


def test_script_g_on_mixed_denominators_matches_the_reference():
    lam = (RC(F(1, 3)), RC(0, F(2, 7)), RC(F(-5, 9)), RC(F(3, 14), F(-1, 6)), RC(F(1, 2), F(4, 21)))
    e = EmbeddingParams(lam, (0, 1, 1, 0, 1))
    for eta in (0, 1):
        for ee in (e, contragredient(e)):
            _assert_matches_reference(script_g(ee, eta), _ref_g_product(ee, eta, False))
            _assert_matches_reference(script_g_full(ee, eta), _ref_g_product(ee, eta, True))


def test_single_factor_builders_match_the_reference():
    for const in (F(1, 3), RC(F(-5, 9), F(2, 7)), RC(0, F(-1, 6)), 2, "3/14+1/21i"):
        c = RC.from_value(const)
        for power in (-2, 0, 1, 3):
            for build, kind in ((GammaExpr.gamma_r, "R"), (GammaExpr.gamma_c, "C")):
                factors = {lfactors.GammaFactor(kind, 1, c): power} if power else {}
                _assert_matches_reference(build(const, power), (0, factors))
        for parity in (0, 1):
            factors = {}
            unit = _ref_g(factors, parity, c)
            _assert_matches_reference(GammaExpr.g_factor(parity, const), (unit, factors))


def test_unfolded_table_matches_g_product():
    rng = random.Random(5)
    for _ in range(15):
        r = random_repr_data(rng)
        e = casselman_embedding(r)
        assert unfolded_gamma_table(e, r.eta) == script_g(e, r.eta)
        assert unfolded_gamma_table(e, 1 - r.eta) == script_g(e, 1 - r.eta)


def test_g_factor_value_matches_g_delta():
    # the gamma-table check compares exact products only, so the float
    # evaluator of one G factor is held to the closed form here
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        parity = rng.randint(0, 1)
        re, im = (F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(2))
        c = RC(re, im)
        s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        z = s + complex(c)
        # G(parity, z) has its poles and zeros at the integers
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-3:
            continue
        want = g_delta(parity, z)
        assert abs(GammaExpr.g_factor(parity, c).value(s) - want) <= 1e-12 * abs(want)
        checked += 1


@pytest.mark.parametrize("s", [1e16, complex(-1e16, 1), complex(2.0**53, 1)])
def test_gamma_value_refuses_real_parts_past_2_53(s):
    # there every float is an even integer: 1 - 1e16 read as a pole gave a
    # false zero, though 1 - 1e16 is odd
    with pytest.raises(OverflowError, match=r"a Gamma product at s=.* is outside the float range"):
        GammaExpr.g_factor(0, 0).value(s)


def test_gamma_value_keeps_true_zeros_below_2_53():
    assert GammaExpr.g_factor(0, 0).value(2**53 - 1) == 0j
    assert GammaExpr.g_factor(0, 0).value(3) == 0j


def test_contragredient_is_an_involution():
    for r in (SIGN4, DS_PAIR, MIXED):
        e = casselman_embedding(r)
        assert contragredient(contragredient(e)) == e


def test_script_g_sits_inside_the_full_product():
    e = casselman_embedding(SIGN4)
    two_n = len(e.lam)
    pairs = [(i, j) for i in range(1, two_n + 1) for j in range(i + 1, two_n + 1)]
    kept = [p for p in pairs if sum(p) <= two_n]
    g = script_g(e, 0)
    full = script_g_full(e, 0)
    assert sum(abs(p) for p in g.factors.values()) == 2 * len(kept)
    assert sum(abs(p) for p in full.factors.values()) == 2 * len(pairs)
    for fac, power in g.factors.items():
        got = full.factors.get(fac, 0)
        assert got >= power if power > 0 else got <= power
    tilde = script_g_tilde(e, 0)
    assert tilde == script_g(contragredient(e), 0)


def test_fe_ratio_trivial_omega_is_one():
    res = fe_ratio_check(TRIVIAL, complex(0.7, 0.3))
    assert res.omega == 1
    assert res.lhs == pytest.approx(res.rhs, rel=1e-8)


def test_fe_ratio_random_sweep():
    rng = random.Random(7)
    done = 0
    while done < 25:
        r = random_repr_data(rng)
        s = complex(rng.uniform(0.2, 1.2), rng.uniform(-1.0, 1.0))
        try:
            res = fe_ratio_check(r, s)
        except PoleProximityError:
            continue
        assert abs(res.omega) == pytest.approx(1.0, abs=1e-12)
        done += 1


def test_fe_ratio_twisted_sweep_at_every_size():
    # omega is the closed form for twisted data too, so passing the ratio
    # test at the default tolerance confirms it at each size
    rng = random.Random(11)
    for n_half in range(1, 7):
        done = 0
        while done < 10:
            r = random_repr_data(rng, n_half=n_half, eta=1)
            s = complex(rng.uniform(0.2, 1.2), rng.uniform(-1.0, 1.0))
            try:
                fe_ratio_check(r, s)
            except PoleProximityError:
                continue
            done += 1


def test_weight_order_sensitivity():
    # mixed-parity weights make the constant depend on the enumeration
    # order; the nonincreasing-weight reading is the one the ratio obeys
    r = ReprData(
        4,
        0,
        ((0, _rc(-1, 5, F(1, 2))), (0, _rc(1, 5, F(1, 2)))),
        ((4, RC(0, F(1, 7))), (5, RC(0, 0)), (4, RC(0, F(-1, 7)))),
    )
    assert validate(r) == []
    assert omega_closed_form(r) == 1j
    res = fe_ratio_check(r, complex(0.83, 0.21))
    assert res.omega == 1j


def test_omega_is_permutation_invariant():
    base = ReprData(3, 0, (), ((3, RC(0, F(1, 3))), (2, RC(0, 0)), (4, RC(0, F(-1, 3)))))
    rng = random.Random(13)
    vals = set()
    blocks = list(base.ds_blocks)
    for _ in range(6):
        rng.shuffle(blocks)
        vals.add(omega_closed_form(ReprData(3, 0, (), tuple(blocks))))
    assert len(vals) == 1


def _orders(expr, point):
    return expr.pole_order_at(point), expr.zero_order_at(point), expr.order_at(point)


@pytest.mark.parametrize("kind,step", [("R", 2), ("C", 1)])
@pytest.mark.parametrize("orient", [1, -1])
def test_orders_at_exact_points_on_and_off_the_lattice(kind, step, orient):
    const = _rc(1, 3, F(1, 2))
    fac = lfactors.GammaFactor(kind, orient, const)
    pole, zero = GammaExpr(0, {fac: 2}), GammaExpr(0, {fac: -1})

    def point(arg):
        # the s at which the argument orient * s + const equals arg
        return arg - const if orient == 1 else const - arg

    for m in range(3):
        on = point(_rc(-step * m))
        assert _orders(pole, on) == (2, 0, -2)
        assert _orders(zero, on) == (0, 1, 1)
    off_args = [_rc(1), _rc(-1, 2), _rc(-2, 1, F(1, 10))] + ([_rc(-1)] if kind == "R" else [])
    for arg in off_args:
        assert _orders(pole, point(arg)) == (0, 0, 0)
        assert _orders(zero, point(arg)) == (0, 0, 0)


# -- an independent reference for the integer pole-lattice tests -------------
#
# The rule below decides lattice membership in RationalComplex arithmetic on
# each exact factor, as the orders were computed before they moved onto the
# scaled integer keys, and shares no code with lfactors.


def _ref_hit(fac, point):
    """Is the factor's Gamma argument at the exact point a pole of its Gamma?"""
    step = 2 if fac.kind == "R" else 1
    point = RC.from_value(point)
    z = fac.const + point if fac.orient == 1 else fac.const - point
    if z.imag != 0 or z.real > 0:
        return False
    return z.real.denominator == 1 and int(z.real) % step == 0


def _ref_orders(expr, point):
    hits = [p for fac, p in expr.factors.items() if _ref_hit(fac, point)]
    pole, zero = sum(p for p in hits if p > 0), sum(-p for p in hits if p < 0)
    return pole, zero, zero - pole


def _ref_lattice_points(expr, re_min):
    re_min = F(re_min)
    points = set()
    for fac in expr.factors:
        step = 2 if fac.kind == "R" else 1
        m = 0
        while -step * m >= re_min + fac.const.real:
            points.add(RC(F(-step * m), 0) - fac.const)
            m += 1
    out = {}
    for pt in points:
        o = _ref_orders(expr, pt)[2]
        if o:
            out[pt] = o
    return out


def _probe_points(expr):
    """Points on each factor's lattice, beside it, and off the expression's grid."""
    d = expr._d
    for fac in expr.factors:
        step = 2 if fac.kind == "R" else 1
        for arg in (0, -step, -2 * step, -1, 1, F(-1, 2)):
            at = arg - fac.const if fac.orient == 1 else fac.const - arg
            yield at
            # denominators that do not divide d
            yield at + F(1, 3 * d)
            yield at + RC(0, F(1, d + 1))
    yield from (RC(0), RC(F(13, 20)), RC(F(-7, 5), F(2, 7)))


def _cancelling(expr):
    """expr times reciprocal factors that share lattice points with its own."""
    for fac in expr.factors:
        other = GammaExpr.gamma_r if fac.kind == "C" else GammaExpr.gamma_c
        expr = expr * other(fac.const, -1)
    return expr


def _integer_test_inputs():
    rng = random.Random(59)
    reprs = [random_repr_data(rng, n_half=n, eta=eta) for n in range(1, 5) for eta in (0, 1)]
    reprs += [THIRDS_SEVENTHS, NINTHS]
    forward = [l_inf(r) for r in reprs] + [_cancelling(l_inf(r)) for r in reprs[::3]]
    for kind in ("R", "C"):
        for power in (-2, 1):
            fac = lfactors.GammaFactor(kind, 1, RC(F(1, 3), F(1, 2)))
            forward.append(GammaExpr(0, {fac: power}))
    both = []
    for r in reprs[::2]:
        e = casselman_embedding(r)
        both += [script_g(e, r.eta), *partial_products(r)]
    return forward, both


def test_integer_orders_match_an_exact_reference():
    forward, both = _integer_test_inputs()
    assert {f.orient for g in both for f in g.factors} == {1, -1}
    assert {f.kind for g in forward + both for f in g.factors} == {"R", "C"}
    for expr in forward + both:
        for point in _probe_points(expr):
            assert _orders(expr, point) == _ref_orders(expr, point), (expr, point)


def test_integer_halfplane_scan_matches_an_exact_reference():
    forward, both = _integer_test_inputs()
    found = 0
    for expr in forward:
        for re_min in (F(1, 2), 1, 0, F(-5, 2)):
            got, want = expr.lattice_points_in_halfplane(re_min), _ref_lattice_points(expr, re_min)
            assert list(got.items()) == list(want.items())
            found += len(got) > 1
    assert found > 10
    for expr in filter(lambda g: g.factors, both):
        with pytest.raises(ValueError, match="reversed factors"):
            expr.lattice_points_in_halfplane(F(1, 2))


def test_products_and_equality_rescale_across_denominators():
    thirds_quarters = GammaExpr.gamma_r(F(1, 3)) * GammaExpr.gamma_r(F(1, 4))
    inverse = GammaExpr(0, {fac: -p for fac, p in thirds_quarters.factors.items()})
    assert thirds_quarters._d == inverse._d == 12
    assert thirds_quarters * inverse == GammaExpr.one()
    assert inverse * thirds_quarters == GammaExpr.one()
    half = GammaExpr.gamma_r(F(1, 2))
    # Gamma_R(s+1/2) on d = 12: the thirds and quarters cancel
    reduced = thirds_quarters * half * inverse
    assert (reduced._d, half._d) == (12, 2)
    assert reduced == half and half == reduced
    assert list(reduced.factors.items()) == list(half.factors.items())
    assert reduced.describe() == half.describe() == ("Gamma_R(s+1/2)",)
    assert reduced != GammaExpr.gamma_r(F(1, 2), 2)
    assert reduced != GammaExpr.gamma_c(F(1, 2))
    assert reduced != GammaExpr.g_factor(0, F(1, 2)) * GammaExpr.g_factor(0, F(1, 2))
    assert reduced * GammaExpr.gamma_r(F(1, 2), -1) == GammaExpr.one()
    for point in (F(-1, 2), F(-3, 2), F(-5, 2), F(-1, 3), F(-7, 12), RC(F(-1, 2), F(1, 4))):
        assert _orders(reduced, point) == _orders(half, point) == _ref_orders(half, point)


def test_pole_enumeration_sign_pair():
    poles = pole_enumeration(SIGN4)
    assert len(poles) == 1
    rec = poles[0]
    assert rec.location == _rc(13, 20)
    assert rec.order == 1
    assert rec.provenance == ("sign-pair[1,2]",)


def test_pole_enumeration_eta_gate():
    twisted = ReprData(2, 1, SIGN4.sign_blocks, ())
    assert len(pole_enumeration(twisted)) == 0


def test_pole_enumeration_ds_square():
    poles = pole_enumeration(DS_PAIR)
    locs = {str(r.location): r for r in poles}
    assert "3/5" in locs
    rec = locs["3/5"]
    assert rec.provenance[0].startswith("ds-square")


def test_pole_enumeration_tempered_is_empty():
    assert len(pole_enumeration(TEMPERED)) == 0


def test_partial_products_cover_the_g_product():
    rng = random.Random(17)
    for _ in range(10):
        r = random_repr_data(rng)
        parts = partial_products(r)
        assert len(parts) == 6
    mid = ReprData(2, 0, (), ((2, RC(0, F(1, 10))), (3, RC(0, F(1, 5)))))
    assert validate(mid) == []
    partial_products(mid)


def test_mismatches_raise_identity_mismatch_error(monkeypatch):
    assert issubclass(IdentityMismatchError, ArithmeticError)
    with monkeypatch.context() as m:
        m.setattr(lfactors, "_g_product", lambda d, lam, eta, full: GammaExpr.one())
        with pytest.raises(IdentityMismatchError, match="reassemble"):
            partial_products(SIGN4)
        with pytest.raises(IdentityMismatchError, match="reassemble"):
            holomorphy_check(SIGN4)
    # the G-product is whole again, so each mismatch below comes from omega
    closed_form = lfactors._omega
    monkeypatch.setattr(lfactors, "_omega", lambda rn: -closed_form(rn))
    for r in (SIGN4, ReprData(2, 1, SIGN4.sign_blocks, ())):
        with pytest.raises(IdentityMismatchError, match="ratio mismatch"):
            fe_ratio_check(r, 0.8 + 0.1j)


def test_holomorphy_report():
    rep = holomorphy_check(SIGN4)
    assert rep.ok
    assert len(rep.poles) == 1
    rng = random.Random(19)
    for _ in range(10):
        assert holomorphy_check(random_repr_data(rng)).ok


def test_dual_reflection_of_l_inf_values():
    rng = random.Random(23)
    for _ in range(10):
        r = random_repr_data(rng)
        expr = l_inf(r)
        dexpr = lfactors._l_inf(lfactors._dual(lfactors._checked(r)))
        s = complex(rng.uniform(0.4, 1.5), rng.uniform(-1.0, 1.0))
        try:
            a = dexpr.value(s)
            b = expr.value(s.conjugate()).conjugate()
        except ArithmeticError:
            continue
        assert a == pytest.approx(b, rel=1e-11)


def test_pairwise_collapse_matches_g_factor():
    # two ratio factors with shifts differing by an odd integer collapse to
    # a single complex-gamma ratio; both readings must agree numerically
    rng = random.Random(29)
    for _ in range(20):
        eta = rng.randint(0, 1)
        z2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
        z1 = z2 + 2 * rng.randint(0, 2) + 1
        s = complex(rng.uniform(0.05, 0.45), rng.uniform(-0.7, 0.7))
        try:
            lhs, rhs = gcancel(eta, eta, z1, z2, s)
        except ArithmeticError:
            continue
        assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


def test_random_repr_data_is_always_valid():
    rng = random.Random(31)
    for _ in range(200):
        r = random_repr_data(rng)
        assert validate(r) == []
        assert _dual_violations(r) == []
        assert len(r.sign_blocks) % 2 == 0


# -- one check per public call ------------------------------------------------

ODD_R1 = ReprData(2, 0, ((0, 0),), ((2, RC(0, 0)),))
WIDE_SHIFT = ReprData(1, 0, ((0, _rc(-1, 2)), (0, _rc(1, 2))), ())
# two slots do not fill GL(6)
SHORT = ReprData(3, 0, ((0, 0), (0, 0)), ())

PUBLIC_CALLS = {
    "l_inf": l_inf,
    "casselman_embedding": casselman_embedding,
    "pole_enumeration": pole_enumeration,
    "partial_products": partial_products,
    "fe_ratio_check": lambda r: fe_ratio_check(r, 0.83 + 0.17j),
    "holomorphy_check": holomorphy_check,
    "omega_closed_form": omega_closed_form,
}


@pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
def test_each_public_call_validates_its_input_once(monkeypatch, name):
    """Each call puts its data on the lattice once, in _checked, and its
    builders work on that one form."""
    calls = []
    real_lattice = lfactors._lattice

    def counting(*families):
        calls.append(families)
        return real_lattice(*families)

    monkeypatch.setattr(lfactors, "_lattice", counting)
    for r in (SIGN4, MIXED, random_repr_data(random.Random(41), n_half=4, eta=1)):
        calls.clear()
        PUBLIC_CALLS[name](r)
        # holomorphy_check's second check is the one inside the public
        # pole_enumeration it calls
        assert len(calls) == (2 if name == "holomorphy_check" else 1)


@pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
@pytest.mark.parametrize(
    "bad,label", [(ODD_R1, "r1-parity"), (WIDE_SHIFT, r"\(b\)"), (SHORT, "size")]
)
def test_each_public_call_rejects_invalid_data(name, bad, label):
    with pytest.raises(ValueError, match=label):
        PUBLIC_CALLS[name](bad)


def test_holomorphy_check_keeps_the_pole_family_guard(monkeypatch):
    monkeypatch.setattr(GammaExpr, "poles_in_halfplane", lambda self, re_min: {})
    with pytest.raises(IdentityMismatchError, match="structural families"):
        holomorphy_check(SIGN4)


# The suite's holomorphy FAILs at seeds 77 and 192 (partial product 6 vanishes).
SEED77 = ReprData(4, 1, (), tuple((3, RC(F(re, 100), F(-4, 5))) for re in (-37, -13, 13, 37)))
SEED192 = ReprData(
    4,
    1,
    (),
    (
        (5, RC(F(-9, 20), F(-6, 5))),
        (5, RC(F(-11, 100), F(6, 5))),
        (5, RC(F(11, 100), F(6, 5))),
        (5, RC(F(9, 20), F(-6, 5))),
    ),
)
FE_POINTS = (0.83 + 0.17j, 0.61 - 0.29j)

# sha256 prefixes of _public_outputs over _frozen_inputs(), computed with the
# implementation that validated in every builder (commit 08a9827); factor_order
# with the builders that multiplied one factor at a time (commit c6f1e92)
FROZEN_DIGESTS = {
    "l_inf": "6f49e2def876a1e6",
    "embedding": "18046cfa57d460a7",
    "poles": "5a039bcf75d13ea7",
    "partials": "8458f1aef91025aa",
    "holomorphy": "14a171f7f336fd3d",
    "fe_ratio": "5ac0152af1557f31",
    "factor_order": "99f407b3ee792a3a",
}


def _hex(z):
    z = complex(z)
    return f"{z.real.hex()},{z.imag.hex()}"


def _factor_order(expr) -> str:
    """The unit and the factors in stored order, the order value() sums them in."""
    terms = (f"{f.kind}{f.orient:+d}{f.const}^{p}" for f, p in expr.factors.items())
    return f"{expr.unit_ipow}:" + " ".join(terms)


def _public_outputs(r) -> dict:
    """Every public result for r as text, floats bit for bit."""
    e = casselman_embedding(r)
    rep = holomorphy_check(r)
    fe = []
    for s in FE_POINTS:
        try:
            res = fe_ratio_check(r, s)
        except ArithmeticError as exc:
            fe.append(type(exc).__name__)
        else:
            fe.append(" ".join(map(_hex, (res.lhs, res.rhs, res.omega))))
    return {
        "l_inf": " ".join(l_inf(r).describe()),
        "embedding": ";".join(map(str, e.lam)) + "|" + "".join(map(str, e.delta)),
        "poles": ";".join(
            f"{p.location}:{p.order}:{','.join(p.provenance)}" for p in pole_enumeration(r)
        ),
        "partials": "|".join(" ".join(g.describe()) for g in partial_products(r)),
        "holomorphy": f"{rep.ok}|{len(rep.poles)}|" + "|".join(rep.notes),
        "fe_ratio": "|".join(fe),
        "factor_order": "|".join(
            map(_factor_order, (l_inf(r), script_g_full(e, r.eta), *partial_products(r)))
        ),
    }


def _frozen_inputs():
    rng = random.Random(2027)
    fixed = [TRIVIAL, TEMPERED, SIGN4, DS_PAIR, MIXED, SEED77, SEED192]
    return fixed + [random_repr_data(rng) for _ in range(200)]


def _output_digests() -> dict:
    digests = {}
    for r in _frozen_inputs():
        for name, text in _public_outputs(r).items():
            digests.setdefault(name, hashlib.sha256()).update(text.encode() + b"\n")
    return {name: h.hexdigest()[:16] for name, h in digests.items()}


def test_public_outputs_match_the_frozen_values():
    assert not holomorphy_check(SEED77).ok and not holomorphy_check(SEED192).ok
    assert _output_digests() == FROZEN_DIGESTS
