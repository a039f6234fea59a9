"""Every module under src/extsq reads each name it imports, every private
helper it defines is used somewhere in the package, and every name the
package exports is read by one of its modules or listed with a reason."""

import ast
import functools
import types
from pathlib import Path

import pytest

import extsq

SRC = Path(__file__).resolve().parent.parent / "src" / "extsq"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _private_definitions(tree: ast.Module) -> list:
    """Module-level _name functions and classes, and _name methods."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    found = []
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        found.append(node)
        if isinstance(node, ast.ClassDef):
            found.extend(m for m in node.body if isinstance(m, defs))
    return [
        (n.lineno, n.name)
        for n in found
        if n.name.startswith("_") and not n.name.startswith("__")
    ]


@functools.cache
def _referenced_names() -> set:
    """Every name and attribute read in a module other than __init__.py."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_used(path):
    used = _referenced_names()
    defined = _private_definitions(ast.parse(path.read_text()))
    assert [(line, name) for line, name in defined if name not in used] == []


# Exported names that no module of the package reads, each with the reason
# it stays in the public interface.
UNREFERENCED_EXPORTS = {
    "gcancel": "the paper's pairwise collapse of two G_delta factors to one Gamma_C ratio",
    "l_inf": "the archimedean factor itself; the CLI builds it from data it has checked once",
    "partial_products": "the six partial products of the holomorphy argument; perfbench calls it",
    "script_g_full": "the functional equation's G-product over every pair, from EmbeddingParams",
    "script_g_tilde": "the paper's contragredient product G~(s) of the functional equation",
    "validate": "the violation list for unchecked data; _checked validates its lattice form",
}


def test_every_export_is_used_or_listed():
    exported = {
        name
        for name in extsq.__all__
        if not isinstance(getattr(extsq, name), types.ModuleType)
    }
    assert sorted(exported - _referenced_names()) == sorted(UNREFERENCED_EXPORTS)


def test_only_clear_decides_how_rows_are_cleared():
    """The row-clearing helpers are called from matrices._clear alone, so
    every exact determinant takes its ring and division from one place."""
    callers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in ("_clear_rational", "_clear_symbolic"):
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("matrices.py", "_clear")}


def _calls(fn: ast.FunctionDef) -> set:
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            names.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return names


def test_the_prs_is_the_one_gcd_fallback():
    """_gcd_core and its certificate hand every pair they cannot settle to
    _prs_gcd: neither recurses into a content gcd itself, and the univariate
    gcd and the second permutation-sign routine stay deleted."""
    functions = {
        (path.name, node.name): node
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    core = _calls(functions[("polynomials.py", "_gcd_core")])
    certificate = _calls(functions[("polynomials.py", "_proved_coprime")])
    assert "_prs_gcd" in core
    assert not {"poly_gcd", "_content_in"} & (core | certificate)
    assert not {"_univar_gcd", "_perm_sign"} & {name for _, name in functions}


def test_the_factors_view_is_the_one_gamma_factor_construction():
    """Every GammaFactor in the package is built by the GammaExpr.factors view
    from a lattice key, only when the exact factors are read, and the per-shift
    G accumulator and the RationalComplex pole-lattice test stay deleted."""
    callers, defined = set(), set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
                if "GammaFactor" in _calls(node):
                    callers.add((path.name, node.name))
    assert callers == {("lfactors.py", "factors")}
    assert not {"_accumulate_g", "_pole_lattice_hit"} & defined


def test_gamma_expr_is_the_one_gamma_product():
    """The unfolded Gamma table is a GammaExpr, so the gamma-table check
    compares it with script_g exactly and evaluates neither; the float-only
    table and the pole-list wrapper stay deleted."""
    defined, check = set(), None
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                if (path.name, node.name) == ("suite.py", "check_gamma_table"):
                    check = node
    assert not {"GammaTable", "PoleList"} & defined
    assert "value" not in _calls(check)
    assert {"unfolded_gamma_table", "script_g"} <= _calls(check)


def test_the_lattice_form_is_built_once_per_entry():
    """_lattice is called only where ReprData, EmbeddingParams or an exact
    GammaExpr shift enters; the builders and the dual step work on the
    checked lattice form alone; and the package has one lattice builder and
    one dual step, so no second form of the checked data comes back."""
    lattice_callers, functions = set(), {}
    for node in ast.walk(ast.parse((SRC / "lfactors.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
            if "_lattice" in _calls(node):
                lattice_callers.add(node.name)
    assert lattice_callers == {
        "validate", "_checked", "script_g", "script_g_full",
        "__init__", "gamma_r", "gamma_c", "g_factor",
    }
    builders = ("_l_inf", "_embed", "_g_product", "_partial_products", "_omega", "_dual")
    for name in builders:
        assert not {"RationalComplex", "normalize", "_lattice", "_point"} & _calls(functions[name])
    defined = {
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert {name for name in defined if name.endswith("lattice")} == {"_lattice"}
    assert {name for name in defined if "dual" in name} == {"_dual"}


def test_the_series_is_the_one_head_path():
    """The quadrature oracle's head comes from _head_series alone:
    g_delta_integral sums it once and runs the double-exponential rule once,
    for the rotated tail, and the tanh-sinh head's table and range stay
    deleted, so no second head path comes back beside the series."""
    tree = ast.parse((SRC / "specialfn.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert not {"_head_nodes", "_HEAD_RANGE"} & names
    (oracle,) = (n for n in tree.body if getattr(n, "name", None) == "g_delta_integral")
    called = [
        node.func.id
        for node in ast.walk(oracle)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert called.count("_double_exponential") == 1
    assert called.count("_head_series") == 1
    assert "_tail_nodes" in called


def test_the_guard_table_is_the_one_superdiagonal_route():
    """superdiag_sum reads the table that build_B's guard built on the
    finished matrix and reaches no elimination; besides the guard only the
    sweep, whose table is of the matrix it is still solving, builds a _Minors."""
    functions = {
        node.name: node
        for node in ast.walk(ast.parse((SRC / "unfold.py").read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    builders = {name for name, fn in functions.items() if "_Minors" in _calls(fn)}
    assert builders == {"_build_B", "_assert_tilde_relations"}
    assert "_assert_tilde_relations" in _calls(functions["_build_B"])
    superdiag = functions["superdiag_sum"]
    names = set()
    for node in ast.walk(superdiag):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not {"nhn_decompose", "_Minors", "build_B"} & names
    assert "_build_B" in names


def test_unfold_imports_no_elimination():
    """unfold reads the Whittaker factors from the recursion and the guard
    table, so of decomp it imports only the error and the exactness check;
    the elimination stays the tests' oracle."""
    tree = ast.parse((SRC / "unfold.py").read_text())
    from_decomp = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "decomp":
            from_decomp.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.endswith("decomp") for a in node.names)
    assert from_decomp == {"DegenerateMinorError", "_require_exact"}


def _ratfunc_builders(tree: ast.Module) -> list:
    """Lines that call RatFunc or bind it to another name.

    Only attribute reads (RatFunc.from_poly, RatFunc.const), isinstance
    arguments and comparisons such as ``RatFunc in kinds`` may read the
    name, so a RatFunc of two operands can only come from ratfunc.quotient.
    """
    parents = {c: node for node in ast.walk(tree) for c in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [node.lineno for a in node.names if a.name == "RatFunc" and a.asname]
        if not (isinstance(node, ast.Name) and node.id == "RatFunc"):
            continue
        up = parents[node]
        if isinstance(up, ast.Tuple):
            up = parents[up]
        if isinstance(up, (ast.Attribute, ast.Compare)):
            continue
        if isinstance(up, ast.Call) and getattr(up.func, "id", None) == "isinstance":
            continue
        found.append(node.lineno)
    return found


def test_the_guard_sees_a_call_and_an_alias():
    bad = (
        "r = RatFunc(a, b)",
        "ratio = Fraction if divide is _div_int else RatFunc",
        "ratio = RatFunc",
        "from .ratfunc import RatFunc as R",
    )
    good = (
        "r = RatFunc.from_poly(p)",
        "r = RatFunc.const(ring, 1)",
        "ok = isinstance(e, (Polynomial, RatFunc))",
        "ok = RatFunc in kinds",
    )
    assert all(_ratfunc_builders(ast.parse(src)) == [1] for src in bad)
    assert all(_ratfunc_builders(ast.parse(src)) == [] for src in good)


def test_quotient_is_the_one_exact_quotient():
    """Outside ratfunc.py no module builds a RatFunc from two operands or
    aliases the class, so ratfunc.quotient alone decides whether an exact
    quotient is a Fraction or a RatFunc, and the helpers it replaced stay
    deleted."""
    found, defined = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        defined |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        if path.name != "ratfunc.py":
            found += [(path.name, line) for line in _ratfunc_builders(tree)]
    assert found == []
    assert "quotient" in defined
    assert not {"_div", "_ratio", "_inv"} & defined


_FACTORED = {"FactoredFraction", "FactorBasis"}


def _factored_readers(tree: ast.Module) -> set:
    """Where a module reads FactoredFraction or FactorBasis.

    A module-level import of either name without an alias is "import";
    every other read, an aliased import included, is named by the top-level
    definition around it, or "<module>" outside any.
    """
    found = set()
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.alias) and node.name in _FACTORED:
                plain = isinstance(top, ast.ImportFrom) and node.asname is None
                found.add("import" if plain else where)
            elif isinstance(node, ast.Name) and node.id in _FACTORED:
                found.add(where)
            elif isinstance(node, ast.Attribute) and node.attr in _FACTORED:
                found.add(where)
    return found


_FACTORED_ALLOWED = {"import", "_verify_reconstruction_poly"}


def test_the_factored_guard_sees_every_read():
    bad = (
        "ff = FactoredFraction(basis, p)",
        "def check(g): return FactorBasis(g.ring)",
        "from .ratfunc import FactorBasis as Basis",
        "make = ratfunc.FactoredFraction.from_ratfunc",
    )
    good = (
        "from .ratfunc import FactorBasis, FactoredFraction, RatFunc",
        "def _verify_reconstruction_poly(g, udl): return FactorBasis(g.ring)",
        "r = RatFunc.from_poly(p)",
    )
    assert all(_factored_readers(ast.parse(src)) - _FACTORED_ALLOWED for src in bad)
    assert all(_factored_readers(ast.parse(src)) <= _FACTORED_ALLOWED for src in good)


def test_factored_fractions_serve_the_reconstruction_check_alone():
    """Outside ratfunc.py only decomp's import line and
    _verify_reconstruction_poly read FactoredFraction or FactorBasis, so the
    two classes gain no caller that would outlive that check's use of them."""
    found = {
        (path.name, where)
        for path in MODULES
        if path.name != "ratfunc.py"
        for where in _factored_readers(ast.parse(path.read_text()))
    }
    assert found == {("decomp.py", "import"), ("decomp.py", "_verify_reconstruction_poly")}


def _command_overreach(tree: ast.Module) -> list:
    """(command, what) for each cmd_* function that does main's work.

    A command builds its report and returns it: it prints nothing to
    stderr, reads no clock, emits nothing, and returns only _make_report(...).
    """
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        returns = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
        if not returns:
            found.append((fn.name, "no return"))
        for node in returns:
            call = node.value
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_make_report"):
                found.append((fn.name, "return"))
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if getattr(f, "id", None) == "_emit":
                found.append((fn.name, "_emit"))
            elif isinstance(f, ast.Attribute) and f.attr == "monotonic":
                found.append((fn.name, "time.monotonic"))
            elif getattr(f, "id", None) == "print" and any(
                k.arg == "file" and getattr(k.value, "attr", None) == "stderr"
                for k in node.keywords
            ):
                found.append((fn.name, "stderr"))
    return found


def test_the_command_guard_sees_each_overreach():
    bad = (
        "def cmd_a(args):\n    t0 = time.monotonic()\n    return _make_report('a', None, [])",
        "def cmd_a(args):\n    return _emit(_make_report('a', None, []), args.json)",
        "def cmd_a(args):\n    print('error: x', file=sys.stderr)\n    return _make_report('a', None, [])",
        "def cmd_a(args):\n    if args.n:\n        return 2\n    return _make_report('a', None, [])",
        "def cmd_a(args):\n    _make_report('a', None, [])",
    )
    good = (
        "def cmd_a(args):\n    return _make_report('a', None, [])",
        "def cmd_a(args):\n    if args.n > 6:\n        raise ValueError('--n')\n"
        "    return _make_report('a', None, [], {'n': args.n})",
        "def main(argv):\n    t0 = time.monotonic()\n    return _emit(report, True, t0)",
    )
    assert all(_command_overreach(ast.parse(src)) for src in bad)
    assert all(_command_overreach(ast.parse(src)) == [] for src in good)


def test_main_alone_times_emits_and_maps_errors():
    """Every cmd_* function in cli.py only builds and returns its RunReport;
    main times the command, prints the report and turns an exception into
    the error line and exit status, so no command grows its own copy."""
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = [n.name for n in tree.body if getattr(n, "name", "").startswith("cmd_")]
    assert len(commands) == 8
    assert _command_overreach(tree) == []


# The exact algebra path: polynomials, rational functions, matrices, the
# triangular decompositions and the unfolding identities.
ALGEBRA_MODULES = ("polynomials.py", "ratfunc.py", "matrices.py", "decomp.py", "unfold.py")


def _float_uses(tree: ast.Module) -> list:
    """Lines that import cmath or call float or complex."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names if a.name == "cmath"]
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "complex"):
            found.append(node.lineno)
    return found


def test_the_float_guard_sees_each_use():
    bad = (
        "import cmath",
        "import cmath as c",
        "from cmath import exp",
        "v = float(x)",
        "z = complex(re, im)",
    )
    good = (
        "import math",
        "q = Fraction(x)",
        "ok = not isinstance(v, (float, complex))",
        "def __float__(self):\n    return 0",
    )
    assert all(_float_uses(ast.parse(src)) for src in bad)
    assert all(_float_uses(ast.parse(src)) == [] for src in good)


@pytest.mark.parametrize("name", ALGEBRA_MODULES)
def test_the_algebra_path_forms_no_float(name):
    """The algebra stays exact: no module on its path imports cmath or
    converts a value to float or complex."""
    assert _float_uses(ast.parse((SRC / name).read_text())) == []
