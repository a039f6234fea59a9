import json
import re
import subprocess
import sys
import time

import pytest

import extsq.cli
from extsq.cli import build_parser, main
from extsq.lfactors import IdentityMismatchError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {
                "rows": 3,
                "cols": 3,
                "entries": [["1", "2", "0"], ["3", "4", "1"], ["1", "1", "2"]],
            }
        )
    )
    return str(path)


@pytest.fixture
def singular_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"rows": 2, "cols": 2, "entries": [["1", "2"], ["0", "0"]]})
    )
    return str(path)


@pytest.fixture
def repr_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "eta": 0,
                "sign_blocks": [
                    {"eps": 0, "s": "-2/5"},
                    {"eps": 0, "s": "-1/4"},
                    {"eps": 0, "s": "1/4"},
                    {"eps": 0, "s": "2/5"},
                ],
                "ds_blocks": [],
            }
        )
    )
    return str(path)


@pytest.fixture
def satake_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps(
            [
                {"p": 2, "alpha": ["3/5+4/5i", "3/5-4/5i"], "chi": "1"},
                {"p": 5, "alpha": ["1", "-1"], "chi": "1"},
            ]
        )
    )
    return str(path)


def _parse_kv(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or "\t" not in line:
            continue
        key, rest = line.split("\t", 1)
        out[key] = rest
    return out


def test_decompose_text_output(capsys, matrix_file):
    code, out, err = run_cli(capsys, "decompose", matrix_file)
    assert code == 0
    kv = _parse_kv(out)
    assert kv["a"].split(" | ")[0] == "-21 0 0"
    assert kv["reconstruction"].startswith("PASS")
    assert kv["normalized-match"].startswith("PASS")


def test_decompose_json_output(capsys, matrix_file):
    code, out, err = run_cli(capsys, "decompose", matrix_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "decompose"
    assert set(doc["output"]) >= {"b_plus", "a", "b_minus", "n_upper", "h", "n_lower"}
    assert all(c["passed"] for c in doc["checks"])
    assert doc["output"]["a"]["entries"][0][0] == "-21"


def test_decompose_singular_input_fails_cleanly(capsys, singular_file):
    code, out, err = run_cli(capsys, "decompose", singular_file)
    assert code == 2
    assert "trailing principal minor d_1" in err


def test_decompose_empty_matrix(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"rows": 0, "cols": 0, "entries": []}))
    code, out, err = run_cli(capsys, "decompose", str(path), "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert all(c["passed"] for c in doc["checks"])
    assert doc["output"]["h"] == {"rows": 0, "cols": 0, "entries": []}


def test_decompose_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "decompose", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("error:")


def test_gamma_oracle_check(capsys):
    code, out, err = run_cli(capsys, "gamma", "--delta", "0", "--s", "0.7+0.2i", "--oracle")
    assert code == 0
    kv = _parse_kv(out)
    assert kv["oracle-agreement"].startswith("PASS")
    assert complex(kv["closed"].replace("i", "j")) == pytest.approx(
        complex(kv["quadrature"].replace("i", "j")), abs=1e-5
    )


def test_gamma_oracle_refusal_is_a_failed_check(capsys):
    # at Re s = 1e-9 the head's series sums terms near 1/Re s, and its
    # rounding bound exceeds the budget
    code, out, err = run_cli(capsys, "gamma", "--delta", "0", "--s", "1e-9", "--oracle")
    assert code == 1
    assert err == ""
    kv = _parse_kv(out)
    assert kv["oracle-agreement"] == (
        "FAIL\tquadrature refused: error estimate 2.819e-05 exceeds budget 1.000e-07"
    )
    assert "quadrature" not in kv


@pytest.mark.parametrize(
    "argv, s",
    [
        (["gamma", "--delta", "0", "--s", "1e-320"], "(1e-320+0j)"),
        (["gamma", "--delta", "0", "--s", "1e-320", "--oracle"], "(1e-320+0j)"),
        (["lfactor", "{repr}", "--s", "1e-320"], "(1e-320+0j)"),
        (["lfactor", "{repr}", "--s", "1e300"], "(1e+300+0j)"),
        (["lfactor", "{repr}", "--s", "0.5+1e5i"], "(0.5+100000j)"),
        (["gamma", "--delta", "0", "--s", "1e20"], "(1e+20+0j)"),
        (["gamma", "--delta", "1", "--s=-1e16"], "(-1e+16+0j)"),
    ],
)
def test_a_value_past_the_float_range_names_s(capsys, tmp_path, argv, s):
    # each --s is a float, but the Gamma ratio or product there is not
    path = tmp_path / "k2.json"
    doc = {"n": 1, "eta": 0, "sign_blocks": [], "ds_blocks": [{"k": 2, "s": "0"}]}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(a.format(repr=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of range: ") and err.count("\n") == 1
    assert f" at s={s} is outside the float range" in err


def test_gamma_oracle_names_its_domain(capsys):
    code, out, err = run_cli(capsys, "gamma", "--delta", "0", "--s", "4.5", "--oracle")
    assert code == 2
    assert out == ""
    assert err == "error: quadrature oracle needs 0 < Re s < 4\n"


def test_gamma_closed_form_only(capsys):
    code, out, err = run_cli(capsys, "gamma", "--delta", "1", "--s", "0.5")
    assert code == 0
    assert "closed" in _parse_kv(out)


def test_gamma_rejects_bad_s(capsys):
    code, out, err = run_cli(capsys, "gamma", "--delta", "0", "--s", "zzz")
    assert code == 2


def test_lfactor_command(capsys, repr_file):
    code, out, err = run_cli(capsys, "lfactor", repr_file, "--s", "0.8")
    assert code == 0
    kv = _parse_kv(out)
    assert "Gamma_R(s-13/20)" in kv["factors"]
    assert kv["omega"] == "1.0+0.0i"
    assert float(kv["value"].split("+")[0]) == pytest.approx(26.143444407541367)


def test_lfactor_validates_once(capsys, monkeypatch, repr_file):
    import extsq.lfactors as lfactors

    lattice = lfactors._lattice
    calls = []

    def counting(*families):
        calls.append(families)
        return lattice(*families)

    monkeypatch.setattr(lfactors, "_lattice", counting)
    code, out, err = run_cli(capsys, "lfactor", repr_file, "--s", "0.8", "--json")
    assert code == 0
    assert len(calls) == 1
    doc = json.loads(out)["output"]
    assert doc["omega"] == "1.0+0.0i"
    assert "Gamma_R(s-13/20)" in doc["factors"]


def test_poles_command(capsys, repr_file):
    code, out, err = run_cli(capsys, "poles", repr_file)
    assert code == 0
    kv = _parse_kv(out)
    assert kv["count"] == "1"
    assert kv["pole-0"] == "13/20\torder 1\tsign-pair[1,2]"


def test_fe_check_command(capsys, repr_file):
    code, out, err = run_cli(capsys, "fe-check", repr_file, "--samples", "5")
    assert code == 0
    kv = _parse_kv(out)
    assert kv["identity"].startswith("PASS")


def test_fe_check_reports_a_mismatch_as_a_failed_check(capsys, repr_file, monkeypatch):
    def mismatch(*args, **kwargs):
        raise IdentityMismatchError("functional-equation ratio mismatch")

    monkeypatch.setattr(extsq.suite, "fe_ratio_check", mismatch)
    code, out, err = run_cli(capsys, "fe-check", repr_file, "--samples", "5")
    assert code == 1
    assert _parse_kv(out)["identity"] == "FAIL\tfunctional-equation ratio mismatch"


def test_identity_mismatch_is_a_one_line_error(capsys, repr_file, monkeypatch):
    def mismatch(r):
        raise IdentityMismatchError("lattice scan disagrees")

    monkeypatch.setattr(extsq.cli, "pole_enumeration", mismatch)
    code, out, err = run_cli(capsys, "poles", repr_file)
    assert code == 1
    assert out == ""
    assert err == "error: identity mismatch: lattice scan disagrees\n"


def test_euler_command(capsys, satake_file):
    code, out, err = run_cli(capsys, "euler", satake_file, "--s", "2")
    assert code == 0
    kv = _parse_kv(out)
    assert float(kv["factor-2"].split("+")[0]) == pytest.approx(4.0 / 3.0)
    assert float(kv["factor-5"].split("+")[0]) == pytest.approx(25.0 / 26.0)
    assert float(kv["partial-product"].split("+")[0]) == pytest.approx(
        (4.0 / 3.0) * (25.0 / 26.0)
    )


def test_euler_standard_kind(capsys, satake_file):
    code, out, err = run_cli(capsys, "euler", satake_file, "--s", "2", "--kind", "standard")
    assert code == 0
    assert _parse_kv(out)["kind"] == "standard"


def test_euler_guard_failure_is_an_input_error(capsys, satake_file):
    code, out, err = run_cli(capsys, "euler", satake_file, "--s", "0.01")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"alpha": ["1/2", "1/3"]}, "has no 'p' field"),
        (["x"], "must be a JSON object, not str"),
        ({"p": 3, "alpha": "12"}, "field 'alpha': expected a list, not str"),
        ({"p": 3, "alpha": ["1", "x"]}, "field 'alpha': not a rational literal"),
        ({"p": "3", "alpha": ["1", "2"]}, "field 'p': expected an integer"),
    ],
)
def test_bad_satake_json_is_an_input_error(capsys, tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "euler", str(path), "--s", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize(
    "alpha,argv",
    [
        (["1e999999999", "2"], ["euler", "{satake}", "--s", "2"]),
        (["1e400", "2"], ["euler", "{satake}", "--s", "2"]),
        (["1/2", "1/3"], ["euler", "{satake}", "--s", "1e400"]),
        (None, ["lfactor", "{repr}", "--s", "1e400"]),
        (None, ["gamma", "--delta", "0", "--s", "1e400"]),
        (None, ["gamma", "--delta", "0", "--s", "1e-999999999"]),
        # inside the exponent bound, but 10^4300 has too many digits to print
        (None, ["decompose", "{matrix}"]),
    ],
)
def test_huge_decimal_exponents_are_input_errors(capsys, tmp_path, repr_file, alpha, argv):
    satake = tmp_path / "huge.json"
    satake.write_text(json.dumps({"p": 3, "alpha": alpha}))
    matrix = tmp_path / "huge_matrix.json"
    matrix.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["1e4300", "1"], ["1", "2"]]}))
    t0 = time.monotonic()
    code, out, err = run_cli(
        capsys, *(a.format(satake=satake, repr=repr_file, matrix=matrix) for a in argv)
    )
    assert time.monotonic() - t0 < 5
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # the one line names the option or the entry, and the literal
    s = argv[argv.index("--s") + 1] if "--s" in argv else None
    if argv[0] == "decompose":
        named = ("'1e4300'", "4300 digits")
    elif s == "2":
        named = ("field 'alpha'", repr(alpha[0]))
    else:
        named = ("--s", repr(s))
    assert all(part in err for part in named), err


@pytest.mark.parametrize(
    "entry,reason",
    [
        ("1e4300", "(expands to 4300 digits or more)"),
        ("1e-999999999", "(expands to 4300 digits or more)"),
        ("1/0", "not a rational literal: '1/0'"),
    ],
    ids=["1e4300", "1e-999999999", "1/0"],
)
def test_unreadable_matrix_entries_keep_the_parser_reason(capsys, tmp_path, entry, reason):
    path = tmp_path / "bad_matrix.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[entry, "1"], ["1", "2"]]}))
    code, out, err = run_cli(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: entry {entry!r} is neither rational nor a name: ")
    assert err.count("\n") == 1 and reason in err


@pytest.mark.parametrize("shift,code", [("1000i", 2), ("1e5i", 2), ("100i", 0)])
def test_fe_check_refuses_a_gamma_product_outside_the_float_range(capsys, tmp_path, shift, code):
    # past the pole-distance test, the Gamma products at 1000i underflow to 0
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"n": 1, "eta": 0, "ds_blocks": [{"k": 2, "s": shift}]}))
    got, out, err = run_cli(capsys, "fe-check", str(path))
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith("error: out of range: ") and err.count("\n") == 1
    else:
        assert err == ""


def test_shuffle_verify(capsys):
    code, out, err = run_cli(capsys, "shuffle-verify", "--n", "2", "--trials", "5")
    assert code == 0
    kv = _parse_kv(out)
    for name in ("superdiag", "altsum", "recursion", "whittaker", "kappa"):
        assert kv[name].startswith("PASS")


def test_suite_and_shuffle_verify_share_one_draw_path(capsys, monkeypatch):
    import extsq.suite

    real = extsq.suite.superdiag_closed_form
    monkeypatch.setattr(extsq.suite, "superdiag_closed_form", lambda v: real(v) + 1)
    assert not extsq.suite.run_check("superdiag", 0).passed
    code, out, err = run_cli(capsys, "shuffle-verify", "--n", "2", "--trials", "3")
    assert code == 1
    kv = _parse_kv(out)
    assert kv["superdiag"] == "FAIL\tsymbolic mismatch at n_half=2"
    for name in ("altsum", "recursion", "whittaker", "kappa"):
        assert kv[name].startswith("PASS")


def test_shuffle_verify_checks_that_kappa_rejects_the_wrong_parity(capsys, monkeypatch):
    import extsq.suite

    real = extsq.suite.kappa_signs

    def ignores_eps(n, delta, eps, eta):
        return real(n, delta, (sum(delta) + n * eta) % 2, eta)

    monkeypatch.setattr(extsq.suite, "kappa_signs", ignores_eps)
    code, out, err = run_cli(capsys, "shuffle-verify", "--n", "2", "--trials", "1")
    assert code == 1
    assert _parse_kv(out)["kappa"] == "FAIL\tparity constraint is not enforced"


@pytest.mark.parametrize(
    "argv",
    [
        ("fe-check", "{repr}", "--samples", "0"),
        ("fe-check", "{repr}", "--samples", "-2"),
        ("fe-check", "{repr}", "--tol", "0"),
        ("suite", "--trials", "-3", "--check", "whittaker"),
        ("suite", "--trials", "0"),
        ("suite", "--trials", "two"),
        ("shuffle-verify", "--n", "2", "--trials", "-1"),
        ("shuffle-verify", "--n", "2", "--tol", "-0.5"),
        ("gamma", "--delta", "0", "--s", "0.5", "--oracle", "--tol", "0"),
    ],
    ids=" ".join,
)
def test_non_positive_counts_and_tolerances_are_input_errors(capsys, repr_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(repr=repr_file) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err
    assert "Traceback" not in err


def test_suite_has_no_blanket_tolerance(capsys):
    # each check fixes its own tolerance; --tol is left to the numeric commands
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--tol", "1e-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "extsq: error: unrecognized arguments: --tol 1e-3"
    ]
    assert "Traceback" not in err


def test_text_report_ends_with_the_timed_footer(capsys):
    code, out, err = run_cli(capsys, "suite", "--seed", "42", "--check", "kappa")
    assert code == 0 and err == ""
    assert re.fullmatch(r"# 1/1 checks passed in \d+ ms", out.splitlines()[-1])


def test_suite_subset(capsys):
    code, out, err = run_cli(capsys, "suite", "--check", "euler", "--check", "kappa")
    assert code == 0
    kv = _parse_kv(out)
    assert set(k for k in kv if not k.startswith("#")) >= {"euler", "kappa"}
    assert kv["euler"].startswith("PASS")


def test_suite_rejects_unknown_check():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["suite", "--check", "nonsense"])


def test_suite_json_deterministic_across_processes():
    cmd = [
        sys.executable,
        "-m",
        "extsq.cli",
        "suite",
        "--seed",
        "7",
        "--check",
        "euler",
        "--check",
        "anchors-gdelta",
        "--json",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    b = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["seed"] == 7
    assert "wall_time_ms" not in json.dumps(doc)


def test_python_dash_m_extsq_runs_the_cli():
    cmd = [sys.executable, "-m", "extsq", "suite", "--seed", "42", "--check", "kappa", "--json"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["seed"] == 42


def test_parser_covers_all_subcommands():
    parser = build_parser()
    sub = {
        a.dest: a
        for a in parser._subparsers._group_actions
    }
    choices = next(iter(sub.values())).choices
    assert set(choices) == {
        "decompose",
        "shuffle-verify",
        "gamma",
        "lfactor",
        "poles",
        "fe-check",
        "euler",
        "suite",
    }


@pytest.mark.parametrize("command", ["lfactor", "poles", "fe-check"])
@pytest.mark.parametrize(
    "doc,field",
    [
        ({"eta": 0, "sign_blocks": [{"eps": 0, "s": "0"}, {"eps": 0, "s": "0"}]}, "'n'"),
        ({"n": 1, "ds_blocks": [{"k": 2}]}, "ds block 1 has no 's'"),
        ([1], "must be a JSON object, not list"),
        ({"n": 1.9, "sign_blocks": [{"eps": 0, "s": "0"}] * 2}, "field 'n': expected an integer"),
    ],
)
def test_bad_representation_json_is_an_input_error(capsys, tmp_path, command, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def test_a_violation_names_the_block_by_its_shift(capsys, tmp_path):
    """The data is sorted before it is checked, so a message names a block by
    its shift, not by a position the file does not have."""
    doc = {"n": 2, "ds_blocks": [{"k": 1, "s": "1/10"}, {"k": 2, "s": "-1/10"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "lfactor", str(path))
    assert code == 2
    assert out == ""
    assert "k-range: ds block at s = 1/10 has k = 1 < 2" in err
    assert "block 2" not in err
