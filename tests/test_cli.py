"""Command-line interface: reports, formats, exit codes, determinism."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crfbench
from crfbench.cli import _dumps, _rand_poly, main
from crfbench.hypercomplex import DIM, MUL_TABLE, HNumber
from crfbench.polycalc import HPoly, compat_pbar, dbar_system
from crfbench.hypersurface import Hypersurface
from oracles import CLASS_REFUSAL, number_json, with_sign_flipped


def coord(h, a):
    return HPoly.coordinate("H", 2, h, a)


def counterexample_poly():
    j, k = HNumber.unit("H", 2), HNumber.unit("H", 3)
    return (coord(0, 1) * coord(1, 0)).mul_const_left(-j) + \
        (coord(0, 0) * coord(1, 0)).mul_const_left(k)


def write_function_surface(path, f, rho):
    path.write_text(json.dumps({
        "schema_version": 1,
        "f": f.to_json(),
        "surface": {"rho": rho.to_json()},
    }))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------

def test_verify_identities_json(capsys):
    code, out, _ = run(capsys, ["verify-identities", "--count", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert rep["status"] == "pass"
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert len(rep["inputs_sha256"]) == 64
    names = {c["name"] for c in rep["checks"]}
    assert "laplacian_cube_H" in names and "laplacian_cube_O" in names
    assert "seven_form_identity_two_variables" in names


def test_verify_identities_single_algebra(capsys):
    code, out, _ = run(capsys, ["verify-identities", "--count", "2",
                                "--algebra", "O"])
    assert code == 0
    rep = json.loads(out)
    names = {c["name"] for c in rep["checks"]}
    assert "nonassociative_witness_O" in names
    assert not any(name.endswith("_H") for name in names)


def test_table_format(capsys):
    code, out, _ = run(capsys, ["verify-identities", "--count", "2",
                                "--format", "table"])
    assert code == 0
    assert out.startswith("# verify-identities  status=pass")
    assert "PASS  laplacian_cube_H" in out


def test_default_output_is_byte_identical(capsys):
    _, out1, _ = run(capsys, ["verify-identities", "--count", "3"])
    _, out2, _ = run(capsys, ["verify-identities", "--count", "3"])
    assert out1 == out2


def test_timings_are_opt_in(capsys):
    _, out, _ = run(capsys, ["verify-identities", "--count", "2"])
    assert "timings" not in json.loads(out)
    _, out, _ = run(capsys, ["verify-identities", "--count", "2",
                             "--timings"])
    assert "timings" in json.loads(out)


DUMPS_CORPUS = [
    {}, [], {"a": {}, "b": [], "c": [[], [{}], {"d": [[]]}]},
    [{"a": 1}, 2, "x", None, [3, "y"], []],
    [-0.0, 1e-320, 1e300, 0.1, math.nan, math.inf, -math.inf],
    10 ** 40, [10 ** 40, -10 ** 40, 0], ("a", "b"), (1, 2),
    [1, True, 2], [False, 0], [None, 1], [1, 2.0], [True], ["a", None],
    "\u00e9\u2028\x00\x1f\"\\\ud800",
    {"k\u00e9\"y\\\n\x01": ["\x07", "\u00fc", "\ud83d\ude00"]},
    {"b": 1, "a": [1, 2], "\u00e9": "x", "A": None, "": -1},
]


def _report_argv(tmp_path):
    """One argument list per subcommand, and one with ``--timings``."""
    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    fs = write_function_surface(tmp_path / "fs.json", f, coord(1, 3))
    bad = write_function_surface(tmp_path / "bad.json",
                                 counterexample_poly(), coord(1, 3))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"schema_version": 1, "g": [
        c.to_json() for c in dbar_system(
            HPoly.variable("H", 2, 0) ** 2 * coord(1, 2).scale(
                Fraction(-3, 7)))]}))
    return [["verify-identities", "--count", "1"],
            ["check", "--input", bad], ["solve", "--input", str(g)],
            ["extend", "--input", fs], ["jump", "--input", fs],
            ["syzygy", "--algebra", "H", "--degree", "2"],
            ["cf-integral", "--order", "8", "--points", "2", "--tol", "1"],
            ["syzygy", "--algebra", "O", "--degree", "1", "--timings"]]


def test_json_reports_are_the_stdlib_indent_2_encoding(tmp_path, capsys):
    """``_dumps`` writes exactly ``json.dumps(obj, indent=2,
    sort_keys=True)``, which stays here as the oracle, on nested empty
    containers, mixed lists, edge floats, big ints, bools and None among
    ints, escapes in values and keys, and a real report of every
    subcommand (the printed report is that encoding of itself)."""
    reports = []
    for argv in _report_argv(tmp_path):
        _, out, _ = run(capsys, argv)
        reports.append(json.loads(out))
        assert out == json.dumps(reports[-1], indent=2, sort_keys=True) + "\n"
    assert "timings" in reports[-1]
    assert {r["command"] for r in reports} == {
        "verify-identities", "check", "solve", "extend", "jump", "syzygy",
        "cf-integral"}
    for obj in DUMPS_CORPUS + reports:
        assert _dumps(obj, "") == json.dumps(obj, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# syzygy
# ---------------------------------------------------------------------------

def test_syzygy_octonionic_report(capsys):
    code, out, _ = run(capsys, ["syzygy", "--algebra", "O", "--n", "2",
                                "--degree", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["dimensions"] == [0, 0, 16]
    assert rep["result"]["compat_rank"] == 16
    assert rep["result"]["compat_rows_span_degree_two"] is True


def test_syzygy_quaternionic_report(capsys):
    code, out, _ = run(capsys, ["syzygy", "--algebra", "H", "--n", "2",
                                "--degree", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["dimensions"] == [0, 0, 8]
    assert rep["result"]["compat_rows_span_degree_two"] is True


@pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "-1"],
                                  ["--n", "2", "--degree", "-1"]])
def test_syzygy_rejects_invalid_sizes(capsys, argv):
    code, out, err = run(capsys, ["syzygy", "--algebra", "H"] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid input")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-identities", "--count", "0"],
    ["verify-identities", "--count", "-1"],
    # the quaternionic compatibility pair exists for n = 2 only, the
    # octonionic residuals for n >= 2
    ["verify-identities", "--algebra", "H", "--n", "3"],
    ["verify-identities", "--algebra", "both", "--n", "3"],
    ["verify-identities", "--algebra", "H", "--n", "1"],
    ["verify-identities", "--algebra", "O", "--n", "1"],
    ["cf-integral", "--points", "0"],
    ["cf-integral", "--points", "-1"],
    # admissible data on the wall: zero samples would pass the rank check
    ["check", "--input", "PAYLOAD", "--samples", "0"],
    ["check", "--input", "PAYLOAD", "--samples", "-5"],
    # zero g is solved without elimination, so no unknown cap is ever hit
    ["solve", "--input", "ZERO_G", "--max-unknowns", "0"],
    ["solve", "--input", "ZERO_G", "--max-unknowns", "-5"],
    ["extend", "--input", "PAYLOAD", "--max-unknowns", "0"],
    ["jump", "--input", "PAYLOAD", "--max-unknowns", "0"],
    ["syzygy", "--algebra", "H", "--max-unknowns", "0"],
])
def test_degenerate_counts_are_invalid_input(tmp_path, capsys, argv):
    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    paths = {"PAYLOAD": write_function_surface(tmp_path / "fs.json", f,
                                               coord(1, 3)),
             "ZERO_G": str(tmp_path / "g.json")}
    Path(paths["ZERO_G"]).write_text(json.dumps(
        {"schema_version": 1, "g": [HPoly.zero("H", 2).to_json()] * 2}))
    code, out, err = run(capsys, [paths.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid input")
    assert "Traceback" not in err


def test_verify_identities_compatibility_runs_on_n_variables(capsys,
                                                            monkeypatch):
    seen = []

    def recording(g):
        seen.append((len(g), {p.n for p in g}))
        return compat_pbar(g)

    monkeypatch.setattr("crfbench.cli.compat_pbar", recording)
    code, out, _ = run(capsys, ["verify-identities", "--count", "2",
                                "--algebra", "O", "--n", "3"])
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    assert seen == [(3, {3})] * 2


def test_syzygy_resource_exit(capsys):
    code, _, err = run(capsys, ["syzygy", "--algebra", "O", "--n", "2",
                                "--degree", "2", "--max-unknowns", "10"])
    assert code == 3
    assert "resource budget" in err


# ---------------------------------------------------------------------------
# cf-integral
# ---------------------------------------------------------------------------

def test_cf_integral_pass(capsys):
    code, out, _ = run(capsys, ["cf-integral", "--order", "24",
                                "--points", "4", "--tol", "1e-5"])
    assert code == 0
    rep = json.loads(out)
    names = [c["name"] for c in rep["checks"]]
    assert names == ["weights_sum_to_area", "interior_reproduction",
                     "exterior_vanishing"]


def test_cf_integral_fail_at_impossible_tolerance(capsys):
    code, out, _ = run(capsys, ["cf-integral", "--order", "24",
                                "--points", "2", "--tol", "1e-14"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail"


@pytest.mark.parametrize("radius", ["nan", "inf", "1e200", "1e-200"])
def test_cf_integral_rejects_radius_without_a_float_sphere(capsys, radius):
    """nan never left the interior-point loop; 1e200 and 1e-200 overflow and
    underflow the area 2 pi^2 r^3; inf failed only through a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["cf-integral", "--order", "8",
                                      "--radius", radius])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid input: radius")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_counterexample(tmp_path, capsys):
    path = write_function_surface(
        tmp_path / "fs.json", counterexample_poly(), coord(1, 3))
    code, out, _ = run(capsys, ["check", "--input", path])
    assert code == 1
    rep = json.loads(out)
    by_name = {c["name"]: c["status"] for c in rep["checks"]}
    assert by_name["tangentially_crf"] == "pass"
    assert by_name["admissible"] == "fail"
    assert by_name["pointwise_rank_condition"] == "pass"
    assert rep["result"]["derived_failures"] == ["y3"]


def test_check_admissible_data(tmp_path, capsys):
    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    path = write_function_surface(tmp_path / "fs.json", f, coord(1, 3))
    code, out, _ = run(capsys, ["check", "--input", path])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def near_crf_on_the_sphere(tmp_path):
    """f = x1 - x0 i + 1e-8 x0 on the unit sphere of H^2: CRF up to about
    1e-8, so it fails at the default tolerance."""
    rho = HPoly.constant("H", 2, -1)
    for h in range(2):
        for a in range(4):
            rho = rho + coord(h, a) * coord(h, a)
    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1)) + \
        coord(0, 0).scale(Fraction(1, 10 ** 8))
    return write_function_surface(tmp_path / "fs.json", f, rho)


def test_check_judges_crf_once_at_the_given_tolerance(tmp_path, capsys):
    """On the unit sphere f = x1 - x0 i + 1e-8 x0 is CRF up to about 1e-8:
    --tol 1e-6 passes every check, the default 1e-10 fails CRF and admissibility."""
    path = near_crf_on_the_sphere(tmp_path)
    code, out, _ = run(capsys, ["check", "--input", path, "--tol", "1e-6"])
    assert code == 0
    rep = json.loads(out)
    assert [(c["name"], c["status"]) for c in rep["checks"]] == [
        ("tangentially_crf", "pass"), ("admissible", "pass"),
        ("pointwise_rank_condition", "pass")]
    code, out, _ = run(capsys, ["check", "--input", path])
    assert code == 1
    by_name = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert by_name["tangentially_crf"] == "fail"
    assert by_name["admissible"] == "fail"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-6"])
@pytest.mark.parametrize("command", ["check", "cf-integral"])
def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, command,
                                                  tol):
    """A nan or inf tolerance passed every check of the near-CRF data and
    printed "tol": NaN or Infinity, which is not JSON."""
    argv = [command, "--tol=" + tol]
    if command == "check":
        argv += ["--input", near_crf_on_the_sphere(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --tol: tolerance must be finite and nonnegative" \
        in out.err


@pytest.mark.parametrize("tol", ["1e-10", "nan", "inf", "-inf", "-1e-6"])
def test_verify_identities_takes_no_tolerance(capsys, tol):
    """verify-identities has no float check, so it has no --tol."""
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "--tol=" + tol])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --tol" in out.err


@pytest.mark.parametrize("command", ["solve", "extend", "jump", "syzygy"])
def test_deterministic_commands_take_no_seed(tmp_path, capsys, command):
    """solve, extend, jump and syzygy draw nothing at random: they reject
    --seed and report seed 0."""
    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    if command == "solve":
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"schema_version": 1,
             "g": [c.to_json() for c in dbar_system(f)]}))
        argv = [command, "--input", str(path)]
    elif command == "syzygy":
        argv = [command, "--algebra", "H", "--degree", "1"]
    else:
        argv = [command, "--input",
                write_function_surface(tmp_path / "fs.json", f, coord(1, 3))]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --seed" in out.err
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["seed"] == 0


def _scaled_sphere(tmp_path, f, scale):
    """f on the unit sphere of H^2, with rho = scale * (|q|^2 - 1)."""
    rho = HPoly.constant("H", 2, -1)
    for h in range(2):
        for a in range(4):
            rho = rho + coord(h, a) * coord(h, a)
    return write_function_surface(tmp_path / "fs.json", f, rho.scale(scale))


@pytest.mark.parametrize("scale", [
    Fraction(1, 10 ** 400), Fraction(1, 10 ** 14), Fraction(1, 10 ** 8),
    10 ** 6, 10 ** 16, 10 ** 400],
    ids=["1e-400", "1e-14", "1e-8", "1e6", "1e16", "1e400"])
@pytest.mark.parametrize("data", ["regular", "conjugate"])
def test_check_does_not_depend_on_the_scale_of_rho(tmp_path, capsys, scale,
                                                   data):
    """{c rho = 0} is one surface for every c != 0.  Absolute thresholds
    once made scales 1e-14 and 1e-8 exit 2 (a singular point, no real
    points), 1e16 take seconds of failed Newton runs, and scales past the
    float range exit 2."""
    f = (coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
         if data == "regular" else HPoly.variable_conj("H", 2, 0))
    code, out, _ = run(capsys, ["check", "--input",
                                _scaled_sphere(tmp_path, f, 1)])
    want = [(c["name"], c["status"]) for c in json.loads(out)["checks"]]
    assert code == (0 if data == "regular" else 1)
    t0 = time.perf_counter()
    got_code, out, _ = run(capsys, ["check", "--input",
                                    _scaled_sphere(tmp_path, f, scale)])
    assert time.perf_counter() - t0 < 2.0
    assert got_code == code
    assert [(c["name"], c["status"])
            for c in json.loads(out)["checks"]] == want


@pytest.mark.parametrize("target, wrong, check", [
    ("crfbench.cli.laplacian", lambda p, h: HPoly.constant(p.algebra, p.n, 1),
     "laplacian_factorization_H"),
    ("crfbench.cli.compat_pbar", lambda g: [HPoly.constant("H", 2, 1)],
     "compatibility_of_images_H"),
    ("crfbench.forms.identity_lu1", lambda F: (0, 1),
     "volume_identity_one_variable"),
    ("crfbench.forms.identity_lub", lambda F: (0, 1),
     "seven_form_identity_two_variables"),
], ids=["laplacian", "compat_pbar", "identity_lu1", "identity_lub"])
def test_verify_identities_reports_a_failed_identity(capsys, monkeypatch,
                                                     target, wrong, check):
    """Each identity check fails, and the command exits 1, when the code it
    checks returns a wrong value."""
    monkeypatch.setattr(target, wrong)
    code, out, _ = run(capsys, ["verify-identities", "--algebra", "H",
                                "--count", "2"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail"
    assert {c["name"]: c["status"] for c in rep["checks"]}[check] == "fail"


def test_table_format_prints_values_tolerances_and_timings(capsys):
    code, out, _ = run(capsys, ["cf-integral", "--order", "8", "--points", "1",
                                "--format", "table", "--timings"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "# cf-integral  status=fail"
    assert lines[1].startswith("PASS  weights_sum_to_area  value=")
    assert lines[1].endswith("  tol=1e-10")
    assert lines[2].startswith("FAIL  interior_reproduction  value=")
    assert lines[2].endswith("  tol=1e-08")
    assert lines[-1].startswith("time  total  ")
    assert lines[-1].endswith("s")


def _size_case(data):
    """(f, c) of ``test_check_does_not_depend_on_the_size_of_the_surface``:
    the unit sphere judges f, the small sphere c f."""
    regular = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    return {"regular": (regular, 1),
            "conjugate": (HPoly.variable_conj("H", 2, 0), 1),
            "x0^2": (coord(0, 0) * coord(0, 0), 1),
            "counterexample": (counterexample_poly(), 1),
            "1e-12*x0^2": (coord(0, 0) * coord(0, 0),
                           Fraction(1, 10 ** 12))}[data]


@pytest.mark.parametrize("radius", [Fraction(1, 10 ** 2), Fraction(1, 10 ** 6),
                                    Fraction(1, 10 ** 10),
                                    Fraction(1, 10 ** 40)],
                         ids=["1e-2", "1e-6", "1e-10", "1e-40"])
@pytest.mark.parametrize("data", ["regular", "conjugate", "x0^2",
                                  "counterexample", "1e-12*x0^2"])
def test_check_does_not_depend_on_the_size_of_the_surface(tmp_path, capsys,
                                                          radius, data):
    """The sphere |q|^2 = r^2 gets the unit sphere's verdicts, and c f gets
    f's.  Absolute sampling thresholds once made r = 1e-10 exit 2 (its
    gradient 2e-10 looked singular), and Newton runs started in (-2, 2)^8
    made r = 1e-40 exit 2 (no real points found).  An absolute bound on
    the tangential pair once passed x0^2 and the counterexample as CRF on
    the small spheres, whose pairs are small with f's partials, and
    1e-12 x0^2 on every sphere."""
    f, scale = _size_case(data)
    rho = HPoly.constant("H", 2, -radius * radius)
    for h in range(2):
        for a in range(4):
            rho = rho + coord(h, a) * coord(h, a)
    code, out, _ = run(capsys, ["check", "--input",
                                _scaled_sphere(tmp_path, f, 1)])
    want = [(c["name"], c["status"]) for c in json.loads(out)["checks"]]
    got_code, out, _ = run(capsys, ["check", "--input", write_function_surface(
        tmp_path / "small.json", f.scale(scale), rho)])
    assert got_code == code == (0 if data == "regular" else 1)
    assert [(c["name"], c["status"])
            for c in json.loads(out)["checks"]] == want


def test_check_survives_float_overflow_on_a_curved_surface(tmp_path, capsys):
    """rho = x0^2000 - 1 overflows floats off the planes x0 = +-1: those
    Newton attempts fail, and sampling goes on without a numpy warning."""
    rho = coord(0, 0) ** 2000 - HPoly.constant("H", 2, 1)
    path = write_function_surface(tmp_path / "fs.json", coord(0, 1), rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, ["check", "--input", path])
    assert code == 0
    rep = json.loads(out)
    assert [(c["name"], c["status"]) for c in rep["checks"]] == [
        ("tangentially_crf", "pass"), ("admissible", "pass"),
        ("pointwise_rank_condition", "pass")]


# ---------------------------------------------------------------------------
# solve / extend / jump
# ---------------------------------------------------------------------------

def test_solve_round_trip(tmp_path, capsys):
    u = HPoly.variable("H", 2, 0) ** 2
    g = dbar_system(u)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "g": [c.to_json() for c in g]}))
    code, out, _ = run(capsys, ["solve", "--input", str(path)])
    assert code == 0
    rep = json.loads(out)
    got = HPoly.from_json(rep["result"]["u"])
    assert list(dbar_system(got)) == list(g)


def test_solve_incompatible(tmp_path, capsys):
    exp = [0] * 8
    exp[4] = 2
    g = [HPoly("H", 2, {tuple(exp): HNumber.from_real("H", 1)}),
         HPoly.zero("H", 2)]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "g": [c.to_json() for c in g]}))
    code, out, _ = run(capsys, ["solve", "--input", str(path)])
    assert code == 1
    rep = json.loads(out)
    assert rep["checks"][0]["name"] == "solvable"
    assert rep["checks"][0]["status"] == "fail"
    assert "result" not in rep


@pytest.mark.parametrize("algebra", ["H", "O"])
def test_solve_one_variable_system(tmp_path, capsys, algebra):
    """One variable has no pairwise compatibility residuals to check."""
    x = [HPoly.coordinate(algebra, 1, 0, a) for a in range(3)]
    g = [(x[1] * x[2]).mul_const_left(HNumber.unit(algebra, 1)) + x[0]]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "g": [c.to_json() for c in g]}))
    code, out, _ = run(capsys, ["solve", "--input", str(path)])
    assert code == 0
    rep = json.loads(out)
    assert [(c["name"], c["status"]) for c in rep["checks"]] == [
        ("solvable", "pass"), ("verified_exactly", "pass")]
    assert list(dbar_system(HPoly.from_json(rep["result"]["u"]))) == g


def _graded_one_variable(algebra, top, seed):
    """g = dbar u for a u in one variable with one term of every degree
    1..top+1 and two more of lower degree: g has every degree 0..top."""
    rng = random.Random(seed)
    d = DIM[algebra]
    u = HPoly.zero(algebra, 1)
    for t in [*range(1, top + 2), rng.randint(0, top), rng.randint(0, top)]:
        exp = [0] * d
        for _ in range(t):
            exp[rng.randrange(d)] += 1
        c = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        c[rng.randrange(d)] = Fraction(rng.choice([-2, 1, 5]), 3)
        u = u + HPoly(algebra, 1, {tuple(exp): HNumber(algebra, c)})
    g = dbar_system(u)
    assert g[0].degree() == top
    return g


def _obstructed_o3():
    """(0, a x_{0,2}, b x_{1,5} x_{0,2}) on (O, 3): every pairwise residual
    vanishes, and degree 2 is not in the image of dbar."""
    x = HPoly.coordinate
    a = HNumber.unit("O", 6).scale(Fraction(2, 3))
    return [HPoly.zero("O", 3), x("O", 3, 0, 2).mul_const_left(a),
            (x("O", 3, 1, 5) * x("O", 3, 0, 2)).mul_const_left(
                HNumber.unit("O", 3))]


SOLVE_PINS = {
    "H1-degree-8": (lambda: _graded_one_variable("H", 8, "pin/H1"), 0,
                    "525d6e0f90cdeae8"),
    "O1-degree-4": (lambda: _graded_one_variable("O", 4, "pin/O1"), 0,
                    "85bd27c7a4fe1db7"),
    "full-space": (lambda: [
        coord(1, 1).mul_const_left(HNumber.unit("H", 2)),
        coord(0, 2).mul_const_left(-HNumber.unit("H", 1))], 0,
        "0e940477d040e4ad"),
    "obstructed-o3": (_obstructed_o3, 1, "a50caa7862b15ef5"),
}


@pytest.mark.parametrize("build, code, digest", SOLVE_PINS.values(),
                         ids=SOLVE_PINS.keys())
def test_solve_reports_are_pinned(tmp_path, capsys, build, code, digest):
    """solve reports on payloads the benchmark pool lacks (one variable up
    to degree 8, the fallback to the full monomial space, a higher-order
    obstruction), pinned by the sha256 prefix of the printed bytes."""
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "g": [c.to_json() for c in build()]}))
    got, out, err = run(capsys, ["solve", "--input", str(path)])
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_extend_feasible_and_infeasible(tmp_path, capsys):
    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    path = write_function_surface(tmp_path / "ok.json", f, coord(1, 3))
    code, out, _ = run(capsys, ["extend", "--input", path])
    assert code == 0
    rep = json.loads(out)
    F = HPoly.from_json(rep["result"]["F"])
    assert rep["result"]["m"] == 2
    assert not F.is_zero()
    path = write_function_surface(
        tmp_path / "bad.json", counterexample_poly(), coord(1, 3))
    code, out, _ = run(capsys, ["extend", "--input", path])
    assert code == 1


def test_jump_feasible_and_infeasible(tmp_path, capsys):
    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    path = write_function_surface(tmp_path / "ok.json", f, coord(1, 3))
    code, out, _ = run(capsys, ["jump", "--input", path])
    assert code == 0
    rep = json.loads(out)
    Fm = HPoly.from_json(rep["result"]["F_minus"])
    assert Fm.is_zero()
    path = write_function_surface(
        tmp_path / "bad.json", counterexample_poly(), coord(1, 3))
    code, out, _ = run(capsys, ["jump", "--input", path])
    assert code == 1


@pytest.mark.parametrize("command", ["extend", "jump"])
@pytest.mark.parametrize("budget", ["-1", "-3"])
@pytest.mark.parametrize("data", ["regular", "counterexample"])
def test_negative_budget_is_invalid_input(tmp_path, capsys, command, budget,
                                          data):
    f = (coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
         if data == "regular" else counterexample_poly())
    path = write_function_surface(tmp_path / "fs.json", f, coord(1, 3))
    code, out, err = run(capsys, [command, "--input", path,
                                  "--budget", budget])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid input")


def test_extend_budget_past_the_cap_is_a_resource_exit(tmp_path, capsys):
    # the unknowns of --budget 1000 are counted, never listed
    path = write_function_surface(tmp_path / "fs.json", coord(0, 1),
                                  coord(1, 3))
    code, out, err = run(capsys, ["extend", "--input", path,
                                  "--budget", "1000"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: resource budget exhausted")


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["check", "extend", "jump"])
@pytest.mark.parametrize("f, rho", [
    (coord(0, 1), HPoly.constant("H", 2, 3)),
    (coord(0, 1), HPoly.zero("H", 2)),
    (HPoly.coordinate("H", 1, 0, 1), coord(1, 3)),
    (HPoly.coordinate("O", 2, 0, 1), coord(1, 3)),
    (coord(0, 1), coord(0, 0) * coord(0, 0)),
    (coord(0, 1), coord(0, 0) * coord(0, 0) + HPoly.constant("H", 2, 1)),
], ids=["constant-rho", "zero-rho", "one-variable-f", "octonionic-f",
        "singular-rho", "no-real-points"])
def test_malformed_function_surface(tmp_path, capsys, command, f, rho):
    path = write_function_surface(tmp_path / "bad.json", f, rho)
    code, _, err = run(capsys, [command, "--input", path])
    assert code == 2
    assert err.startswith("error: invalid input")
    assert "Traceback" not in err


def _system(edit):
    """A valid solve payload with ``edit`` applied to its first polynomial."""
    g = [c.to_json() for c in dbar_system(HPoly.variable("H", 2, 0) ** 2)]
    edit(g[0])
    return {"schema_version": 1, "g": g}


# components the payload parser must still reject, with the message
COMPONENT_ERRORS = [
    ("abc", "abc", "Invalid literal for Fraction: 'abc'"),
    ("nan", "nan", "Invalid literal for Fraction: 'nan'"),
    ("exponent-guard", "1e999999", "a component's decimal exponent exceeds "
     f"the integer string limit {sys.get_int_max_str_digits()}"),
    ("digit-limit-denominator", "1/" + "7" * 5000,
     f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for "
     "integer string conversion: value has 5000 digits; use "
     "sys.set_int_max_str_digits() to increase the limit"),
    ("zero-denominator", "-3/00", "zero denominator in a component"),
]


@pytest.mark.parametrize("component, message",
                         [case[1:] for case in COMPONENT_ERRORS],
                         ids=[case[0] for case in COMPONENT_ERRORS])
def test_component_errors_keep_their_message(tmp_path, capsys, component,
                                             message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_system(
        lambda p: p["terms"][0]["coef"]["c"].__setitem__(0, component))))
    code, out, err = run(capsys, ["solve", "--input", str(path)])
    assert (code, out, err) == (2, "", f"error: invalid input: {message}\n")


MALFORMED_PAYLOADS = {
    "not-an-object": ("solve", []),
    "g-not-a-list": ("solve", {"schema_version": 1, "g": {"a": 1}}),
    "terms-null": ("solve", _system(lambda p: p.update(terms=None))),
    "exp-not-a-list": ("solve", _system(
        lambda p: p["terms"][0].update(exp=5))),
    "fractional-exponent": ("solve", _system(
        lambda p: p["terms"][0]["exp"].__setitem__(0, 1.5))),
    "null-component": ("solve", _system(
        lambda p: p["terms"][0]["coef"].update(c=[None, 0, 0, 0]))),
    "n-a-string": ("solve", _system(lambda p: p.update(n="2"))),
    "surface-a-list": ("check", {"schema_version": 1,
                                 "f": coord(0, 1).to_json(), "surface": []}),
    "g-missing": ("solve", {"schema_version": 1}),
    "surface-missing": ("check", {"schema_version": 1,
                                  "f": coord(0, 1).to_json()}),
    "rho-missing": ("check", {"schema_version": 1,
                              "f": coord(0, 1).to_json(), "surface": {}}),
    "terms-missing": ("solve", _system(lambda p: p.pop("terms"))),
    "schema-version-true": ("solve", {**_system(lambda p: None),
                                      "schema_version": True}),
    "boolean-exponent": ("solve", _system(
        lambda p: p["terms"][0]["exp"].__setitem__(0, True))),
    "boolean-component": ("solve", _system(
        lambda p: p["terms"][0]["coef"]["c"].__setitem__(0, True))),
    "poly-schema-version-2": ("solve", _system(
        lambda p: p.update(schema_version=2))),
    "poly-schema-version-a-string": ("solve", _system(
        lambda p: p.update(schema_version="x"))),
    "poly-schema-version-true": ("solve", _system(
        lambda p: p.update(schema_version=True))),
    "negative-exponent": ("solve", _system(
        lambda p: p["terms"][0]["exp"].__setitem__(0, -1))),
    "exponent-of-width-3": ("solve", _system(
        lambda p: p["terms"][0].update(exp=[1, 0, 0]))),
    "octonionic-coefficient": ("solve", _system(
        lambda p: p["terms"][0].update(
            coef=number_json(HNumber.unit("O", 1))))),
    "float-components": ("solve", _system(
        lambda p: p["terms"][0]["coef"].update(c=[1.5, 0.0, 0.0, 0.0]))),
    "n-zero": ("solve", _system(lambda p: p.update(n=0))),
    "zero-denominator": ("solve", _system(
        lambda p: p["terms"][0]["coef"]["c"].__setitem__(0, "1/0"))),
    "repeated-exponent": ("solve", _system(
        lambda p: p["terms"].append({"exp": p["terms"][0]["exp"],
                                     "coef": number_json(HNumber.one("H"))}))),
    **{f"component-{name}": ("solve", _system(
        lambda p, c=component: p["terms"][0]["coef"]["c"].__setitem__(0, c)))
       for name, component, _ in COMPONENT_ERRORS},
}


@pytest.mark.parametrize("command, payload", MALFORMED_PAYLOADS.values(),
                         ids=MALFORMED_PAYLOADS.keys())
def test_malformed_payload_shapes(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, [command, "--input", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid input")
    assert "Traceback" not in err


def _function_surface_payload():
    return {"schema_version": 1, "f": coord(0, 1).to_json(),
            "surface": {"rho": coord(1, 3).to_json()}}


# the JSON type each required field must have, by key; "schema_version" is
# required of the payload only, not of the polynomials in it
_REQUIRED_TYPE = {"schema_version": int, "g": list, "f": dict,
                  "surface": dict, "rho": dict, "algebra": str, "n": int,
                  "terms": list, "exp": list, "coef": dict, "c": list}


def _required_fields(node, path=()):
    """Paths (tuples of keys and list indices) to every required field."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _REQUIRED_TYPE and (key != "schema_version"
                                          or not path):
                yield path + (key,)
            yield from _required_fields(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _required_fields(value, path + (i,))


_JSON_VALUES = {
    type(None): st.none(), bool: st.booleans(),
    int: st.integers(-3, 3) | st.floats(-3, 3, allow_nan=False),
    str: st.text(max_size=3), list: st.lists(st.integers(-1, 1), max_size=3),
    dict: st.dictionaries(st.sampled_from("ac"), st.integers(-1, 1),
                          max_size=2)}


@st.composite
def _malformed_payloads(draw):
    """(command, payload): a valid solve or check payload with one required
    key deleted or one required field given a value of another JSON type
    (JSON numbers are one type, so a number never replaces an integer)."""
    command, payload = draw(st.sampled_from(
        [("solve", _system(lambda p: None)),
         ("check", _function_surface_payload())]))
    *parents, key = draw(st.sampled_from(sorted(
        _required_fields(payload), key=repr)))
    node = payload
    for step in parents:
        node = node[step]
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(st.one_of(*(
            strategy for kind, strategy in _JSON_VALUES.items()
            if kind is not _REQUIRED_TYPE[key])))
    return command, payload


@settings(max_examples=30, deadline=None)
@given(_malformed_payloads())
def test_malformed_payloads_are_invalid_input(case):
    command, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--input", path])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: invalid input")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("component, code", [
    ("1e300000", 2), ("1e-300000", 2), ("1e3", 1), ("1/2", 1)])
def test_exponent_past_the_digit_limit_is_invalid_input(tmp_path, capsys,
                                                        component, code):
    """A component whose decimal exponent is past Python's integer string
    limit is rejected at once, as its digit form is; Fraction would expand
    10^e in full."""
    payload = _function_surface_payload()
    payload["f"]["terms"][0]["coef"]["c"][0] = component
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(payload))
    t0 = time.perf_counter()
    got, out, err = run(capsys, ["check", "--input", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith("error: invalid input: a component's decimal "
                              "exponent exceeds")


def test_program_key_error_is_not_invalid_input(tmp_path, monkeypatch):
    def broken(g, max_unknowns):
        raise KeyError("a program fault")

    monkeypatch.setattr("crfbench.crfsolve.solve_crf", broken)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_system(lambda p: None)))
    with pytest.raises(KeyError):
        main(["solve", "--input", str(path)])


def test_failed_self_check_exits_4(tmp_path, capsys, monkeypatch):
    # a corrupted operator makes solve_crf's exact re-verification fail
    monkeypatch.setattr("crfbench.crfsolve.fueter_dbar", lambda p, h: p)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_system(lambda p: None)))
    code, out, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal check failed: ")
    assert "Traceback" not in err


def test_wrong_solve_answer_exits_4(tmp_path, capsys, monkeypatch):
    """The report's verified_exactly line rests on solve_crf's own exact
    check: a wrong homogeneous part still exits 4."""
    def wrong(rhs, k, algebra, n, max_unknowns):
        return HPoly.constant(algebra, n, 1)

    monkeypatch.setattr("crfbench.crfsolve._solve_homogeneous", wrong)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_system(lambda p: None)))
    code, out, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 4
    assert out == ""
    assert err == "error: internal check failed: solution failed " \
        "verification\n"


@pytest.mark.parametrize("command", ["syzygy", "solve"])
def test_uncertified_table_exits_4(tmp_path, capsys, monkeypatch, command):
    """A multiplication table whose class shifts are not certified is a
    program fault: the graded routes refuse it and the CLI exits 4."""
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_system(lambda p: None)))
    monkeypatch.setitem(MUL_TABLE, "H",
                        with_sign_flipped(MUL_TABLE["H"], 1, 2))
    argv = {"syzygy": ["syzygy", "--algebra", "H", "--n", "2", "--degree",
                       "2"],
            "solve": ["solve", "--input", str(path)]}[command]
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err == f"error: internal check failed: {CLASS_REFUSAL}\n"


def test_memory_error_is_a_resource_exit(capsys, monkeypatch):
    # a quadrature grid too large for memory, as numpy reports it
    def exhausted(center, radius, order):
        raise MemoryError("unable to allocate the quadrature grid")

    monkeypatch.setattr("crfbench.integrate.sphere_rule", exhausted)
    code, out, err = run(capsys, ["cf-integral", "--order", "400"])
    assert code == 3
    assert out == ""
    assert err == ("error: resource budget exhausted: "
                   "unable to allocate the quadrature grid\n")


def test_missing_input_file(capsys):
    code, _, err = run(capsys, ["check", "--input", "/nonexistent.json"])
    assert code == 2
    assert "invalid input" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2


def test_wrong_schema_version(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema_version": 99, "g": []}))
    code, _, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 2
    assert "schema_version" in err


def test_console_script_runs():
    # the child imports the same crfbench as this process
    src = str(Path(crfbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "crfbench.cli", "--version"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0


LANE_CHILD = """
import contextlib, io, json, sys
from crfbench.cli import main

def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue()]

exact, floats = json.loads(sys.argv[1])
seen = {"exact": [report(argv) for argv in exact],
        "numpy_after_exact": "numpy" in sys.modules}
seen["float"] = [report(argv) for argv in floats]
seen["numpy_after_float"] = "numpy" in sys.modules
print(json.dumps(seen))
"""


def test_only_the_float_lane_loads_numpy(tmp_path, capsys):
    """A fresh interpreter runs every exact subcommand through ``main``
    without loading numpy; ``cf-integral`` and ``check`` on a curved
    surface load it, and every report is the bytes this process prints."""
    exact = [["--version"]] + [
        argv for argv in _report_argv(tmp_path)
        if argv[0] != "cf-integral" and "--timings" not in argv]
    assert {argv[0] for argv in exact} == {
        "--version", "verify-identities", "check", "solve", "extend",
        "jump", "syzygy"}
    rho = HPoly.constant("H", 2, -1)
    for h in range(2):
        for a in range(4):
            rho = rho + coord(h, a) * coord(h, a)
    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    sphere = write_function_surface(tmp_path / "sphere.json", f, rho)
    floats = [["cf-integral", "--order", "8", "--points", "2", "--tol", "1"],
              ["check", "--input", sphere, "--samples", "2"]]
    src = str(Path(crfbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", LANE_CHILD, json.dumps([exact, floats])],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert not seen["numpy_after_exact"]
    assert seen["numpy_after_float"]
    for argv, got in zip(exact + floats, seen["exact"] + seen["float"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert got == [code, capsys.readouterr().out], argv
    assert [code for code, _ in seen["exact"]] == [0, 0, 1, 0, 0, 0, 0]
    assert [code for code, _ in seen["float"]] == [0, 0]


# ---------------------------------------------------------------------------
# one parser per process; the rank test's derivative count
# ---------------------------------------------------------------------------

def test_parser_is_built_once():
    from crfbench import cli
    assert cli._build_parser() is cli._build_parser()


def test_parser_reuse_keeps_each_subcommands_defaults(tmp_path, capsys):
    """cf-integral's subparser defaults tol to 1e-8; a later check without
    --tol still judges at 1e-10."""
    f = coord(0, 1) - coord(0, 0).mul_const_left(HNumber.unit("H", 1))
    path = write_function_surface(tmp_path / "fs.json", f, coord(1, 3))
    code, out, _ = run(capsys, ["cf-integral", "--order", "8",
                                "--points", "1", "--tol", "1"])
    assert json.loads(out)["inputs"]["tol"] == 1
    code, out, _ = run(capsys, ["cf-integral", "--order", "8",
                                "--points", "1"])
    assert json.loads(out)["inputs"]["tol"] == 1e-8
    code, out, _ = run(capsys, ["check", "--input", path])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["pointwise_rank_condition"]["tol"] == 1e-10


def test_repeated_argv_prints_the_same_bytes(tmp_path, capsys):
    path = write_function_surface(
        tmp_path / "fs.json", counterexample_poly(), coord(1, 3))
    for argv in (["check", "--input", path],
                 ["syzygy", "--algebra", "H", "--degree", "1"],
                 ["check", "--input", path, "--format", "table"]):
        first = run(capsys, argv)
        assert run(capsys, argv) == first


def test_bad_argument_exits_2_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["syzygy", "--algebra", "X"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def load_bench_workloads(monkeypatch):
    """The benchmark's pool generators (``bench/workloads.py``)."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # for dataclasses
    spec.loader.exec_module(module)
    return module


def test_check_on_a_tilted_plane_item_counts_its_derivatives(
        tmp_path, capsys, monkeypatch):
    """One check of the benchmark's adm_tilted-0 payload: the rank test
    takes eight partials per sample point, 168 ``partial_flat`` calls in
    all (728 when each Wirtinger entry took its own four)."""
    payload, admissible = load_bench_workloads(monkeypatch).rhoadic_item("adm_tilted", 0)
    path = tmp_path / "fs.json"
    path.write_text(json.dumps(payload))
    original = HPoly.partial_flat
    calls = [0]

    def counted(self, i):
        calls[0] += 1
        return original(self, i)

    monkeypatch.setattr(HPoly, "partial_flat", counted)
    code, _, _ = run(capsys, ["check", "--input", str(path)])
    assert admissible and code == 0
    assert calls[0] <= 168


@pytest.mark.parametrize("radius", ["1e-100", "1e100", "1e77"])
def test_cf_integral_rejects_radius_whose_kernel_leaves_the_float_range(
        capsys, radius):
    """The kernel divides by |q - q0|^4.  At 1e-100 that underflowed to 0,
    and interior_reproduction passed with 0.0 while exterior_vanishing
    printed NaN; at 1e100 it overflowed, and exterior_vanishing passed with
    0.0.  The sphere area 2 pi^2 r^3 is finite at all three radii."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["cf-integral", "--order", "8",
                                      "--radius", radius, "--tol", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid input: radius")


def test_non_finite_check_values_fail_as_json_strings():
    from crfbench import cli
    for value in (math.nan, math.inf):
        entry = cli._check("x", True, value=value)
        assert entry["status"] == "fail"
        json.dumps(entry, allow_nan=False)
    assert cli._check("x", True, value=0.5)["value"] == 0.5
    assert math.isnan(cli._worst([0.0, math.nan, 1.0]))
    assert cli._worst([0.0, 2.0, 1.0]) == 2.0


# terms (exponent, integer components) in dict order, and the next
# rng.random(), as drawn before the polynomial was built from integer rows;
# seed 323 cancels a constant term and draws it again, which puts it last
RAND_POLY_PINS = [
    ((1, "H", 2, 3, 5), [
        ((0, 1, 0, 0, 0, 0, 0, 0), [0, -2, 1, 1]),
        ((0, 1, 0, 1, 0, 0, 1, 0), [1, -2, 1, 1]),
        ((0, 0, 0, 0, 0, 0, 0, 0), [2, -3, -2, -2])], 0.5276294143623982),
    ((2, "O", 3, 3, 5), [
        ((0,) * 24, [0, -3, 1, 0, 2, 0, 4, 0]),
        ((1, 1) + (0,) * 22, [0, 1, 0, 1, 1, 2, -1, 2]),
        ((0,) * 7 + (1,) + (0,) * 16, [-1, -2, -1, 0, -1, -1, 2, 2]),
        ((0,) * 16 + (1, 0, 0, 0, 0, 1, 0, 0), [2, -1, 1, 1, 2, 0, 2, 0])],
     0.3618863819612307),
    ((3, "H", 1, 3, 5), [
        ((0, 1, 0, 0), [1, 4, 3, 3]), ((0, 0, 0, 0), [2, -2, 1, 0]),
        ((0, 3, 0, 0), [2, 1, -2, -2]), ((1, 0, 0, 0), [0, -2, 0, 1])],
     0.594749515643894),
    ((4, "H", 2, 2, 4), [
        ((0, 0, 0, 0, 0, 0, 0, 0), [-2, -4, -1, 2]),
        ((1, 0, 0, 0, 1, 0, 0, 0), [-1, 2, 2, 0]),
        ((0, 0, 1, 0, 0, 0, 0, 0), [-2, 0, -1, -2])], 0.8289200487784194),
    ((323, "H", 1, 1, 8), [
        ((0, 0, 1, 0), [-1, 0, 2, 2]), ((1, 0, 0, 0), [2, 1, 0, -2]),
        ((0, 0, 0, 0), [2, -1, -3, 0]), ((0, 0, 0, 1), [-1, -1, -2, 0])],
     0.4837037262578354),
]


@pytest.mark.parametrize("args, terms, after", RAND_POLY_PINS,
                         ids=[str(pin[0][0]) for pin in RAND_POLY_PINS])
def test_rand_poly_terms_and_draws_are_pinned(args, terms, after):
    seed, algebra, n, deg, count = args
    rng = random.Random(seed)
    p = _rand_poly(rng, algebra, n, deg=deg, terms=count)
    assert [(e, list(c.coeffs)) for e, c in p.terms.items()] == terms
    assert all(type(x) is Fraction for c in p.terms.values()
               for x in c.coeffs)
    assert p == HPoly(algebra, n, {e: HNumber(algebra, v) for e, v in terms})
    assert rng.random() == after
