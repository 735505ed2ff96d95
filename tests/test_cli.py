"""Command-line interface: reports, formats, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from crfbench.cli import main
from crfbench.hypercomplex import HNumber
from crfbench.polycalc import HPoly, dbar_system
from crfbench.hypersurface import Hypersurface


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


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["check", "extend", "jump"])
@pytest.mark.parametrize("f, rho", [
    (coord(0, 1), HPoly.constant("H", 2, 3)),
    (coord(0, 1), HPoly.zero("H", 2)),
    (HPoly.coordinate("H", 1, 0, 1), coord(1, 3)),
    (HPoly.coordinate("O", 2, 0, 1), coord(1, 3)),
], ids=["constant-rho", "zero-rho", "one-variable-f", "octonionic-f"])
def test_malformed_function_surface(tmp_path, capsys, command, f, rho):
    path = write_function_surface(tmp_path / "bad.json", f, rho)
    code, _, err = run(capsys, [command, "--input", path])
    assert code == 2
    assert err.startswith("error: invalid input")
    assert "Traceback" not in err


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
    proc = subprocess.run(
        [sys.executable, "-m", "crfbench.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
