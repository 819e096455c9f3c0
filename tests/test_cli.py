"""Command-line driver: verbs, exit codes, byte stability, mutation hook."""

import io
import json

import numpy as np
import pytest

from calderon3d import cli, selftest, specfun
from calderon3d.cli import main
from calderon3d.serialize import (
    load_coefficient_field,
    load_measurement_set,
    load_recon_report,
)

COARSE = ["--quad-radial", "24", "--quad-theta", "32", "--quad-phi", "64"]


def run(args):
    return main(list(args))


# ---------------------------------------------------------------- project


def test_project_gaussian(tmp_path, capsys):
    out = tmp_path / "field.json"
    code = run(["project", "--phantom", "gaussian", "--kmax", "1", "--caps", "4",
                "--out", str(out), *COARSE])
    assert code == 0
    text = capsys.readouterr().out
    assert "k=0 norm=" in text and "k=1 norm=" in text
    field = load_coefficient_field(out)
    assert not field.certified
    assert field.kmax == 1 and field.degree_caps == (4, 4)


def test_project_basis_phantom_recovers_a_unit_entry(tmp_path):
    out = tmp_path / "basis.json"
    code = run(["project", "--phantom", "basis", "--index", "1,2,-1", "--kmax", "2",
                "--caps", "4", "--out", str(out), *COARSE])
    assert code == 0
    field = load_coefficient_field(out)
    assert field.get(1, 2, -1) == pytest.approx(1.0, abs=1e-10)
    rest = max(
        abs(v) for i, v in field.entries.items() if (i.k, i.ell, i.m) != (1, 2, -1)
    )
    assert rest < 1e-10


def test_project_zero_phantom(tmp_path):
    out = tmp_path / "zero.json"
    assert run(["project", "--phantom", "zero", "--kmax", "0", "--caps", "2",
                "--out", str(out), *COARSE]) == 0
    field = load_coefficient_field(out)
    assert all(v == 0 for v in field.entries.values())


def test_project_rejects_bad_phantom_parameters(tmp_path):
    out = tmp_path / "x.json"
    assert run(["project", "--phantom", "gaussian", "--center", "2,0,0",
                "--kmax", "0", "--caps", "0", "--out", str(out)]) == 2
    assert run(["project", "--phantom", "gaussian", "--caps", "4",
                "--out", str(out)]) == 2  # scalar caps without --kmax
    assert run(["project", "--phantom", "gaussian", "--kmax", "2",
                "--caps", "4,2", "--out", str(out)]) == 2  # conflicting kmax


def test_project_rejects_non_finite_phantom_parameters(tmp_path, capsys):
    out = tmp_path / "x.json"
    for flags in (["--center", "nan,0,0"], ["--sharpness", "nan"], ["--sharpness", "inf"]):
        assert run(["project", "--phantom", "gaussian", *flags, "--kmax", "0", "--caps", "0",
                    "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_project_rejects_negative_degree_caps(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["project", "--kmax", "1", "--caps", "-1", "--out", str(out)]) == 2
    assert "degree cap for k=0 must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_are_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["project", "--phantom", "gaussian", "--kmax", "1", "--caps", "3", *COARSE]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- simulate


@pytest.fixture()
def small_field(tmp_path):
    out = tmp_path / "field.json"
    assert run(["project", "--phantom", "gaussian", "--kmax", "1", "--caps", "6,4",
                "--out", str(out), *COARSE]) == 0
    return out


def test_simulate_series(tmp_path, small_field):
    out = tmp_path / "ms.json"
    assert run(["simulate", "--coefficients", str(small_field), "--mode", "series",
                "--caps", "4,2", "--out", str(out)]) == 0
    ms = load_measurement_set(out)
    assert ms.kmax == 1
    assert len(ms.values) == sum(2 * l + 1 for l in range(5)) + sum(2 * l + 1 for l in range(3))


def test_simulate_oracle_matches_series_on_the_same_finite_field(tmp_path, small_field):
    a, b = tmp_path / "series.json", tmp_path / "oracle.json"
    assert run(["simulate", "--coefficients", str(small_field), "--mode", "series",
                "--caps", "4,2", "--out", str(a)]) == 0
    assert run(["simulate", "--coefficients", str(small_field), "--mode", "oracle",
                "--caps", "4,2", "--out", str(b)]) == 0
    sa, sb = load_measurement_set(a), load_measurement_set(b)
    worst = max(abs(sa.values[i] - sb.values[i]) for i in sa.values)
    assert worst < 1e-8


def test_simulate_oracle_from_phantom(tmp_path):
    out = tmp_path / "ms.json"
    assert run(["simulate", "--phantom", "gaussian", "--mode", "oracle",
                "--caps", "2,0", "--out", str(out), *COARSE]) == 0
    ms = load_measurement_set(out)
    assert abs(ms.get(0, 0, 0)) > 1e-4


def test_simulate_noise_determinism(tmp_path, small_field):
    args = ["simulate", "--coefficients", str(small_field), "--mode", "series",
            "--caps", "4,2", "--noise", "1e-3", "--seed", "7"]
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(["simulate", "--coefficients", str(small_field), "--mode", "series",
                "--caps", "4,2", "--noise", "1e-3", "--seed", "8", "--out", str(c)]) == 0
    assert c.read_bytes() != a.read_bytes()


def test_simulate_mode_input_validation(tmp_path, small_field):
    out = tmp_path / "x.json"
    # series without coefficients
    assert run(["simulate", "--mode", "series", "--caps", "2,0",
                "--out", str(out)]) == 2
    # oracle with both sources
    assert run(["simulate", "--coefficients", str(small_field), "--phantom", "zero",
                "--mode", "oracle", "--caps", "2,0", "--out", str(out)]) == 2
    # oracle with neither
    assert run(["simulate", "--mode", "oracle", "--caps", "2,0",
                "--out", str(out)]) == 2


def test_simulate_series_beyond_certified_support_exits_2(tmp_path, small_field):
    out = tmp_path / "x.json"
    # the projected field stops at k = 1; measurements at k = 2 demand
    # radial indices it cannot certify as zero
    code = run(["simulate", "--coefficients", str(small_field), "--mode", "series",
                "--caps", "4,2,0", "--out", str(out)])
    assert code == 2


def test_simulate_past_degree_cap_exits_2(tmp_path, capsys):
    field = tmp_path / "field.json"
    field.write_text('{"kmax": 0, "entries": [{"k": 0, "ell": 0, "m": 0, "re": 1, "im": 0}]}')
    out = tmp_path / "x.json"
    code = run(["simulate", "--coefficients", str(field), "--kmax", "0", "--caps", "130",
                "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "DEGREE_CAP" in err and "k=0" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_simulate_rejects_negative_degree_caps(tmp_path, small_field, capsys):
    out = tmp_path / "x.json"
    assert run(["simulate", "--mode", "oracle", "--phantom", "zero", "--kmax", "1",
                "--caps", "-2", "--out", str(out), *COARSE]) == 2
    assert "degree cap for k=0 must be nonnegative, got -2" in capsys.readouterr().err
    assert run(["simulate", "--coefficients", str(small_field), "--caps", "4,-1",
                "--out", str(out)]) == 2
    assert "degree cap for k=1 must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("level", ["nan", "inf", "-0.5"])
def test_simulate_rejects_bad_noise_levels(tmp_path, small_field, capsys, level):
    out = tmp_path / "x.json"
    assert run(["simulate", "--coefficients", str(small_field), "--caps", "4,2",
                "--noise", level, "--out", str(out)]) == 2
    assert "noise level must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- reconstruct


def make_measurements(tmp_path, small_field, caps="4,2"):
    out = tmp_path / "ms.json"
    assert run(["simulate", "--coefficients", str(small_field), "--mode", "series",
                "--caps", caps, "--out", str(out)]) == 0
    return out


def test_reconstruct_round_trip_through_files(tmp_path, small_field, capsys):
    ms = make_measurements(tmp_path, small_field)
    out = tmp_path / "rec.json"
    assert run(["reconstruct", "--measurements", str(ms), "--schedule", "4,2",
                "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "min divisor" in text
    rep = load_recon_report(out)
    field = load_coefficient_field(small_field)
    worst = max(
        abs(rep.field.get(i.k, i.ell, i.m) - v)
        for i, v in field.entries.items()
        if i.ell <= (4, 2)[i.k]
    )
    assert worst < 1e-10
    assert len(rep.stages) == 2


def test_reconstruct_infeasible_schedule_exits_3(tmp_path, small_field, capsys):
    ms = make_measurements(tmp_path, small_field, caps="4,4")
    code = run(["reconstruct", "--measurements", str(ms), "--schedule", "4,4",
                "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_reconstruct_zero_fill_overrides_infeasibility(tmp_path, small_field):
    ms = make_measurements(tmp_path, small_field, caps="4,4")
    out = tmp_path / "rec.json"
    assert run(["reconstruct", "--measurements", str(ms), "--schedule", "4,4",
                "--zero-fill", "--out", str(out)]) == 0
    assert load_recon_report(out).regularised


def test_reconstruct_missing_measurements_exit_4(tmp_path, small_field, capsys):
    ms = make_measurements(tmp_path, small_field, caps="4,2")
    code = run(["reconstruct", "--measurements", str(ms), "--schedule", "6,4",
                "--out", str(tmp_path / "x.json")])
    assert code == 4
    assert "absent" in capsys.readouterr().err


def test_reconstruct_rejects_non_finite_measurements(tmp_path, small_field, capsys):
    ms = make_measurements(tmp_path, small_field)
    doc = json.loads(ms.read_text())
    doc["entries"][3]["re"] = float("nan")
    ms.write_text(json.dumps(doc))
    out = tmp_path / "rec.json"
    code = run(["reconstruct", "--measurements", str(ms), "--schedule", "4,2",
                "--out", str(out)])
    assert code == 2
    assert "non-finite value in entry (k=0, ell=1, m=1)" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- slice


def test_slice_zero_field(tmp_path):
    field = tmp_path / "zero.json"
    assert run(["project", "--phantom", "zero", "--kmax", "0", "--caps", "2",
                "--out", str(field), *COARSE]) == 0
    out = tmp_path / "s.csv"
    assert run(["slice", "--coefficients", str(field), "--resolution", "11",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,z,value"
    assert len(lines) == 122
    corner = lines[1].split(",")
    assert corner[:3] == ["-1", "-1", "0"] and corner[3] == ""
    center = lines[1 + 11 * 5 + 5].split(",")
    assert center[:3] == ["0", "0", "0"] and float(center[3]) == 0.0


def test_slice_offset_plane_marks_outside_points(tmp_path):
    field = tmp_path / "zero.json"
    assert run(["project", "--phantom", "zero", "--kmax", "0", "--caps", "0",
                "--out", str(field), *COARSE]) == 0
    out = tmp_path / "s.csv"
    assert run(["slice", "--coefficients", str(field), "--plane", "x=0.5",
                "--resolution", "5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for x, y, z, v in rows:
        inside = float(x) ** 2 + float(y) ** 2 + float(z) ** 2 <= 1.0
        assert float(x) == 0.5
        assert (v == "") == (not inside)


def test_slice_rejects_non_finite_coefficients(tmp_path, capsys):
    field = tmp_path / "nan.json"
    field.write_text('{"kmax": 0, "entries": [{"k": 0, "ell": 0, "m": 0, "re": 1, "im": 0},\n'
                     '{"k": 0, "ell": 1, "m": -1, "re": NaN, "im": Infinity}]}')
    out = tmp_path / "s.csv"
    assert run(["slice", "--coefficients", str(field), "--resolution", "5",
                "--out", str(out)]) == 2
    assert "non-finite value in entry (k=0, ell=1, m=-1)" in capsys.readouterr().err
    assert not out.exists()


def test_slice_rejects_non_finite_plane_offset(tmp_path, small_field, capsys):
    out = tmp_path / "s.csv"
    assert run(["slice", "--coefficients", str(small_field), "--plane", "z=nan",
                "--resolution", "5", "--out", str(out)]) == 2
    assert "plane offset must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_slice_partial_sum_at_kmax_equals_full(tmp_path, small_field):
    a, b = tmp_path / "full.csv", tmp_path / "part.csv"
    assert run(["slice", "--coefficients", str(small_field), "--resolution", "9",
                "--out", str(a)]) == 0
    assert run(["slice", "--coefficients", str(small_field), "--resolution", "9",
                "--partial-sum", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_pipeline_closure_reconstructed_slice_matches_projection(tmp_path):
    field = tmp_path / "field.json"
    assert run(["project", "--phantom", "gaussian", "--caps", "8,6,4",
                "--out", str(field), *COARSE]) == 0
    ms = tmp_path / "ms.json"
    assert run(["simulate", "--coefficients", str(field), "--mode", "series",
                "--caps", "8,6,4", "--out", str(ms)]) == 0
    rec = tmp_path / "rec.json"
    assert run(["reconstruct", "--measurements", str(ms), "--schedule", "8,6,4",
                "--out", str(rec)]) == 0
    sa, sb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["slice", "--coefficients", str(field), "--resolution", "31",
                "--out", str(sa)]) == 0
    assert run(["slice", "--coefficients", str(rec), "--resolution", "31",
                "--out", str(sb)]) == 0
    va = [r.split(",")[3] for r in sa.read_text().splitlines()[1:]]
    vb = [r.split(",")[3] for r in sb.read_text().splitlines()[1:]]
    worst = max(
        abs(float(x) - float(y)) for x, y in zip(va, vb) if x != "" and y != ""
    )
    assert (np.array(va) == "").tolist() == (np.array(vb) == "").tolist()
    assert worst < 1e-8


# ---------------------------------------------------------------- selftest & misc


def test_selftest_quick_passes(capsys):
    assert run(["selftest", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "OK: 9/9" in out


def test_selftest_catches_a_gaunt_sign_flip(monkeypatch):
    original = specfun.gaunt

    def flipped(*args):
        return -original(*args)

    monkeypatch.setattr(specfun, "gaunt", flipped)
    stream = io.StringIO()
    ok = selftest.run_selftest("quick", stream=stream)
    text = stream.getvalue()
    assert not ok
    assert "FAIL  surface-gradient identity" in text


def test_selftest_failure_exits_5(monkeypatch):
    original = specfun.gaunt
    monkeypatch.setattr(specfun, "gaunt", lambda *a: -original(*a))
    assert run(["selftest", "--level", "quick"]) == 5


def test_argparse_errors_exit_2(tmp_path):
    assert run(["no-such-verb"]) == 2
    assert run(["slice", "--coefficients", "x.json", "--plane", "w=0",
                "--out", str(tmp_path / "s.csv")]) == 2
    assert run(["reconstruct", "--schedule", "4,2",
                "--out", str(tmp_path / "x.json")]) == 2  # missing --measurements
    assert run([]) == 2


def test_missing_input_file_exits_2(tmp_path):
    assert run(["slice", "--coefficients", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "s.csv")]) == 2


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "project" in capsys.readouterr().out
