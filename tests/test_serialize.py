"""File formats: exact round-trips, byte stability, schema shape."""

import json
import math
import re

import numpy as np
import pytest

from calderon3d.forward import MeasurementSet, forward_measure
from calderon3d.recon import TruncationSchedule, reconstruct
from calderon3d.serialize import (
    GridSlice,
    dump_coefficient_field,
    dump_grid_slice,
    dump_measurement_set,
    dump_recon_report,
    load_coefficient_field,
    load_measurement_set,
    load_recon_report,
)
from calderon3d.zernike import CoefficientField

from test_recon import random_field


def test_coefficient_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(41)
    c = random_field(2, (5, 3, 1), rng)
    path = tmp_path / "c.json"
    dump_coefficient_field(c, path)
    back = load_coefficient_field(path)
    assert back.kmax == 2
    assert back.degree_caps == (5, 3, 1)
    assert back.certified
    assert back.entries == c.entries  # bit-exact floats
    assert '"certified"' not in path.read_text()


def test_uncertified_flag_round_trips(tmp_path):
    c = CoefficientField({(0, 0, 0): 1.5}, 0, 0, certified=False)
    path = tmp_path / "c.json"
    dump_coefficient_field(c, path)
    assert '"certified": false' in path.read_text()
    assert not load_coefficient_field(path).certified


def test_dump_is_byte_stable(tmp_path):
    rng = np.random.default_rng(42)
    c = random_field(1, (4, 2), rng)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_coefficient_field(c, a)
    dump_coefficient_field(c, b)
    assert a.read_bytes() == b.read_bytes()


def test_entries_are_sorted_in_the_file(tmp_path):
    c = CoefficientField({(1, 1, 1): 1.0, (0, 2, -2): 2.0, (0, 2, -1): 3.0}, 1, (2, 1))
    path = tmp_path / "c.json"
    dump_coefficient_field(c, path)
    rows = json.loads(path.read_text())["entries"]
    keys = [(r["k"], r["ell"], r["m"]) for r in rows]
    assert keys == sorted(keys)


def test_measurement_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    ms = forward_measure(random_field(1, (4, 2), rng), 1, (4, 2))
    path = tmp_path / "m.json"
    dump_measurement_set(ms, path)
    doc = json.loads(path.read_text())
    assert doc["K"] == 1
    back = load_measurement_set(path)
    assert back.values == ms.values
    assert back.kmax == 1


def test_report_round_trip(tmp_path):
    rng = np.random.default_rng(44)
    caps = (6, 4)
    c = random_field(1, caps, rng)
    rep = reconstruct(forward_measure(c, 1, caps), TruncationSchedule(caps))
    path = tmp_path / "r.json"
    dump_recon_report(rep, path)
    back = load_recon_report(path)
    assert back.field.entries == rep.field.entries
    assert back.min_divisor == rep.min_divisor
    assert back.schedule == rep.schedule
    assert back.stages == rep.stages
    assert not back.regularised
    assert '"regularised"' not in path.read_text()


def test_regularised_report_round_trip(tmp_path):
    rng = np.random.default_rng(45)
    c = random_field(1, (6, 4), rng)
    ms = forward_measure(c, 1, (4, 4))
    rep = reconstruct(ms, TruncationSchedule((4, 4)), zero_fill=True)
    assert rep.regularised
    path = tmp_path / "r.json"
    dump_recon_report(rep, path)
    assert '"regularised": true' in path.read_text()
    assert load_recon_report(path).regularised


def test_coefficient_loader_accepts_report_files(tmp_path):
    rng = np.random.default_rng(46)
    caps = (4, 2)
    c = random_field(1, caps, rng)
    rep = reconstruct(forward_measure(c, 1, caps), TruncationSchedule(caps))
    path = tmp_path / "r.json"
    dump_recon_report(rep, path)
    field = load_coefficient_field(path)
    assert field.entries == rep.field.entries


def test_grid_slice_csv_shape(tmp_path):
    n = 3
    u = np.linspace(-1.0, 1.0, n)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    zz = np.zeros_like(uu)
    vals = np.where(uu**2 + vv**2 <= 1.0, 0.5, np.nan)
    gs = GridSlice(axis="z", offset=0.0, resolution=n, x=uu, y=vv, z=zz, values=vals)
    path = tmp_path / "s.csv"
    dump_grid_slice(gs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,z,value"
    assert len(lines) == n * n + 1
    # row-major: first row is the corner (-1, -1, 0), outside the ball
    assert lines[1] == "-1,-1,0,"
    # the center is inside and carries the value
    assert lines[1 + n * (n // 2) + n // 2] == "0,0,0,0.5"
    dump_grid_slice(gs, tmp_path / "s2.csv")
    assert (tmp_path / "s2.csv").read_bytes() == path.read_bytes()


def test_seventeen_digit_floats_survive(tmp_path):
    val = complex(1 / 3, -math.pi * 1e-7)
    c = CoefficientField({(0, 0, 0): val}, 0, 0)
    path = tmp_path / "c.json"
    dump_coefficient_field(c, path)
    assert load_coefficient_field(path).entries[next(iter(c.entries))] == val


def test_negative_zero_keeps_its_sign(tmp_path):
    # "-0" would load as the JSON integer 0; every sign bit must survive
    values = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-1.5, -0.0)]
    c = CoefficientField(dict(zip([(0, 1, -1), (0, 1, 0), (0, 1, 1), (1, 0, 0)], values)), 1, (1, 0))
    for dump, load in ((dump_coefficient_field, load_coefficient_field),
                       (dump_measurement_set, load_measurement_set)):
        path = tmp_path / "signed.json"
        dump(c, path)
        assert re.search(r"-0[,}]", path.read_text()) is None
        back = load(path)
        for part in ("real", "imag"):
            got = getattr(back.data, part).view(np.uint64)
            assert np.array_equal(got, getattr(c.data, part).view(np.uint64)), part


def test_loader_rejects_malformed_documents(tmp_path):
    entry = '"m": 0, "re": 0, "im": 0'
    cases = {
        "bad.json": "not json at all",
        "list.json": "[1, 2]",
        "nokey.json": '{"entries": []}',
        "badentry.json": '{"kmax": 0, "entries": [{"k": 0}]}',
        "badindex.json": '{"kmax": 0, "entries": [{"k": 0, "ell": 1, "m": 2, "re": 0, "im": 0}]}',
        "highk.json": '{"kmax": 0, "entries": [{"k": 1, "ell": 0, "m": 0, "re": 0, "im": 0}]}',
        "nullkmax.json": '{"kmax": null, "entries": []}',
        "hugekmax.json": '{"kmax": 1e400, "entries": []}',
        "negkmax.json": '{"kmax": -1, "entries": []}',
        "pastcapkmax.json": '{"kmax": 129, "entries": []}',
        "textcertified.json": '{"kmax": 0, "certified": "false", "entries": []}',
        "halfell.json": '{"kmax": 0, "entries": [{"k": 0, "ell": 2.5, ' + entry + "}]}",
        "boolindex.json": '{"kmax": 0, "entries": [{"k": false, "ell": true, ' + entry + "}]}",
        "dictentries.json": '{"kmax": 0, "entries": {}}',
    }
    measurement_cases = {
        "listK.json": '{"K": [1], "entries": []}',
        "boolK.json": '{"K": true, "entries": []}',
        "hugeK.json": '{"K": 10000000000, "entries": []}',
    }
    diagnostics = {"min_divisor": 1.0, "schedule": [0], "stages": [{"k": 0, "max_inner_sum_magnitude": 0}]}
    report_cases = {
        "nomin.json": {**diagnostics, "min_divisor": None},
        "noschedule.json": {k: v for k, v in diagnostics.items() if k != "schedule"},
        "textschedule.json": {**diagnostics, "schedule": "0"},
        "nostages.json": {k: v for k, v in diagnostics.items() if k != "stages"},
        "badstage.json": {**diagnostics, "stages": [{"k": 0}]},
        "textregularised.json": {**diagnostics, "regularised": "true"},
        "otherschedule.json": {**diagnostics, "schedule": [9, 7, 5]},
        "otherstage.json": {**diagnostics, "stages": [{"k": 4, "max_inner_sum_magnitude": 0}]},
    }
    report_cases = {
        name: json.dumps({"kmax": 0, "entries": [], "diagnostics": diag})
        for name, diag in report_cases.items()
    }
    for load, docs in [
        (load_coefficient_field, cases),
        (load_measurement_set, measurement_cases),
        (load_recon_report, report_cases),
    ]:
        for name, text in docs.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load(path)
    with pytest.raises(ValueError):
        load_coefficient_field(tmp_path / "missing.json")
    with pytest.raises(ValueError):
        load_measurement_set(tmp_path / "nokey.json")
    plain = tmp_path / "plain.json"
    dump_coefficient_field(CoefficientField({(0, 0, 0): 1.0}, 0, 0), plain)
    with pytest.raises(ValueError, match="not a reconstruction report"):
        load_recon_report(plain)


REPEATED = (
    '{"kmax": 0, "entries": [{"k": 0, "ell": 0, "m": 0, "re": 1.0, "im": 0.0}, '
    '{"k": 0, "ell": 0, "m": 0, "re": 2.0, "im": 0.0}]}'
)


def test_loader_rejects_a_repeated_index(tmp_path):
    # two rows for one (k, ell, m) are malformed input, not "the last one wins"
    path = tmp_path / "twice.json"
    path.write_text(REPEATED)
    message = re.escape(f"{path}: entry (k=0, ell=0, m=0) appears more than once")
    with pytest.raises(ValueError, match=message):
        load_coefficient_field(path)
    path.write_text(REPEATED.replace('"kmax"', '"K"'))
    with pytest.raises(ValueError, match=message):
        load_measurement_set(path)
    # the same index twice among others, under a report's diagnostics
    rows = [{"k": 0, "ell": ell, "m": m, "re": 1.0, "im": 0.0}
            for ell in range(3) for m in range(-ell, ell + 1)]
    rows.insert(5, {"k": 0, "ell": 2, "m": -1, "re": 3.0, "im": 0.0})
    diagnostics = {"min_divisor": 1.0, "schedule": [2],
                   "stages": [{"k": 0, "max_inner_sum_magnitude": 0}]}
    path.write_text(json.dumps({"kmax": 0, "entries": rows, "diagnostics": diagnostics}))
    with pytest.raises(ValueError, match=re.escape("entry (k=0, ell=2, m=-1) appears")):
        load_recon_report(path)


def test_dump_rejects_non_finite_values(tmp_path):
    c = CoefficientField({(0, 0, 0): complex(math.nan, 0.0)}, 0, 0)
    with pytest.raises(ValueError):
        dump_coefficient_field(c, tmp_path / "nan.json")
