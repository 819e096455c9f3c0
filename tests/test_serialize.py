"""File formats: exact round-trips, byte stability, schema shape."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon3d import serialize
from calderon3d.forward import MeasurementSet, forward_measure
from calderon3d.recon import ReconReport, StageDiagnostic, TruncationSchedule, reconstruct
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

from reference import write_document_rowwise, write_report_rowwise, write_slice_rowwise
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
        # an integer too large for a float, and one past Python's digit limit
        "hugere.json": '{"kmax": 0, "entries": [{"k": 0, "ell": 0, "m": 0, "re": 1'
        + "0" * 400 + ', "im": 0}]}',
        "longint.json": '{"kmax": 0, "entries": [], "pad": 1' + "0" * 5000 + "}",
        "deep.json": '{"kmax": 0, "entries": [], "pad": ' + "[" * 10**5 + "]" * 10**5 + "}",
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
        "hugemin.json": {**diagnostics, "min_divisor": 10**400},
        "hugestage.json": {**diagnostics, "stages": [{"k": 0, "max_inner_sum_magnitude": -(10**400)}]},
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
    for name in ("longint.json", "deep.json"):
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / name}: invalid JSON")):
            load_coefficient_field(tmp_path / name)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"kmax": 0, "entries": [], "note": "\xe9t\xe9"}')
    with pytest.raises(ValueError, match=re.escape(f"cannot read {latin}: ")):
        load_coefficient_field(latin)
    with pytest.raises(ValueError):
        load_measurement_set(tmp_path / "nokey.json")
    # the first bad row is named, with the first rule it breaks in the order
    # type and range, finiteness, radial bound, degree cap
    good, malformed = '{"k": 0, "ell": 0, "m": 0, "re": 1, "im": 0}', '{"k": 0}'
    for bad, message in [
        ('{"k": 1, "ell": 200, "m": 0, "re": NaN, "im": 0}', "non-finite value in entry (k=1,"),
        ('{"k": 1, "ell": 200, "m": 0, "re": 0, "im": 0}', "entry (k=1, ell=200, m=0) exceeds the declared"),
        ('{"k": 0, "ell": 200, "m": -201, "re": NaN, "im": 0}', "malformed entry {'k': 0, 'ell': 200"),
    ]:
        path = tmp_path / "order.json"
        path.write_text('{"kmax": 0, "entries": [' + ", ".join([good, bad, malformed]) + "]}")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_coefficient_field(path)
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


# every float the writers must reproduce: signed zeros, subnormals, the ends
# of the double range, integral values and arbitrary finite doubles
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0**53]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(float),
)
INDICES = [(k, ell, m) for k, cap in enumerate((3, 2)) for ell in range(cap + 1)
           for m in range(-ell, ell + 1)]


@st.composite
def fields(draw):
    keys = draw(st.lists(st.sampled_from(INDICES), unique=True, max_size=len(INDICES)))
    values = [complex(draw(FLOATS), draw(FLOATS)) for _ in keys]
    return CoefficientField(dict(zip(keys, values)), 1, (3, 2), certified=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(fields(), st.lists(FLOATS.map(abs), min_size=3, max_size=3), st.booleans())
def test_json_writers_match_the_rowwise_reference(tmp_path_factory, c, floats, regularised):
    tmp = tmp_path_factory.mktemp("json")
    pairs = [
        (lambda path: dump_coefficient_field(c, path),
         lambda path: write_document_rowwise(path, "kmax", c)),
        (lambda path: dump_measurement_set(c, path),
         lambda path: write_document_rowwise(path, "K", c)),
    ]
    if c.certified:
        rep = ReconReport(c, TruncationSchedule((3, 2)), floats[0],
                          (StageDiagnostic(0, floats[1]), StageDiagnostic(1, -floats[2])),
                          regularised)
        pairs.append((lambda path: dump_recon_report(rep, path),
                      lambda path: write_report_rowwise(rep, path)))
    for dump, reference in pairs:
        dump(tmp / "new.json")
        reference(tmp / "ref.json")
        assert (tmp / "new.json").read_bytes() == (tmp / "ref.json").read_bytes()


def test_json_writers_match_the_reference_on_one_entry_and_empty_fields(tmp_path):
    for c in (CoefficientField({(0, 0, 0): complex(-0.0, 5e-324)}, 0, 0),
              CoefficientField({}, 0, 0), CoefficientField({}, 2, (1, 0, 3), certified=False)):
        for key, dump in (("kmax", dump_coefficient_field), ("K", dump_measurement_set)):
            dump(c, tmp_path / "new.json")
            write_document_rowwise(tmp_path / "ref.json", key, c)
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def plane_slice(n, values_at):
    u = np.linspace(-1.0, 1.0, n)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    values = np.where(uu**2 + vv**2 <= 1.0, values_at(uu, vv), np.nan)
    return GridSlice("z", 0.0, n, uu, vv, np.zeros_like(uu), values)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 9), st.lists(st.one_of(FLOATS, st.just(math.nan)),
                                                       min_size=1, max_size=144))
def test_slice_writer_matches_the_rowwise_reference(tmp_path_factory, n, rows_per_block, pool):
    # small blocks, so that outside (NaN) rows and signed zeros fall on block edges
    tmp = tmp_path_factory.mktemp("csv")
    coords = np.resize(np.array([0.0, -0.0, 0.5, -1.0, 5e-324]), (3, n, n))
    gs = GridSlice("x", -0.0, n, *coords, np.resize(np.array(pool), (n, n)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_ROWS", rows_per_block)
        dump_grid_slice(gs, tmp / "new.csv")
    write_slice_rowwise(gs, tmp / "ref.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


def test_slice_writer_matches_the_reference_across_full_blocks(tmp_path):
    # a row count that is not a multiple of the block size, with NaN and -0.0
    # at the rows either side of each block edge
    n = 65
    gs = plane_slice(n, lambda u, v: u * v)
    values = gs.values.reshape(-1)
    edges = np.arange(serialize._ROWS, n * n, serialize._ROWS)
    assert n * n % serialize._ROWS and edges.size >= 2
    values[edges[0] - 1 : edges[0] + 1] = np.nan
    values[edges[1] - 1 : edges[1] + 1] = -0.0
    gs.y.reshape(-1)[edges - 1] = -0.0
    dump_grid_slice(gs, tmp_path / "new.csv")
    write_slice_rowwise(gs, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_slice_memory_does_not_grow_with_the_resolution(tmp_path):
    # rows are formatted and written a block at a time: four times the rows
    # may grow the traced peak by little, not by the text of every row
    def peak(n):
        gs = plane_slice(n, lambda u, v: np.sin(3.0 * u) * v)
        tracemalloc.start()
        try:
            dump_grid_slice(gs, tmp_path / "s.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(201), peak(401)
    rows = 401**2 - 201**2
    print(f"peak {small / 2**20:.2f} -> {large / 2**20:.2f} MiB for {rows} more rows")
    assert large - small <= 4 * rows  # the text of a row is ~60 bytes
    assert large <= 512 * serialize._ROWS
