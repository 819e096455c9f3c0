"""Coupling constants, schedule feasibility, and the triangular solver."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon3d import cli, recon, specfun
from calderon3d.forward import forward_measure, MeasurementSet
from calderon3d.recon import (
    DivisorUnderflowWarning,
    InfeasibleScheduleError,
    MissingMeasurementError,
    ScheduleViolation,
    TruncationSchedule,
    big_q,
    coupling_operator,
    reconstruct,
    tau,
    validate_schedule,
)
from calderon3d.serialize import dump_measurement_set
from calderon3d.zernike import CoefficientField, ZernikeIndex, _bases

from reference import (
    big_d,
    big_q_factored,
    forward_measure_full_rows,
    order_free_factor_fraction,
    reconstruct_full_rows,
    tau_expanded,
    term_sum_loop,
)


def random_field(kmax, caps, rng, real_sym=False):
    entries = {}
    for k in range(kmax + 1):
        for ell in range(caps[k] + 1):
            for m in range(0, ell + 1):
                val = complex(rng.standard_normal(), rng.standard_normal())
                if m == 0:
                    if real_sym:
                        val = complex(val.real, 0.0)
                    entries[(k, ell, 0)] = val
                else:
                    entries[(k, ell, m)] = val
                    if real_sym:
                        entries[(k, ell, -m)] = (-1) ** m * val.conjugate()
                    else:
                        entries[(k, ell, -m)] = complex(
                            rng.standard_normal(), rng.standard_normal()
                        )
    return CoefficientField(entries, kmax, caps)


# ---------------------------------------------------------------- tau


def test_tau_fixed_values():
    assert tau(0, 0, 0) == pytest.approx(3.0, abs=0)
    assert tau(2, 4, 1) == pytest.approx(11 / 8, rel=1e-15)
    assert tau(3, 1, 2) == pytest.approx(22 / 9, rel=1e-15)


def test_tau_vanishes_two_past_the_degree_shift():
    for ell in range(6):
        for k in range(5):
            assert tau(ell, ell + 2 * k + 2, k) == 0.0


@given(
    ell=st.integers(0, 30),
    ell_prime=st.integers(0, 40),
    k=st.integers(0, 12),
)
def test_tau_forms_agree(ell, ell_prime, k):
    a = tau(ell, ell_prime, k)
    b = tau_expanded(ell, ell_prime, k)
    assert a == pytest.approx(b, rel=1e-13, abs=1e-13)


def test_tau_rejects_bad_input():
    with pytest.raises(ValueError):
        tau(-1, 0, 0)


# ---------------------------------------------------------------- big_d / big_q


def test_big_q_fixed_values():
    # frozen from an exact symbolic evaluation of the closed form
    cases = [
        ((2, 1, 3, 1, 1), -0.011741053487585290913),
        ((5, 0, 2, -2, 2), -0.0023622306759187138378),
        ((0, 0, 0, 0, 0), -0.48860251190291992159),
        ((4, 2, 4, 0, 1), -0.0058783513211154202404),
    ]
    for args, want in cases:
        assert big_q(*args) == pytest.approx(want, rel=1e-13)
        assert big_q_factored(*args) == pytest.approx(want, rel=1e-13)


def test_big_q_base_case_matches_first_measurement():
    # k = s = q = 0 collapses to -sqrt(3/(4 pi)) times a Gaunt ratio of 1
    assert big_q(0, 0, 0, 0, 0) == pytest.approx(-math.sqrt(3 / (4 * math.pi)), rel=1e-15)


@settings(deadline=None)
@given(data=st.data())
def test_big_q_closed_equals_factored(data):
    ell = data.draw(st.integers(0, 10), label="ell")
    k = data.draw(st.integers(0, 6), label="k")
    s = data.draw(st.integers(0, k), label="s")
    q = data.draw(st.integers(0, k - s), label="q")
    m = data.draw(st.integers(-ell, ell), label="m")
    a = big_q(ell, s, k, m, q)
    b = big_q_factored(ell, s, k, m, q)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


@settings(deadline=None)
@given(data=st.data())
def test_big_d_is_tau_weighted_angular_integral(data):
    ell = data.draw(st.integers(0, 8), label="ell")
    k = data.draw(st.integers(0, 5), label="k")
    s = data.draw(st.integers(0, k), label="s")
    m = data.draw(st.integers(-ell, ell), label="m")
    sign = -1.0 if m % 2 == 0 else 1.0
    want = sign * tau(ell, ell + 2 * s, k) * specfun.gaunt(
        k + 1, ell + k + 1, ell + 2 * s, 0, -m, m
    )
    assert big_d(ell, s, k, m) == pytest.approx(want, rel=1e-14, abs=1e-300)


def test_big_q_rejects_bad_indices():
    with pytest.raises(ValueError):
        big_q(2, 1, 1, 0, 1)  # q > k - s
    with pytest.raises(ValueError):
        big_q(2, 3, 2, 0, 0)  # s > k
    with pytest.raises(ValueError):
        big_q(2, 0, 1, 3, 0)  # |m| > ell
    with pytest.raises(ValueError):
        big_d(2, 3, 2, 0)


def test_divisor_is_never_tiny_in_the_working_range():
    worst = math.inf
    for k in range(5):
        for ell in range(9):
            for m in range(-ell, ell + 1):
                worst = min(worst, abs(big_q(ell, 0, k, m, k)))
    assert worst > 1e-10


# ---------------------------------------------------------------- schedules


def test_schedule_basics():
    s = TruncationSchedule((14, 12, 10))
    assert s.K == 2
    with pytest.raises(ValueError):
        TruncationSchedule(())
    with pytest.raises(ValueError):
        TruncationSchedule((3, -1))


def test_schedule_caps_follow_the_field_rule():
    # at most DEGREE_CAP + 1 caps of at most DEGREE_CAP each, as for any field,
    # so validate_schedule never lists more than 129 * 128 / 2 violations
    assert TruncationSchedule((0,) * (specfun.DEGREE_CAP + 1)).K == specfun.DEGREE_CAP
    with pytest.raises(ValueError, match="DEGREE_CAP"):
        TruncationSchedule((0,) * 130)
    with pytest.raises(ValueError, match="DEGREE_CAP"):
        TruncationSchedule((specfun.DEGREE_CAP + 1,))


def test_reconstruct_cli_rejects_an_overlong_schedule_at_once(tmp_path, capsys):
    # 200 zero caps would otherwise be judged infeasible through 19,900 violations
    ms = tmp_path / "ms.json"
    dump_measurement_set(forward_measure(CoefficientField({(0, 0, 0): 1.0}, 0, 0), 0, 0), ms)
    out = tmp_path / "rec.json"
    code = cli.main(["reconstruct", "--measurements", str(ms), "--schedule", ",".join(["0"] * 200),
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "DEGREE_CAP" in err[0]
    # the count of caps the user gave, not a kmax the user never typed
    assert "200" in err[0] and "kmax" not in err[0]
    assert not out.exists()


def test_demo_schedules_are_feasible():
    assert validate_schedule(TruncationSchedule((20, 18, 16, 14, 12, 10, 8, 6))) == []
    assert validate_schedule(TruncationSchedule((16, 11, 7, 5, 3))) == []


def test_uniform_schedule_is_infeasible():
    violations = validate_schedule(TruncationSchedule((4, 4)))
    assert violations == [ScheduleViolation(q=0, k=1, required=6, actual=4)]


def test_schedule_violation_reports_every_unmet_demand():
    violations = validate_schedule(TruncationSchedule((10, 10, 10)))
    assert ScheduleViolation(q=0, k=1, required=12, actual=10) in violations
    assert ScheduleViolation(q=0, k=2, required=14, actual=10) in violations
    assert ScheduleViolation(q=1, k=2, required=12, actual=10) in violations
    assert len(violations) == 3


def test_steep_enough_descent_is_feasible():
    assert validate_schedule(TruncationSchedule((8, 6, 4, 2, 0))) == []


# ---------------------------------------------------------------- reconstruct


def caps_for(K, top):
    return tuple(top - 2 * k for k in range(K + 1))


def test_round_trip_small():
    rng = np.random.default_rng(3)
    caps = caps_for(3, 8)
    c = random_field(3, caps, rng)
    ms = forward_measure(c, 3, caps)
    rep = reconstruct(ms, TruncationSchedule(caps))
    for idx, val in c.entries.items():
        got = rep.field.get(idx.k, idx.ell, idx.m)
        assert got == pytest.approx(val, rel=1e-10)
    assert not rep.regularised
    assert rep.min_divisor > 0
    assert [s.k for s in rep.stages] == [0, 1, 2, 3]
    assert rep.stages[0].max_inner_sum_magnitude == 0.0


def test_round_trip_real_symmetric_field_stays_symmetric():
    rng = np.random.default_rng(4)
    caps = caps_for(2, 6)
    c = random_field(2, caps, rng, real_sym=True)
    ms = forward_measure(c, 2, caps)
    rep = reconstruct(ms, TruncationSchedule(caps))
    assert rep.field.conjugate_symmetry_error() < 1e-12


def test_low_k_output_ignores_high_k_measurements():
    rng = np.random.default_rng(5)
    caps = caps_for(2, 6)
    c = random_field(2, caps, rng)
    ms = forward_measure(c, 2, caps)
    bumped = dict(ms.values)
    for idx in list(bumped):
        if idx.k == 2:
            bumped[idx] = bumped[idx] + complex(0.37, -1.2)
    ms2 = MeasurementSet(bumped, 2, caps)
    a = reconstruct(ms, TruncationSchedule(caps)).field
    b = reconstruct(ms2, TruncationSchedule(caps)).field
    for idx, val in a.entries.items():
        if idx.k < 2:
            assert b.entries[idx] == val  # bit identical
        elif idx.ell <= caps[2]:
            assert b.entries[idx] != val


def test_missing_measurement_is_named():
    rng = np.random.default_rng(6)
    caps = caps_for(1, 4)
    c = random_field(1, caps, rng)
    ms = forward_measure(c, 1, caps)
    values = dict(ms.values)
    del values[ZernikeIndex(1, 2, -1)]
    del values[ZernikeIndex(1, 1, 0)]
    broken = MeasurementSet(values, 1, caps)
    with pytest.raises(MissingMeasurementError) as err:
        reconstruct(broken, TruncationSchedule(caps))
    # the sweep runs k ascending, ell descending, m ascending, so the
    # first absent key it meets is (1, 2, -1)
    assert err.value.index == (1, 2, -1)
    assert "k=1" in str(err.value) and "ell=2" in str(err.value) and "m=-1" in str(err.value)


def test_missing_measurement_is_named_at_the_lowest_stage():
    rng = np.random.default_rng(6)
    caps = caps_for(1, 4)
    ms = forward_measure(random_field(1, caps, rng), 1, caps)
    values = dict(ms.values)
    for key in [(0, 1, 0), (0, 3, 1), (1, 2, -1)]:
        del values[ZernikeIndex(*key)]
    with pytest.raises(MissingMeasurementError) as err:
        reconstruct(MeasurementSet(values, 1, caps), TruncationSchedule(caps))
    # stage 0 comes first, and within it ell descends
    assert err.value.index == (0, 3, 1)


def test_infeasible_schedule_is_rejected():
    rng = np.random.default_rng(7)
    c = random_field(1, (4, 4), rng)
    ms = forward_measure(c, 1, (4, 4))
    with pytest.raises(InfeasibleScheduleError) as err:
        reconstruct(ms, TruncationSchedule((4, 4)))
    assert err.value.violations == [ScheduleViolation(q=0, k=1, required=6, actual=4)]
    assert "cap[0] >= 6" in str(err.value)


def test_zero_fill_regularises_and_keeps_low_k_exact():
    rng = np.random.default_rng(8)
    true_caps = (6, 4)
    c = random_field(1, true_caps, rng)
    ms = forward_measure(c, 1, (4, 4))
    rep = reconstruct(ms, TruncationSchedule((4, 4)), zero_fill=True)
    assert rep.regularised
    # k = 0 never needs zero-filled dependencies, so it stays exact
    for ell in range(5):
        for m in range(-ell, ell + 1):
            assert rep.field.get(0, ell, m) == pytest.approx(c.get(0, ell, m), rel=1e-10)
    # the filled-in zeros poison some k = 1 entries whose true inner sum
    # involved the dropped degree-6 coefficients
    worst = max(
        abs(rep.field.get(1, ell, m) - c.get(1, ell, m))
        for ell in range(5)
        for m in range(-ell, ell + 1)
    )
    assert worst > 1e-6


def test_zero_fill_on_feasible_schedule_is_not_flagged():
    rng = np.random.default_rng(9)
    caps = caps_for(1, 6)
    c = random_field(1, caps, rng)
    ms = forward_measure(c, 1, caps)
    rep = reconstruct(ms, TruncationSchedule(caps), zero_fill=True)
    assert not rep.regularised
    for idx, val in c.entries.items():
        assert rep.field.get(idx.k, idx.ell, idx.m) == pytest.approx(val, rel=1e-10)


def test_divisor_underflow_warns(monkeypatch):
    rng = np.random.default_rng(10)
    c = random_field(0, (1,), rng)
    ms = forward_measure(c, 0, (1,))
    original = recon.coupling_operator

    def tiny(caps):
        op = original(caps)
        stages = tuple(
            dataclasses.replace(st, vals=np.vstack([st.vals[:-1], np.full(st.size, 1e-20)]))
            for st in op.stages
        )
        return dataclasses.replace(op, stages=stages)

    monkeypatch.setattr(recon, "coupling_operator", tiny)
    with pytest.warns(DivisorUnderflowWarning):
        reconstruct(ms, TruncationSchedule((1,)))


def test_divisor_underflow_warns_once_per_row_in_order(monkeypatch):
    # the operator keeps the m >= 0 rows; the warnings still name every
    # (k, ell, m), m < 0 included, in (k, ell, m) order
    caps = (2, 0)
    ms = forward_measure(random_field(1, caps, np.random.default_rng(10)), 1, caps)
    original = recon.coupling_operator

    def tiny(caps):
        op = original(caps)
        stages = tuple(
            dataclasses.replace(st, vals=np.vstack([st.vals[:-1], np.full(st.size, 1e-20)]))
            for st in op.stages
        )
        return dataclasses.replace(op, stages=stages)

    monkeypatch.setattr(recon, "coupling_operator", tiny)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reconstruct(ms, TruncationSchedule(caps))
    assert {w.category for w in caught} == {DivisorUnderflowWarning}
    assert [str(w.message) for w in caught] == [
        f"divisor |Q| = 1.000e-20 below 1e-14 at (k={k}, ell={ell}, m={m}); "
        "the special functions are suspect"
        for k, cap in enumerate(caps) for ell in range(cap + 1) for m in range(-ell, ell + 1)
    ]


def test_reconstructed_field_is_certified_within_schedule():
    rng = np.random.default_rng(11)
    caps = caps_for(1, 4)
    c = random_field(1, caps, rng)
    rep = reconstruct(forward_measure(c, 1, caps), TruncationSchedule(caps))
    assert rep.field.certified
    assert rep.field.kmax == 1
    assert rep.field.degree_caps == caps


# ---------------------------------------------------------------- operator


def test_cold_operator_build_uses_no_exact_3j_sums(monkeypatch):
    def exact_sum(*args):
        raise AssertionError(f"operator build evaluated the exact 3j sum {args}")

    monkeypatch.setattr(specfun, "_w3j_signed_square", exact_sum)
    coupling_operator((48, 44, 40, 36, 32, 28, 24, 20))


def test_order_free_factor_equals_its_rational_form():
    # exhaustive over kmax <= 11 and every degree up to DEGREE_CAP, at one
    # degree (as big_q asks) and over all degrees (as the operator build asks)
    for k in range(12):
        for s in range(k + 1):
            for q in range(k - s + 1):
                row = recon._order_free_factor(np.arange(specfun.DEGREE_CAP + 1), s, k, q)
                for ell in range(specfun.DEGREE_CAP + 1):
                    want = order_free_factor_fraction(ell, s, k, q)
                    assert recon._order_free_factor(ell, s, k, q) == want == row[ell], (ell, s, k, q)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def test_operator_entries_equal_big_q():
    caps = (8, 6, 4, 2)
    op = coupling_operator(caps)
    # columns and rows are half layouts: (q, ell, m), m >= 0, at base[q] + ell(ell+1)/2 + m
    column = {
        op.col_base[q] + ell * (ell + 1) // 2 + m: (q, ell, m)
        for q in range(len(caps))
        for ell in range(op.col_caps[q] + 1)
        for m in range(ell + 1)
    }
    keys = [
        ZernikeIndex(k, ell, m)
        for k, cap in enumerate(caps)
        for ell in range(cap + 1)
        for m in range(ell + 1)
    ]
    assert op.stages[-1].start + op.stages[-1].size == len(keys)
    for k, st in enumerate(op.stages):
        assert st.cols.shape == st.vals.shape == ((k + 1) * (k + 2) // 2, st.size)
        for row in range(st.size):
            idx = keys[st.start + row]
            assert idx.k == k
            # the last term is the divisor, on the measurement's own coefficient
            assert column[int(st.cols[-1, row])] == (k, idx.ell, idx.m)
            # every term, in the series' (q, s) order
            got = [(column[int(c)], float(v)) for c, v in zip(st.cols[:, row], st.vals[:, row])]
            want = [(q, s) for q in range(k + 1) for s in range(k - q + 1)]
            assert [(q, (ell - idx.ell) // 2) for (q, ell, _), _ in got] == want
            for (q, ell, m), val in got:
                assert m == idx.m
                # Q is even in m: the row serves the orders m and -m
                for order in (idx.m, -idx.m):
                    assert _bits(val) == _bits(big_q(idx.ell, (ell - idx.ell) // 2, k, order, q))
    # the maps to the packed layout: the slots of (k, ell, m) and (k, ell, -m)
    base = _bases(caps)
    assert op.rows.tolist() == [[base[i.k] + i.ell * (i.ell + 1) + sign * i.m for i in keys]
                                for sign in (1, -1)]
    assert op.cols is op.rows  # a feasible schedule needs no wider columns


def test_operator_arrays_at_L_fit_in_0_55_of_the_full_rows():
    # every array the cached operator keeps, each counted once; the full-row
    # operator held 1,593,984 B
    op = coupling_operator((48, 44, 40, 36, 32, 28, 24, 20))
    held = [getattr(obj, f.name) for obj in (op, *op.stages) for f in dataclasses.fields(obj)]
    arrays = {id(a): a for a in held if isinstance(a, np.ndarray)}
    assert sum(a.nbytes for a in arrays.values()) <= 876_691  # 0.55 * 1,593,984
    assert sum(st.vals.size for st in op.stages) == 51_492 and op.rows.shape == (2, 5_376)


SCHEDULES = [(16, 11, 7, 5, 3), (30, 26, 22, 18, 14, 10, 6), (48, 44, 40, 36, 32, 28, 24, 20),
             (3, 2, 1, 0, 0)]
SCHEDULE_IDS = ["S", "M", "L", "zero_fill"]


def _scattered(rng, n):
    """n random floats over 13 decades, a fifth +0.0 and a fifth -0.0."""
    out = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
    out[rng.random(n) < 0.2] = 0.0
    out[rng.random(n) < 0.2] = -0.0
    return out


@pytest.mark.parametrize("caps", SCHEDULES, ids=SCHEDULE_IDS)
def test_term_sum_adds_in_the_loops_order(caps):
    # (3, 2, 1, 0, 0) is infeasible, the zero-fill operator; its one-row
    # stages of 10 and 15 terms are where a pairwise sum would round apart
    op = coupling_operator(caps)
    rng = np.random.default_rng(19)
    x = _scattered(rng, 16 * op.col_base[-1]).reshape(16, -1)
    for st in op.stages:
        for stop in (-1, None):
            got, want = st.term_sum(x, stop), term_sum_loop(st, x, stop)
            assert got.shape == want.shape == (16, st.size)
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("caps", SCHEDULES, ids=SCHEDULE_IDS)
def test_forward_and_reconstruct_equal_the_full_row_reference(caps):
    op = coupling_operator(caps)
    rng = np.random.default_rng(23)
    n = _bases(op.col_caps)[-1]
    c = CoefficientField._packed(_scattered(rng, 2 * n).view(complex), np.ones(n, dtype=bool),
                                 op.col_caps)
    ms = forward_measure(c, len(caps) - 1, caps)
    assert np.array_equal(_bits(ms.data.view(float)),
                          _bits(forward_measure_full_rows(c, caps, op).view(float)))
    rep = reconstruct(ms, TruncationSchedule(caps), zero_fill=True)
    solution, floor, largest = reconstruct_full_rows(ms.data, caps, op)
    assert np.array_equal(_bits(rep.field.data.view(float)), _bits(solution.view(float)))
    assert _bits(rep.min_divisor) == _bits(floor)
    assert np.array_equal(_bits([s.max_inner_sum_magnitude for s in rep.stages]), _bits(largest))


def test_inner_sum_diagnostic_equals_the_hypot_of_every_row():
    # reconstruct takes np.hypot only where a stage's largest |inner sum| can
    # be; measurements over 600 decades, subnormals, zeros, an infinity and a
    # NaN must still give the largest of every row's hypot
    caps = (16, 11, 7, 5, 3)
    op = coupling_operator(caps)
    rng = np.random.default_rng(29)
    n = _bases(caps)[-1]
    plain = rng.standard_normal(2 * n)
    values = plain * 10.0 ** rng.integers(-300, 300, 2 * n)
    values[rng.random(2 * n) < 0.1] = 0.0
    values[rng.random(2 * n) < 0.1] = 5e-324
    present = np.ones(n, dtype=bool)
    for special in (0.0, None, np.inf, np.nan):
        # plain normal values give many near rivals for each stage's largest
        data = plain.copy() if special == 0.0 else values.copy()
        if special:
            data[2 * _bases(caps)[2] + 7] = special  # a stage-2 measurement
        with np.errstate(all="ignore"):
            rep = reconstruct(MeasurementSet._packed(data.view(complex), present, caps),
                              TruncationSchedule(caps))
            largest = reconstruct_full_rows(data.view(complex), caps, op)[2]
        got = np.array([s.max_inner_sum_magnitude for s in rep.stages])
        assert np.array_equal(got, largest, equal_nan=True), special


def test_forward_and_reconstruct_share_one_operator():
    rng = np.random.default_rng(12)
    caps = caps_for(2, 6)
    c = random_field(2, caps, rng)
    coupling_operator.cache_clear()
    reconstruct(forward_measure(c, 2, caps), TruncationSchedule(caps))
    info = coupling_operator.cache_info()
    assert info.misses == 1 and info.hits == 1


def test_operator_rejects_degrees_past_the_gaunt_cap():
    # stage k = 2 needs Gaunt degree 125 + 2k = 129
    with pytest.raises(ValueError, match="k=2") as err:
        coupling_operator((120, 120, 125))
    assert "DEGREE_CAP" in str(err.value)
