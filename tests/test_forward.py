"""Measurement simulation: series route, quadrature oracle, noise."""

import math

import numpy as np
import pytest

from calderon3d.forward import (
    IncompleteSupportError,
    MeasurementSet,
    add_noise,
    forward_measure,
    forward_measure_quadrature,
    oracle_measure,
)
from calderon3d.quadrature import BallQuadrature
from calderon3d.recon import big_q
from calderon3d.zernike import CoefficientField, ZernikeIndex, synthesize_xyz

from test_recon import random_field

QUAD = BallQuadrature()


def field_as_eta(c):
    return lambda x, y, z: synthesize_xyz(c, x, y, z)


# ------------------------------------------------------------- series route


def test_unit_constant_coefficient_fixed_value():
    c = CoefficientField({(0, 0, 0): 1.0}, 0, 0)
    ms = forward_measure(c, 0, 0)
    assert ms.get(0, 0, 0) == pytest.approx(-math.sqrt(3 / (4 * math.pi)), rel=1e-14)


def test_zero_field_measures_zero():
    c = CoefficientField({}, 2, (4, 2, 0))
    ms = forward_measure(c, 2, (4, 2, 0))
    assert all(v == 0 for v in ms.values.values())
    assert len(ms.values) == sum(
        2 * ell + 1 for k, cap in enumerate((4, 2, 0)) for ell in range(cap + 1)
    )


def test_single_low_order_entry_hits_the_expected_couplings():
    # a lone c_L^{0,M} contributes Q_{L-2s, s}^{k, M, 0} to measurement
    # (k, L - 2s, M) for every s <= k, and nothing anywhere else
    L, M = 4, -2
    c = CoefficientField({(0, L, M): 1.0}, 0, L)
    ms = forward_measure(c, 2, L)
    for idx, val in ms.items_sorted():
        k, ell, m = idx.k, idx.ell, idx.m
        if m == M and (L - ell) % 2 == 0 and 0 <= (L - ell) // 2 <= k:
            s = (L - ell) // 2
            assert val == pytest.approx(big_q(ell, s, k, m, 0), rel=1e-13), idx
        else:
            assert val == 0, idx


def test_linearity():
    rng = np.random.default_rng(21)
    caps = (4, 2)
    c1 = random_field(1, caps, rng)
    c2 = random_field(1, caps, rng)
    lam = complex(0.7, -2.3)
    combo = CoefficientField(
        {i: c1.entries[i] + lam * c2.entries[i] for i in c1.entries}, 1, caps
    )
    m1 = forward_measure(c1, 2, 3)
    m2 = forward_measure(c2, 2, 3)
    mc = forward_measure(combo, 2, 3)
    for idx, val in mc.values.items():
        want = m1.values[idx] + lam * m2.values[idx]
        assert val == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_out_of_support_coefficients_do_not_move_measurements():
    rng = np.random.default_rng(22)
    caps = (6, 4)
    c = random_field(1, caps, rng)
    base = forward_measure(c, 1, (4, 4)).get(1, 2, 0)
    # (1,2,0) depends exactly on coefficients (0,2,0), (0,4,0), (1,2,0);
    # wrong parity, wrong order, and s > k - q must all be invisible
    for bump in [(0, 3, 0), (0, 2, 1), (1, 4, 0), (0, 6, 0), (1, 2, -1)]:
        entries = dict(c.entries)
        entries[ZernikeIndex(*bump)] = entries[ZernikeIndex(*bump)] + 5.0
        bumped = CoefficientField(entries, 1, caps)
        assert forward_measure(bumped, 1, (4, 4)).get(1, 2, 0) == base  # bit identical
    for bump in [(0, 2, 0), (0, 4, 0), (1, 2, 0)]:
        entries = dict(c.entries)
        entries[ZernikeIndex(*bump)] = entries[ZernikeIndex(*bump)] + 5.0
        bumped = CoefficientField(entries, 1, caps)
        assert forward_measure(bumped, 1, (4, 4)).get(1, 2, 0) != base


def test_real_field_gives_conjugate_symmetric_measurements():
    rng = np.random.default_rng(23)
    caps = (5, 3)
    c = random_field(1, caps, rng, real_sym=True)
    ms = forward_measure(c, 2, 3)
    assert ms.conjugate_symmetry_error() < 1e-12


def test_uncertified_field_raises_on_out_of_bounds_demand():
    rng = np.random.default_rng(24)
    caps = (4, 2)
    c = random_field(1, caps, rng)
    truncated = CoefficientField(dict(c.entries), 1, caps, certified=False)
    # the sweep first hits measurement (1, 3, -3), whose s = 1 term
    # demands coefficient (0, 5, -3), beyond the declared degree cap
    with pytest.raises(IncompleteSupportError) as err:
        forward_measure(truncated, 1, (4, 4))
    assert err.value.coefficient == (0, 5, -3)
    assert err.value.measurement == (1, 3, -3)
    assert "k=0, ell=5, m=-3" in str(err.value)
    # the certified twin treats the same demand as an exact zero
    ms = forward_measure(c, 1, (4, 4))
    assert ms.get(1, 4, 0) != 0


def test_measurement_set_validates_bounds():
    with pytest.raises(ValueError):
        MeasurementSet({(1, 5, 0): 1.0}, 1, (4, 4))
    with pytest.raises(ValueError):
        MeasurementSet({(0, 2, 3): 1.0}, 0, 2)


def test_measurement_set_helpers():
    ms = MeasurementSet({(0, 1, -1): 2.0, (0, 0, 0): 1j}, 0, 1)
    assert ms.get(0, 1, 1) == 0
    assert ms.get(0, 1, 1, default=None) is None
    assert [i.m for i, _ in ms.items_sorted()] == [0, -1]
    assert ms.rms() == pytest.approx(math.sqrt((4 + 1) / 2), rel=1e-15)


# ------------------------------------------------------------- oracle route


def test_oracle_matches_series_on_a_random_field():
    rng = np.random.default_rng(25)
    caps = (4, 2, 0)
    c = random_field(2, caps, rng)
    series = forward_measure(c, 2, 4)
    oracle = oracle_measure(field_as_eta(c), 2, 4, QUAD)
    worst = max(abs(series.values[i] - oracle.values[i]) for i in series.values)
    assert worst < 1e-8
    assert oracle.kmax == 2 and oracle.degree_caps == (4, 4, 4)
    # degrees and orders up to 16 exercise the per-order grouping and the
    # Legendre derivative recurrence; the (24, 32, 64) rule integrates this
    # polynomial integrand exactly
    caps = (16, 11, 7, 5, 3)
    c = random_field(4, caps, rng)
    series = forward_measure(c, 4, caps)
    oracle = oracle_measure(field_as_eta(c), 4, caps, BallQuadrature(24, 32, 64))
    worst = max(abs(series.values[i] - oracle.values[i]) for i in series.values)
    assert worst < 1e-8


def test_single_oracle_measurement_matches_batch():
    rng = np.random.default_rng(27)
    c = random_field(0, (2,), rng)
    eta = field_as_eta(c)
    batch = oracle_measure(eta, 1, 2, QUAD)
    one = forward_measure_quadrature(eta, 1, 2, -1, QUAD)
    assert one == batch.get(1, 2, -1)


def test_oracle_of_zero_field_is_zero():
    zero = lambda x, y, z: np.zeros_like(x)
    assert forward_measure_quadrature(zero, 0, 0, 0, QUAD) == 0
    assert forward_measure_quadrature(zero, 2, 3, -2, QUAD) == 0


def test_oracle_rejects_bad_form_and_shape():
    scalar = lambda x, y, z: 1.0
    with pytest.raises(ValueError):
        forward_measure_quadrature(scalar, 0, 0, 0, QUAD)


def test_oracle_self_convergence_on_a_smooth_bump():
    def bump(x, y, z):
        return np.exp(-18.0 * ((x - 0.3) ** 2 + y**2 + (z - 0.55) ** 2))

    coarse = forward_measure_quadrature(bump, 0, 0, 0, BallQuadrature(24, 32, 64))
    fine = forward_measure_quadrature(bump, 0, 0, 0, QUAD)
    assert fine == pytest.approx(coarse, abs=1e-9)
    assert abs(fine) > 1e-4  # a genuinely nonzero datum


def test_oracle_symmetry_for_real_field():
    rng = np.random.default_rng(28)
    c = random_field(1, (3, 1), rng, real_sym=True)
    ms = oracle_measure(field_as_eta(c), 1, 3, QUAD)
    assert ms.conjugate_symmetry_error() < 1e-10


# ------------------------------------------------------------- noise


def make_ms(rng, K=1, caps=(4, 2), real_sym=False):
    c = random_field(K, caps, rng, real_sym=real_sym)
    return forward_measure(c, K, caps)


def test_noise_level_zero_is_identity():
    ms = make_ms(np.random.default_rng(31))
    out = add_noise(ms, 0.0, seed=5)
    assert out.values == ms.values


def test_noise_is_deterministic_per_seed():
    ms = make_ms(np.random.default_rng(32))
    a = add_noise(ms, 1e-3, seed=11)
    b = add_noise(ms, 1e-3, seed=11)
    c = add_noise(ms, 1e-3, seed=12)
    assert a.values == b.values
    assert a.values != c.values


def test_noise_perturbs_every_entry():
    ms = make_ms(np.random.default_rng(33))
    out = add_noise(ms, 1e-3, seed=7)
    assert all(out.values[i] != ms.values[i] for i in ms.values)


def test_noise_preserves_conjugate_symmetry_exactly():
    ms = make_ms(np.random.default_rng(34), real_sym=True)
    assert ms.conjugate_symmetry_error() < 1e-13
    out = add_noise(ms, 1e-2, seed=3)
    assert out.conjugate_symmetry_error() < 1e-13
    # m = 0 rows of a symmetric set are real and must stay real
    assert all(v.imag == 0 for i, v in out.values.items() if i.m == 0)


def test_noise_scale_tracks_the_request():
    rng = np.random.default_rng(35)
    ms = make_ms(rng, K=2, caps=(8, 6, 4))
    level = 1e-3
    out = add_noise(ms, level, seed=99)
    sigma = level * ms.rms()
    diffs = np.array([out.values[i] - ms.values[i] for i in ms.values])
    observed = math.sqrt(float(np.mean(np.abs(diffs) ** 2)))
    assert sigma / 2 < observed < 2 * sigma


def test_noise_on_lone_negative_order_entry():
    ms = MeasurementSet({(0, 1, -1): 1.0 + 0j}, 0, 1)
    out = add_noise(ms, 1e-2, seed=1)
    assert out.values[ZernikeIndex(0, 1, -1)] != 1.0 + 0j


def test_noise_rejects_negative_level():
    ms = make_ms(np.random.default_rng(36))
    with pytest.raises(ValueError):
        add_noise(ms, -0.1, seed=0)
