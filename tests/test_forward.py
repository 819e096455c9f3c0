"""Measurement simulation: series route, quadrature oracle, noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon3d import forward
from calderon3d.forward import (
    IncompleteSupportError,
    MeasurementSet,
    add_noise,
    forward_measure,
    oracle_measure,
)
from calderon3d.phantoms import PhantomSpec
from calderon3d.quadrature import BallQuadrature
from calderon3d.recon import MissingMeasurementError, TruncationSchedule, big_q, reconstruct
from calderon3d.serialize import dump_measurement_set, load_measurement_set
from calderon3d.zernike import (
    CoefficientField,
    ZernikeIndex,
    project,
    synthesize_ball_grid,
    synthesize_xyz,
)

from reference import add_noise_entrywise, first_unsupported_demand_loop
from test_recon import random_field
from test_zernike import complex_bits

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
    for idx, val in ms.entries.items():
        k, ell, m = idx.k, idx.ell, idx.m
        if m == M and (L - ell) % 2 == 0 and 0 <= (L - ell) // 2 <= k:
            s = (L - ell) // 2
            assert val == pytest.approx(big_q(ell, s, k, m, 0), rel=1e-13), idx
        else:
            assert val == 0, idx


def test_series_is_summed_term_by_term_in_q_s_order():
    # the output files depend on the rounding of the series, so pin its
    # summation order bit for bit: left to right over (q, s) from 0.0,
    # real and imaginary parts separately
    rng = np.random.default_rng(26)
    caps = (8, 6, 4, 2)
    c = random_field(3, caps, rng)
    ms = forward_measure(c, 3, caps)
    assert len(ms.entries) == 164
    for idx, val in ms.entries.items():
        k, ell, m = idx.k, idx.ell, idx.m
        re = im = 0.0
        for q in range(k + 1):
            for s in range(k - q + 1):
                coupling, coeff = big_q(ell, s, k, m, q), c.get(q, ell + 2 * s, m)
                re += coupling * coeff.real
                im += coupling * coeff.imag
        assert (val.real, val.imag) == (re, im), idx


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


@given(
    field_caps=st.lists(st.integers(0, 12), min_size=1, max_size=6),
    caps=st.lists(st.integers(0, 12), min_size=1, max_size=7),
)
@settings(max_examples=300, deadline=None)
def test_support_check_closed_form_matches_the_walk(field_caps, caps):
    # field kmax 0..5 and schedules of up to 7 caps, so q > c.kmax occurs
    c = CoefficientField({}, len(field_caps) - 1, field_caps, certified=False)
    want = first_unsupported_demand_loop(c, tuple(caps))
    assert forward._first_unsupported_demand(c, tuple(caps)) == want


def test_measurement_set_validates_bounds():
    with pytest.raises(ValueError):
        MeasurementSet({(1, 5, 0): 1.0}, 1, (4, 4))
    with pytest.raises(ValueError):
        MeasurementSet({(0, 2, 3): 1.0}, 0, 2)


def test_measurement_set_helpers():
    ms = MeasurementSet({(0, 1, -1): 2.0, (0, 0, 0): 1j}, 0, 1)
    assert ms.get(0, 1, 1) == 0
    assert ms.get(0, 1, 1, default=None) is None
    assert [i.m for i, _ in ms.entries.items()] == [0, -1]
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


def test_oracle_of_a_field_equals_the_oracle_of_its_ball_grid_samples():
    # a CoefficientField is sampled by synthesize_ball_grid, exactly what a
    # callable returning that cube hands the oracle
    quad = BallQuadrature(24, 32, 64)
    c = random_field(2, (9, 7, 5), np.random.default_rng(29))
    cube = synthesize_ball_grid(c, quad)
    grid_x = quad.cartesian_grid()[0]

    def lookup(x, y, z):
        # the cube's rows for the radii asked for, the first found by its x-plane
        first = next(i for i in range(quad.n_r) if np.array_equal(grid_x[i], x[0]))
        return cube[first : first + len(x)]

    closure = oracle_measure(lookup, 2, (9, 7, 5), quad)
    field = oracle_measure(c, 2, (9, 7, 5), quad)
    assert np.array_equal(complex_bits(field.data), complex_bits(closure.data))


def test_basis_phantom_samples_as_its_one_entry_field():
    # the built phantom is the field, so project and the oracle take the
    # same separable path for both, bit for bit
    quad = BallQuadrature(24, 32, 64)
    built = PhantomSpec("basis", index=(2, 3, -2)).build()
    field = CoefficientField({(2, 3, -2): 1.0}, 2, 3)
    for a, b in ((project(built, 2, 5, quad), project(field, 2, 5, quad)),
                 (oracle_measure(built, 2, 5, quad), oracle_measure(field, 2, 5, quad))):
        assert np.array_equal(complex_bits(a.data), complex_bits(b.data))


def test_oracle_rejects_a_rule_one_node_too_coarse():
    # caps (6, 6, 6): the kernel of stage 2 at degree 6 has polar degree 10,
    # so a degree-6 field needs a rule exact to degree 16, 9 polar nodes,
    # and 13 azimuthal ones; one node fewer leaves errors of order 0.1 to 1
    caps = (6, 6, 6)
    c = CoefficientField({(0, 6, 6): 1.0}, 0, 6)
    with pytest.raises(ValueError, match=r"n_theta \(--quad-theta\) must be at least 9, got 8"):
        oracle_measure(c, 2, caps, BallQuadrature(24, 8, 13))
    with pytest.raises(ValueError, match=r"n_phi \(--quad-phi\) must be at least 13, got 12"):
        oracle_measure(c, 2, caps, BallQuadrature(24, 9, 12))
    series = forward_measure(c, 2, caps).data
    oracle = oracle_measure(c, 2, caps, BallQuadrature(24, 9, 13)).data
    assert np.max(np.abs(oracle - series)) <= 1e-11 * np.max(np.abs(series))


def test_oracle_of_zero_field_is_zero():
    zero = lambda x, y, z: np.zeros_like(x)
    assert oracle_measure(zero, 0, 0, QUAD).get(0, 0, 0) == 0
    assert oracle_measure(zero, 2, 3, QUAD).get(2, 3, -2) == 0


def test_oracle_rejects_bad_form_and_shape():
    scalar = lambda x, y, z: 1.0
    with pytest.raises(ValueError):
        oracle_measure(scalar, 0, 0, QUAD)


def test_oracle_self_convergence_on_a_smooth_bump():
    def bump(x, y, z):
        return np.exp(-18.0 * ((x - 0.3) ** 2 + y**2 + (z - 0.55) ** 2))

    coarse = oracle_measure(bump, 0, 0, BallQuadrature(24, 32, 64)).get(0, 0, 0)
    fine = oracle_measure(bump, 0, 0, QUAD).get(0, 0, 0)
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


def assert_noise_equals_reference(ms, level, seed):
    out = add_noise(ms, level, seed)
    want = add_noise_entrywise(ms, level, seed)
    assert list(out.values) == list(want)
    assert np.array_equal(complex_bits(out.values.values()), complex_bits(want.values()))


@pytest.mark.parametrize("caps", [(4, 2), (16, 11, 7, 5, 3)])
def test_noise_equals_the_entrywise_reference_on_dense_sets(caps):
    ms = make_ms(np.random.default_rng(37), K=len(caps) - 1, caps=caps)
    for seed in (0, 11, 2024, 12345):
        assert_noise_equals_reference(ms, 1e-3, seed)


def test_noise_equals_the_entrywise_reference_on_sparse_sets():
    rng = np.random.default_rng(38)
    caps = (6, 4, 2)
    for seed in range(6):
        values = {
            (k, ell, m): complex(rng.normal(), rng.normal())
            for k, cap in enumerate(caps)
            for ell in range(cap + 1)
            for m in range(-ell, ell + 1)
            if rng.uniform() < 0.5
        }
        # a stored signed zero keeps its sign through the sum
        values[(2, 1, -1)] = complex(-0.0, -0.0)
        ms = MeasurementSet(values, 2, caps)
        assert any(i.m < 0 and ZernikeIndex(i.k, i.ell, -i.m) not in ms.values for i in ms.values)
        assert_noise_equals_reference(ms, 1e-2, seed)


def test_presence_survives_a_file_round_trip(tmp_path):
    caps = (6, 4)
    full = make_ms(np.random.default_rng(39), caps=caps)
    values = dict(full.values)
    for key in [(1, 4, -3), (1, 2, 0), (0, 5, 5)]:
        del values[ZernikeIndex(*key)]
    values[ZernikeIndex(1, 3, 1)] = 0j  # a stored zero stays present
    gappy = MeasurementSet(values, 1, caps)
    dump_measurement_set(gappy, tmp_path / "m.json")
    back = load_measurement_set(tmp_path / "m.json")
    assert np.array_equal(back.present, gappy.present) and back.values == gappy.values
    # the first gap in (k ascending, ell descending, m ascending) order
    for ms in (gappy, back):
        with pytest.raises(MissingMeasurementError) as err:
            reconstruct(ms, TruncationSchedule(caps))
        assert err.value.index == (0, 5, 5)
    # a stage past the set's radial bound is missing whole
    stage0 = MeasurementSet({i: v for i, v in full.values.items() if i.k == 0}, 0, caps[:1])
    with pytest.raises(MissingMeasurementError) as err:
        reconstruct(stage0, TruncationSchedule(caps))
    assert err.value.index == (1, 4, -4)
