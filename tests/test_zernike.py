"""Tests for the radial polynomials, ball basis, projection, and synthesis."""

import math
import tracemalloc

import hypothesis as h
import hypothesis.strategies as st
import numpy as np
import pytest

from calderon3d import zernike
from calderon3d.forward import oracle_measure
from calderon3d.quadrature import BallQuadrature, SphereQuadrature
from calderon3d.specfun import DEGREE_CAP, sph_harm
from calderon3d.zernike import (
    CoefficientField,
    ZernikeIndex,
    as_caps,
    basis_gram,
    chi,
    project,
    psi_eval,
    radial_zernike,
    synthesize,
    synthesize_ball_grid,
    synthesize_xyz,
)

from reference import chi_fraction, project_entrywise

QUAD = BallQuadrature()
RNG = np.random.default_rng(414243)


def random_field(kmax, caps, rng, density=1.0, real_sym=False):
    caps = as_caps(kmax, caps)
    entries = {}
    for k in range(kmax + 1):
        for ell in range(caps[k] + 1):
            for m in range(-ell, ell + 1):
                if rng.uniform() > density:
                    continue
                if real_sym and m < 0:
                    continue
                val = complex(rng.normal(), rng.normal())
                if real_sym:
                    if m == 0:
                        val = complex(val.real, 0.0)
                    else:
                        entries[(k, ell, -m)] = (-1) ** m * val.conjugate()
                entries[(k, ell, m)] = val
    return CoefficientField(entries, kmax, caps)


# ------------------------------------------------------------- index type


def test_zernike_index_validation_and_order():
    ZernikeIndex(0, 3, -3)
    with pytest.raises(ValueError):
        ZernikeIndex(0, 2, 3)
    with pytest.raises(ValueError):
        ZernikeIndex(-1, 2, 0)
    assert ZernikeIndex(0, 5, 5) < ZernikeIndex(1, 0, 0)


# ------------------------------------------------------- radial polynomials


def test_radial_zernike_constant_and_pure_power():
    rr = np.linspace(0, 1, 7)
    assert radial_zernike(0, 0, 0.37) == pytest.approx(math.sqrt(3), rel=1e-15)
    for ell in [0, 1, 4, 9]:
        vals = radial_zernike(ell, 0, rr)
        ref = math.sqrt(2 * ell + 3) * rr**ell
        assert np.max(np.abs(vals - ref)) < 1e-13


def test_radial_zernike_frozen_values():
    # symbolic-formula references at 22 digits
    assert radial_zernike(2, 1, 0.6) == pytest.approx(-2.2446916581125346, rel=1e-13)
    assert radial_zernike(3, 2, 0.8) == pytest.approx(-1.0998466718447631, rel=1e-13)
    assert radial_zernike(1, 3, 0.25) == pytest.approx(-4.2867596250780783, rel=1e-13)
    assert radial_zernike(5, 0, 0.9) == pytest.approx(2.1290419726487313, rel=1e-14)


def test_radial_zernike_matches_exact_monomial_form():
    # recurrence evaluation vs the explicit monomial sum carried out in
    # exact rational arithmetic at rational radii
    from fractions import Fraction

    from calderon3d.zernike import _radial_coeff_fractions

    for ell, k in [(0, 0), (2, 1), (3, 2), (12, 8), (7, 5), (30, 7)]:
        fracs = _radial_coeff_fractions(ell, k)
        scale = math.sqrt(2 * ell + 4 * k + 3)
        for j in range(17):
            rq = Fraction(j, 16)
            acc = fracs[0]
            for c in fracs[1:]:
                acc = acc * rq * rq + c
            exact = float(acc * rq**ell) * scale
            got = radial_zernike(ell, k, j / 16)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_radial_rows_equal_radial_zernike():
    # one recurrence yields every k; each row must be the single-k value bit for bit
    rr = np.concatenate([[0.0, 1.0], np.random.default_rng(17).uniform(0, 1, 50)])
    for ell in (0, 1, 7, 30, 48):
        rows = zernike._radial_zernike_rows(ell, 9, rr)
        assert rows.shape == (10, rr.size)
        for k in range(10):
            assert np.array_equal(rows[k], radial_zernike(ell, k, rr)), (ell, k)


def test_radial_zernike_domain_error():
    with pytest.raises(ValueError):
        radial_zernike(2, 1, 1.0001)
    with pytest.raises(ValueError):
        radial_zernike(2, 1, -0.2)
    with pytest.raises(ValueError, match="nonnegative"):
        radial_zernike(-1, 1, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        radial_zernike(2, -1, 0.5)


@h.given(
    ell=st.integers(min_value=0, max_value=12),
    k=st.integers(min_value=0, max_value=8),
    kp=st.integers(min_value=0, max_value=8),
)
@h.settings(max_examples=60, deadline=None)
def test_radial_orthonormality(ell, k, kp):
    ip = np.sum(QUAD.r_weights * radial_zernike(ell, k, QUAD.r) * radial_zernike(ell, kp, QUAD.r))
    assert abs(ip - (1.0 if k == kp else 0.0)) <= 1e-10


# ------------------------------------------------------------------- chi


def test_chi_base_case_and_errors():
    for ell in [0, 1, 5, 12]:
        assert chi(ell, 0, 0) == pytest.approx(1 / math.sqrt(2 * ell + 3), rel=1e-15)
    with pytest.raises(ValueError):
        chi(2, 1, 2)
    with pytest.raises(ValueError):
        chi(2, 1, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        chi(-1, 0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        chi(2, -1, 0)


def test_chi_frozen_values():
    assert chi(2, 3, 1) == pytest.approx(0.1020499935493969, rel=1e-14)
    assert chi(4, 2, 2) == pytest.approx(0.0071973563567235064, rel=1e-14)
    assert chi(1, 5, 3) == pytest.approx(0.0194514786996558, rel=1e-14)
    assert chi(10, 6, 0) == pytest.approx(0.1370237578089348, rel=1e-14)


def test_chi_equals_its_rational_form():
    # every (ell, p, q) a coupling operator with kmax <= 11 at DEGREE_CAP reads
    for p in range(12):
        for q in range(p + 1):
            for ell in range(DEGREE_CAP + 2 * 11 + 1):
                assert chi(ell, p, q) == chi_fraction(ell, p, q), (ell, p, q)


def test_chi_is_radial_inner_product():
    # chi_l^{p,q} equals <r^{l+2p}, R_l^q> in the weighted radial inner product
    for ell, p, q in [(2, 3, 1), (0, 2, 2), (5, 4, 0), (3, 6, 5)]:
        ip = np.sum(QUAD.r_weights * QUAD.r ** (ell + 2 * p) * radial_zernike(ell, q, QUAD.r))
        assert chi(ell, p, q) == pytest.approx(float(ip), abs=1e-12)


@h.given(ell=st.integers(min_value=0, max_value=10), p=st.integers(min_value=0, max_value=6))
@h.settings(max_examples=40, deadline=None)
def test_monomial_expansion(ell, p):
    rr = np.linspace(0.0, 1.0, 50)
    acc = np.zeros_like(rr)
    for q in range(p + 1):
        acc += chi(ell, p, q) * radial_zernike(ell, q, rr)
    assert np.max(np.abs(acc - rr ** (ell + 2 * p))) <= 1e-11


# ------------------------------------------------------------------- psi


def test_psi_constant_and_solid_harmonic():
    assert psi_eval(0, 0, 0, 0.3, 1.0, 2.0) == pytest.approx(
        math.sqrt(3) / math.sqrt(4 * math.pi), rel=1e-14
    )
    # k = 0 gives the regular solid harmonics sqrt(2l+3) r^l Y_l^m
    for ell, m in [(1, 0), (3, -2), (5, 4)]:
        r, th, ph = 0.77, 1.1, 2.9
        ref = math.sqrt(2 * ell + 3) * r**ell * sph_harm(ell, m, th, ph)
        assert psi_eval(0, ell, m, r, th, ph) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(ValueError, match="order out of range"):
        psi_eval(0, 2, 3, 0.5, 1.0, 2.0)


def test_psi_gram_identity():
    indices, gram = basis_gram(QUAD, 8)
    dev = np.max(np.abs(gram - np.eye(len(indices))))
    assert dev <= 1e-9


def test_psi_gram_matches_direct_evaluation():
    # factored Gram equals brute-force psi products on the quadrature grid
    quad = BallQuadrature(n_r=12, n_theta=16, n_phi=32)
    indices, gram = basis_gram(quad, 3)
    th, ph = quad.sphere.grid()
    r = quad.r[:, None, None]
    w = (
        quad.r_weights[:, None, None]
        * quad.theta_weights[None, :, None]
        * np.full(quad.n_phi, quad.phi_weight)[None, None, :]
    )
    vals = [psi_eval(i.k, i.ell, i.m, r, th[None], ph[None]).ravel() for i in indices]
    vals = np.array(vals)
    direct = (vals * w.ravel()) @ np.conj(vals.T)
    assert np.max(np.abs(direct - gram)) <= 1e-12


# ------------------------------------------------------------ field object


def test_field_bounds_checking():
    CoefficientField({(1, 2, -2): 1.0}, kmax=1, degree_caps=(0, 2))
    with pytest.raises(ValueError):
        CoefficientField({(2, 0, 0): 1.0}, kmax=1, degree_caps=(0, 2))
    with pytest.raises(ValueError):
        CoefficientField({(0, 1, 0): 1.0}, kmax=1, degree_caps=(0, 2))
    with pytest.raises(ValueError, match="need 2 per-k degree caps, got 3"):
        CoefficientField({}, kmax=1, degree_caps=(0, 2, 4))
    with pytest.raises(ValueError, match="nonnegative"):
        as_caps(-1, 3)


def test_field_rejects_a_repeated_index():
    # a tuple key and a ZernikeIndex key name one index, as two file rows can
    entries = {(0, 0, 0): 1.0, ZernikeIndex(0, 0, 0): 2.0}
    with pytest.raises(ValueError, match=r"entry \(k=0, ell=0, m=0\) appears more than once"):
        CoefficientField(entries, 0, 0)


def test_quadratures_reject_nonpositive_orders():
    with pytest.raises(ValueError, match="positive"):
        SphereQuadrature(0)
    with pytest.raises(ValueError, match="positive"):
        BallQuadrature(0)


def test_radial_bound_stops_at_degree_cap():
    # so no container, and no file the tool writes, declares stages past it
    assert as_caps(DEGREE_CAP, 0) == (0,) * (DEGREE_CAP + 1)
    with pytest.raises(ValueError, match="DEGREE_CAP"):
        as_caps(DEGREE_CAP + 1, 0)
    with pytest.raises(ValueError, match="DEGREE_CAP"):
        CoefficientField({}, kmax=10**10, degree_caps=0)
    with pytest.raises(ValueError, match="DEGREE_CAP"):
        CoefficientField({}, 0, DEGREE_CAP + 1)


def complex_bits(values) -> np.ndarray:
    """The bit patterns of the real and imaginary parts, so -0.0 != 0.0."""
    return np.array([complex(v) for v in values]).view(np.int64)


def test_entries_view_is_a_sorted_read_only_mapping():
    f = CoefficientField({(1, 0, 0): 2.0, (0, 1, 1): 1j, (0, 1, -1): 0j}, 1, (1, 0))
    view = f.entries
    assert len(view) == 3
    assert list(view) == [ZernikeIndex(0, 1, -1), ZernikeIndex(0, 1, 1), ZernikeIndex(1, 0, 0)]
    assert view[ZernikeIndex(0, 1, 1)] == 1j
    assert ZernikeIndex(0, 1, -1) in view  # a stored zero is present
    assert ZernikeIndex(0, 1, 0) not in view  # in bounds, but never stored
    assert ZernikeIndex(0, 5, 0) not in view and (0, 1, 1) not in view
    assert view.get(ZernikeIndex(0, 1, 0)) is None
    assert f.get(0, 1, 0) == 0 and f.get(0, 1, -1, default=None) == 0
    with pytest.raises(KeyError):
        view[ZernikeIndex(0, 0, 0)]
    with pytest.raises(TypeError):
        view[ZernikeIndex(0, 0, 0)] = 1.0
    with pytest.raises(ValueError):
        f.data[0] = 1.0
    with pytest.raises(AttributeError):
        f.kmax = 2
    assert f.values == view
    back = CoefficientField(dict(view), f.kmax, f.degree_caps)
    assert np.array_equal(back.data, f.data) and np.array_equal(back.present, f.present)
    assert back.entries == view


def test_field_get_and_norms():
    f = CoefficientField({(0, 1, 1): 3 + 4j, (1, 0, 0): 1.0}, 1, (1, 0))
    assert f.get(0, 1, 1) == 3 + 4j
    assert f.get(0, 1, -1) == 0
    assert f.norm() == pytest.approx(math.sqrt(26))
    assert f.norms_per_k() == pytest.approx([5.0, 1.0])


def test_field_conjugate_symmetry_error():
    sym = random_field(1, 3, RNG, real_sym=True)
    assert sym.conjugate_symmetry_error() <= 1e-15
    asym = CoefficientField({(0, 1, 1): 1.0, (0, 1, -1): 1.0}, 0, (1,))
    assert asym.conjugate_symmetry_error() == pytest.approx(2.0)


# -------------------------------------------------------------- projection


def test_project_single_basis_function():
    target = ZernikeIndex(1, 2, 1)

    def eta(x, y, z):
        r = np.sqrt(x * x + y * y + z * z)
        theta = np.arccos(np.where(r > 0, z / np.where(r > 0, r, 1), 1.0))
        phi = np.mod(np.arctan2(y, x), 2 * np.pi)
        return psi_eval(target.k, target.ell, target.m, r, theta, phi)

    field = project(eta, kmax=2, degree_caps=4, quad=QUAD)
    assert not field.certified
    for idx, val in field.entries.items():
        want = 1.0 if idx == target else 0.0
        assert abs(val - want) <= 1e-10


def test_project_equals_the_entrywise_reference():
    def eta(x, y, z):
        return np.exp(-50.0 * ((x - 0.1) ** 2 + (y + 0.2) ** 2 + (z - 0.25) ** 2))

    caps = (16, 11, 7, 5, 3)
    got = project(eta, 4, caps, QUAD)
    want = project_entrywise(eta, 4, caps, QUAD)
    assert list(got.entries) == sorted(want)
    assert np.array_equal(
        complex_bits(got.entries.values()), complex_bits(want[i] for i in got.entries)
    )


def test_project_rejects_a_rule_one_node_too_coarse():
    # at lmax = 16 the products Y_l^m conj(Y_l'^m) need 17 polar nodes and
    # 33 azimuthal ones; one node fewer aliases this degree-16 field by O(1)
    caps = (16, 11, 7, 5, 3)
    field = CoefficientField({(0, 16, 5): 1.0}, 0, 16)
    with pytest.raises(ValueError, match=r"n_theta \(--quad-theta\) must be at least 17, got 16"):
        project(field, 4, caps, BallQuadrature(24, 16, 33))
    with pytest.raises(ValueError, match=r"n_phi \(--quad-phi\) must be at least 33, got 32"):
        project(field, 4, caps, BallQuadrature(24, 17, 32))
    got = project(field, 4, caps, BallQuadrature(24, 17, 33))
    want = CoefficientField({(0, 16, 5): 1.0}, 4, caps)
    assert np.max(np.abs(got.data - want.data)) <= 1e-12


def test_project_zero_field():
    field = project(lambda x, y, z: np.zeros_like(x), 1, 2, QUAD)
    assert all(abs(v) == 0.0 for v in field.entries.values())


def test_project_rejects_a_field_of_the_wrong_shape():
    # project samples like the oracle: the field must return the grid's shape
    with pytest.raises(ValueError):
        project(lambda x, y, z: 1.0, 0, 0, QUAD)


def gaussian_bump(x, y, z):
    return np.exp(-50.0 * ((x - 0.1) ** 2 + (y + 0.2) ** 2 + (z - 0.25) ** 2))


def test_a_callable_is_sampled_a_block_of_radii_at_a_time():
    # each call sees at most _SHELLS whole shells, and the calls together
    # cover the grid's nodes once, in order, bit for bit
    quad = BallQuadrature(10, 16, 32)
    whole = quad.cartesian_grid()
    for a, b in ((0, 4), (3, 7), (8, 10), (9, 20)):
        part = quad.cartesian_grid(slice(a, b))
        for got, want in zip(part, whole):
            assert np.array_equal(got.view(np.uint64), want[a:b].view(np.uint64))
    for measure in (project, oracle_measure):
        calls = []

        def eta(x, y, z):
            calls.append((x.copy(), y.copy(), np.array(z)))
            return gaussian_bump(x, y, z)

        measure(eta, 1, 3, quad)
        assert all(len(x) <= zernike._SHELLS for x, _, _ in calls)
        assert all(x.shape[1:] == (quad.n_theta, quad.n_phi) for x, _, _ in calls)
        for axis, want in enumerate(whole):
            got = np.concatenate([call[axis] for call in calls])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), measure


def test_sampling_memory_does_not_grow_with_the_radial_order():
    # doubling the radii may grow the traced peak of project and the oracle
    # by little more than their output F[i, j, m], not by a cube of samples
    caps = (6, 6, 6)

    def peak(measure, n_r):
        quad = BallQuadrature(n_r, 32, 64)
        measure(gaussian_bump, 2, caps, quad)
        tracemalloc.start()
        try:
            measure(gaussian_bump, 2, caps, quad)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    f_growth = 48 * 32 * (2 * max(caps) + 1) * np.dtype(complex).itemsize
    for measure in (project, oracle_measure):
        growth = peak(measure, 96) - peak(measure, 48)
        print(f"{measure.__name__}: peak grows {growth / 2**20:.2f} MiB, "
              f"F {f_growth / 2**20:.2f} MiB")
        assert growth <= 1.5 * f_growth, measure


def test_project_real_field_has_conjugate_symmetry():
    def eta(x, y, z):
        return np.exp(-3.0 * ((x - 0.2) ** 2 + y**2 + (z + 0.1) ** 2))

    field = project(eta, 2, 6, QUAD)
    assert field.conjugate_symmetry_error() <= 1e-10


def test_project_then_synthesize_polynomial():
    # a low-degree polynomial lies in the span, so the round trip is exact
    def eta(x, y, z):
        return 0.3 + x * y - 0.5 * z**2 + x**2 * (y - 1.0) * z

    field = project(eta, 2, 4, QUAD)
    pts = RNG.uniform(-0.5, 0.5, size=(40, 3))
    vals = synthesize_xyz(field, pts[:, 0], pts[:, 1], pts[:, 2])
    ref = eta(pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.max(np.abs(vals - ref)) <= 1e-9


def test_project_recovers_explicit_expansion():
    src = random_field(2, (4, 3, 2), RNG)

    def eta(x, y, z):
        return synthesize_xyz(src, x, y, z)

    back = project(eta, 2, (4, 3, 2), QUAD)
    for idx, val in src.entries.items():
        assert abs(back.entries[idx] - val) <= 1e-9


# --------------------------------------------------------------- synthesis


def test_synthesize_constant_field():
    f = CoefficientField({(0, 0, 0): 1.0}, 0, (0,))
    v = synthesize(f, 0.5, 1.0, 2.0)
    assert v == pytest.approx(math.sqrt(3) / math.sqrt(4 * math.pi), rel=1e-14)


def test_synthesize_partial_sum_modes():
    f = CoefficientField({(0, 0, 0): 1.0, (2, 1, 0): 2.0}, 2, (0, 0, 1))
    r, th, ph = 0.4, 0.9, 0.1
    full = synthesize(f, r, th, ph)
    k0 = synthesize(f, r, th, ph, mode=0)
    ref0 = psi_eval(0, 0, 0, r, th, ph).real
    assert k0 == pytest.approx(ref0, rel=1e-13)
    k2 = synthesize(f, r, th, ph, mode=2)
    assert k2 == pytest.approx(full.real, rel=1e-13)
    # truncation below every stored k gives the empty sum
    g = CoefficientField({(2, 1, 0): 2.0}, 2, (0, 0, 1))
    assert synthesize(g, r, th, ph, mode=1) == 0.0


def high_degree_case():
    """A random complex, non-symmetric field at caps (30, 26, 22) and random
    points whose count is not a multiple of the synthesis block."""
    rng = np.random.default_rng(302622)
    field = random_field(2, (30, 26, 22), rng)
    n = zernike._BLOCK + 301
    r = rng.uniform(0, 1, n)
    th = rng.uniform(0, math.pi, n)
    ph = rng.uniform(0, 2 * math.pi, n)
    return field, r, th, ph


def psi_sum(field, r, th, ph, mode="full"):
    total = sum(
        val * psi_eval(idx.k, idx.ell, idx.m, r, th, ph)
        for idx, val in field.entries.items()
        if mode == "full" or idx.k <= mode
    )
    return total if mode == "full" else total.real


@pytest.mark.parametrize("case", ["degree_3", "caps_30_26_22"])
def test_synthesize_matches_psi_sum(case):
    if case == "caps_30_26_22":
        field, r, th, ph = high_degree_case()
        for mode in ("full", 1):
            ref = psi_sum(field, r, th, ph, mode)
            got = synthesize(field, r, th, ph, mode=mode)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), mode
        return
    field = random_field(2, 3, RNG, density=0.6)
    for _ in range(5):
        r = float(RNG.uniform(0, 1))
        th = float(RNG.uniform(0.1, math.pi - 0.1))
        ph = float(RNG.uniform(0, 2 * math.pi))
        ref = sum(
            val * psi_eval(idx.k, idx.ell, idx.m, r, th, ph)
            for idx, val in field.entries.items()
        )
        assert synthesize(field, r, th, ph) == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_horner_sums_are_within_their_forward_error_bound():
    # Horner's rule for sum_{mu <= N} b_mu w^mu takes N complex products,
    # each within sqrt(2) gamma_2 (Higham, lemma 3.5), and N sums, each
    # within u, so its error is at most ((1 + sqrt(2) gamma_2)(1 + u))^N - 1
    # times sum |b_mu| |w|^mu (Higham, sec. 5.1).  The reference is the sum
    # in long double, whose own error is below 1e-3 of that bound.
    assert np.finfo(np.longdouble).eps < 1e-18
    rng = np.random.default_rng(128)
    special = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi - 1e-12])
    phi = np.concatenate([special, rng.uniform(0.0, 2 * math.pi, 5000)])
    w = np.cos(phi) + 1j * np.sin(phi)
    re, im = rng.standard_normal((2, DEGREE_CAP + 1, phi.size))
    u = np.finfo(float).eps / 2
    step = math.sqrt(2) * 2 * u / (1 - 2 * u) * (1 + u) + u  # (1 + sqrt(2) gamma_2)(1 + u) - 1
    power = np.ones(phi.size, dtype=np.clongdouble)
    exact = np.zeros(phi.size, dtype=np.clongdouble)
    scale = np.zeros(phi.size)
    worst = 0.0
    for top in range(DEGREE_CAP + 1):  # every order N
        exact += (re[top] + 1j * im[top]) * power
        scale += np.hypot(re[top], im[top]) * np.abs(w) ** top
        power *= w
        got = zernike._horner(re[: top + 1], im[: top + 1], np.arange(phi.size), w)
        err = np.abs((got - exact).astype(complex))
        bound = math.expm1(top * math.log1p(step)) * scale
        assert np.all(err <= bound), top  # exact at N = 0, where the bound is 0
        worst = max(worst, float(np.max(err / np.where(top, bound, 1.0))))
    print(f"worst Horner error {worst:.3f} of the forward-error bound")
    assert worst >= 1e-3  # the bound is not vacuous


def slice_points(axis, offset, n):
    """The in-ball points of an n x n slice, as ``calderon3d slice`` samples it."""
    u = np.linspace(-1.0, 1.0, n)
    uu, vv = (a.ravel() for a in np.meshgrid(u, u, indexing="ij"))
    flat = np.full(n * n, offset)
    x, y, z = {"x": (flat, uu, vv), "z": (uu, vv, flat)}[axis]
    inside = x * x + y * y + z * z <= 1.0
    return x[inside], y[inside], z[inside]


def test_slices_at_L_match_psi_sums():
    # at L the phase recurrence runs to mu = 48 at every point.  The 201^2
    # z = 0 slice puts 5,310 rings on theta = pi/2, which the ring stage takes
    # as cones; 100 of its points are compared.
    caps = (48, 44, 40, 36, 32, 28, 24, 20)
    field = random_field(7, caps, np.random.default_rng(4844), real_sym=True)
    planes = [slice_points(*plane, 25) for plane in (("z", 0.0), ("z", 0.3), ("x", 0.0))]
    big = slice_points("z", 0.0, 201)
    sample = np.random.default_rng(201).choice(big[0].size, 100, replace=False)
    planes.append(tuple(a[sample] for a in big))
    # one psi_eval pass over the four point sets
    r, th, ph = zernike._spherical_from_cartesian(*map(np.concatenate, zip(*planes)))
    bounds = np.cumsum([0] + [len(p[0]) for p in planes])
    for mode in ("full", 2):
        ref = psi_sum(field, r, th, ph, mode)
        outs = [synthesize_xyz(field, *plane, mode=mode) for plane in planes[:-1]]
        outs.append(synthesize_xyz(field, *big, mode=mode)[sample])
        for got, lo, hi in zip(outs, bounds, bounds[1:]):
            want = ref[lo:hi]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (lo, mode)


@pytest.mark.parametrize("case", ["degree_3", "caps_30_26_22"])
def test_synthesize_ball_grid_matches_pointwise(case):
    if case == "caps_30_26_22":
        field = high_degree_case()[0]
        quad = BallQuadrature(n_r=7, n_theta=9, n_phi=20)
        r = quad.r[:, None, None]
        th, ph = (np.broadcast_to(a, (7, 9, 20)) for a in quad.sphere.grid())
        for mode in ("full", 1):
            direct = synthesize(field, r, th, ph, mode=mode)
            cube = synthesize_ball_grid(field, quad, mode=mode)
            assert np.max(np.abs(cube - direct)) <= 1e-12 * np.max(np.abs(direct)), mode
        return
    field = random_field(2, 3, RNG, density=0.5)
    quad = BallQuadrature(n_r=6, n_theta=8, n_phi=16)
    cube = synthesize_ball_grid(field, quad)
    th, ph = quad.sphere.grid()
    direct = synthesize(
        field,
        quad.r[:, None, None],
        np.broadcast_to(th, (6, 8, 16)),
        np.broadcast_to(ph, (6, 8, 16)),
    )
    assert np.max(np.abs(cube - direct)) <= 1e-12
    # real partial sums agree too
    cube0 = synthesize_ball_grid(field, quad, mode=1)
    direct0 = synthesize(
        field,
        quad.r[:, None, None],
        np.broadcast_to(th, (6, 8, 16)),
        np.broadcast_to(ph, (6, 8, 16)),
        mode=1,
    )
    assert np.max(np.abs(cube0 - direct0)) <= 1e-12


def test_synthesize_empty_and_scalar_inputs():
    field, r, th, ph = high_degree_case()
    full = synthesize(field, r, th, ph)
    part = synthesize(field, r, th, ph, mode=1)
    empty = np.zeros(0)
    out = synthesize(field, empty, empty, empty)
    assert out.shape == (0,) and out.dtype == complex
    out = synthesize(field, empty, empty, empty, mode=1)
    assert out.shape == (0,) and out.dtype == float
    for i in (0, zernike._BLOCK, len(r) - 1):
        one = synthesize(field, r[i], th[i], ph[i])
        assert isinstance(one, complex)
        assert abs(one - full[i]) <= 1e-12 * np.max(np.abs(full))
        one = synthesize(field, r[i], th[i], ph[i], mode=1)
        assert isinstance(one, float)
        assert abs(one - part[i]) <= 1e-12 * np.max(np.abs(part))
    # the output keeps the broadcast input shape
    grid = synthesize(field, r[:6].reshape(2, 3), th[:6].reshape(2, 3), 0.5)
    assert grid.shape == (2, 3)


@pytest.mark.parametrize("mode", [-1, True, False, 1.0, "0"])
def test_synthesize_rejects_negative_boolean_and_non_integer_modes(mode):
    f = random_field(1, 2, np.random.default_rng(5))
    with pytest.raises(ValueError, match="nonnegative integer"):
        synthesize(f, 0.1, 0.2, 0.3, mode=mode)
    with pytest.raises(ValueError, match="nonnegative integer"):
        synthesize_ball_grid(f, BallQuadrature(n_r=2, n_theta=2, n_phi=4), mode=mode)


def test_synthesis_working_memory_is_bounded_in_the_point_count():
    # doubling the points may grow the peak by the output and a few per-point
    # arrays, not by tables over every point.  On one polar angle every ring
    # block is a cone, whose radial stack and fold are bounded by the block.
    field = random_field(2, (20, 16, 12), np.random.default_rng(201612))
    rng = np.random.default_rng(7)

    def scattered(n):
        synthesize_xyz(field, *rng.uniform(-0.57, 0.57, size=(3, n)))

    def one_theta(n):
        synthesize(field, rng.uniform(0, 1, n), np.full(n, 1.1), rng.uniform(0, 2 * math.pi, n))

    def peak(evaluate, n):
        tracemalloc.start()
        try:
            evaluate(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    output_growth = 50_000 * np.dtype(complex).itemsize
    for evaluate in (scattered, one_theta):
        assert peak(evaluate, 100_000) - peak(evaluate, 50_000) <= 8 * output_growth, evaluate


def test_cone_synthesis_peak_is_set_by_chebyshev_rows():
    # On the z = 0 plane at caps 66, 64, ..., 48 every ring but the origin's
    # lies on a cone, taken _CONE rings at a time.  Besides ~24 float64 per
    # point (coordinates, ring indices, the output), synthesis may keep one
    # piece's amplitudes, a fold of D + 1 columns and a few tables of D + 1
    # rows over a piece, D = 66 the largest degree ell + 2k; neither a table
    # with a row per (ell, k) pair, 580 of them, nor buffers _BLOCK rings
    # wide fit.
    caps = tuple(range(66, 47, -2))
    field = random_field(9, caps, np.random.default_rng(6648))
    x, y, z = slice_points("z", 0.0, 201)
    lmax = top = 66
    bound = 8 * (24 * x.size + 4 * (lmax + 1) * (zernike._CONE + top + 1)
                 + 4 * (top + 1) * zernike._CONE)
    tracemalloc.start()
    try:
        synthesize_xyz(field, x, y, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"traced peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB")
    assert peak <= bound


def ring_points(rng, n_rings, n):
    """``n`` points on ``n_rings`` random (r, theta) rings, each ring hit at
    least once, at random azimuths."""
    r = rng.uniform(0, 1, n_rings)
    th = rng.uniform(0, math.pi, n_rings)
    pick = np.concatenate([np.arange(n_rings), rng.integers(0, n_rings, n - n_rings)])
    return r[pick], th[pick], rng.uniform(0, 2 * math.pi, n)


def test_a_points_value_does_not_depend_on_its_batch():
    # more rings and points than one block.  The caps keep every per-degree
    # GEMM small: past about 10^6 multiply-adds BLAS may round a block's last
    # columns apart from the same columns inside a full block, and a subset
    # moves rings across block boundaries.
    rng = np.random.default_rng(2024)
    field = random_field(2, (12, 10, 8), rng)
    r, th, ph = ring_points(rng, zernike._BLOCK + 500, 2 * zernike._BLOCK + 900)
    n = r.size
    for mode in ("full", 1):
        ref = synthesize(field, r, th, ph, mode=mode)
        perm = rng.permutation(n)
        assert np.array_equal(synthesize(field, r[perm], th[perm], ph[perm], mode=mode), ref[perm])
        dup = np.concatenate([np.arange(n), rng.integers(0, n, 700)])
        assert np.array_equal(synthesize(field, r[dup], th[dup], ph[dup], mode=mode), ref[dup])
        for size in (1, 2, 3, 257, n // 2):
            sub = rng.choice(n, size, replace=False)
            got = synthesize(field, r[sub], th[sub], ph[sub], mode=mode)
            assert np.array_equal(got, ref[sub]), (mode, size)
        for i in rng.choice(n, 3, replace=False):
            assert synthesize(field, r[i], th[i], ph[i], mode=mode) == ref[i]
    # cones: two polar angles with more rings each than a block holds, among
    # random rings; shuffles and duplicates keep every cone
    r, th, ph = cone_points(rng, (math.pi / 2, 0.7), zernike._BLOCK + 300, 1500)
    n = r.size
    for mode in ("full", 1):
        ref = synthesize(field, r, th, ph, mode=mode)
        perm = rng.permutation(n)
        assert np.array_equal(synthesize(field, r[perm], th[perm], ph[perm], mode=mode), ref[perm])
        dup = np.concatenate([np.arange(n), rng.integers(0, n, 700)])
        assert np.array_equal(synthesize(field, r[dup], th[dup], ph[dup], mode=mode), ref[dup])


def cone_points(rng, thetas, n_cone, n_other):
    """``n_cone`` rings at random radii on each polar angle in ``thetas``,
    then ``n_other`` random rings, one point each at a random azimuth."""
    th = np.concatenate([np.repeat(thetas, n_cone), rng.uniform(0, math.pi, n_other)])
    return rng.uniform(0, 1, th.size), th, rng.uniform(0, 2 * math.pi, th.size)


def test_cones_match_the_ring_path():
    # pieces of fewer than _CONE points hold theta-runs too short for a cone, so
    # they take the per-degree ring path.  The random rings below theta = 3
    # fill the first ring block, so the first cone starts in a later one.
    rng = np.random.default_rng(2016)
    field = random_field(2, (20, 16, 12), rng)
    r, th, ph = cone_points(rng, (3.0, 3.1), zernike._BLOCK + 700, 2600)
    assert np.count_nonzero(th < 3.0) > zernike._BLOCK
    pieces = np.arange(zernike._CONE - 1, r.size, zernike._CONE - 1)
    for mode in ("full", 1):
        cone = synthesize(field, r, th, ph, mode=mode)
        ring = np.concatenate([synthesize(field, *p, mode=mode)
                               for p in zip(*(np.split(a, pieces) for a in (r, th, ph)))])
        assert np.max(np.abs(cone - ring)) <= 1e-14 * np.max(np.abs(ring)), mode


def test_cones_across_block_edges_stay_on_the_cone_path(monkeypatch):
    # 1,800 random rings, then a cone of _BLOCK + 300 rings on theta = 3.1
    # that spans three _BLOCK-ring stretches: only the random rings take the
    # per-degree path, and the cone's values agree with that path
    rng = np.random.default_rng(1800)
    field = random_field(2, (20, 16, 12), rng)
    n_random = 1800
    th = np.concatenate([rng.uniform(0, 3.0, n_random), np.full(zernike._BLOCK + 300, 3.1)])
    r, ph = rng.uniform(0, 1, th.size), rng.uniform(0, 2 * math.pi, th.size)
    pieces = np.arange(zernike._CONE - 1, r.size, zernike._CONE - 1)
    received = []
    degrees = zernike._degrees

    def counting(mats, r, x):
        received.append(len(r))
        return degrees(mats, r, x)

    for mode in ("full", 1):
        ring = np.concatenate([synthesize(field, *p, mode=mode)
                               for p in zip(*(np.split(a, pieces) for a in (r, th, ph)))])
        received.clear()
        with monkeypatch.context() as patch:
            patch.setattr(zernike, "_degrees", counting)
            cone = synthesize(field, r, th, ph, mode=mode)
        assert received == [n_random], mode
        assert np.max(np.abs(cone - ring)) <= 1e-14 * np.max(np.abs(ring)), mode


def test_ring_stage_runs_once_per_distinct_ring(monkeypatch):
    received = []
    degrees = zernike._degrees

    def counting(mats, r, x):
        received.append(len(r))
        return degrees(mats, r, x)

    monkeypatch.setattr(zernike, "_degrees", counting)
    field = random_field(1, (6, 4), np.random.default_rng(64))
    quad = BallQuadrature(n_r=7, n_theta=9, n_phi=20)
    th, ph = (np.broadcast_to(a, (7, 9, 20)) for a in quad.sphere.grid())
    synthesize(field, quad.r[:, None, None], th, ph)
    assert sum(received) == quad.n_r * quad.n_theta

    # the z = 0 plane of a 201^2 slice, as `calderon3d slice` samples it
    u = np.linspace(-1.0, 1.0, 201)
    x, y = np.meshgrid(u, u, indexing="ij")
    inside = x * x + y * y <= 1.0
    x, y, z = x[inside], y[inside], np.zeros(int(inside.sum()))
    r, th, _ = zernike._spherical_from_cartesian(x, y, z)
    radii = []
    rows = zernike._chebyshev_rows

    def counting_rows(r, out):
        radii.append(r)
        return rows(r, out)

    monkeypatch.setattr(zernike, "_chebyshev_rows", counting_rows)
    received.clear()
    synthesize_xyz(field, x, y, z)
    rings = len(set(zip(r.tolist(), th.tolist())))
    print(f"z = 0 slice: {x.size} points on {rings} rings")
    # every ring but the origin's lies on theta = pi/2, a cone: only the
    # origin ring, repeated to two columns, reaches the per-degree path, and
    # the cones evaluate their Chebyshev rows once per distinct radius
    assert received == [2] and rings == np.unique(r).size < x.size // 5
    assert np.array_equal(np.sort(np.concatenate(radii)), np.unique(r[r > 0]))


def test_ring_heavy_synthesis_keeps_working_memory_bounded():
    # every point lies on one of 64 rings: gathering the ring amplitudes
    # per point must not build a table over every point
    field = random_field(2, (20, 16, 12), np.random.default_rng(201612))
    rng = np.random.default_rng(8)
    ring_r, ring_th = rng.uniform(0, 1, 64), rng.uniform(0, math.pi, 64)

    def peak(n):
        pick = rng.integers(0, 64, n)
        r, th, ph = ring_r[pick], ring_th[pick], rng.uniform(0, 2 * math.pi, n)
        tracemalloc.start()
        try:
            synthesize(field, r, th, ph)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    output_growth = 50_000 * np.dtype(complex).itemsize
    assert peak(100_000) - peak(50_000) <= 8 * output_growth


def test_bad_points_raise_or_give_nan():
    rng = np.random.default_rng(99)
    field = random_field(1, (5, 3), rng)
    r, th, ph = ring_points(rng, 40, 200)
    ref = synthesize(field, r, th, ph)
    # a radius outside [0, 1] raises, wherever it sits among the rings
    for bad in (1.0 + 1e-12, 2.0, -0.5):
        for at in (0, 100, 200):
            with pytest.raises(ValueError, match="radius out of domain"):
                synthesize(field, np.insert(r, at, bad), np.insert(th, at, 0.3),
                           np.insert(ph, at, 0.1))
    with pytest.raises(ValueError, match="radius out of domain"):
        synthesize_xyz(field, [0.1, 0.9], [0.0, 0.9], [0.0, 0.0])
    # also on a cone: 700 rings on theta = 1, one of them at r = 2, and the
    # z = 0 plane over [-1.2, 1.2]^2, whose rings share theta = pi/2
    cone_r = np.linspace(0.0, 1.0, 700)
    cone_r[350] = 2.0
    with pytest.raises(ValueError, match="radius out of domain"):
        synthesize(field, cone_r, np.full(700, 1.0), np.zeros(700))
    grid = np.linspace(-1.2, 1.2, 201)
    with pytest.raises(ValueError, match="radius out of domain"):
        synthesize_xyz(field, grid[:, None], grid[None, :], 0.0)
    # a NaN coordinate gives NaN at its own point only, also on a shared ring
    r2, th2, ph2 = r.copy(), th.copy(), ph.copy()
    r2[0], th2[1], ph2[40] = np.nan, np.nan, np.nan  # point 40 shares an earlier point's ring
    got = synthesize(field, r2, th2, ph2)
    bad = np.zeros(r.size, dtype=bool)
    bad[[0, 1, 40]] = True
    assert np.all(np.isnan(got[bad]))
    assert np.array_equal(got[~bad], ref[~bad])
    xyz = synthesize_xyz(field, [0.1, np.nan, 0.2], [0.2, 0.1, np.nan], [0.3, 0.3, 0.3])
    assert np.isfinite(xyz[0]) and np.all(np.isnan(xyz[1:]))


def test_synthesize_mode_validation():
    f = CoefficientField({}, 0, (0,))
    with pytest.raises(ValueError):
        synthesize(f, 0.1, 0.2, 0.3, mode="everything")
