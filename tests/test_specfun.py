"""Tests for spherical harmonics, 3j symbols, and Gaunt coefficients."""

import math
from fractions import Fraction

import hypothesis as h
import hypothesis.strategies as st
import numpy as np
import pytest
import sympy
from sympy.physics.wigner import wigner_3j

from calderon3d.quadrature import SphereQuadrature
from calderon3d import specfun
from calderon3d.specfun import (
    DEGREE_CAP,
    _norm_legendre_degrees,
    _norm_legendre_sweep,
    _norm_legendre_table,
    _w3j_signed_square,
    _w3j_zero_square,
    coupling_gaunts,
    gaunt,
    gaunt_selection,
    sph_harm,
    sph_harm_surface_grad,
    wigner3j,
)

from reference import assoc_legendre, gaunt_prefactors_fraction

RNG = np.random.default_rng(20260815)


# ---------------------------------------------------- associated Legendre


def test_assoc_legendre_low_order_values():
    assert assoc_legendre(0, 0, 0.7) == 1.0
    assert assoc_legendre(1, 0, 0.7) == 0.7
    # P_1^1(x) = -sqrt(1-x^2) with the Condon-Shortley phase
    assert assoc_legendre(1, 1, 0.5) == pytest.approx(-0.8660254037844386, rel=1e-15)
    # P_2^0(x) = (3x^2-1)/2
    assert assoc_legendre(2, 0, 0.3) == pytest.approx((3 * 0.09 - 1) / 2, rel=1e-14)


def test_assoc_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre(2, 0, 1.2)
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre(2, -1, 0.5)


def test_assoc_legendre_vectorized_matches_scalar():
    xs = np.linspace(-1, 1, 11)
    arr = assoc_legendre(7, 4, xs)
    for x, v in zip(xs, arr):
        assert v == pytest.approx(assoc_legendre(7, 4, float(x)), rel=1e-14, abs=1e-300)


@h.given(
    ell=st.integers(min_value=0, max_value=25),
    mfrac=st.integers(min_value=0, max_value=100),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
@h.settings(max_examples=60, deadline=None)
def test_assoc_legendre_matches_sympy(ell, mfrac, x):
    m = round(mfrac * ell / 100)
    ours = assoc_legendre(ell, m, x)
    ref = float(sympy.assoc_legendre(ell, m, sympy.Float(x, 30)))
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)


# ------------------------------------------------------ spherical harmonics


def test_degree_major_legendre_rows_equal_the_order_sweep():
    # both traversals run the same recurrence in the same order, so the
    # rows must agree bit for bit, not just to rounding
    lmax = 60
    theta = np.random.default_rng(60).uniform(0, math.pi, 200)
    x = np.concatenate([[-1.0, 0.0, 1.0], np.cos(theta)])
    sweeps = [_norm_legendre_sweep(mu, lmax, x) for mu in range(lmax + 1)]
    for ell, rows in enumerate(_norm_legendre_degrees(lmax, x)):
        assert rows.shape == (ell + 1, x.size)
        for mu in range(ell + 1):
            assert np.array_equal(rows[mu], sweeps[mu][ell - mu]), (ell, mu)
    assert ell == lmax


@pytest.mark.parametrize("lmax", [0, 1, 48, 56])
def test_legendre_table_rows_equal_the_order_sweep(lmax):
    # T[mu, ell] = P~_ell^mu bit for bit, and exact zeros below the diagonal
    theta = np.random.default_rng(lmax).uniform(0, math.pi, 150)
    x = np.concatenate([[-1.0, 0.0, 1.0], np.cos(theta)])
    table = _norm_legendre_table(lmax, x)
    assert table.shape == (lmax + 1, lmax + 1, x.size)
    for mu in range(lmax + 1):
        assert np.array_equal(table[mu, mu:], _norm_legendre_sweep(mu, lmax, x)), mu
        below = table[mu, :mu]
        assert np.all(below == 0.0) and not np.any(np.signbit(below)), mu


def test_sph_harm_frozen_values():
    # reference values computed symbolically at 22 digits
    assert sph_harm(0, 0, 0.7, 0.3) == pytest.approx(0.2820947917738781, rel=1e-14)
    assert sph_harm(1, 0, 0.7, 0.3) == pytest.approx(0.3737038139165246, rel=1e-13)
    assert sph_harm(1, 1, 0.7, 0.3) == pytest.approx(
        -0.2126325305827379 - 0.0657749495554677j, rel=1e-13
    )
    assert sph_harm(3, -2, 2.0, 5.1) == pytest.approx(
        0.2511672507398771 - 0.2461067540436709j, rel=1e-13
    )
    assert sph_harm(5, 4, 0.9, 2.2) == pytest.approx(
        -0.2786137323852370 + 0.2009214226020708j, rel=1e-13
    )
    assert sph_harm(6, -5, 1.3, 0.8) == pytest.approx(
        -0.2430334298111895 + 0.2813892773578076j, rel=1e-13
    )


def test_sph_harm_constant_and_zonal():
    for theta, phi in [(0.1, 0.0), (1.2, 2.0), (3.0, 5.9)]:
        assert sph_harm(0, 0, theta, phi) == pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-15)
        assert sph_harm(1, 0, theta, phi) == pytest.approx(
            math.sqrt(3 / (4 * math.pi)) * math.cos(theta), rel=1e-14
        )


def test_sph_harm_index_validation():
    with pytest.raises(ValueError):
        sph_harm(2, 3, 0.5, 0.5)
    with pytest.raises(ValueError, match="invalid index"):
        sph_harm_surface_grad(2, 3, 0.5, 0.5)


def test_sph_harm_against_direct_formula():
    # cross-check the normalized recurrence against the textbook formula
    for _ in range(40):
        ell = int(RNG.integers(0, 12))
        m = int(RNG.integers(0, ell + 1))
        theta = float(RNG.uniform(0.05, math.pi - 0.05))
        phi = float(RNG.uniform(0, 2 * math.pi))
        norm = math.sqrt(
            (2 * ell + 1)
            / (4 * math.pi)
            * math.factorial(ell - m)
            / math.factorial(ell + m)
        )
        ref = norm * assoc_legendre(ell, m, math.cos(theta)) * np.exp(1j * m * phi)
        assert sph_harm(ell, m, theta, phi) == pytest.approx(complex(ref), rel=1e-12, abs=1e-14)


@h.given(
    ell=st.integers(min_value=0, max_value=20),
    mfrac=st.integers(min_value=-100, max_value=100),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
@h.settings(max_examples=80, deadline=None)
def test_sph_harm_conjugation_symmetry(ell, mfrac, theta, phi):
    m = round(mfrac * ell / 100)
    lhs = np.conj(sph_harm(ell, m, theta, phi))
    rhs = (-1) ** m * sph_harm(ell, -m, theta, phi)
    assert abs(lhs - rhs) <= 1e-13


def test_sph_harm_orthonormal_gram():
    quad = SphereQuadrature()
    idx = [(l, m) for l in range(11) for m in range(-l, l + 1)]
    th, ph = quad.grid()
    w = quad.weights_grid()
    vals = np.array([sph_harm(l, m, th, ph) for (l, m) in idx])
    mats = vals.reshape(len(idx), -1)
    gram = (mats * w.ravel()) @ np.conj(mats.T)
    assert np.max(np.abs(gram - np.eye(len(idx)))) <= 1e-10


# --------------------------------------------------------- surface gradient


def test_surface_grad_constant_is_zero():
    a, b = sph_harm_surface_grad(0, 0, 1.1, 0.7)
    assert a == 0 and b == 0


def test_surface_grad_zonal_degree_one():
    for theta, phi in [(0.7, 0.3), (2.2, 4.0)]:
        a, b = sph_harm_surface_grad(1, 0, theta, phi)
        assert a == pytest.approx(-math.sqrt(3 / (4 * math.pi)) * math.sin(theta), rel=1e-13)
        assert b == 0


def test_surface_grad_frozen_values():
    a, b = sph_harm_surface_grad(2, 1, 0.9, 0.4)
    assert a == pytest.approx(0.1616688769636122 + 0.0683525048612295j, rel=1e-12)
    assert b == pytest.approx(0.1870079518210624 - 0.4423154003727705j, rel=1e-12)
    a, b = sph_harm_surface_grad(3, -2, 1.2, 2.5)
    assert a == pytest.approx(-0.1637637683478992 - 0.5536058763795627j, rel=1e-12)
    assert b == pytest.approx(0.6619584301858707 - 0.1958158531947618j, rel=1e-12)


def test_surface_grad_pole_guard():
    with pytest.raises(ValueError, match="pole"):
        sph_harm_surface_grad(2, 1, 1e-15, 0.0)


def test_surface_grad_norm_is_laplace_beltrami_eigenvalue():
    # integral over the sphere of |grad Y_l^m|^2 equals l(l+1)
    quad = SphereQuadrature()
    th, ph = quad.grid()
    w = quad.weights_grid()
    for ell, m in [(1, 0), (3, 2), (5, -4), (8, 8), (10, -1)]:
        a, b = sph_harm_surface_grad(ell, m, th, ph)
        val = np.sum((np.abs(a) ** 2 + np.abs(b) ** 2) * w)
        assert val == pytest.approx(ell * (ell + 1), abs=1e-9)


def test_surface_grad_finite_differences():
    eps = 1e-6
    for ell, m in [(2, 1), (4, -3), (6, 0)]:
        theta, phi = 1.1, 0.9
        a, b = sph_harm_surface_grad(ell, m, theta, phi)
        fd_a = (sph_harm(ell, m, theta + eps, phi) - sph_harm(ell, m, theta - eps, phi)) / (2 * eps)
        fd_b = (sph_harm(ell, m, theta, phi + eps) - sph_harm(ell, m, theta, phi - eps)) / (
            2 * eps * math.sin(theta)
        )
        assert a == pytest.approx(fd_a, rel=1e-7, abs=1e-9)
        assert b == pytest.approx(fd_b, rel=1e-7, abs=1e-9)


# ------------------------------------------------------------------- 3j


def test_wigner3j_trivial_and_frozen():
    assert wigner3j(0, 0, 0, 0, 0, 0) == 1.0
    assert wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(-0.5773502691896257, rel=1e-15)
    assert wigner3j(2, 3, 1, 1, -2, 1) == pytest.approx(-0.3086066999241838, rel=1e-14)
    assert wigner3j(4, 6, 8, 1, 2, -3) == pytest.approx(0.1043405284224016, rel=1e-14)
    assert wigner3j(10, 10, 10, 3, -7, 4) == pytest.approx(0.0264950850909036, rel=1e-13)


def test_wigner3j_selection_zeros_are_exact():
    assert wigner3j(1, 5, 2, 0, 0, 0) == 0.0  # triangle violated
    assert wigner3j(2, 2, 2, 1, 1, 1) == 0.0  # orders do not sum to zero
    assert wigner3j(2, 2, 2, 3, -3, 0) == 0.0  # |m| > j
    assert wigner3j(0, 1, 2, 0, 0, 0) == 0.0  # triangle violated again
    # a negative degree is an error, not a selection zero
    with pytest.raises(ValueError, match=r"\(-1, 1, 0\)"):
        wigner3j(-1, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=r"\(-1, 1, 0\)"):
        gaunt(-1, 1, 0, 0, 0, 0)


def test_wigner3j_odd_sum_zero_row():
    # (l l' 1; 0 0 0) vanishes because the degree sum is odd
    assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0
    assert wigner3j(3, 4, 3, 0, 0, 0) != 0.0


def test_wigner3j_degree_cap():
    with pytest.raises(OverflowError):
        wigner3j(DEGREE_CAP + 1, DEGREE_CAP + 1, 0, 0, 0, 0)
    # at the cap it still works
    assert math.isfinite(wigner3j(DEGREE_CAP, DEGREE_CAP, 0, 0, 0, 0))
    with pytest.raises(OverflowError):
        gaunt(DEGREE_CAP + 1, DEGREE_CAP + 1, 0, 0, 0, 0)


@h.given(
    j1=st.integers(min_value=0, max_value=14),
    j2=st.integers(min_value=0, max_value=14),
    dj=st.integers(min_value=-14, max_value=14),
    m1s=st.integers(min_value=-14, max_value=14),
    m2s=st.integers(min_value=-14, max_value=14),
)
@h.settings(max_examples=120, deadline=None)
def test_wigner3j_matches_sympy(j1, j2, dj, m1s, m2s):
    j3 = min(j1 + j2, max(abs(j1 - j2), abs(dj)))
    m1 = max(-j1, min(j1, m1s))
    m2 = max(-j2, min(j2, m2s))
    m3 = -m1 - m2
    ours = wigner3j(j1, j2, j3, m1, m2, m3)
    ref = float(wigner_3j(j1, j2, j3, m1, m2, m3).evalf(25))
    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_wigner3j_even_permutation_invariance():
    for _ in range(30):
        j1, j2 = RNG.integers(0, 10, size=2)
        j3 = int(RNG.integers(abs(j1 - j2), j1 + j2 + 1))
        m1 = int(RNG.integers(-j1, j1 + 1))
        m2 = int(RNG.integers(-j2, j2 + 1))
        m3 = -m1 - m2
        v = wigner3j(int(j1), int(j2), j3, m1, m2, m3)
        cyc1 = wigner3j(int(j2), j3, int(j1), m2, m3, m1)
        cyc2 = wigner3j(j3, int(j1), int(j2), m3, m1, m2)
        assert v == pytest.approx(cyc1, rel=1e-13, abs=1e-16)
        assert v == pytest.approx(cyc2, rel=1e-13, abs=1e-16)


# ------------------------------------------------------------------ Gaunt


def test_gaunt_selection_cases():
    assert gaunt_selection(1, 1, 2, 0, 0, 0) is True
    assert gaunt_selection(1, 1, 2, 1, 0, 0) is False  # orders sum nonzero
    assert gaunt_selection(2, 2, 3, 1, -1, 0) is False  # odd degree sum
    assert gaunt_selection(1, 5, 2, 0, 0, 0) is False  # triangle


def test_gaunt_frozen_values():
    assert gaunt(0, 0, 0, 0, 0, 0) == pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-15)
    assert gaunt(2, 3, 1, 1, -2, 1) == pytest.approx(0.2611690282654090, rel=1e-13)
    assert gaunt(1, 1, 2, 0, 0, 0) == pytest.approx(0.2523132522020160, rel=1e-13)
    assert gaunt(4, 6, 8, 1, 2, -3) == pytest.approx(-0.1371233705053980, rel=1e-13)
    assert gaunt(3, 3, 4, 2, -1, -1) == pytest.approx(0.1450699201459755, rel=1e-13)


def test_zero_order_closed_form_equals_the_racah_sum():
    # gaunt takes (j1 j2 j3; 0 0 0) from the closed form, sign (-1)^((j1 - j2) + J/2)
    # in the Racah sum's convention; exhaustive over degrees <= 30
    checked = 0
    for j1 in range(31):
        for j2 in range(31):
            for j3 in range(abs(j1 - j2), min(j1 + j2, 30) + 1, 2):
                sign, square = _w3j_signed_square(j1, j2, j3, 0, 0, 0)
                assert _w3j_zero_square(j1, j2, j3, math.factorial) == square, (j1, j2, j3)
                assert sign == (-1) ** ((j1 - j2) + (j1 + j2 + j3) // 2), (j1, j2, j3)
                checked += 1
    assert checked == 7816


def test_gaunt_exact_zero_when_selection_fails():
    assert gaunt(1, 1, 1, 0, 0, 0) == 0.0
    assert gaunt(1, 2, 5, 0, 0, 0) == 0.0
    assert gaunt(2, 2, 2, 1, 0, 0) == 0.0
    # the selection rules hold, but |m1| > l1
    assert gaunt_selection(2, 2, 2, 3, -3, 0)
    assert gaunt(2, 2, 2, 3, -3, 0) == 0.0


def test_gaunt_matches_sphere_quadrature():
    quad = SphereQuadrature()
    th, ph = quad.grid()
    w = quad.weights_grid()
    cases = [(2, 3, 1, 1, -2, 1), (4, 4, 4, 2, -3, 1), (5, 3, 6, -4, 1, 3), (6, 6, 0, 0, 0, 0)]
    for l1, l2, l3, m1, m2, m3 in cases:
        prod = (
            sph_harm(l1, m1, th, ph)
            * sph_harm(l2, m2, th, ph)
            * sph_harm(l3, m3, th, ph)
        )
        ref = np.sum(prod * w)
        assert abs(ref.imag) < 1e-12
        assert gaunt(l1, l2, l3, m1, m2, m3) == pytest.approx(ref.real, abs=1e-10)


@h.given(
    l1=st.integers(min_value=0, max_value=8),
    l2=st.integers(min_value=0, max_value=8),
    l3=st.integers(min_value=0, max_value=8),
    u1=st.integers(min_value=-8, max_value=8),
    u2=st.integers(min_value=-8, max_value=8),
)
@h.settings(max_examples=80, deadline=None)
def test_gaunt_permutation_symmetry(l1, l2, l3, u1, u2):
    m1 = max(-l1, min(l1, u1))
    m2 = max(-l2, min(l2, u2))
    m3 = -m1 - m2
    h.assume(abs(m3) <= l3)
    v = gaunt(l1, l2, l3, m1, m2, m3)
    for perm in [(l2, l1, l3, m2, m1, m3), (l3, l2, l1, m3, m2, m1), (l2, l3, l1, m2, m3, m1)]:
        assert gaunt(*perm) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_lemma_surface_gradient_identity():
    # integral of (grad g1 . grad g2) g3 over the sphere equals
    # [l1(l1+1)+l2(l2+1)-l3(l3+1)]/2 times the integral of g1 g2 g3,
    # for g_j arbitrary real combinations within fixed degrees l_j.
    quad = SphereQuadrature()
    th, ph = quad.grid()
    w = quad.weights_grid()
    rng = np.random.default_rng(7)
    for _ in range(10):
        ells = rng.integers(0, 7, size=3)
        fields = []
        grads = []
        for ell in ells:
            coeffs = rng.normal(size=2 * ell + 1)
            g = np.zeros_like(th, dtype=complex)
            ga = np.zeros_like(th, dtype=complex)
            gb = np.zeros_like(th, dtype=complex)
            for m, cm in zip(range(-ell, ell + 1), coeffs):
                # (-1)^m-conjugate pairing keeps g real
                c = cm if m == 0 else cm / 2
                g += c * sph_harm(int(ell), int(m), th, ph)
                a, b = sph_harm_surface_grad(int(ell), int(m), th, ph)
                ga += c * a
                gb += c * b
                if m != 0:
                    g += (-1) ** m * c * np.conj(sph_harm(int(ell), int(m), th, ph))
                    ga += (-1) ** m * c * np.conj(a)
                    gb += (-1) ** m * c * np.conj(b)
            fields.append(g.real)
            grads.append((ga.real, gb.real))
        lhs = np.sum((grads[0][0] * grads[1][0] + grads[0][1] * grads[1][1]) * fields[2] * w)
        triple = np.sum(fields[0] * fields[1] * fields[2] * w)
        l1, l2, l3 = (int(e) for e in ells)
        coeff = (l1 * (l1 + 1) + l2 * (l2 + 1) - l3 * (l3 + 1)) / 2
        assert lhs == pytest.approx(coeff * triple, abs=1e-8)


# ---------------------------------------------- the coupling Gaunt family

EPS = np.finfo(float).eps


def _family_rows(caps):
    return [(k, s, ell) for k, cap in enumerate(caps) for s in range(k + 1) for ell in range(cap + 1)]


def _family_errors(table, i, k, s, ell):
    """Row i of ``table`` against the exact path: the largest error in ulps
    of the exact value where it is nonzero, and the largest error in units
    of eps times the row's largest exact entry."""
    exact = np.array([gaunt(k + 1, ell + k + 1, ell + 2 * s, 0, -m, m) for m in range(ell + 1)])
    assert np.all(table[i, ell + 1 :] == 0.0)
    err = np.abs(table[i, : ell + 1] - exact)
    nonzero = exact != 0.0
    ulps = float(np.max(err[nonzero] / np.spacing(np.abs(exact[nonzero])), initial=0.0))
    return ulps, float(err.max() / (EPS * np.abs(exact).max()))


def test_extended_precision_is_available():
    # the coupling family's recurrence needs a 64-bit significand
    assert np.finfo(np.longdouble).nmant >= 63


@pytest.mark.parametrize(
    "caps", [(48, 44, 40, 36, 32, 28, 24, 20), (20,) * 9], ids=["schedule_L", "ell20_k8"]
)
def test_coupling_gaunts_match_the_exact_path_exhaustively(caps):
    rows = _family_rows(caps)
    table = coupling_gaunts(*zip(*rows))
    worst_ulps = worst_row = 0.0
    for i, row in enumerate(rows):
        ulps, rel_row = _family_errors(table, i, *row)
        worst_ulps, worst_row = max(worst_ulps, ulps), max(worst_row, rel_row)
    assert worst_ulps <= 4.0
    assert worst_row <= 4.0


@pytest.mark.parametrize(
    "caps", [(126, 124, 122, 120), tuple(range(66, 47, -2))], ids=["cap126", "cap66_k9"]
)
def test_coupling_gaunts_stay_within_a_few_eps_of_the_row_max_past_l(caps):
    rows = _family_rows(caps)
    table = coupling_gaunts(*zip(*rows))
    rng = np.random.default_rng(909)
    for i in rng.choice(len(rows), size=40, replace=False):
        k, s, ell = rows[i]
        assert _family_errors(table, i, k, s, ell)[1] <= 4.0
        # a row does not depend on the rest of its batch
        assert np.array_equal(coupling_gaunts([k], [s], [ell])[0], table[i, : ell + 1])


def test_coupling_gaunts_match_the_fraction_prefactor_bit_for_bit(monkeypatch):
    rows = _family_rows(tuple(range(66, 47, -2)))
    k, s, ell = (np.array(v) for v in zip(*rows))
    j1, j2, j3 = k + 1, ell + k + 1, ell + 2 * s
    want = gaunt_prefactors_fraction(j1.tolist(), j2.tolist(), j3.tolist())
    assert np.array_equal(specfun._gaunt_prefactors(j1, j2, j3), want)
    table = coupling_gaunts(k, s, ell)
    monkeypatch.setattr(specfun, "_gaunt_prefactors", lambda *degrees: want)
    assert np.array_equal(coupling_gaunts(k, s, ell).view(np.int64), table.view(np.int64))


def test_coupling_gaunts_reject_bad_rows():
    assert coupling_gaunts([0], [0], [0])[0, 0] == gaunt(1, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        coupling_gaunts([1], [3], [4])  # s > k + 1 breaks the triangle
    with pytest.raises(ValueError):
        coupling_gaunts([0], [0], [-1])
    with pytest.raises(OverflowError):
        coupling_gaunts([0], [0], [DEGREE_CAP])
