"""Built-in consistency checks, runnable as ``calderon3d selftest``.

Two levels: "quick" exercises every check on reduced index ranges and
finishes in seconds; "full" runs the complete ranges (exhaustive Gaunt
selection, all single-basis oracle comparisons, the 20-field round
trip) and takes about 4 s.

The surface-gradient identity check integrates the left-hand side with
sphere quadrature and evaluates the right-hand side through
``specfun.gaunt`` looked up at call time, so a corrupted Gaunt routine
(wrong sign, wrong normalization) is caught here even if cached
constants elsewhere still look plausible.  The divisor-floor check takes
the divisors from the coupling operator, as ``reconstruct`` does, and
compares ``specfun.coupling_gaunts`` with ``specfun.gaunt``, both looked up
at call time: it fails above 4 ulp.  The azimuthal-sum check compares the
Horner sums sum_mu b_mu w^mu that synthesis makes (``zernike._horner``,
looked up at call time) with the same sums in long double, for random
coefficients to every order N <= DEGREE_CAP, and fails above Horner's
forward-error bound.  The cone-synthesis check evaluates a z = 0 slice,
whose rings share theta = pi/2 and so form cones, once whole and once in
pieces too short for a cone, which take the per-degree ring path, and
fails above 1e-14 max|value|.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from . import specfun, zernike
from .forward import forward_measure, oracle_measure
from .quadrature import BallQuadrature, SphereQuadrature
from .recon import (
    ScheduleViolation,
    TruncationSchedule,
    coupling_operator,
    reconstruct,
    validate_schedule,
)
from .zernike import CoefficientField, _bases, _unpack, basis_gram

__all__ = ["run_selftest"]


def _random_field(caps, rng):
    # complex(g, g') per index in (k, ell, m) order: the draws pair up as is
    n = _bases(caps)[-1]
    values = rng.standard_normal(2 * n).view(complex)
    return CoefficientField._packed(values, np.ones(n, dtype=bool), caps)


def _check_weight_sum():
    defect = abs(BallQuadrature().weight_sum() - 4.0 * math.pi / 3.0)
    return defect <= 1e-12, f"ball weight-sum defect {defect:.3e} (tol 1e-12)"


def _sphere_fields(lmax, sphere):
    th, ph = sphere.grid()
    return {
        (l, m): specfun.sph_harm(l, m, th, ph).ravel()
        for l in range(lmax + 1)
        for m in range(-l, l + 1)
    }


def _check_sphere_orthonormality(lmax):
    sphere = SphereQuadrature()
    fields = _sphere_fields(lmax, sphere)
    mat = np.array([fields[key] for key in sorted(fields)])
    weighted = mat * sphere.weights_grid().ravel()
    gram = weighted @ mat.conj().T
    defect = float(np.max(np.abs(gram - np.eye(len(fields)))))
    return defect <= 1e-10, f"sphere Gram defect {defect:.3e} for l <= {lmax} (tol 1e-10)"


def _check_ball_orthonormality(cap):
    indices, gram = basis_gram(BallQuadrature(), cap)
    defect = float(np.max(np.abs(gram - np.eye(len(indices)))))
    return defect <= 1e-9, (
        f"ball Gram defect {defect:.3e} over {len(indices)} functions with "
        f"l + 2k <= {cap} (tol 1e-9)"
    )


def _check_gaunt_selection(lmax):
    sphere = SphereQuadrature(32, 64)
    fields = _sphere_fields(lmax, sphere)
    w = sphere.weights_grid().ravel()
    worst_zero = 0.0
    worst_quad = 0.0
    checked = 0
    for l1 in range(lmax + 1):
        for l2 in range(lmax + 1):
            for l3 in range(lmax + 1):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        prod = None
                        for m3 in range(-l3, l3 + 1):
                            g = specfun.gaunt(l1, l2, l3, m1, m2, m3)
                            if not specfun.gaunt_selection(l1, l2, l3, m1, m2, m3):
                                worst_zero = max(worst_zero, abs(g))
                                continue
                            if prod is None:
                                prod = fields[(l1, m1)] * fields[(l2, m2)] * w
                            q = complex(prod @ fields[(l3, m3)])
                            worst_quad = max(worst_quad, abs(g - q))
                            checked += 1
    passed = worst_zero == 0.0 and worst_quad <= 1e-10
    return passed, (
        f"l <= {lmax} exhaustive: {checked} nonzero cases, quadrature defect "
        f"{worst_quad:.3e} (tol 1e-10), off-selection magnitude {worst_zero:.3e} (must be 0)"
    )


def _check_gradient_identity(n_triples, lmax, seed):
    rng = np.random.default_rng(seed)
    sphere = SphereQuadrature(32, 64)
    th, ph = sphere.grid()
    w = sphere.weights_grid()
    worst = 0.0
    nonzero = 0
    for i in range(n_triples):
        while True:
            l1, l2 = (int(v) for v in rng.integers(0, lmax + 1, size=2))
            m1 = int(rng.integers(-l1, l1 + 1))
            m2 = int(rng.integers(-l2, l2 + 1))
            if i % 2 == 0:
                # force the selection rules to hold so the identity is
                # checked on genuinely nonzero values
                lo, hi = abs(l1 - l2), min(l1 + l2, lmax)
                candidates = [
                    l3
                    for l3 in range(lo, hi + 1)
                    if (l1 + l2 + l3) % 2 == 0
                    and abs(m1 + m2) <= l3
                    and l1 * (l1 + 1) + l2 * (l2 + 1) != l3 * (l3 + 1)
                ]
                if not candidates:
                    continue
                l3 = candidates[int(rng.integers(len(candidates)))]
                m3 = m1 + m2
            else:
                l3 = int(rng.integers(0, lmax + 1))
                m3 = int(rng.integers(-l3, l3 + 1))
            break
        g1 = specfun.sph_harm_surface_grad(l1, m1, th, ph)
        g2 = specfun.sph_harm_surface_grad(l2, m2, th, ph)
        dot = g1[0] * g2[0] + g1[1] * g2[1]
        lhs = complex(np.sum(dot * np.conj(specfun.sph_harm(l3, m3, th, ph)) * w))
        scale = 0.5 * (l1 * (l1 + 1) + l2 * (l2 + 1) - l3 * (l3 + 1))
        rhs = scale * (-1) ** m3 * specfun.gaunt(l1, l2, l3, m1, m2, -m3)
        worst = max(worst, abs(lhs - rhs))
        if rhs != 0:
            nonzero += 1
    passed = worst <= 1e-8 and nonzero >= n_triples // 4
    return passed, (
        f"{n_triples} triples with l <= {lmax}, {nonzero} nonzero, "
        f"worst defect {worst:.3e} (tol 1e-8)"
    )


def _oracle_worst(series, oracle):
    return max(abs(series.entries[i] - oracle.entries[i]) for i in series.entries)


def _check_oracle_quick():
    c = _random_field((3, 1), np.random.default_rng(2024))
    series = forward_measure(c, 1, 3)
    oracle = oracle_measure(c, 1, 3, BallQuadrature())
    worst = _oracle_worst(series, oracle)
    return worst <= 1e-8, f"random field k <= 1, l <= 3: worst gap {worst:.3e} (tol 1e-8)"


def _check_oracle_single_basis(kmax, lmax):
    quad = BallQuadrature()
    worst = 0.0
    count = 0
    for k in range(kmax + 1):
        for ell in range(lmax + 1):
            for m in range(-ell, ell + 1):
                # the basis phantom of this index is this field
                c = CoefficientField({(k, ell, m): 1.0}, k, ell)
                series = forward_measure(c, kmax, lmax)
                oracle = oracle_measure(c, kmax, lmax, quad)
                worst = max(worst, _oracle_worst(series, oracle))
                count += 1
    return worst <= 1e-8, (
        f"all {count} single-basis fields k <= {kmax}, l <= {lmax}: "
        f"worst gap {worst:.3e} (tol 1e-8)"
    )


def _check_round_trip(n_fields, K, top, seed):
    caps = tuple(top - 2 * k for k in range(K + 1))
    schedule = TruncationSchedule(caps)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        c = _random_field(caps, rng)
        rep = reconstruct(forward_measure(c, K, caps), schedule)
        worst = max(worst, float(np.max(np.abs(rep.field.data - c.data) / np.abs(c.data))))
    return worst <= 1e-10, (
        f"{n_fields} fields, K = {K}, caps {caps}: worst relative error "
        f"{worst:.3e} (tol 1e-10)"
    )


def _check_schedules():
    good1 = validate_schedule(TruncationSchedule((20, 18, 16, 14, 12, 10, 8, 6)))
    good2 = validate_schedule(TruncationSchedule((16, 11, 7, 5, 3)))
    bad = validate_schedule(TruncationSchedule((4, 4)))
    passed = (
        good1 == []
        and good2 == []
        and bad == [ScheduleViolation(q=0, k=1, required=6, actual=4)]
    )
    return passed, (
        "demo schedules feasible, uniform (4,4) rejected with "
        f"{len(bad)} violation(s)"
    )


def _check_divisor_floor(lmax, kmax):
    caps = (lmax,) * (kmax + 1)
    # the divisors reconstruct uses, in (k, ell, m) order; argmin takes the first
    divisors = np.abs(np.concatenate([st.vals[-1] for st in coupling_operator(caps).stages]))
    floor, at = divisors.min(), [int(v) for v in _unpack(_bases(caps), np.argmin(divisors))]
    # their Gaunt rows G_{k+1, l+k+1, l}^{0,-m,m}, one per (k, ell), in one batch
    ks, ells = np.divmod(np.arange((kmax + 1) * (lmax + 1)), lmax + 1)
    table = specfun.coupling_gaunts(ks, 0 * ks, ells)
    gap = 0.0
    for row, k, ell in zip(table, ks.tolist(), ells.tolist()):
        for m in range(-ell, ell + 1):
            exact = specfun.gaunt(k + 1, ell + k + 1, ell, 0, -m, m)
            gap = max(gap, abs(row[abs(m)] - exact) / np.spacing(abs(exact)))
    return floor > 0.0 and gap <= 4.0, (
        f"min |divisor| over l <= {lmax}, k <= {kmax} is {floor:.6e} at "
        f"(k={at[0]}, ell={at[1]}, m={at[2]}); its Gaunt factors are within "
        f"{gap:.0f} ulp of the exact path (tol 4)"
    )


def _check_azimuthal_sum(n_angles, seed):
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        return True, "not run: long double is no wider than double on this platform"
    rng = np.random.default_rng(seed)
    special = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi - 1e-12]
    phi = np.concatenate([special, rng.uniform(0.0, 2 * math.pi, n_angles)])
    w = np.cos(phi) + 1j * np.sin(phi)
    re, im = rng.standard_normal((2, specfun.DEGREE_CAP + 1, phi.size))
    # sums to every order N >= 1 in long double (error below 1e-3 of the bound)
    # against Horner's ((1 + sqrt(2) gamma_2)(1 + u))^N - 1 times sum |b_mu| |w|^mu
    u = np.finfo(float).eps / 2
    step = math.sqrt(2) * 2 * u / (1 - 2 * u) * (1 + u) + u
    exact, power, scale = re[0] + 1j * im[0], w.astype(np.clongdouble), np.hypot(re[0], im[0])
    worst = 0.0
    for top in range(1, specfun.DEGREE_CAP + 1):
        exact = exact + (re[top] + 1j * im[top]) * power
        scale = scale + np.hypot(re[top], im[top]) * np.abs(w) ** top
        power = power * w
        got = zernike._horner(re[: top + 1], im[: top + 1], np.arange(phi.size), w)
        bound = math.expm1(top * math.log1p(step)) * scale
        worst = max(worst, float(np.max(np.abs((got - exact).astype(complex)) / bound)))
    return worst <= 1.0, (
        f"Horner sums to every order N <= {specfun.DEGREE_CAP} at {phi.size} angles: worst "
        f"error {worst:.3f} of the forward-error bound against long double (tol 1)"
    )


def _check_cone_synthesis(n, caps, seed):
    field = _random_field(caps, np.random.default_rng(seed))
    u = np.linspace(-1.0, 1.0, n)
    x, y = (a.ravel() for a in np.meshgrid(u, u, indexing="ij"))
    inside = x * x + y * y <= 1.0
    r, th, ph = zernike._spherical_from_cartesian(x[inside], y[inside], 0.0 * x[inside])
    cone = zernike.synthesize(field, r, th, ph)
    # fewer than _CONE points per piece: no theta-run is long enough for a cone
    cuts = np.arange(zernike._CONE - 1, r.size, zernike._CONE - 1)
    ring = np.concatenate([zernike.synthesize(field, *piece)
                           for piece in zip(*(np.split(a, cuts) for a in (r, th, ph)))])
    gap = float(np.max(np.abs(cone - ring)) / np.max(np.abs(ring)))
    rings = np.unique(r[th == th.max()]).size
    return rings >= zernike._CONE and gap <= 1e-14, (
        f"{n}^2 z = 0 slice at caps {caps}, {rings} rings on theta = pi/2: cones are within "
        f"{gap:.1e} max|value| of the ring path (tol 1e-14; a cone needs {zernike._CONE} rings)"
    )


# Each check once, in run order: its name, then the check and its arguments
# at level "quick" and at level "full".
_SUITE = (
    ("quadrature weight sum", (_check_weight_sum,), (_check_weight_sum,)),
    ("sphere orthonormality", (_check_sphere_orthonormality, 6), (_check_sphere_orthonormality, 10)),
    ("ball orthonormality", (_check_ball_orthonormality, 6), (_check_ball_orthonormality, 10)),
    ("gaunt selection", (_check_gaunt_selection, 4), (_check_gaunt_selection, 8)),
    ("surface-gradient identity",
     (_check_gradient_identity, 10, 4, 11), (_check_gradient_identity, 50, 6, 11)),
    ("oracle equivalence", (_check_oracle_quick,), (_check_oracle_single_basis, 3, 6)),
    ("round trip", (_check_round_trip, 2, 3, 8, 12), (_check_round_trip, 20, 5, 14, 12)),
    ("schedule validation", (_check_schedules,), (_check_schedules,)),
    ("divisor floor", (_check_divisor_floor, 8, 3), (_check_divisor_floor, 20, 8)),
    ("azimuthal sum", (_check_azimuthal_sum, 2000, 13), (_check_azimuthal_sum, 20000, 13)),
    ("cone synthesis",
     (_check_cone_synthesis, 101, (20, 16, 12), 14), (_check_cone_synthesis, 201, (30, 26, 22), 14)),
)


def run_selftest(level: str = "quick", stream=None) -> bool:
    """Run the consistency suite; print one line per check, return overall."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown selftest level {level!r}")
    if stream is None:
        stream = sys.stdout
    results = []
    for name, quick, full in _SUITE:
        check, *args = full if level == "full" else quick
        start = time.perf_counter()
        try:
            passed, detail = check(*args)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        results.append((passed, elapsed))
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name}: {detail}  [{elapsed:.2f}s]", file=stream)
    ok = all(passed for passed, _ in results)
    total = sum(seconds for _, seconds in results)
    print(
        f"{'OK' if ok else 'FAILED'}: {sum(passed for passed, _ in results)}/{len(results)} "
        f"checks passed at level {level!r} in {total:.1f}s",
        file=stream,
    )
    return ok
