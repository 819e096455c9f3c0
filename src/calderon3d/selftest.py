"""Built-in consistency checks, runnable as ``calderon3d selftest``.

Two levels: "quick" exercises every check on reduced index ranges and
finishes in seconds; "full" runs the complete ranges (exhaustive Gaunt
selection, all single-basis oracle comparisons, the 20-field round
trip) and takes about 15 s.

The surface-gradient identity check integrates the left-hand side with
sphere quadrature and evaluates the right-hand side through
``specfun.gaunt`` looked up at call time, so a corrupted Gaunt routine
(wrong sign, wrong normalization) is caught here even if cached
constants elsewhere still look plausible.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import specfun
from .forward import forward_measure, oracle_measure
from .phantoms import PhantomSpec
from .quadrature import BallQuadrature, SphereQuadrature
from .recon import ScheduleViolation, TruncationSchedule, big_q, reconstruct, validate_schedule
from .zernike import CoefficientField, basis_gram

__all__ = ["CheckResult", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_field(kmax, caps, rng):
    entries = {}
    for k in range(kmax + 1):
        for ell in range(caps[k] + 1):
            for m in range(-ell, ell + 1):
                entries[(k, ell, m)] = complex(rng.standard_normal(), rng.standard_normal())
    return CoefficientField(entries, kmax, caps)


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
    return max(abs(series.values[i] - oracle.values[i]) for i in series.values)


def _check_oracle_quick():
    from .zernike import synthesize_xyz

    rng = np.random.default_rng(2024)
    c = _random_field(1, (3, 1), rng)

    def eta(x, y, z):
        return synthesize_xyz(c, x, y, z)

    quad = BallQuadrature()
    series = forward_measure(c, 1, 3)
    oracle = oracle_measure(eta, 1, 3, quad)
    worst = _oracle_worst(series, oracle)
    return worst <= 1e-8, f"random field k <= 1, l <= 3: worst gap {worst:.3e} (tol 1e-8)"


def _check_oracle_single_basis(kmax, lmax):
    quad = BallQuadrature()
    worst = 0.0
    count = 0
    for k in range(kmax + 1):
        for ell in range(lmax + 1):
            for m in range(-ell, ell + 1):
                c = CoefficientField({(k, ell, m): 1.0}, k, ell)
                eta = PhantomSpec("basis", index=(k, ell, m)).build()
                series = forward_measure(c, kmax, lmax)
                oracle = oracle_measure(eta, kmax, lmax, quad)
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
        c = _random_field(K, caps, rng)
        rep = reconstruct(forward_measure(c, K, caps), schedule)
        for idx, val in c.entries.items():
            worst = max(worst, abs(rep.field.entries[idx] - val) / abs(val))
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
    floor = math.inf
    at = None
    for k in range(kmax + 1):
        for ell in range(lmax + 1):
            for m in range(-ell, ell + 1):
                v = abs(big_q(ell, 0, k, m, k))
                if v < floor:
                    floor, at = v, (k, ell, m)
    return floor > 0.0, (
        f"min |divisor| over l <= {lmax}, k <= {kmax} is {floor:.6e} at "
        f"(k={at[0]}, ell={at[1]}, m={at[2]})"
    )


def _suite(level: str):
    if level == "quick":
        return [
            ("quadrature weight sum", _check_weight_sum),
            ("sphere orthonormality", lambda: _check_sphere_orthonormality(6)),
            ("ball orthonormality", lambda: _check_ball_orthonormality(6)),
            ("gaunt selection", lambda: _check_gaunt_selection(4)),
            ("surface-gradient identity", lambda: _check_gradient_identity(10, 4, seed=11)),
            ("oracle equivalence", _check_oracle_quick),
            ("round trip", lambda: _check_round_trip(2, 3, 8, seed=12)),
            ("schedule validation", _check_schedules),
            ("divisor floor", lambda: _check_divisor_floor(8, 3)),
        ]
    if level == "full":
        return [
            ("quadrature weight sum", _check_weight_sum),
            ("sphere orthonormality", lambda: _check_sphere_orthonormality(10)),
            ("ball orthonormality", lambda: _check_ball_orthonormality(10)),
            ("gaunt selection", lambda: _check_gaunt_selection(8)),
            ("surface-gradient identity", lambda: _check_gradient_identity(50, 6, seed=11)),
            ("oracle equivalence", lambda: _check_oracle_single_basis(3, 6)),
            ("round trip", lambda: _check_round_trip(20, 5, 14, seed=12)),
            ("schedule validation", _check_schedules),
            ("divisor floor", lambda: _check_divisor_floor(20, 8)),
        ]
    raise ValueError(f"unknown selftest level {level!r}")


def run_selftest(level: str = "quick", stream=None) -> bool:
    """Run the consistency suite; print one line per check, return overall."""
    if stream is None:
        stream = sys.stdout
    results = []
    for name, fn in _suite(level):
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, passed, detail, elapsed))
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name}: {detail}  [{elapsed:.2f}s]", file=stream)
    ok = all(r.passed for r in results)
    total = sum(r.seconds for r in results)
    print(
        f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} "
        f"checks passed at level {level!r} in {total:.1f}s",
        file=stream,
    )
    return ok
