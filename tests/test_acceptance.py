"""Acceptance suite: one test per numbered check, run `pytest -v` to get a
pass/fail line for each.  Each test prints its measured quantities so the
numbers behind a verdict are visible with -rA.

Check 4 asserts convergence of the rescaled torus kernel to its limit for
all derivative pairs of total order <= 2 by a halving clause at lambda in
{50, 100, 200, 400} and by a fitted decay rate over a 31-point geometric
lambda sweep.  It used to ask for near-monotone decay (at most one rise of
at most 10%), which the measured object cannot satisfy: the torus error at
fixed lambda follows the lattice count of the annulus (lambda, lambda + 1],
a Gauss-circle remainder that is Omega(lambda^(1/2)) infinitely often, and
every pair rises by more than 10% at 13-15 of the sweep's 30 steps.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from specproj import (
    DerivOrder,
    ProbeGrid,
    SphereModel,
    SpectralWindow,
    SurfaceSpec,
    TorusModel,
    ball_kernel,
    ball_kernel_quadrature,
    cluster_lambda,
    counting_function,
    default_quad_degree,
    empirical_covariance,
    limit_kernel,
    limit_kernel_batch,
    limit_kernel_closed_form,
    loopset_fraction,
    multi_indices,
    projector_kernel,
    remainder_sweep,
    sample_ensemble,
    scaling_exponent_fit,
    torus_pair_deriv_batch,
)
from specproj.cli import convergence_report
from specproj.config import format_multi_index
from specproj.kernels import projector_kernel_deriv
from specproj.special import sphere_quadrature

TORUS2 = TorusModel(n=2)
TORUS3 = TorusModel(n=3)
SPHERE = SphereModel()
NORTH = np.array([0.0, 0.0, 1.0])


def test_criterion_01_torus_counting_brute_force():
    t0 = time.perf_counter()
    for lam in (1.0, 5.0, 10.5, 50.0, 200.0):
        # lam**2 is exactly representable for every value above, so the
        # float comparison below is exact integer arithmetic
        lam_sq = float(Fraction(str(lam)) ** 2)
        side = np.arange(-int(math.ceil(lam)), int(math.ceil(lam)) + 1)
        kk = side[:, None] ** 2 + side[None, :] ** 2
        brute = int(np.count_nonzero(kk <= lam_sq))
        got = counting_function(TORUS2, lam)
        assert got == brute, (lam, got, brute)
    assert counting_function(TORUS2, 5.0) == 81
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS (5 window positions, {elapsed:.2f}s)")


def test_criterion_02_ball_kernel_dual_route():
    t0 = time.perf_counter()
    lam = 10.0
    worst = 0.0
    for n in (2, 3):
        for lam_d in (0.1, 1.0, 5.0, 20.0, 50.0):
            d = lam_d / lam
            closed = ball_kernel(n, d, lam)
            quad = ball_kernel_quadrature(n, d, lam)
            rel = abs(closed - quad) / abs(quad)
            worst = max(worst, rel)
            assert rel <= 1e-8, (n, lam_d, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 2: PASS (worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_limit_kernel_diagonal_and_radial():
    u = np.array([0.7, -1.3])
    diag2 = limit_kernel(2, u, u)
    assert abs(diag2 - 1.0 / (2.0 * math.pi)) <= 1e-10
    u3 = np.array([0.2, 0.5, -0.1])
    diag3 = limit_kernel(3, u3, u3)
    assert abs(diag3 - 1.0 / (2.0 * math.pi ** 2)) <= 1e-10
    worst = 0.0
    for n in (2, 3):
        for r in np.linspace(0.1, 20.0, 40):
            v = np.zeros(n)
            w = np.zeros(n)
            w[0] = r
            quad_route = limit_kernel(n, w, v)
            closed = limit_kernel_closed_form(n, float(r))
            rel = abs(quad_route - closed) / max(abs(closed), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-8, (n, r, rel)
    print(f"criterion 3: PASS (diag errs {abs(diag2 - 1/(2*math.pi)):.1e}/"
          f"{abs(diag3 - 1/(2*math.pi**2)):.1e}, radial worst rel {worst:.2e})")


# Check 4's window positions, and a geometric sweep lambda_j = 50 * 2^(j/10),
# j = 0..30, that holds them exactly at j = 0, 10, 20, 30.  The annulus
# count's O(lambda^(2/3)) remainder (van der Corput) gives the rate -1/3 for
# width-1 windows, the same rate as the halving clause over 50 -> 400
# (8^(-1/3) = 1/2); as in check 6, >= 31 geometric samples keep the fit from
# being dominated by the count's oscillation.
SCALING_LAMBDAS = (50.0, 100.0, 200.0, 400.0)
SCALING_SWEEP = tuple(50.0 * 2.0 ** (j / 10.0) for j in range(31))
SCALING_RATE = -1.0 / 3.0


def torus_scaling_sweep(lambdas):
    """Sup error of the rescaled torus2 kernel (window width 1) against its
    limit over check 4's 9x9 probe grid of radius 2, per derivative pair of
    total order <= 2 and per lambda.

    The torus kernel depends only on u - v, so the 289 distinct differences
    of the grid give the same sup as all 6561 ordered pairs.  Also returns
    the rescaled order-zero value at u - v = 0 for each lambda.
    """
    offsets = ProbeGrid(radius=2.0, points_per_axis=9).offsets(2)
    diffs = np.unique((offsets[:, None, :] - offsets[None, :, :])
                      .reshape(-1, 2), axis=0)
    origin = int(np.flatnonzero(~diffs.any(axis=1))[0])
    reach = float(np.max(np.linalg.norm(diffs, axis=1)))
    sups, diagonal = {}, {}
    for alpha in multi_indices(2, 2):
        for beta in multi_indices(2, 2 - sum(alpha)):
            order = DerivOrder(alpha=alpha, beta=beta)
            quad = sphere_quadrature(2, default_quad_degree(reach, order.omega))
            limit_vals = limit_kernel_batch(2, diffs, order, quad)
            seq = []
            for lam in lambdas:
                window = SpectralWindow(lam, lam + 1.0)
                vals = lam ** (-1 - order.omega) * torus_pair_deriv_batch(
                    TORUS2, window, diffs / lam, order)
                seq.append(float(np.max(np.abs(vals - limit_vals))))
                if order.omega == 0:
                    diagonal[lam] = float(vals[origin])
            sups[(format_multi_index(alpha), format_multi_index(beta))] = seq
    return sups, diagonal


def test_criterion_04_scaling_convergence_torus():
    t0 = time.perf_counter()
    rows = convergence_report(TORUS2, np.zeros(2), SCALING_LAMBDAS, 1.0,
                              2, 2, 2.0, 9)

    def total(s):
        return sum(int(c) for c in s.split(":"))

    sequences = {}
    for lam, alpha, beta, sup in rows:
        if total(alpha) + total(beta) <= 2:
            sequences.setdefault((alpha, beta), {})[lam] = sup
    assert len(sequences) == 15

    sweep, diagonal = torus_scaling_sweep(SCALING_SWEEP)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"check 4 took {elapsed:.1f}s (bound 120s)"
    assert set(sweep) == set(sequences)

    # the order-zero diagonal is the annulus lattice count, exactly
    annuli = {lam: counting_function(TORUS2, lam + 1.0)
              - counting_function(TORUS2, lam) for lam in SCALING_SWEEP}
    worst_count = 0.0
    for lam, count in annuli.items():
        want = count / (4.0 * math.pi ** 2 * lam)
        worst_count = max(worst_count, abs(diagonal[lam] - want) / want)
    assert worst_count <= 1e-12, (
        f"order-zero diagonal vs annulus count: rel err {worst_count:.1e} "
        "(bound 1e-12)")
    print("  annulus counts N(lam+1)-N(lam) at lam=50,100,200,400: "
          + " ".join(str(annuli[l]) for l in SCALING_LAMBDAS)
          + f"; diagonal vs count worst rel err {worst_count:.1e}")

    bad_ratio, bad_pin, bad_rate = [], [], []
    for pair in sorted(sequences):
        seq = [sequences[pair][l] for l in SCALING_LAMBDAS]
        dense = sweep[pair]
        fit = scaling_exponent_fit(list(zip(SCALING_SWEEP, dense)))
        steps = [b / a - 1.0 for a, b in zip(dense, dense[1:])]
        rises = sum(step > 0.10 for step in steps)
        print(f"  ({pair[0]})({pair[1]}) sups="
              + " ".join(f"{s:.3e}" for s in seq)
              + f" alpha_hat={fit.alpha_hat:.3f} residual={fit.residual:.3f}"
              f" rises>10%={rises}/{len(steps)}"
              f" (max {100 * max(steps):+.0f}%)")
        if seq[-1] > 0.5 * seq[0]:
            bad_ratio.append((pair, round(seq[-1] / seq[0], 3)))
        if dense[::10] != seq:
            bad_pin.append((pair, dense[::10], seq))
        if fit.alpha_hat > SCALING_RATE or fit.dropped_zeros:
            bad_rate.append((pair, round(fit.alpha_hat, 3), fit.dropped_zeros))
    violations = [
        f"{name} violated (bound: {bound}): {bad}"
        for name, bound, bad in (
            ("ratio clause", "sup(400) <= 0.5 sup(50)", bad_ratio),
            ("sweep pin", "sweep sups at lambda=50,100,200,400 bit-equal to "
             "convergence_report", bad_pin),
            ("decay-rate clause", f"alpha_hat <= -1/3 over "
             f"{len(SCALING_SWEEP)} window positions, no zero sups",
             bad_rate))
        if bad]
    assert not violations, "\n".join(violations)
    print(f"criterion 4: PASS (ratio, pin and decay-rate clauses for all 15 "
          f"pairs, {elapsed:.1f}s)")


def test_criterion_05_sphere_empty_vs_cluster_windows():
    t0 = time.perf_counter()
    y = np.array([0.6, 0.0, 0.8])
    for lo in (1.42, 10.4881, 50.49753):
        window = SpectralWindow(lo, lo + 1.0)
        assert projector_kernel(SPHERE, window, NORTH, y) == 0.0
        assert projector_kernel(SPHERE, window, NORTH, NORTH) == 0.0
    worst = 0.0
    for ell in (50, 100, 200):
        lam = cluster_lambda(ell) - 0.5
        # the rescaled kernel lam^-(n-1) E_(lam, lam+1] on the diagonal
        zero = np.zeros((1, 2))
        val = float(projector_kernel_deriv(
            SPHERE, SpectralWindow(lam, lam + 1.0), NORTH, zero, zero,
            DerivOrder.zero(2))[0] * lam ** -1)
        err = abs(val - 1.0 / (2.0 * math.pi))
        worst = max(worst, err)
        assert err <= 2e-2, (ell, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 5: PASS (empty windows exact 0, "
          f"cluster diag worst err {worst:.2e}, {elapsed:.1f}s)")


# 41 window positions: exponent fits on few-sample grids are dominated by
# the oscillation of the counting remainder (observed anywhere in
# [0.44, 0.99] for 5..17 samples); >= 31 geometric samples stabilize them
SWEEP_LAMBDAS = tuple(25.0 * (400.0 / 25.0) ** (i / 40.0) for i in range(41))
DIAG_PROBE = ProbeGrid(radius=0.1, points_per_axis=1)


def test_criterion_06_remainder_exponents_diagonal():
    t0 = time.perf_counter()
    torus_fit = remainder_sweep(TORUS2, np.zeros(2), DIAG_PROBE,
                                SWEEP_LAMBDAS).fit
    ells = sorted(set(int(round(l)) for l in SWEEP_LAMBDAS))
    sphere_fit = remainder_sweep(SPHERE, NORTH, DIAG_PROBE,
                                 tuple(cluster_lambda(e) for e in ells)).fit
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    assert torus_fit.alpha_hat <= 0.9, torus_fit
    assert sphere_fit.alpha_hat >= 0.9, sphere_fit
    print(f"criterion 6: PASS (torus alpha_hat={torus_fit.alpha_hat:.3f} <= 0.9, "
          f"sphere alpha_hat={sphere_fit.alpha_hat:.3f} >= 0.9, {elapsed:.1f}s)")


def test_criterion_07_remainder_exponent_first_derivatives():
    t0 = time.perf_counter()
    order = DerivOrder(alpha=(1, 0), beta=(1, 0))
    fit = remainder_sweep(TORUS2, np.zeros(2), DIAG_PROBE, SWEEP_LAMBDAS,
                          order=order).fit
    elapsed = time.perf_counter() - t0
    assert fit.alpha_hat <= 2.9, fit
    print(f"criterion 7: PASS (alpha_hat={fit.alpha_hat:.3f} <= 2.9, "
          f"{elapsed:.1f}s)")


def test_criterion_08_random_wave_covariance():
    t0 = time.perf_counter()
    window = SpectralWindow(200.0, 201.0)
    rng = np.random.default_rng(123)
    grid = rng.uniform(0.0, 2.0 * np.pi, size=(20, 2))
    ensemble = sample_ensemble(TORUS2, window, 2000, seed=11, grid=grid)
    hits = 0
    for p in range(10):
        i, j = 2 * p, 2 * p + 1
        est, se = empirical_covariance(ensemble, i, j)
        exact = projector_kernel(TORUS2, window, grid[i], grid[j])
        hits += abs(est - exact) <= 3.0 * se
    assert hits >= 9, hits
    rerun = sample_ensemble(TORUS2, window, 2000, seed=11, grid=grid)
    assert np.array_equal(ensemble.coeffs, rerun.coeffs)
    assert np.array_equal(ensemble.values, rerun.values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 8: PASS ({hits}/10 pairs within 3 SE, "
          f"rerun bit-identical, {elapsed:.1f}s)")


def torus_ray_min_distances(angles, t_min, t_max):
    """Exact min distance of the covering-plane ray to translated copies
    of the start point, per direction.  The ray's own start contributes
    its closest approach t_min (distance to the m=0 copy)."""
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    reach = int(math.ceil(t_max / (2.0 * math.pi))) + 1
    lattice = np.array([(2.0 * math.pi * i, 2.0 * math.pi * j)
                        for i in range(-reach, reach + 1)
                        for j in range(-reach, reach + 1)
                        if (i, j) != (0, 0)])
    proj = dirs @ lattice.T
    t_star = np.clip(proj, t_min, t_max)
    dist_sq = (t_star ** 2 - 2.0 * t_star * proj
               + np.sum(lattice ** 2, axis=1)[None, :])
    best = np.sqrt(np.maximum(np.min(dist_sq, axis=1), 0.0))
    return np.minimum(best, t_min)


def test_criterion_09_loopset_dichotomy():
    t0 = time.perf_counter()
    sphere_est = loopset_fraction(SurfaceSpec(kind="sphere"), (1.0, 0.3),
                                  1000, 7.0, 1e-3, seed=5)
    assert sphere_est.fraction == 1.0
    assert sphere_est.max_energy_drift <= 1e-6

    torus_est = loopset_fraction(SurfaceSpec(kind="torus"), (0.5, 1.2),
                                 1000, 7.0, 1e-3, seed=5)
    assert torus_est.max_energy_drift <= 1e-6
    assert torus_est.fraction <= 0.2
    assert torus_est.fraction_at(1e-4) <= torus_est.fraction_at(1e-3)

    # independent enumeration: straight covering-plane rays vs the lattice
    oracle = torus_ray_min_distances(torus_est.angles, torus_est.t_min, 7.0)
    assert np.max(np.abs(torus_est.min_distances - oracle)) < 1e-6
    assert np.array_equal(torus_est.min_distances <= 1e-3, oracle <= 1e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 9: PASS (sphere fraction 1.0, torus fraction "
          f"{torus_est.fraction:.3f}, drift {sphere_est.max_energy_drift:.1e}/"
          f"{torus_est.max_energy_drift:.1e}, lattice oracle agrees, "
          f"{elapsed:.1f}s)")


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _sphere_moment(n: int, exponents) -> float:
    # int over S^{n-1} of prod w_i^{a_i}: zero for any odd power, else
    # surface(S^{n-1}) * prod (a_i-1)!! / (n-2+sum a_i)!! style product
    if any(a % 2 for a in exponents):
        return 0.0
    total = sum(exponents)
    surface = 2.0 * math.pi if n == 2 else 4.0 * math.pi
    num = 1.0
    for a in exponents:
        num *= _double_factorial(a - 1)
    den = 1.0
    k = total + n - 2
    while k > n - 2:
        den *= k
        k -= 2
    return surface * num / den


def test_criterion_10_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    # projector symmetry, diagonal positivity, Cauchy-Schwarz,
    # window additivity, on all three models
    cases = [(TORUS2, lambda: rng.uniform(0, 2 * np.pi, 2)),
             (TORUS3, lambda: rng.uniform(0, 2 * np.pi, 3)),
             (SPHERE, lambda: _random_unit(rng))]
    for model, draw in cases:
        for _ in range(4):
            lo = rng.uniform(0.5, 9.0)
            mid = lo + rng.uniform(0.3, 2.0)
            hi = mid + rng.uniform(0.3, 2.0)
            x, y = draw(), draw()
            w = SpectralWindow(lo, hi)
            kxy = projector_kernel(model, w, x, y)
            kyx = projector_kernel(model, w, y, x)
            kxx = projector_kernel(model, w, x, x)
            kyy = projector_kernel(model, w, y, y)
            assert abs(kxy - kyx) <= 1e-12 * max(1.0, abs(kxy))
            assert kxx >= 0.0 and kyy >= 0.0
            assert kxy ** 2 <= kxx * kyy + 1e-9
            split = (projector_kernel(model, SpectralWindow(lo, mid), x, y)
                     + projector_kernel(model, SpectralWindow(mid, hi), x, y))
            assert abs(split - kxy) <= 1e-10 * max(1.0, abs(kxy))

    # exact power-law recovery
    lams = tuple(10.0 * 1.5 ** i for i in range(8))
    fit = scaling_exponent_fit([(l, 3.7 * l ** 1.25) for l in lams])
    assert abs(fit.alpha_hat - 1.25) <= 1e-10
    assert abs(fit.c_hat - 3.7) <= 1e-9
    assert fit.residual <= 1e-12

    # quadrature moment exactness up to the advertised degree
    for n, degree in ((2, 10), (3, 8)):
        quad = sphere_quadrature(n, degree)
        for exps in product(range(degree + 1), repeat=n):
            if sum(exps) > degree:
                continue
            mono = np.prod(quad.nodes ** np.array(exps), axis=1)
            got = float(np.dot(quad.weights, mono))
            want = _sphere_moment(n, exps)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, exps)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 10: PASS (symmetry, positivity, Cauchy-Schwarz, "
          f"additivity, fit recovery, moments; {elapsed:.1f}s)")


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)
