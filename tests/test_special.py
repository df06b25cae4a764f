"""Special-function tests: scipy is the reference implementation here
(test-only dependency), plus a few self-contained identities that do not
rely on any library at all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sintegrate
from scipy import special as ssp

from specproj.special import (
    adaptive_simpson,
    bessel_j,
    bessel_j_scaled,
    legendre_weighted_sum,
    sphere_quadrature,
)

ORDERS = [0, 0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6]
ARGUMENTS = [0.0, 1e-9, 1e-3, 0.25, 1.0, 3.0, 7.5, 11.9, 12.0, 12.1,
             15.0, 25.0, 80.0, 300.0, 2000.0]


class TestBessel:
    @pytest.mark.parametrize("nu", ORDERS)
    def test_matches_scipy(self, nu):
        for x in ARGUMENTS:
            assert bessel_j(nu, x) == pytest.approx(float(ssp.jv(nu, x)),
                                                    abs=5e-12)

    def test_first_zero_of_j0(self):
        # published-precision first zero of J_0
        zero = 2.404825557695773
        assert abs(bessel_j(0, zero)) < 1e-9
        # bisection against our own series bracket confirms it independently
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_j(0, lo) * bessel_j(0, mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - zero) < 1e-12

    def test_half_integer_closed_forms(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x, exercised above the series cut
        for x in (12.5, 20.0, 100.0):
            want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(want, abs=1e-13)
        assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi,
                                                           rel=1e-13)

    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        for nu in (0.5, 1, 2.5, 6):
            assert bessel_j(nu, 0.0) == 0.0

    def test_rejects_unsupported_orders(self):
        with pytest.raises(ValueError):
            bessel_j(0.25, 1.0)
        with pytest.raises(ValueError):
            bessel_j(7, 1.0)
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)

    @pytest.mark.parametrize("nu", [0, 0.5, 1, 1.5, 2])
    def test_scaled_profile_is_entire(self, nu):
        # J_nu(z)/z^nu must be finite and smooth through z=0
        at_zero = 1.0 / (2.0 ** nu * math.gamma(nu + 1))
        assert bessel_j_scaled(nu, 0.0) == pytest.approx(at_zero, rel=1e-14)
        for z in (1e-12, 1e-6, 1e-2, 0.5, 5.0, 12.5, 40.0):
            want = float(ssp.jv(nu, z)) / z ** nu
            assert bessel_j_scaled(nu, z) == pytest.approx(want, rel=1e-10)

    def test_array_matches_scipy(self):
        # scipy's jv(nu, z) / z^nu at the module's 1e-10 target, relative
        # to the amplitude envelope, min(1/(2^nu Gamma(nu+1)), sqrt(2/(pi
        # z)) / z^nu), where J has zeros; below 1e-8 the profile equals
        # its value at 0 to double precision
        rng = np.random.default_rng(11)
        z = np.concatenate([
            [0.0, 1e-300, 12.0, np.nextafter(12.0, np.inf), 1e4],
            rng.uniform(0.0, 12.0, 400),
            np.exp(rng.uniform(math.log(12.0), math.log(1e4), 400))])
        tiny = z < 1e-8
        safe = np.where(tiny, 1.0, z)
        for nu in [k / 2 for k in range(13)]:
            at_zero = 1.0 / (2.0 ** nu * math.gamma(nu + 1.0))
            want = np.where(tiny, at_zero, ssp.jv(nu, safe) / safe ** nu)
            envelope = np.minimum(at_zero,
                                  np.sqrt(2.0 / (np.pi * safe)) / safe ** nu)
            scale = np.maximum(np.abs(want), envelope)
            err = np.abs(bessel_j_scaled(nu, z) - want) / scale
            assert np.max(err) <= 1e-10, nu

    def test_scalars_take_the_array_path(self):
        # a float, a 0-d array and a 1-element array give the bits of the
        # same element in a longer array; a float gives a float
        z = np.array([0.0, 1e-300, 3.7, 12.0, np.nextafter(12.0, np.inf),
                      12.5, 400.0, 1e4])
        for nu in [k / 2 for k in range(13)]:
            full = bessel_j_scaled(nu, z)
            for i, x in enumerate(z.tolist()):
                as_float = bessel_j_scaled(nu, x)
                assert type(as_float) is float
                one = bessel_j_scaled(nu, z[i:i + 1])
                assert one.shape == (1,)
                for got in (as_float, bessel_j_scaled(nu, np.array(x)),
                            one[0]):
                    assert (np.float64(got).view(np.uint64)
                            == full[i].view(np.uint64)), (nu, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9])
    def test_rejects_nan_infinite_and_negative(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bessel_j_scaled(1, bad)
        with pytest.raises(ValueError, match="finite"):
            bessel_j_scaled(2, np.array([1.0, bad, 30.0]))
        with pytest.raises(ValueError, match="finite"):
            bessel_j(0.5, bad)

    def test_array_keeps_shape_and_rejects_negatives(self):
        z = np.array([[0.0, 5.0, 13.0], [20.0, 0.5, 400.0]])
        got = bessel_j_scaled(2, z)
        assert got.shape == (2, 3)
        assert got[1, 2] == bessel_j_scaled(2, 400.0)
        assert bessel_j_scaled(1, np.zeros(0)).shape == (0,)
        with pytest.raises(ValueError):
            bessel_j_scaled(1, np.array([1.0, -1e-9]))

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_array_is_elementwise(self, nu):
        # callers evaluate on distinct arguments only and index back, so a
        # value must not depend on what else the array holds
        rng = np.random.default_rng(17)
        z = np.concatenate([[0.0, 12.0, np.nextafter(12.0, np.inf)],
                            rng.uniform(0.0, 24.0, 997)])
        full = bessel_j_scaled(nu, z)
        for subset in (np.arange(0, z.size, 7), np.flatnonzero(z > 12.0),
                       np.flatnonzero(z <= 12.0), rng.permutation(z.size)[:5],
                       np.array([1])):
            part = bessel_j_scaled(nu, z[subset])
            assert np.array_equal(part.view(np.uint64),
                                  full[subset].view(np.uint64))

    @settings(max_examples=80, deadline=None)
    @given(x=st.floats(0.0, 40.0))
    def test_recurrence_identity(self, x):
        # 2 nu J_nu = x (J_{nu-1} + J_{nu+1}); ties all regimes together
        for nu in (1, 2, 1.5):
            left = 2.0 * nu * bessel_j(nu, x)
            right = x * (bessel_j(nu - 1, x) + bessel_j(nu + 1, x))
            assert left == pytest.approx(right, abs=5e-11)


def legendre(ell: int, t, derivs: int = 0):
    """P^(k)_ell(t) for k = 0..derivs: the sweep on a unit coefficient
    vector."""
    return legendre_weighted_sum(np.eye(ell + 1)[ell], t, derivs=derivs)


class TestLegendre:
    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 5, 17, 50, 200])
    def test_matches_scipy(self, ell):
        # row 0 against scipy, rows 1.. against numpy's Legendre series
        # derivatives, relative to the largest |P^(k)| on [-1, 1], at t = 1
        t = np.linspace(-1.0, 1.0, 41)
        got = legendre(ell, t, derivs=4)
        assert np.allclose(got[0], ssp.eval_legendre(ell, t), rtol=0,
                           atol=1e-10)
        unit = np.eye(ell + 1)[ell]
        for k in range(1, 5):
            want = np.polynomial.legendre.legval(
                t, np.polynomial.legendre.legder(unit, k))
            scale = max(1.0, abs(want[-1]))
            assert np.max(np.abs(got[k] - want)) <= 1e-12 * scale

    def test_pinned_values(self):
        assert legendre(2, 0.5)[0] == pytest.approx(-0.125, abs=1e-15)
        for ell in (0, 1, 5, 40):
            assert legendre(ell, 1.0)[0] == pytest.approx(1.0, abs=1e-12)
            assert legendre(ell, -1.0)[0] == pytest.approx((-1.0) ** ell,
                                                           abs=1e-12)

    def test_derivative_against_finite_differences(self):
        # row k against a central difference of row k - 1
        h = 1e-6
        for ell in (1, 2, 7, 23, 50):
            for t in np.linspace(-0.99, 0.99, 21):
                rows = legendre(ell, t, derivs=4)
                up, down = legendre(ell, t + h, 3), legendre(ell, t - h, 3)
                for k in range(1, 5):
                    fd = (up[k - 1] - down[k - 1]) / (2 * h)
                    assert rows[k] == pytest.approx(
                        fd, abs=1e-6 * max(1, abs(rows[k])))

    def test_derivative_at_endpoints(self):
        # P'_l(+-1) = (+-1)^(l+1) l(l+1)/2 and in general
        # P^(k)_l(+-1) = (+-1)^(l+k) (l+k)! / (2^k k! (l-k)!)
        for ell in (1, 2, 10, 50):
            for sign in (1.0, -1.0):
                rows = legendre(ell, sign, derivs=4)
                assert rows[1] == pytest.approx(
                    sign ** (ell + 1) * ell * (ell + 1) / 2.0, rel=1e-12)
                for k in range(2, 5):
                    want = (sign ** (ell + k) * math.factorial(ell + k)
                            / (2 ** k * math.factorial(k)
                               * math.factorial(ell - k))) if k <= ell else 0
                    assert rows[k] == pytest.approx(want, rel=1e-12)

    def test_weighted_sum_matches_loop(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(12)
        t = np.linspace(-1, 1, 9)
        got = legendre_weighted_sum(coeffs, t)
        assert got.shape == (1, 9)
        want = sum(c * ssp.eval_legendre(l, t) for l, c in enumerate(coeffs))
        assert np.allclose(got[0], want, rtol=0, atol=1e-12)

    def test_in_place_sweep_equals_allocating_sweep(self):
        # the earlier sweep, one new array per operation, kept here as the
        # oracle: the in-place buffers take the same operations in order
        def allocating(coeffs, t):
            t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
            out = (np.full_like(t, coeffs[0]) if coeffs.size
                   else np.zeros_like(t))
            if coeffs.size <= 1:
                return out
            p_prev, p = np.ones_like(t), t.copy()
            out = out + coeffs[1] * p
            for m in range(1, coeffs.size - 1):
                p_next = ((2 * m + 1) * t * p - m * p_prev) / (m + 1)
                p_prev, p = p, p_next
                if coeffs[m + 1] != 0.0:
                    out = out + coeffs[m + 1] * p
            return out

        rng = np.random.default_rng(8)
        t = np.concatenate([[-1.0, 1.0, 0.0, -0.0], rng.uniform(-1, 1, 200)])
        for size in (0, 1, 2, 3, 40, 401):
            coeffs = rng.standard_normal(size)
            coeffs[rng.random(size) < 0.3] = 0.0
            assert bits(legendre_weighted_sum(coeffs, t)) == bits(
                allocating(coeffs, t))
            assert bits(legendre_weighted_sum(coeffs, 0.3)) == bits(
                allocating(coeffs, 0.3))
            # the derivative rows leave row 0 as it was
            assert bits(legendre_weighted_sum(coeffs, t, derivs=3)[0]) == bits(
                allocating(coeffs, t))

    @pytest.mark.parametrize("tops", [
        [-1], [0], [1], [-1, 0, 1], [3, 3, 3], [-1, -1, 5, 5, 29],
        [0, 1, 2, 7, 29]])
    def test_tops_equal_truncated_calls(self, tops):
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(30)
        coeffs[[2, 5, 11]] = 0.0
        for t in (np.concatenate([[-1.0, 1.0], rng.uniform(-1, 1, 50)]),
                  rng.uniform(-1, 1, (3, 4)), 1.0, -1.0, 0.25):
            for derivs in (0, 3):
                got = legendre_weighted_sum(coeffs, t, tops, derivs)
                assert got.shape == (derivs + 1, len(tops)) + np.shape(t)
                for i, top in enumerate(tops):
                    assert bits(got[:, i]) == bits(legendre_weighted_sum(
                        coeffs[:top + 1], t, derivs=derivs))

    def test_rejects_nan_and_out_of_range(self):
        coeffs = np.ones(4)
        for bad in (math.nan, 1.0 + 1e-9, -math.inf):
            with pytest.raises(ValueError, match="outside"):
                legendre_weighted_sum(coeffs, np.array([0.5, bad]))
            with pytest.raises(ValueError, match="outside"):
                legendre(3, bad, derivs=2)
        # within 1e-12 of the ends an argument is clamped
        assert bits(legendre_weighted_sum(coeffs, 1.0 + 1e-13)) == bits(
            legendre_weighted_sum(coeffs, 1.0))

    def test_tops_checked(self):
        coeffs = np.ones(5)
        for tops in ([2, 1], [-2], [5], [0, 5]):
            with pytest.raises(ValueError, match="tops"):
                legendre_weighted_sum(coeffs, np.zeros(3), tops)
        assert legendre_weighted_sum(coeffs, np.zeros(3), []).shape == (1, 0,
                                                                        3)
        assert np.array_equal(legendre_weighted_sum(np.zeros(0), np.ones(2),
                                                    [-1, -1], 2),
                              np.zeros((3, 2, 2)))


def ref_legendre_sweep(coeffs, t, tops=None, derivs=0):
    """legendre_weighted_sum as it ran before its leaner loop, frozen here
    as the oracle of its bits: augmented operators, float steps read off
    tables as numpy scalars and a coefficient test at every degree."""
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    wanted = [coeffs.size - 1] if tops is None else [int(k) for k in tops]
    shape = (derivs + 1,) + t.shape
    sums = np.zeros((derivs + 1, len(wanted)) + t.shape)
    rows = {l: [i for i, top in enumerate(wanted) if top == l]
            for l in wanted}
    if wanted and wanted[-1] >= 0:
        out = np.zeros(shape)
        out[0] = coeffs[0]
        if 0 in rows:
            sums[:, rows[0]] = out[:, None]
        bufs = [np.zeros(shape) for _ in range(3)]
        bufs[0][0] = bufs[1][0] = 1.0
        p_prev, p, p_next = ((b, b[1:], b[:-1]) for b in bufs)
        t_rows = np.broadcast_to(t, shape).copy()
        scratch, lower = np.empty(shape), np.empty((derivs,) + t.shape)
        steps = np.arange(wanted[-1] + 1, dtype=float)
        odd = 2.0 * steps + 1.0
        for m in range(wanted[-1]):
            (prev, _, _), (cur, _, cur_lo), (nxt, nxt_hi, _) = p_prev, p, p_next
            np.multiply(t_rows, odd[m], out=scratch)
            np.multiply(cur, scratch, out=nxt)
            if derivs:
                np.multiply(cur_lo, odd[m], out=lower)
                nxt_hi += lower
            prev *= steps[m]
            nxt -= prev
            nxt /= steps[m + 1]
            p_prev, p, p_next = p, p_next, p_prev
            if m == 0 or coeffs[m + 1] != 0.0:
                np.multiply(p[0], coeffs[m + 1], out=scratch)
                out += scratch
            if m + 1 in rows:
                sums[:, rows[m + 1]] = out[:, None]
        factorials = [math.factorial(k) for k in range(derivs + 1)]
        sums *= np.reshape(factorials, (-1,) + (1,) * (sums.ndim - 1))
    return sums if tops is not None else sums[:, 0]


class TestFrozenSweep:
    # the sweep against ref_legendre_sweep, bit for bit
    rng = np.random.default_rng(25)
    T = np.concatenate([[1.0, -1.0, 0.0, -0.0, 1.0 - 2.0 ** -52,
                         -1.0 + 2.0 ** -52], rng.uniform(-1.0, 1.0, 40)])
    dense = rng.standard_normal(1501)
    # a window's few clusters, a zero coefficient at degree 1 included
    sparse = np.zeros(1501)
    sparse[[0, 2, 700, 1499, 1500]] = rng.uniform(0.5, 1.0, 5)

    @pytest.mark.parametrize("derivs", range(5))
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_whole_sweep(self, kind, derivs):
        coeffs = getattr(self, kind)
        for t in (self.T, self.T.reshape(2, -1), 0.25, -0.0):
            assert bits(legendre_weighted_sum(coeffs, t, derivs=derivs)) == (
                bits(ref_legendre_sweep(coeffs, t, derivs=derivs)))

    @pytest.mark.parametrize("tops", [
        [-1], [-1, -1, 0, 0, 1], [511, 512, 513], [-1, 511, 511, 1500],
        [0, 2, 511, 512, 512, 513, 700, 1500, 1500]])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_partial_sums(self, kind, tops):
        coeffs = getattr(self, kind)
        for derivs in (0, 2, 4):
            assert bits(legendre_weighted_sum(coeffs, self.T, tops,
                                              derivs)) == bits(
                ref_legendre_sweep(coeffs, self.T, tops, derivs))

    def test_short_and_empty_sweeps(self):
        for size in (0, 1, 2, 3):
            coeffs = self.dense[:size]
            for derivs in (0, 4):
                assert bits(legendre_weighted_sum(coeffs, self.T,
                                                  derivs=derivs)) == bits(
                    ref_legendre_sweep(coeffs, self.T, derivs=derivs))


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


def double_factorial(k: int) -> int:
    return math.prod(range(k - 1, 0, -2)) if k > 1 else 1


def circle_moment(a: int, b: int) -> float:
    if a % 2 or b % 2:
        return 0.0
    return (2 * math.pi * double_factorial(a) * double_factorial(b)
            / math.prod(range(a + b, 0, -2)))


def sphere_moment(a: int, b: int, c: int) -> float:
    if a % 2 or b % 2 or c % 2:
        return 0.0
    num = (4 * math.pi * double_factorial(a) * double_factorial(b)
           * double_factorial(c))
    return num / math.prod(range(a + b + c + 1, 0, -2))


class TestQuadrature:
    def test_circle_moments_exact_to_degree(self):
        quad = sphere_quadrature(2, 10)
        for a in range(0, 11):
            for b in range(0, 11 - a):
                got = float(np.sum(quad.weights * quad.nodes[:, 0] ** a
                                   * quad.nodes[:, 1] ** b))
                assert got == pytest.approx(circle_moment(a, b), abs=1e-12)

    def test_sphere_moments_exact_to_degree(self):
        quad = sphere_quadrature(3, 8)
        for a in range(0, 9):
            for b in range(0, 9 - a):
                for c in range(0, 9 - a - b):
                    got = float(np.sum(quad.weights * quad.nodes[:, 0] ** a
                                       * quad.nodes[:, 1] ** b
                                       * quad.nodes[:, 2] ** c))
                    assert got == pytest.approx(sphere_moment(a, b, c),
                                                abs=1e-12)

    def test_total_measure(self):
        assert float(np.sum(sphere_quadrature(2, 4).weights)) == \
            pytest.approx(2 * math.pi, rel=1e-14)
        assert float(np.sum(sphere_quadrature(3, 4).weights)) == \
            pytest.approx(4 * math.pi, rel=1e-14)

    def test_nodes_on_unit_sphere(self):
        for n in (2, 3):
            quad = sphere_quadrature(n, 14)
            norms = np.linalg.norm(quad.nodes, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-14)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            sphere_quadrature(2, 300)


def recursive_simpson(f, a, b, tol=1e-11, min_panels=8, max_depth=40):
    # the depth-first adaptive Simpson that evaluated f on one float at a
    # time (every inner panel edge twice), kept here as the oracle
    def simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def refine(x0, f0, x2, f2, whole_mid, whole_fmid, whole, tol_here, depth):
        lm, lf, left = simpson(x0, f0, whole_mid, whole_fmid)
        rm, rf, right = simpson(whole_mid, whole_fmid, x2, f2)
        err = left + right - whole
        if abs(err) <= 15.0 * tol_here or depth >= max_depth:
            return left + right + err / 15.0
        return (refine(x0, f0, whole_mid, whole_fmid, lm, lf, left,
                       0.5 * tol_here, depth + 1)
                + refine(whole_mid, whole_fmid, x2, f2, rm, rf, right,
                         0.5 * tol_here, depth + 1))

    edges = np.linspace(a, b, min_panels + 1)
    total = 0.0
    for x0, x2 in zip(edges[:-1], edges[1:]):
        f0, f2 = f(x0), f(x2)
        mid, fmid, whole = simpson(x0, f0, x2, f2)
        total += refine(x0, f0, x2, f2, mid, fmid, whole,
                        tol / min_panels, 0)
    return total


class TestAdaptiveSimpson:
    @pytest.mark.parametrize("f, a, b, tol, min_panels, max_depth", [
        (lambda x: np.exp(-x * x), 0.0, 3.0, 1e-12, 8, 40),
        (lambda x: np.cos(17.0 * x), 0.0, 2.0, 1e-12, 3, 40),
        (lambda x: np.sqrt(x), 0.0, 1.0, 1e-13, 8, 40),
        (lambda x: x * bessel_j_scaled(0, 0.7 * x), 0.0, 15.0, 1e-9, 19, 40),
        # a jump never meets the tolerance: the depth limit accepts
        (lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0, 1e-12, 8, 6),
    ])
    def test_levels_equal_recursion(self, f, a, b, tol, min_panels,
                                    max_depth):
        # the same distinct abscissae, f called once per level, and the
        # recursion's estimates added in the recursion's order
        level_calls = []
        scalar_calls = []

        def by_level(x):
            level_calls.append(x.copy())
            return f(x)

        def by_float(x):
            scalar_calls.append(float(x))
            return f(x)

        got = adaptive_simpson(by_level, a, b, tol, min_panels, max_depth)
        want = recursive_simpson(by_float, a, b, tol, min_panels, max_depth)
        assert bits(got) == bits(want)
        assert np.array_equal(np.unique(np.concatenate(level_calls)),
                              np.unique(scalar_calls))
        assert len(level_calls) <= max_depth + 2
        assert sum(x.size for x in level_calls) < len(scalar_calls)

    def test_against_scipy_quad(self):
        cases = [
            (lambda x: np.exp(-x * x), 0.0, 3.0),
            (lambda x: np.cos(17.0 * x), 0.0, 2.0),
            (lambda x: x ** 5 - 2 * x + 1, -1.0, 2.5),
            (lambda x: np.sqrt(x + 1.0), 0.0, 4.0),
        ]
        for f, a, b in cases:
            want, _ = sintegrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13)
            assert adaptive_simpson(f, a, b, tol=1e-12) == pytest.approx(
                want, abs=1e-10)

    def test_polynomials_exact(self):
        # Simpson is exact through cubics on any panel split
        got = adaptive_simpson(lambda x: x ** 3 - x, 0.0, 2.0, tol=1e-10)
        assert got == pytest.approx(2.0, abs=1e-13)

    def test_empty_interval(self):
        assert adaptive_simpson(np.sin, 1.0, 1.0) == 0.0
