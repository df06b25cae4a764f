"""Remainder-field and exponent-fit tests.

The torus diagonal remainder has an exact counting expression,
(N(lam) - pi lam^2) / (2 pi)^2 in 2d, which serves as the oracle for the
assembled field; fits are validated on synthetic exact power laws.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, jv

from specproj import kernels, remainder
from specproj.kernels import (
    DerivOrder,
    ball_kernel_deriv,
    multi_indices,
    torus_pair_deriv_batch,
)
from specproj.models import (
    SpectralWindow,
    SphereModel,
    TorusModel,
    counting_function,
    exp_map,
    sphere_clusters,
    tangent_frame,
    torus_modes,
    torus_separation,
    torus_shells,
)
from specproj.remainder import (
    ExponentFit,
    ProbeGrid,
    cluster_lambda,
    remainder_batch,
    remainder_sweep,
    scaling_exponent_fit,
)

from mp_oracle import (mp_derivative, mp_exp_map, mp_frame,
                       mp_legendre_sum)

TWO_PI = 2.0 * math.pi


def remainder_at(model, x, y, lam, order=None):
    """remainder_batch on the one row (x, y) and the one lam."""
    if order is None:
        order = DerivOrder.zero(model.dim)
    return float(remainder_batch(model, [x], [y], (lam,), order)[0, 0])


class TestRemainderField:
    @pytest.mark.parametrize("lam", [3.0, 5.0, 11.0, 30.0])
    def test_torus_diagonal_counting_identity(self, lam):
        model = TorusModel(n=2)
        x = np.array([0.9, 4.4])
        got = remainder_at(model, x, x, lam)
        # zero mode included via the constant term: N counts it, the mode
        # sum does not, so both sides agree exactly
        want = (counting_function(model, lam)
                - math.pi * lam ** 2) / TWO_PI ** 2
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_torus3_diagonal_counting_identity(self):
        model = TorusModel(n=3)
        lam = 4.0
        x = np.array([1.0, 2.0, 3.0])
        got = remainder_at(model, x, x, lam)
        want = (counting_function(model, lam)
                - (4.0 * math.pi / 3.0) * lam ** 3) / TWO_PI ** 3
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_sphere_diagonal_counting_identity(self):
        model = SphereModel()
        x = np.array([0.0, 0.0, 1.0])
        for ell in (5, 12, 30):
            lam = cluster_lambda(ell)
            got = remainder_at(model, x, x, lam)
            # (L+1)^2 states through cluster L; main term lam^2/(4 pi)
            want = ((ell + 1) ** 2 - lam ** 2) / (4.0 * math.pi)
            assert got == pytest.approx(want, rel=1e-9)

    def test_off_diagonal_consistency(self):
        # remainder = projector + const - ball, assembled independently here
        from specproj.kernels import ball_kernel, projector_kernel
        from specproj.models import SpectralWindow, distance
        model = TorusModel(n=2)
        lam = 7.0
        x = np.array([0.3, 1.0])
        y = np.array([0.5, 0.8])
        got = remainder_at(model, x, y, lam)
        want = (projector_kernel(model, SpectralWindow(0.0, lam), x, y)
                + 1.0 / model.volume
                - ball_kernel(2, distance(model, x, y), lam))
        assert got == pytest.approx(want, rel=1e-11)

    def test_derivative_orders_torus(self):
        # (1,1) mixed derivative: compare against finite differences of the
        # order-zero remainder field
        model = TorusModel(n=2)
        lam = 6.0
        x0 = np.array([0.4, 2.2])
        h = 1e-5
        order = DerivOrder(alpha=(1, 0), beta=(1, 0))
        got = remainder_at(model, x0, x0, lam, order)

        def field(du, dv):
            return remainder_at(model,
                                   (x0 + du) % TWO_PI,
                                   (x0 + dv) % TWO_PI, lam)

        e1 = np.array([h, 0.0])
        want = (field(e1, e1) - field(e1, -e1)
                - field(-e1, e1) + field(-e1, -e1)) / (4 * h * h)
        assert got == pytest.approx(want, abs=2e-4 * max(1.0, abs(want)))

    def test_sphere_derivative_field_finite(self):
        model = SphereModel()
        x = np.array([0.0, 0.0, 1.0])
        order = DerivOrder(alpha=(1, 0), beta=(1, 0))
        val = remainder_at(model, x, x, cluster_lambda(8), order)
        assert math.isfinite(val)

    @pytest.mark.parametrize("lam", [cluster_lambda(8), 20.5, 47.3, 120.0])
    def test_sphere_first_derivative_closed_form(self, lam):
        # d/du1 at u = 0 of F(t) - B(arccos t), t = <exp_x(u), y>, is
        # (F'(t) + B'(d)/sin d) <e1(x), y> with F = sum_l (2l+1)/(4pi) P_l
        # over the clusters in (0, lam] and B(d) = lam J1(lam d)/(2 pi d)
        model = SphereModel()
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(3)
        points = exp_map(model, x0 / np.linalg.norm(x0),
                         rng.uniform(-0.6, 0.6, (6, 2)))
        ells = np.arange(1.0, 200.0)
        ells = ells[np.sqrt(ells * (ells + 1.0)) <= lam]
        order = DerivOrder(alpha=(1, 0), beta=(0, 0))
        for i, x in enumerate(points):
            e1, _ = tangent_frame(x)
            for j, y in enumerate(points):
                if i == j:
                    continue
                t = float(np.dot(x, y))
                d = math.acos(t)
                # P_l'(t) = l (t P_l - P_{l-1}) / (t^2 - 1)
                f1 = float(np.sum((2 * ells + 1) / (4 * math.pi) * ells
                                  * (t * eval_legendre(ells, t)
                                     - eval_legendre(ells - 1, t))))
                f1 /= t * t - 1
                b1 = -lam ** 3 / TWO_PI * jv(2, lam * d) / (lam * d)
                want = (f1 + b1 / math.sin(d)) * float(np.dot(e1, y))
                got = remainder_at(model, x, y, lam, order)
                assert got == pytest.approx(want, rel=1e-6)


class TestSphereRemainderDerivatives:
    # every order omega <= 4 against mpmath at 50 digits, relative to the
    # largest |value| of each order, on one diagonal and three off-diagonal
    # rows, the last with lam d > 12, past the Bessel series switch.  The
    # bracket F(t) - b(arccos(t)^2) is analytic at t = 1; the oracle takes
    # J_1(z)/z = 0F1(; 2; -z^2/4) / 2 for the ball term b.  The bound is
    # bessel_j_scaled's: near its switch at z = 12 it is off by up to 5e-12
    # relative, which the bracket's cancellation can raise to about 2e-12
    # of a value (order 0 shares it).
    model = SphereModel()
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(3)
    x0 /= np.linalg.norm(x0)
    xs = exp_map(model, x0, [[0.0, 0.0], [0.0, 0.0], [0.1, 0.1], [0.6, -0.3]])
    ys = exp_map(model, x0, [[0.0, 0.0], [0.3, -0.2], [-0.5, 0.6],
                             [-0.5, 0.5]])

    @pytest.mark.parametrize("omega", [0, 1, 2, 3, 4])
    def test_matches_mpmath(self, omega):
        lam = 12.3
        coeffs = kernels.sphere_coeffs(
            sphere_clusters(self.model, SpectralWindow(0.0, lam)))
        orders = [DerivOrder(a, b) for a in multi_indices(2, omega)
                  for b in multi_indices(2, omega) if sum(a) + sum(b) == omega]
        for order in orders:
            got = remainder_batch(self.model, self.xs, self.ys, (lam,),
                                  order)[0]
            want = []
            for x, y in zip(self.xs, self.ys):
                def bracket(u, v, x=mp_frame(x), y=mp_frame(y)):
                    t = sum(a * b for a, b in zip(mp_exp_map(x, u),
                                                  mp_exp_map(y, v)))
                    sigma = mp.re(mp.acos(t) ** 2)
                    ball = (lam * lam / (4 * mp.pi)
                            * mp.hyp0f1(2, -lam * lam * sigma / 4))
                    const = 1 / (4 * mp.pi) if omega == 0 else 0
                    return mp_legendre_sum(coeffs, t) + const - ball
                want.append(mp_derivative(bracket, np.zeros(2),
                                          np.zeros(2), order))
            want = np.array(want)
            assert (np.max(np.abs(got - want))
                    <= 1e-11 * np.max(np.abs(want))), order


class TestRemainderBatch:
    model = TorusModel(n=2)
    xs = np.array([[0.3, 1.0], [0.5, 0.8]])

    def test_rejects_far_pairs(self):
        with pytest.raises(ValueError):
            remainder_batch(self.model, np.zeros((1, 2)),
                            np.array([[math.pi - 0.1, math.pi - 0.1]]),
                            (5.0,), DerivOrder.zero(2))

    @pytest.mark.parametrize("model, x", [
        (TorusModel(n=2), [np.nan, 0.1]),
        (SphereModel(), [np.nan, 0.0, 1.0]),
    ], ids=["torus2", "sphere"])
    def test_rejects_nan_points(self, model, x):
        # a NaN distance compares false with the bound, so the check must
        # be written to fail on it
        with pytest.raises(ValueError, match="half the injectivity radius"):
            remainder_batch(model, [x], [list(x)], (5.0,),
                            DerivOrder.zero(model.dim))

    @pytest.mark.parametrize("lams", [
        (-1.0,), (0.0, -0.5, 3.0), (5.0, 4.0), (2.0, 8.0, 7.9), (np.nan,),
        (), 5.0], ids=["negative", "negative-later", "decreasing",
                       "decreasing-later", "nan", "empty", "scalar"])
    @pytest.mark.parametrize("model", [TorusModel(n=2), SphereModel()],
                             ids=["torus2", "sphere"])
    def test_rejects_bad_lambdas_before_any_window(self, monkeypatch, model,
                                                    lams):
        def refuse(*args):
            raise AssertionError("a window was enumerated")

        monkeypatch.setattr(kernels, "torus_modes", refuse)
        monkeypatch.setattr(kernels, "torus_shells", refuse)
        monkeypatch.setattr(remainder, "sphere_clusters", refuse)
        x0 = np.zeros(2) if isinstance(model, TorusModel) else [0.0, 0.0, 1.0]
        xs = exp_map(model, x0, self.xs)
        with pytest.raises(ValueError, match="does not decrease"):
            remainder_batch(model, xs, xs[::-1], lams,
                            DerivOrder.zero(2))

    def test_repeated_lambdas_and_zero_accepted(self):
        got = remainder_batch(self.model, self.xs, self.xs[::-1],
                              (0.0, 5.0, 5.0, 9.0), DerivOrder.zero(2))
        assert got.shape == (4, 2)
        assert np.array_equal(got[1], got[2])


FOLD_ORDERS = pytest.mark.parametrize("alpha, beta", [
    ((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 0), (0, 1)), ((2, 0), (0, 1)),
    ((2, 0), (0, 2))], ids=["0:0,0:0", "1:0,0:0", "1:0,0:1", "2:0,0:1",
                            "2:0,0:2"])


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestTorusFold:
    # remainder_batch evaluates each class {d, -d} of torus separations once;
    # every value must come out bit for bit as if each row were evaluated
    # on its own, unfolded
    model = TorusModel(n=2)
    points = exp_map(model, np.array([0.3, 6.1]),
                     ProbeGrid(0.5, 5).offsets(2))
    xs = np.repeat(points, 25, axis=0)
    ys = np.tile(points, (25, 1))

    @FOLD_ORDERS
    @pytest.mark.parametrize("lam", [0.0, 23.7])
    def test_batch_bit_equal_to_one_row_calls(self, alpha, beta, lam):
        order = DerivOrder(alpha, beta)
        batch = remainder_batch(self.model, self.xs, self.ys, (lam,),
                                order)[0]
        rows = [remainder_at(self.model, x, y, lam, order)
                for x, y in zip(self.xs, self.ys)]
        assert np.array_equal(bits(batch), bits(rows))

    @FOLD_ORDERS
    def test_batch_bit_equal_to_unfolded_bracket(self, alpha, beta):
        # the bracket written out on every row, with no fold
        lam = 23.7
        order = DerivOrder(alpha, beta)
        diffs = torus_separation(self.model, self.xs, self.ys)
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        mains = np.array([(-1.0) ** sum(beta)
                          * ball_kernel_deriv(2, w, lam, gamma)
                          for w in diffs])
        const = 1.0 / self.model.volume if order.omega == 0 else 0.0
        want = (torus_pair_deriv_batch(self.model, SpectralWindow(0.0, lam),
                                       diffs, order) + const - mains)
        got = remainder_batch(self.model, self.xs, self.ys, (lam,),
                                order)[0]
        assert np.array_equal(bits(got), bits(want))

    @FOLD_ORDERS
    def test_parity_in_the_separation(self, alpha, beta):
        # R(-d) == (-1)^omega R(d) bit for bit, evaluated in separate calls;
        # dyadic separations survive the wrap into [-pi, pi) exactly
        order = DerivOrder(alpha, beta)
        sign = (-1.0) ** order.omega
        d = np.array([[0.25, -0.375], [-0.5, 0.125], [0.0, -0.625],
                      [0.75, 0.0], [-0.25, -0.25]])
        zero = np.zeros_like(d)
        assert np.array_equal(torus_separation(self.model, -d, zero), -d)
        for lam in (0.0, 9.5, 40.2):
            plus = remainder_batch(self.model, d, zero, (lam,), order)[0]
            minus = remainder_batch(self.model, -d, zero, (lam,), order)[0]
            assert np.array_equal(minus, sign * plus)

    @FOLD_ORDERS
    def test_environment_trig_is_odd_bit_for_bit(self, alpha, beta):
        # Not a property of IEEE arithmetic but of numpy's float64 sin and
        # cos on this build: the fold above is exact only if
        # sin(-z) == -sin(z) and cos(-z) == cos(z) bit for bit.  Where this
        # fails, the fold moves values by an ulp and the bit-equality tests
        # above fail with it.
        rng = np.random.default_rng(7)
        z = rng.normal(size=100_000) * 500.0
        assert np.array_equal(np.sin(-z), -np.sin(z))
        assert np.array_equal(np.cos(-z), np.cos(z))
        # and so the mode sum itself, unfolded, on normal arguments
        order = DerivOrder(alpha, beta)
        d = rng.normal(size=(50, 2)) * 3.0
        window = SpectralWindow(30.0, 41.0)
        plus = torus_pair_deriv_batch(self.model, window, d, order)
        minus = torus_pair_deriv_batch(self.model, window, -d, order)
        assert np.array_equal(minus, (-1.0) ** order.omega * plus)


class TestOnePassSweep:
    # remainder_sweep evaluates all its lam in one pass: the torus windows
    # (lam_{j-1}, lam_j] are enumerated once each and their mode sums
    # carried; remainder_batch is the one-lam call of the same bracket

    def test_diagonal_sweep_bit_equal_to_per_lambda_batches(self):
        # at d = 0 and order 0 the mode sums are exact integers, so the
        # carry cannot round differently from one sum over (0, lam]
        model = TorusModel(n=2)
        x = np.array([[1.3, 0.2]])
        lams = tuple(np.geomspace(25.0, 400.0, 201))
        report = remainder_sweep(model, x[0], ProbeGrid(0.1, 1), lams)
        order = DerivOrder.zero(2)
        for lam, sup in zip(lams, report.sups):
            # one cached ball per lam would hold hundreds of MB
            torus_modes.cache_clear()
            want = abs(remainder_batch(model, x, x, (lam,), order)[0, 0])
            assert bits(sup) == bits(want)

    @pytest.mark.parametrize("alpha, beta", [
        ((1, 0), (0, 0)), ((2, 0), (0, 1)), ((1, 1), (1, 1))],
        ids=["1:0,0:0", "2:0,0:1", "1:1,1:1"])
    def test_grid_sweep_within_carry_bound(self, alpha, beta):
        # the carry and one pairwise sum round differently, by at most
        # 64 eps sum_k |k^gamma| / vol on every row
        model = TorusModel(n=2)
        x0 = np.array([0.3, 6.1])
        probe = ProbeGrid(0.5, 5)
        order = DerivOrder(alpha, beta)
        gamma = np.add(alpha, beta)
        lams = tuple(np.geomspace(8.0, 64.0, 9))
        report = remainder_sweep(model, x0, probe, lams, order)
        us, vs = probe.pairs(2)
        xs, ys = exp_map(model, x0, us), exp_map(model, x0, vs)
        for lam, sup in zip(lams, report.sups):
            k = torus_modes(model, SpectralWindow(0.0, lam)).vectors
            bound = (64 * np.finfo(float).eps
                     * np.sum(np.abs(np.prod(k ** gamma, axis=1)))
                     / model.volume)
            want = np.max(np.abs(remainder_batch(model, xs, ys, (lam,),
                                                  order)))
            assert abs(sup - want) <= bound

    @pytest.mark.parametrize("n, lams", [
        (2, tuple(np.geomspace(5.0, 80.0, 21))),
        (3, tuple(np.geomspace(3.0, 15.0, 11)))], ids=["torus2", "torus3"])
    def test_every_mode_enumerated_once(self, monkeypatch, n, lams):
        # one walk of contiguous, disjoint shell blocks over (0, lam_max],
        # and no cached window
        model = TorusModel(n=n)
        blocks = []

        def counting(model, m_min, m_max):
            vectors = torus_shells(model, m_min, m_max)
            squares = np.sum(vectors ** 2, axis=1)
            assert np.all((m_min <= squares) & (squares <= m_max))
            blocks.append((m_min, m_max, vectors.shape[0]))
            return vectors

        def refuse(*args):
            raise AssertionError("a cached window was enumerated")

        monkeypatch.setattr(kernels, "torus_shells", counting)
        monkeypatch.setattr(kernels, "torus_modes", refuse)
        remainder_sweep(model, np.zeros(n), ProbeGrid(0.1, 2), lams,
                        DerivOrder((1,) + (0,) * (n - 1), (0,) * n))
        m_min, m_max, counts = (list(column) for column in zip(*blocks))
        assert len(blocks) >= len(lams)
        assert m_min[0] == 1
        assert m_min[1:] == [top + 1 for top in m_max[:-1]]
        assert all(low <= top for low, top in zip(m_min, m_max))
        assert m_max[-1] == math.floor(Fraction(lams[-1]) ** 2)
        assert sum(counts) == counting_function(model, lams[-1]) - 1

    @pytest.mark.parametrize("n, x0, points, top, alpha, bound_mb", [
        (2, (1.3, 0.2), 1, 600.0, (0, 0), 4.0),
        (2, (0.3, 6.1), 3, 400.0, (1, 0), 12.0),
        (3, (0.3, 6.1, 2.0), 2, 40.0, (1, 0, 0), 14.0)],
        ids=["torus2-diagonal", "torus2-d1", "torus3-d1"])
    def test_sweep_memory_set_by_one_block(self, n, x0, points, top, alpha,
                                           bound_mb):
        # the shell blocks are summed and dropped, and no window is cached.
        # Measured peaks: 2.3, 8.4 and 9.5 MB; with every window cached and
        # the largest one built whole they were 22.6, 36.2 and 27.2 MB
        model = TorusModel(n=n)
        torus_modes.cache_clear()
        tracemalloc.start()
        try:
            remainder_sweep(model, np.array(x0), ProbeGrid(0.1, points),
                            tuple(np.geomspace(top / 16.0, top, 9)),
                            DerivOrder(alpha, (0,) * n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6
        assert torus_modes.cache_info().currsize == 0

    @pytest.mark.parametrize("lams", [(10.0, 20.0, 20.0, 40.0),
                                      (10.0, 40.0, 20.0, 80.0)],
                             ids=["repeated", "decreasing"])
    @pytest.mark.parametrize("model, x0", [
        (TorusModel(n=2), np.zeros(2)),
        (SphereModel(), np.array([0.0, 0.0, 1.0]))], ids=["torus2", "sphere"])
    def test_unordered_lambdas_refused_before_any_window(
            self, monkeypatch, model, x0, lams):
        def refuse(*args):
            raise AssertionError("a window was enumerated")

        monkeypatch.setattr(kernels, "torus_modes", refuse)
        monkeypatch.setattr(kernels, "torus_shells", refuse)
        monkeypatch.setattr(remainder, "sphere_clusters", refuse)
        with pytest.raises(ValueError, match="strictly increasing"):
            remainder_sweep(model, x0, ProbeGrid(0.1, 2), lams)


class TestSphereOnePassSweep:
    # a sphere sweep runs one Legendre pass with the coefficients of
    # (0, lam_max] and reads each lam_j's partial sum off at its top
    # degree, which takes the operations of a pass truncated there
    model = SphereModel()
    x0 = np.array([0.36, -0.48, 0.8])

    @pytest.mark.parametrize("alpha, beta", [
        ((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 0), (1, 0)),
        ((2, 0), (0, 1))], ids=["0:0,0:0", "1:0,0:0", "1:0,1:0", "2:0,0:1"])
    def test_sweep_bit_equal_to_per_lambda_batches(self, alpha, beta):
        # the range starts below the first cluster, sqrt(2)
        lams = tuple(np.geomspace(0.5, 400.0, 41))
        order = DerivOrder(alpha, beta)
        probe = ProbeGrid(0.3, 3)
        report = remainder_sweep(self.model, self.x0, probe, lams, order)
        us, vs = probe.pairs(2)
        xs, ys = exp_map(self.model, self.x0, us), exp_map(self.model,
                                                           self.x0, vs)
        want = [np.max(np.abs(remainder_batch(self.model, xs, ys, (lam,),
                                              order))) for lam in lams]
        assert np.array_equal(bits(report.sups), bits(want))

    def test_one_pass_per_sweep(self, monkeypatch):
        calls = {"legendre": 0, "exp_map": 0}
        legendre, exp = remainder.legendre_weighted_sum, kernels.exp_map

        def counted_legendre(*args, **kwargs):
            calls["legendre"] += 1
            return legendre(*args, **kwargs)

        def counted_exp_map(*args):
            calls["exp_map"] += 1
            return exp(*args)

        monkeypatch.setattr(remainder, "legendre_weighted_sum",
                            counted_legendre)
        monkeypatch.setattr(kernels, "exp_map", counted_exp_map)
        remainder_sweep(self.model, self.x0, ProbeGrid(0.1, 3),
                        tuple(np.geomspace(25.0, 400.0, 9)),
                        DerivOrder((1, 0), (0, 0)))
        assert calls == {"legendre": 1, "exp_map": 2}


class TestExponentFit:
    def test_exact_power_law_recovery(self):
        lams = (10.0, 20.0, 40.0, 80.0, 160.0)
        vals = tuple(3.7 * lam ** 1.25 for lam in lams)
        fit = scaling_exponent_fit(tuple(zip(lams, vals)))
        assert fit.alpha_hat == pytest.approx(1.25, abs=1e-12)
        assert fit.c_hat == pytest.approx(3.7, rel=1e-10)
        assert fit.residual < 1e-12
        assert fit.dropped_zeros == 0

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(-2.0, 3.0), c=st.floats(0.01, 50.0))
    def test_recovery_property(self, alpha, c):
        lams = (5.0, 10.0, 25.0, 60.0)
        samples = tuple((lam, c * lam ** alpha) for lam in lams)
        fit = scaling_exponent_fit(samples)
        assert fit.alpha_hat == pytest.approx(alpha, abs=1e-8)

    def test_zeros_dropped_and_counted(self):
        samples = ((1.0, 0.0), (2.0, 4.0), (4.0, 16.0), (8.0, 64.0),
                   (16.0, 256.0))
        fit = scaling_exponent_fit(samples)
        assert fit.dropped_zeros == 1
        assert fit.alpha_hat == pytest.approx(2.0, abs=1e-10)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            scaling_exponent_fit(((1.0, 0.0), (2.0, 0.0), (3.0, 1.0),
                                  (4.0, 1.0)))
        with pytest.raises(ValueError):
            scaling_exponent_fit(((2.0, 1.0), (1.0, 2.0), (3.0, 3.0),
                                  (4.0, 4.0)))   # not increasing

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, column, bad):
        # a NaN value used to count as a dropped zero, and a NaN lam
        # reached the least-squares solver
        samples = [[lam, lam ** 2] for lam in (1.0, 2.0, 4.0, 8.0, 16.0)]
        samples[2][column] = bad
        with pytest.raises(ValueError, match="finite"):
            scaling_exponent_fit(samples)

    def test_residual_reports_max_log_deviation(self):
        lams = (1.0, 2.0, 4.0, 8.0)
        vals = [lam ** 2 for lam in lams]
        vals[2] *= math.e   # one sample off by a factor e
        fit = scaling_exponent_fit(tuple(zip(lams, vals)))
        assert fit.residual > 0.5


class TestSweep:
    def test_probe_grid_shapes(self):
        grid = ProbeGrid(radius=0.2, points_per_axis=3)
        assert grid.offsets(2).shape == (9, 2)
        assert grid.offsets(3).shape == (27, 3)
        single = ProbeGrid(radius=0.2, points_per_axis=1)
        assert np.array_equal(single.offsets(2), np.zeros((1, 2)))

    @pytest.mark.parametrize("model,x0", [
        (TorusModel(n=2), np.array([0.3, 6.2])),
        (SphereModel(), np.array([0.6, 0.0, 0.8])),
    ])
    def test_pairs_map_like_paired_points(self, model, x0):
        # every ordered pair, u slowest; the sweep maps us and vs, which
        # must give the bits of mapping the 9 offsets once and pairing them
        grid = ProbeGrid(radius=0.2, points_per_axis=3)
        offsets = grid.offsets(2)
        us, vs = grid.pairs(2)
        assert np.array_equal(us, [u for u in offsets for _ in offsets])
        assert np.array_equal(vs, [v for _ in offsets for v in offsets])
        points = exp_map(model, x0, offsets)
        assert np.array_equal(bits(exp_map(model, x0, us)),
                              bits(np.repeat(points, 9, axis=0)))
        assert np.array_equal(bits(exp_map(model, x0, vs)),
                              bits(np.tile(points, (9, 1))))

    def test_torus_sweep_report(self):
        model = TorusModel(n=2)
        report = remainder_sweep(model, np.zeros(2),
                                 ProbeGrid(radius=0.1, points_per_axis=2),
                                 (10.0, 20.0, 40.0, 80.0))
        assert report.model_id == "torus2"
        assert len(report.sups) == 4
        assert all(s >= 0 for s in report.sups)
        assert math.isfinite(report.fit.alpha_hat)
        rows = report.csv_rows()
        assert rows[0][0] == 10.0
        record = report.summary_record()
        assert set(record) == {"model", "x0", "alpha", "beta", "alpha_hat",
                               "C_hat", "residual", "dropped_zeros"}

    def test_sphere_sweep_just_above_clusters(self):
        model = SphereModel()
        x0 = np.array([0.0, 0.0, 1.0])
        lams = tuple(cluster_lambda(ell) for ell in (6, 10, 16, 24))
        report = remainder_sweep(model, x0,
                                 ProbeGrid(radius=0.1, points_per_axis=2),
                                 lams)
        # diagonal remainder just above a cluster grows ~ lam/(4 pi)
        assert report.fit.alpha_hat > 0.5

    def test_sphere_sweep_sup_is_max_of_field(self):
        model = SphereModel()
        x0 = np.array([0.6, 0.0, 0.8])
        probe = ProbeGrid(radius=0.1, points_per_axis=3)
        order = DerivOrder(alpha=(1, 0), beta=(0, 0))
        lams = (10.5, 21.0, 42.0, 84.0)
        report = remainder_sweep(model, x0, probe, lams, order)
        points = exp_map(model, x0, probe.offsets(2))
        for lam, sup in zip(lams, report.sups):
            want = max(abs(remainder_at(model, x, y, lam, order))
                       for x in points for y in points)
            assert sup == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [(0, 0), (1, 0)],
                             ids=["order0", "order1:0"])
    @pytest.mark.parametrize("model", [SphereModel(), TorusModel(n=2)],
                             ids=["sphere", "torus2"])
    def test_domain_checked_before_any_window(self, model, alpha):
        # the corners (-r, -r) and (r, r) of a 3x3 grid lie 2 sqrt(2) r
        # apart, which reaches half the injectivity radius at r = 0.555
        order = DerivOrder(alpha=alpha, beta=(0, 0))
        x0 = (np.array([0.0, 0.0, 1.0]) if isinstance(model, SphereModel)
              else np.zeros(2))
        # windows beyond the frequency budget: enumerating any of them
        # would raise BudgetError, not ValueError
        with pytest.raises(ValueError, match="half the injectivity radius"):
            remainder_sweep(model, x0, ProbeGrid(0.6, 3),
                            (2e4, 3e4, 4e4, 5e4), order)
        report = remainder_sweep(model, x0, ProbeGrid(0.5, 3),
                                 (4.5, 9.0, 18.0, 36.0), order)
        assert all(s > 0 for s in report.sups)

    def test_sweep_needs_four_lambdas(self):
        model = TorusModel(n=2)
        with pytest.raises(ValueError):
            remainder_sweep(model, np.zeros(2), ProbeGrid(), (1.0, 2.0, 3.0))

    def test_cluster_lambda_offsets(self):
        assert cluster_lambda(10) == pytest.approx(math.sqrt(110) + 0.01)
        assert cluster_lambda(10, 0.25) == pytest.approx(math.sqrt(110) + 0.25)
