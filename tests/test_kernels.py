"""Projector/limit/ball kernel tests.

Oracle layout:
- torus derivative paths are checked against central finite differences
  of the underlying plain kernels, built here in the test, and sphere
  derivative paths against mpmath at 50 digits (tests/mp_oracle.py);
- the ball kernel closed form is checked against the in-package radial
  quadrature (the designated oracle) AND against scipy's Bessel as an
  unrelated third route;
- the limit kernel's quadrature path is checked against its closed form
  and against scipy.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as ssp

from specproj import kernels
from specproj.kernels import (
    DerivOrder,
    ball_kernel,
    ball_kernel_deriv,
    ball_kernel_quadrature,
    default_quad_degree,
    limit_kernel,
    limit_kernel_batch,
    limit_kernel_closed_form,
    multi_indices,
    projector_kernel,
    projector_kernel_deriv,
    sphere_deriv_batch,
    sphere_pair_deriv_batch,
    torus_cumulative_batch,
    torus_pair_deriv_batch,
)
from specproj.models import (
    BudgetError,
    SphereModel,
    SpectralWindow,
    TorusModel,
    exp_map,
    sphere_clusters,
    squared_norm_range,
    torus_modes,
    torus_shells,
)
from specproj.remainder import ProbeGrid
from specproj.special import legendre_weighted_sum, sphere_quadrature

from mp_oracle import (mp_derivative, mp_exp_map, mp_frame,
                       mp_legendre_sum)

TWO_PI = 2.0 * math.pi


def random_sphere_point(rng):
    x = rng.standard_normal(3)
    return x / np.linalg.norm(x)


class TestMultiIndices:
    def test_enumeration(self):
        idx = multi_indices(2, 2)
        assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert multi_indices(3, 0) == [(0, 0, 0)]
        assert len(multi_indices(3, 2)) == 10

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("max_order", [0, 1, 2, 3, 4])
    def test_matches_recursive_construction(self, dim, max_order):
        # the earlier recursive construction, kept here as the oracle
        def recursive(dim, max_order):
            out = []
            for total in range(max_order + 1):
                def build(prefix, remaining, dims_left):
                    if dims_left == 1:
                        out.append(prefix + (remaining,))
                        return
                    for head in range(remaining, -1, -1):
                        build(prefix + (head,), remaining - head,
                              dims_left - 1)
                build((), total, dim)
            return out

        assert multi_indices(dim, max_order) == recursive(dim, max_order)

    def test_orders_validated(self):
        with pytest.raises(ValueError):
            DerivOrder(alpha=(1, 2), beta=(3, 0))   # omega = 6 > 4
        with pytest.raises(ValueError):
            DerivOrder(alpha=(1,), beta=(0, 0))
        with pytest.raises(ValueError):
            DerivOrder(alpha=(-1, 0), beta=(0, 0))


class TestProjectorBasics:
    @pytest.mark.parametrize("model,window", [
        (TorusModel(n=2), SpectralWindow(0.0, 5.0)),
        (TorusModel(n=3), SpectralWindow(1.0, 3.0)),
        (SphereModel(), SpectralWindow(0.0, 12.0)),
    ])
    def test_symmetry_and_cauchy_schwarz(self, model, window):
        rng = np.random.default_rng(42)
        for _ in range(10):
            if isinstance(model, TorusModel):
                x = rng.uniform(0, TWO_PI, model.n)
                y = rng.uniform(0, TWO_PI, model.n)
            else:
                x = random_sphere_point(rng)
                y = random_sphere_point(rng)
            kxy = projector_kernel(model, window, x, y)
            kyx = projector_kernel(model, window, y, x)
            kxx = projector_kernel(model, window, x, x)
            kyy = projector_kernel(model, window, y, y)
            assert kxy == pytest.approx(kyx, abs=1e-10 * max(1.0, abs(kxy)))
            assert kxx >= 0.0 and kyy >= 0.0
            assert abs(kxy) <= math.sqrt(kxx * kyy) + 1e-10

    def test_diagonal_is_count_over_volume(self):
        t2 = TorusModel(n=2)
        w = SpectralWindow(0.0, 5.0)
        x = np.array([1.234, 5.0])
        assert projector_kernel(t2, w, x, x) == pytest.approx(
            80 / TWO_PI ** 2, rel=1e-12)
        s2 = SphereModel()
        ws = SpectralWindow(10.0, 11.0)
        p = random_sphere_point(np.random.default_rng(1))
        assert projector_kernel(s2, ws, p, p) == pytest.approx(
            21 / (4 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("x, y", [
        ([0.0, 0.0, 2.0], [0.0, 0.0, 2.0]),
        ([0.0, 0.0, 1.0], [0.0, 1.2, 1.6]),
        ([0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0])],
        ids=["non-unit-pair", "one-non-unit", "4-vectors"])
    def test_sphere_points_validated(self, x, y):
        # unchecked, each of these returned a kernel value (the first two
        # the diagonal one, as t is clipped to 1)
        with pytest.raises(ValueError, match="sphere point"):
            projector_kernel(SphereModel(), SpectralWindow(0.0, 12.0), x, y)

    def test_torus_points_validated(self):
        with pytest.raises(ValueError, match="torus point"):
            projector_kernel(TorusModel(n=2), SpectralWindow(0.0, 5.0),
                             [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])

    @settings(max_examples=40, deadline=None)
    @given(split=st.floats(0.3, 4.5))
    def test_window_additivity(self, split):
        model = TorusModel(n=2)
        x = np.array([0.7, 2.9])
        y = np.array([4.0, 1.1])
        low = projector_kernel(model, SpectralWindow(0.0, split), x, y)
        high = projector_kernel(model, SpectralWindow(split, 5.0), x, y)
        full = projector_kernel(model, SpectralWindow(0.0, 5.0), x, y)
        assert low + high == pytest.approx(full, abs=1e-11)

    def test_sphere_window_additivity(self):
        model = SphereModel()
        x = random_sphere_point(np.random.default_rng(7))
        y = random_sphere_point(np.random.default_rng(8))
        low = projector_kernel(model, SpectralWindow(0.0, 6.0), x, y)
        high = projector_kernel(model, SpectralWindow(6.0, 12.0), x, y)
        full = projector_kernel(model, SpectralWindow(0.0, 12.0), x, y)
        assert low + high == pytest.approx(full, abs=1e-11)

    def test_empty_window_zero(self):
        s2 = SphereModel()
        w = SpectralWindow(1.42, 2.42)   # gap between the l=1, l=2 clusters
        x = random_sphere_point(np.random.default_rng(3))
        assert projector_kernel(s2, w, x, x) == 0.0


def torus_fd_oracle(model, window, x0, u, v, alpha, beta, h=1e-5):
    """Plain central differences of the undifferentiated kernel."""
    dim = model.n

    def shift(base, idx, k):
        out = np.array(base, dtype=float)
        out[idx] += k * h
        return out

    def eval_uv(uu, vv):
        return projector_kernel(model, window, exp_map(model, x0, uu),
                                exp_map(model, x0, vv))

    # build the difference iteratively, one axis at a time
    def diff(fn, idx, order, on_u):
        if order == 0:
            return fn
        def stepped(uu, vv, fn=fn, idx=idx, on_u=on_u):
            if on_u:
                return (fn(shift(uu, idx, 1), vv)
                        - fn(shift(uu, idx, -1), vv)) / (2 * h)
            return (fn(uu, shift(vv, idx, 1))
                    - fn(uu, shift(vv, idx, -1))) / (2 * h)
        return diff(stepped, idx, order - 1, on_u)

    fn = eval_uv
    for i, a in enumerate(alpha):
        fn = diff(fn, i, a, True)
    for i, b in enumerate(beta):
        fn = diff(fn, i, b, False)
    return fn(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


class TestTorusDerivatives:
    def test_analytic_matches_fd_random_configs(self):
        rng = np.random.default_rng(11)
        model = TorusModel(n=2)
        window = SpectralWindow(2.0, 6.0)
        pairs = [((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 1), (1, 0)),
                 ((2, 0), (0, 0)), ((1, 1), (0, 0)), ((1, 0), (1, 0)),
                 ((0, 0), (0, 2))]
        checked = 0
        for alpha, beta in pairs:
            for _ in range(3):
                x0 = rng.uniform(0, TWO_PI, 2)
                u = rng.uniform(-0.4, 0.4, 2)
                v = rng.uniform(-0.4, 0.4, 2)
                order = DerivOrder(alpha=alpha, beta=beta)
                got = projector_kernel_deriv(model, window, x0, [u], [v],
                                             order)[0]
                want = torus_fd_oracle(model, window, x0, u, v, alpha, beta)
                scale = max(1.0, abs(want))
                assert got == pytest.approx(want, abs=1e-5 * scale)
                checked += 1
        assert checked >= 20

    def test_torus3_mixed_derivative(self):
        model = TorusModel(n=3)
        window = SpectralWindow(0.0, 2.5)
        x0 = np.array([0.5, 1.5, 2.5])
        u = np.array([0.1, -0.2, 0.05])
        v = np.array([-0.15, 0.1, 0.2])
        alpha, beta = (1, 0, 0), (0, 1, 0)
        order = DerivOrder(alpha=alpha, beta=beta)
        got = projector_kernel_deriv(model, window, x0, [u], [v], order)[0]
        want = torus_fd_oracle(model, window, x0, u, v, alpha, beta)
        assert got == pytest.approx(want, abs=1e-5 * max(1.0, abs(want)))

    def test_zero_order_equals_kernel(self):
        model = TorusModel(n=2)
        window = SpectralWindow(0.0, 4.0)
        x0 = np.array([0.2, 0.4])
        u = np.array([0.3, -0.1])
        v = np.array([0.0, 0.25])
        got = projector_kernel_deriv(model, window, x0, [u], [v],
                                     DerivOrder.zero(2))[0]
        want = projector_kernel(model, window, exp_map(model, x0, u),
                                exp_map(model, x0, v))
        assert got == pytest.approx(want, rel=1e-12)

    def test_batch_matches_scalar(self):
        model = TorusModel(n=2)
        window = SpectralWindow(1.0, 5.0)
        order = DerivOrder(alpha=(1, 0), beta=(0, 1))
        rng = np.random.default_rng(5)
        diffs = rng.uniform(-2, 2, size=(7, 2))
        batch = torus_pair_deriv_batch(model, window, diffs, order)
        for i in range(7):
            single = projector_kernel_deriv(model, window, np.zeros(2),
                                            diffs[i:i + 1], np.zeros((1, 2)),
                                            order)[0]
            assert batch[i] == pytest.approx(single, rel=1e-12, abs=1e-12)


class TestProjectorKernelDeriv:
    # the batched entry for both models: offset rows (rows, dim) around x0
    cases = pytest.mark.parametrize("model, x0", [
        (TorusModel(n=2), np.array([0.2, 0.4])),
        (SphereModel(), np.array([0.36, -0.48, 0.8]))],
        ids=["torus2", "sphere"])
    order = DerivOrder(alpha=(1, 0), beta=(0, 1))
    window = SpectralWindow(3.0, 9.0)

    @cases
    def test_rows_are_the_window_evaluators(self, model, x0):
        us, vs = (np.random.default_rng(4).uniform(-0.4, 0.4, (2, 6, 2)))
        got = projector_kernel_deriv(model, self.window, x0, us, vs,
                                     self.order)
        if isinstance(model, TorusModel):
            want = torus_pair_deriv_batch(model, self.window, us - vs,
                                          self.order)
        else:
            want = sphere_pair_deriv_batch(model, self.window, x0, us, vs,
                                           self.order)
        assert got.shape == (6,)
        assert np.array_equal(got, want)

    @cases
    @pytest.mark.parametrize("us, vs", [
        (np.zeros(2), np.zeros(2)),
        (np.zeros((3, 3)), np.zeros((3, 3))),
        (np.zeros((3, 2)), np.zeros((2, 2))),
        (np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))],
        ids=["one-offset", "wrong-dim", "unequal-rows", "3-d"])
    def test_rejects_mis_shaped_rows(self, model, x0, us, vs):
        with pytest.raises(ValueError, match="rows of shape"):
            projector_kernel_deriv(model, self.window, x0, us, vs,
                                   self.order)

    @cases
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_rejects_offsets_beyond_injectivity(self, model, x0, side):
        # one row of three reaches the injectivity radius
        rows = np.zeros((3, 2))
        far = rows.copy()
        far[1] = [model.injectivity_radius, 0.0]
        us, vs = (far, rows) if side == "u" else (rows, far)
        with pytest.raises(ValueError, match="injectivity radius"):
            projector_kernel_deriv(model, self.window, x0, us, vs,
                                   self.order)


class TestTorusCumulative:
    # torus_cumulative_batch carries the raw mode sums of the windows
    # (lam_{j-1}, lam_j] across a sweep
    model = TorusModel(n=2)
    diffs = np.random.default_rng(8).uniform(-1.0, 1.0, size=(40, 2))

    @pytest.mark.parametrize("alpha,beta", [((0, 0), (0, 0)),
                                            ((1, 0), (0, 0)),
                                            ((2, 0), (0, 1))])
    def test_one_lambda_is_the_window_batch(self, alpha, beta):
        order = DerivOrder(alpha, beta)
        for lam in (0.7, 13.2, 40.0):
            got = torus_cumulative_batch(self.model, (lam,), self.diffs, order)
            want = torus_pair_deriv_batch(self.model, SpectralWindow(0.0, lam),
                                          self.diffs, order)
            assert got.shape == (1, 40)
            assert np.array_equal(got[0], want)

    @pytest.mark.parametrize("alpha,beta", [((1, 0), (0, 0)),
                                            ((2, 0), (0, 1)),
                                            ((1, 1), (1, 1))])
    def test_carry_within_summation_bound(self, alpha, beta):
        # the carried sum and the one pairwise sum over (0, lam] may round
        # differently, by at most 64 eps sum_k |k^gamma| / vol
        order = DerivOrder(alpha, beta)
        gamma = np.add(alpha, beta)
        lams = tuple(np.geomspace(6.0, 60.0, 9))
        got = torus_cumulative_batch(self.model, lams, self.diffs, order)
        for row, lam in zip(got, lams):
            window = SpectralWindow(0.0, lam)
            want = torus_pair_deriv_batch(self.model, window, self.diffs,
                                          order)
            k = torus_modes(self.model, window).vectors
            bound = (64 * np.finfo(float).eps
                     * np.sum(np.abs(np.prod(k ** gamma, axis=1)))
                     / self.model.volume)
            assert np.max(np.abs(row - want)) <= bound

    @staticmethod
    def counted_blocks(monkeypatch):
        """Patch kernels.torus_shells to record each block's shell range
        (m_min, m_max); returns the list they go to."""
        blocks = []

        def counting(model, m_min, m_max):
            blocks.append((m_min, m_max))
            return torus_shells(model, m_min, m_max)

        monkeypatch.setattr(kernels, "torus_shells", counting)
        return blocks

    @pytest.mark.parametrize("n, lams, alpha, beta", [
        (2, (150.0, 300.0), (1, 0), (0, 0)),
        (2, (150.0, 300.0), (2, 0), (0, 1)),
        (3, (20.0, 40.0), (1, 0, 0), (0, 0, 1))],
        ids=["torus2-1:0,0:0", "torus2-2:0,0:1", "torus3-1:0:0,0:0:1"])
    def test_multi_block_carry_within_summation_bound(self, monkeypatch, n,
                                                      lams, alpha, beta):
        # windows of several shell blocks stay within the carry bound of
        # one pairwise sum over (0, lam]
        model = TorusModel(n=n)
        order = DerivOrder(alpha, beta)
        gamma = np.add(alpha, beta)
        diffs = np.random.default_rng(9).uniform(-1.0, 1.0, size=(40, n))
        blocks = self.counted_blocks(monkeypatch)
        got = torus_cumulative_batch(model, lams, diffs, order)
        first = squared_norm_range(SpectralWindow(0.0, lams[0]))[1]
        assert sum(m_min > first for m_min, _ in blocks) >= 3
        for row, lam in zip(got, lams):
            window = SpectralWindow(0.0, lam)
            want = torus_pair_deriv_batch(model, window, diffs, order)
            k = torus_modes(model, window).vectors
            bound = (64 * np.finfo(float).eps
                     * np.sum(np.abs(np.prod(k ** gamma, axis=1)))
                     / model.volume)
            assert np.max(np.abs(row - want)) <= bound
        torus_modes.cache_clear()

    @pytest.mark.parametrize("n, lams, alpha, beta", [
        (2, (100.0, 300.0), (0, 0), (0, 0)),
        (2, (100.0, 300.0), (2, 0), (0, 1)),
        (3, (20.0, 40.0), (1, 0, 0), (0, 0, 0))],
        ids=["torus2-0:0,0:0", "torus2-2:0,0:1", "torus3-1:0:0,0:0:0"])
    def test_row_alone_bit_equal_to_row_in_batch(self, monkeypatch, n, lams,
                                                 alpha, beta):
        # the block edges do not depend on the rows, and each row's sums
        # do not depend on its neighbours.  A one-row phase table is a
        # matrix-vector product, which numpy may round differently from a
        # matrix product; dyadic separations make every <k, d> exact, so
        # only the summation order could tell the two calls apart
        model = TorusModel(n=n)
        order = DerivOrder(alpha, beta)
        diffs = np.random.default_rng(10).integers(-64, 65, (41, n)) / 64.0
        blocks = self.counted_blocks(monkeypatch)
        batch = torus_cumulative_batch(model, lams, diffs, order)
        assert len(blocks) >= 4
        for i, row in enumerate(diffs):
            alone = torus_cumulative_batch(model, lams, row[None, :], order)
            assert np.array_equal(alone.view(np.uint64),
                                  batch[:, i:i + 1].view(np.uint64))

    @pytest.mark.parametrize("n, lams", [(2, (10.0, 2.0e4)),
                                         (3, (10.0, 600.0))],
                             ids=["frequency", "torus3-box"])
    def test_budget_refused_before_any_block(self, monkeypatch, n, lams):
        def refuse(*args):
            raise AssertionError("a block was enumerated before the budget "
                                 "check")

        monkeypatch.setattr(kernels, "torus_shells", refuse)
        with pytest.raises(BudgetError):
            torus_cumulative_batch(TorusModel(n=n), lams, np.zeros((1, n)),
                                   DerivOrder.zero(n))

    def test_repeated_and_decreasing_lambdas(self):
        order = DerivOrder.zero(2)
        got = torus_cumulative_batch(self.model, (0.0, 5.0, 5.0, 9.0),
                                     self.diffs, order)
        assert np.array_equal(got[0], np.zeros(40))
        assert np.array_equal(got[1], got[2])
        with pytest.raises(ValueError, match="must not decrease"):
            torus_cumulative_batch(self.model, (5.0, 4.0), self.diffs, order)


class TestSphereDerivatives:
    def test_mixed_derivative_closed_form(self):
        # for one cluster l, d/du1 d/dv1 at u=v=0 is (2l+1) l(l+1) / (8 pi)
        model = SphereModel()
        window = SpectralWindow(10.0, 11.0)   # exactly l=10
        x0 = np.array([0.0, 0.0, 1.0])
        order = DerivOrder(alpha=(1, 0), beta=(1, 0))
        got = projector_kernel_deriv(model, window, x0, np.zeros((1, 2)),
                                     np.zeros((1, 2)), order)[0]
        want = 21 * 110 / (8 * math.pi)
        assert got == pytest.approx(want, rel=1e-14)

    def test_first_derivative_vanishes_at_diagonal(self):
        model = SphereModel()
        window = SpectralWindow(3.0, 7.0)
        x0 = random_sphere_point(np.random.default_rng(9))
        for alpha in [(1, 0), (0, 1)]:
            got = projector_kernel_deriv(model, window, x0, np.zeros((1, 2)),
                                         np.zeros((1, 2)),
                                         DerivOrder(alpha=alpha,
                                                    beta=(0, 0)))[0]
            assert abs(got) < 1e-6

    def test_batch_matches_scalar(self):
        model = SphereModel()
        window = SpectralWindow(5.0, 9.0)
        x0 = np.array([0.0, 0.0, 1.0])
        order = DerivOrder(alpha=(0, 1), beta=(0, 0))
        rng = np.random.default_rng(2)
        us = rng.uniform(-0.3, 0.3, size=(5, 2))
        vs = rng.uniform(-0.3, 0.3, size=(5, 2))
        batch = sphere_pair_deriv_batch(model, window, x0, us, vs, order)
        for i in range(5):
            single = projector_kernel_deriv(model, window, x0, us[i:i + 1],
                                            vs[i:i + 1], order)[0]
            assert batch[i] == pytest.approx(single, rel=1e-9, abs=1e-9)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


class TestFaaDiBruno:
    def test_partitions_are_counted_by_bell_numbers(self):
        for count, bell in ((1, 1), (2, 2), (3, 5), (4, 15)):
            assert kernels.faa_di_bruno([1.0] * (count + 1),
                                        lambda block: 1.0, count) == bell

    def test_power_of_a_square(self):
        # F(y) = y^3 and g(x) = x^2: d^k/dx^k x^6 = 6!/(6-k)! x^(6-k)
        x = 1.5
        outer = [x ** (2 * (3 - j)) * math.perm(3, j) for j in range(5)]
        slope = (x * x, 2 * x, 2.0, 0.0, 0.0)
        for k in range(1, 5):
            got = kernels.faa_di_bruno(outer, lambda b: slope[len(b)], k)
            assert got == pytest.approx(math.perm(6, k) * x ** (6 - k),
                                        rel=1e-14)


class TestSphereDerivBatch:
    # exact derivatives of a profile of t = <x, y> against mpmath at 50
    # digits, relative to the largest |value| of each order; row 0 of the
    # one-base layout is the diagonal
    model = SphereModel()
    rng = np.random.default_rng(21)
    us = rng.uniform(-0.4, 0.4, (4, 2))
    vs = rng.uniform(-0.4, 0.4, (4, 2))
    us[0] = vs[0] = 0.0
    bases = rng.standard_normal((4, 3))
    bases /= np.linalg.norm(bases, axis=1)[:, None]
    coeffs = rng.uniform(0.0, 1.0, 61)
    ORDERS = [DerivOrder(a, b) for a in multi_indices(2, 4)
              for b in multi_indices(2, 4) if sum(a) + sum(b) <= 4]

    def profile(self, t, k):
        return legendre_weighted_sum(self.coeffs, t, derivs=k)

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.alpha}{o.beta}")
    def test_matches_mpmath(self, order):
        for xu, xv in ((self.bases[0], self.bases[0]),
                       (self.bases, self.bases[::-1])):
            got = sphere_deriv_batch(self.model, xu, xv, self.profile,
                                     self.us, self.vs, order)
            want = []
            for x, y, u, v in zip(np.broadcast_to(xu, (4, 3)),
                                  np.broadcast_to(xv, (4, 3)),
                                  self.us, self.vs):
                def kernel(u, v, x=mp_frame(x), y=mp_frame(y)):
                    t = sum(a * b for a, b in zip(mp_exp_map(x, u),
                                                  mp_exp_map(y, v)))
                    return mp_legendre_sum(self.coeffs, t)
                want.append(mp_derivative(kernel, u, v, order))
            want = np.array(want)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("order", [DerivOrder.zero(2),
                                       DerivOrder((1, 0), (0, 1)),
                                       DerivOrder((2, 0), (1, 1))],
                             ids=["0", "1:0,0:1", "2:0,1:1"])
    def test_leading_axis_of_the_profile(self, order):
        # a profile with one row per coefficient set gives one row each
        sets = self.rng.uniform(0.0, 1.0, (3, 40))

        def stacked(t, k):
            return np.stack([legendre_weighted_sum(c, t, derivs=k)
                             for c in sets], axis=1)

        got = sphere_deriv_batch(self.model, self.bases[1], self.bases[2],
                                 stacked, self.us, self.vs, order)
        assert got.shape == (3, 4)
        for row, c in zip(got, sets):
            want = sphere_deriv_batch(
                self.model, self.bases[1], self.bases[2],
                lambda t, k: legendre_weighted_sum(c, t, derivs=k),
                self.us, self.vs, order)
            assert bits(row) == bits(want)

    @pytest.mark.parametrize("order", [DerivOrder.zero(2),
                                       DerivOrder((1, 0), (1, 0)),
                                       DerivOrder((2, 2), (0, 0))],
                             ids=["0", "1:0,1:0", "2:2,0:0"])
    def test_one_pass_per_batch(self, monkeypatch, order):
        calls = {"legendre": [], "exp_map": 0}

        def legendre(coeffs, t, tops=None, derivs=0):
            calls["legendre"].append(t)
            return legendre_weighted_sum(coeffs, t, tops, derivs)

        def counted_exp_map(*args):
            calls["exp_map"] += 1
            return exp_map(*args)

        monkeypatch.setattr(kernels, "legendre_weighted_sum", legendre)
        monkeypatch.setattr(kernels, "exp_map", counted_exp_map)
        sphere_pair_deriv_batch(self.model, SpectralWindow(20.0, 30.0),
                                self.bases[0], self.us, self.vs, order)
        assert len(calls["legendre"]) == 1
        assert calls["exp_map"] == 2
        t = calls["legendre"][0]
        assert np.unique(t).size == t.size

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.alpha}{o.beta}")
    def test_pairs_equal_their_own_evaluation(self, order):
        # the jets of a side run once per distinct offset at one base
        # point and per row otherwise; either way every value is bit for
        # bit the one of its pair evaluated alone.  The rows are shuffled
        # and repeat, and some differ from others only by -0.0 for 0.0
        rng = np.random.default_rng(34)
        grid = rng.uniform(-0.4, 0.4, (7, 2))
        grid[:5] = [(0.0, 0.3), (-0.0, 0.3), (0.0, 0.0), (-0.0, -0.0),
                    (0.2, -0.0)]
        us = grid[rng.permutation(np.arange(16) % 7)]
        vs = grid[rng.permutation(np.arange(16) % 7)]
        per_row = self.rng.standard_normal((16, 3))
        per_row /= np.linalg.norm(per_row, axis=1)[:, None]
        for xu, xv in ((self.bases[0], self.bases[0]),
                       (self.bases[1], per_row), (per_row, per_row[::-1])):
            got = sphere_deriv_batch(self.model, xu, xv, self.profile, us,
                                     vs, order)
            alone = [sphere_deriv_batch(
                self.model, xu if np.ndim(xu) == 1 else xu[i],
                xv if np.ndim(xv) == 1 else xv[i], self.profile,
                us[i:i + 1], vs[i:i + 1], order)[0] for i in range(16)]
            assert bits(got) == bits(alone)

    @pytest.mark.parametrize("order", [DerivOrder.zero(2),
                                       DerivOrder((1, 0), (1, 0)),
                                       DerivOrder((2, 1), (0, 1))],
                             ids=["0", "1:0,1:0", "2:1,0:1"])
    def test_exp_map_sees_distinct_offsets(self, monkeypatch, order):
        # at one base point each side's exp map runs on the 25 distinct
        # offsets of the 625 probe pairs; with one base point per row, on
        # every row
        seen = []

        def recorded_exp_map(model, x0, rows):
            seen.append((np.ndim(x0), rows.shape))
            return exp_map(model, x0, rows)

        monkeypatch.setattr(kernels, "exp_map", recorded_exp_map)
        us, vs = ProbeGrid(0.3, 5).pairs(2)
        vs = vs.copy()
        vs[vs == 0.0] = -0.0
        window = SpectralWindow(20.0, 30.0)
        got = sphere_pair_deriv_batch(self.model, window, self.bases[0], us,
                                      vs, order)
        assert seen == [(1, (25, 2)), (1, (25, 2))]
        seen.clear()
        coeffs = kernels.sphere_coeffs(sphere_clusters(self.model, window))
        bases = np.broadcast_to(self.bases[0], (625, 3))
        rows = sphere_deriv_batch(
            self.model, bases, bases,
            lambda t, k: legendre_weighted_sum(coeffs, t, derivs=k), us, vs,
            order)
        assert seen == [(2, (625, 2)), (2, (625, 2))]
        assert bits(got) == bits(rows)

    def test_misshaped_offsets_refused(self):
        # rows are read as complex numbers only when they hold two floats
        for rows in (np.zeros((3, 4)), np.zeros((3, 3)), np.zeros((3, 1))):
            with pytest.raises(ValueError):
                sphere_deriv_batch(self.model, self.bases[0], self.bases[0],
                                   self.profile, rows, rows,
                                   DerivOrder.zero(2))

    @pytest.mark.parametrize("lam", [50.0, 400.0, 2000.0, 9000.0])
    def test_diagonal_identities_at_high_frequency(self, lam):
        # with F = sum_l c_l P_l and F'(1) = sum_l c_l l(l+1)/2: at u = v,
        # d_u1 d_v1 E = F'(1) g11(u), g11 = (u1/r)^2 + (sin r/r)^2 (u2/r)^2
        # the metric of normal coordinates, and d_u1^2 E(exp(u), x0) =
        # -F'(1) at u = 0.  Off u = 0, t = <X, X> rounds by an ulp, which
        # the derivatives amplify by F''(1)/F'(1) ~ lam^2/4
        window = SpectralWindow(lam, lam + 1.0)
        c = kernels.sphere_coeffs(sphere_clusters(self.model, window))
        ell = np.arange(c.size)
        slope = math.fsum(c * ell * (ell + 1) / 2)
        us = np.array([[0.0, 0.0], [0.3, -0.2], [-0.1, 0.4]])
        r = np.hypot(*us.T)
        g11 = np.ones(3)
        g11[1:] = ((us[1:, 0] / r[1:]) ** 2
                   + (np.sin(r[1:]) / r[1:] * us[1:, 1] / r[1:]) ** 2)
        got = sphere_pair_deriv_batch(self.model, window, self.bases[3], us,
                                      us, DerivOrder((1, 0), (1, 0)))
        assert np.max(np.abs(got / (slope * g11) - 1.0)) <= 2e-8
        zero = np.zeros((1, 2))
        got = sphere_pair_deriv_batch(self.model, window, self.bases[3], zero,
                                      zero, DerivOrder((2, 0), (0, 0)))[0]
        assert got == pytest.approx(-slope, rel=2e-8)


class TestBallKernel:
    LAMBDA_D = [0.1, 1.0, 5.0, 20.0, 50.0]

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_vs_quadrature_oracle(self, n):
        lam = 10.0
        for lam_d in self.LAMBDA_D:
            d = lam_d / lam
            closed = ball_kernel(n, d, lam)
            quad = ball_kernel_quadrature(n, d, lam)
            assert closed == pytest.approx(quad, rel=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_vs_scipy(self, n):
        lam = 7.0
        for lam_d in self.LAMBDA_D:
            d = lam_d / lam
            want = ((TWO_PI) ** (-n / 2) * lam ** (n / 2) * d ** (-n / 2)
                    * float(ssp.jv(n / 2, lam * d)))
            assert ball_kernel(n, d, lam) == pytest.approx(want, rel=1e-10)

    def test_diagonal_closed_values(self):
        # lam^n vol(B^n) / (2 pi)^n
        assert ball_kernel(2, 0.0, 10.0) == pytest.approx(
            100 * math.pi / TWO_PI ** 2, rel=1e-13)
        assert ball_kernel(3, 0.0, 10.0) == pytest.approx(
            1000 * (4 * math.pi / 3) / TWO_PI ** 3, rel=1e-13)

    def test_zero_frequency(self):
        assert ball_kernel(2, 0.5, 0.0) == 0.0

    def test_deriv_ladder_against_fd(self):
        # radial ladder evaluation vs finite differences of ball_kernel
        lam = 6.0
        h = 1e-5
        for n, w in [(2, np.array([0.31, -0.22])),
                     (3, np.array([0.2, 0.1, -0.33]))]:
            for gamma in [
                    (1,) + (0,) * (n - 1),
                    (2,) + (0,) * (n - 1),
                    (1, 1) + (0,) * (n - 2)]:
                got = ball_kernel_deriv(n, w, lam, gamma)

                def fd(fn, idx, order, point):
                    if order == 0:
                        return fn(point)
                    def stepped(p, fn=fn, idx=idx):
                        up = np.array(p); up[idx] += h
                        dn = np.array(p); dn[idx] -= h
                        return (fn(up) - fn(dn)) / (2 * h)
                    return fd(stepped, idx, order - 1, point)

                fn = lambda p, n=n: ball_kernel(n, float(np.linalg.norm(p)),
                                                lam)
                val = fn
                for i, g in enumerate(gamma):
                    if g:
                        val = (lambda p, f=val, i=i, g=g:
                               fd(f, i, g, p))
                got_fd = val(w) if callable(val) else val
                assert got == pytest.approx(got_fd,
                                            abs=2e-5 * max(1.0, abs(got)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_distance_array_equals_float_calls(self, n):
        # lam * d crosses the series switch at 12 inside the array
        d = np.array([0.0, 1e-9, 0.05, 0.3, 0.48, 0.4801, 1.5, 3.0])
        got = ball_kernel(n, d, 25.0)
        want = [ball_kernel(n, float(x), 25.0) for x in d]
        assert np.array_equal(got.view(np.uint64),
                              np.array(want).view(np.uint64))
        with pytest.raises(ValueError):
            ball_kernel(n, np.array([0.1, -0.1]), 25.0)

    @pytest.mark.parametrize("d, lam", [
        (0.3, math.nan), (math.nan, 10.0), (np.array([0.1, math.nan]), 10.0),
        (0.3, math.inf)])
    def test_rejects_nan_and_infinite(self, d, lam):
        with pytest.raises(ValueError, match="finite"):
            ball_kernel(2, d, lam)

    @pytest.mark.parametrize("d, lam", [
        (0.3, math.nan), (math.nan, 5.0), (0.3, math.inf), (math.inf, 5.0),
        (-0.1, 5.0), (0.3, -1.0)])
    def test_quadrature_rejects_nan_infinite_and_negative(self, d, lam):
        with pytest.raises(ValueError, match="finite"):
            ball_kernel_quadrature(2, d, lam)

    @pytest.mark.parametrize("gamma", [(1, 0), (2, 1), (3, 0), (1, 3), (0, 4)])
    def test_deriv_rows_equal_one_row_calls(self, gamma):
        # rows of w give the one-point values bit for bit, and -w gives
        # (-1)^|gamma| times them exactly
        rng = np.random.default_rng(3)
        w = rng.uniform(-0.6, 0.6, size=(40, 2))
        w[0] = 0.0
        lam = 31.0
        rows = ball_kernel_deriv(2, w, lam, gamma)
        one = np.array([ball_kernel_deriv(2, row, lam, gamma) for row in w])
        assert rows.shape == (40,)
        assert np.array_equal(rows.view(np.uint64), one.view(np.uint64))
        assert np.array_equal(ball_kernel_deriv(2, -w, lam, gamma),
                              (-1.0) ** sum(gamma) * rows)

    def test_deriv_zero_order_matches_kernel(self):
        w = np.array([0.4, 0.3])
        assert ball_kernel_deriv(2, w, 5.0, (0, 0)) == pytest.approx(
            ball_kernel(2, 0.5, 5.0), rel=1e-12)


class TestLimitKernel:
    def test_diagonal_constants(self):
        assert limit_kernel(2, np.zeros(2), np.zeros(2)) == pytest.approx(
            1.0 / TWO_PI, abs=1e-10)
        assert limit_kernel(3, np.zeros(3), np.zeros(3)) == pytest.approx(
            1.0 / (2.0 * math.pi ** 2), abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_quadrature_vs_closed_form(self, n):
        for r in [0.0, 0.05, 0.5, 1.0, 3.0, 8.0, 14.0, 20.0]:
            u = np.zeros(n)
            u[0] = r
            got = limit_kernel(n, u, np.zeros(n))
            want = limit_kernel_closed_form(n, r)
            assert got == pytest.approx(want, abs=1e-8 * max(1.0, abs(want)),
                                        rel=1e-8)

    def test_closed_form_vs_scipy(self):
        for r in (0.3, 1.0, 4.7):
            assert limit_kernel_closed_form(2, r) == pytest.approx(
                float(ssp.jv(0, r)) / TWO_PI, rel=1e-12)
            want3 = float(ssp.jv(0.5, r)) / math.sqrt(r) / TWO_PI ** 1.5
            assert limit_kernel_closed_form(3, r) == pytest.approx(
                want3, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_rejects_nan(self, n):
        with pytest.raises(ValueError, match="finite"):
            limit_kernel_closed_form(n, math.nan)

    def test_derivative_vs_fd(self):
        # quadrature-path derivatives against FD of the order-zero kernel
        n = 2
        quad = sphere_quadrature(2, default_quad_degree(3.0, 2))
        h = 1e-5
        u = np.array([0.4, -0.7])
        v = np.array([0.1, 0.3])
        for alpha, beta in [((1, 0), (0, 0)), ((0, 1), (1, 0)),
                            ((2, 0), (0, 0))]:
            order = DerivOrder(alpha=alpha, beta=beta)
            got = limit_kernel(n, u, v, order, quad)

            def plain(uu, vv):
                return limit_kernel(n, uu, vv, DerivOrder.zero(2), quad)

            # two-sided stencils composed axis by axis
            def diff_u(fn, idx, k):
                def g(uu, vv):
                    up = np.array(uu); up[idx] += h
                    dn = np.array(uu); dn[idx] -= h
                    return (fn(up, vv) - fn(dn, vv)) / (2 * h)
                return g if k == 1 else diff_u(g, idx, k - 1)

            def diff_v(fn, idx, k):
                def g(uu, vv):
                    up = np.array(vv); up[idx] += h
                    dn = np.array(vv); dn[idx] -= h
                    return (fn(uu, up) - fn(uu, dn)) / (2 * h)
                return g if k == 1 else diff_v(g, idx, k - 1)

            fn = plain
            for i, a in enumerate(alpha):
                if a:
                    fn = diff_u(fn, i, a)
            for i, b in enumerate(beta):
                if b:
                    fn = diff_v(fn, i, b)
            want = fn(u, v)
            assert got == pytest.approx(want, abs=1e-5)

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            u = rng.uniform(-2, 2, 2)
            v = rng.uniform(-2, 2, 2)
            t = rng.uniform(-1, 1, 2)
            a = limit_kernel(2, u, v)
            b = limit_kernel(2, u + t, v + t)
            assert a == pytest.approx(b, abs=1e-12)

    def test_batch_shape_and_consistency(self):
        diffs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.5]])
        quad = sphere_quadrature(2, default_quad_degree(2.5, 0))
        got = limit_kernel_batch(2, diffs, DerivOrder.zero(2), quad)
        assert got.shape == (3,)
        assert got[0] == pytest.approx(1.0 / TWO_PI, abs=1e-12)
        assert got[1] == pytest.approx(limit_kernel_closed_form(2, 1.0),
                                       abs=1e-12)


def rescaled_kernel(model, x0, lam, delta, u, v, order):
    """Derivative of lam^-(n-1) E_(lam, lam+delta](exp(u/lam), exp(v/lam)):
    one row of projector_kernel_deriv at the rescaled offsets, times the
    extra lam^-omega that differentiating after the rescaling brings."""
    window = SpectralWindow(lam, lam + delta)
    rows = np.asarray([u, v], dtype=float)[:, None, :] / lam
    base = projector_kernel_deriv(model, window, x0, *rows, order)[0]
    return float(base * lam ** (-(model.n - 1) - order.omega))


class TestRescaledKernel:
    def test_torus_diagonal_approaches_limit(self):
        model = TorusModel(n=2)
        x0 = np.zeros(2)
        vals = []
        for lam in (50.0, 100.0, 200.0):
            vals.append(rescaled_kernel(model, x0, lam, 1.0, np.zeros(2),
                                        np.zeros(2), DerivOrder.zero(2)))
        errs = [abs(v - 1.0 / TWO_PI) for v in vals]
        assert errs[-1] < errs[0]
        assert errs[-1] < 5e-3

    def test_sphere_cluster_rescaled_diagonal(self):
        # Mehler-Heine regime: one cluster at l=200
        model = SphereModel()
        ell = 200
        lam = math.sqrt(ell * (ell + 1.0))
        x0 = np.array([0.0, 0.0, 1.0])
        got = rescaled_kernel(model, x0, lam - 0.5, 1.0, np.zeros(2),
                              np.zeros(2), DerivOrder.zero(2))
        assert got == pytest.approx(1.0 / TWO_PI, abs=2e-2)

    def test_sphere_cluster_profile_matches_limit(self):
        # off-diagonal: (2l+1)/(4 pi lam) P_l(cos(r/lam)) -> J_0(r)/(2 pi)
        model = SphereModel()
        ell = 200
        lam = math.sqrt(ell * (ell + 1.0))
        x0 = np.array([0.0, 0.0, 1.0])
        for r in (0.5, 2.0, 5.0):
            u = np.array([r, 0.0])
            got = rescaled_kernel(model, x0, lam - 0.5, 1.0, u, np.zeros(2),
                                  DerivOrder.zero(2))
            want = limit_kernel_closed_form(2, r)
            assert got == pytest.approx(want, abs=2e-2)

    def test_derivative_scaling_consistency(self):
        # rescaled first derivative approaches the limit-kernel derivative
        model = TorusModel(n=2)
        x0 = np.zeros(2)
        order = DerivOrder(alpha=(1, 0), beta=(0, 0))
        u = np.array([1.3, 0.4])
        v = np.array([-0.2, 0.6])
        quad = sphere_quadrature(2, default_quad_degree(3.0, 1))
        want = limit_kernel(2, u, v, order, quad)
        errs = []
        for lam in (50.0, 400.0):
            got = rescaled_kernel(model, x0, lam, 1.0, u, v, order)
            errs.append(abs(got - want))
        assert errs[1] < errs[0]
        assert errs[1] < 2e-2
