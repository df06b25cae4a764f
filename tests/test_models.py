"""Geometry and mode-enumeration tests.

The counting oracle here is an independent brute-force lattice scan,
deliberately written in the dumbest possible way (full box, no pruning)
so it shares nothing with the production enumeration.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specproj.models import (
    BudgetError,
    SphereModel,
    SpectralWindow,
    TorusModel,
    counting_function,
    distance,
    exp_map,
    lead_sign,
    sphere_clusters,
    squared_norm_range,
    tangent_frame,
    torus_modes,
    torus_separation,
    torus_shells,
)

TWO_PI = 2.0 * math.pi


def brute_force_count_torus(n: int, lam: float) -> int:
    """Count k in Z^n with 0 < |k|^2 <= lam^2, plus the zero mode."""
    limit = int(math.floor(lam)) + 1
    axis = np.arange(-limit, limit + 1)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    sq = sum(g.astype(np.int64) ** 2 for g in grids)
    lam2 = math.floor(Fraction(lam) ** 2)
    return int(np.count_nonzero(sq <= lam2))


def brute_force_modes_torus(n: int, window: SpectralWindow) -> np.ndarray:
    """k in Z^n with |k| in (lo, hi], by a full box scan in meshgrid "ij"
    (lexicographic) order."""
    limit = int(math.floor(window.hi)) + 1
    axis = np.arange(-limit, limit + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=1)
    sq = np.sum(box * box, axis=1)
    keep = ((sq > math.floor(Fraction(window.lo) ** 2))
            & (sq <= math.floor(Fraction(window.hi) ** 2)))
    return box[keep]


def brute_force_count_sphere(lam: float) -> int:
    count = 0
    ell = 0
    while ell * (ell + 1) <= math.floor(Fraction(lam) ** 2):
        count += 2 * ell + 1
        ell += 1
    return count


class TestCounting:
    @pytest.mark.parametrize("lam", [1.0, 2.0, 5.0, 10.5, 50.0, 200.0])
    def test_torus2_matches_brute_force(self, lam):
        model = TorusModel(n=2)
        assert counting_function(model, lam) == brute_force_count_torus(2, lam)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.5, 7.0, 20.0])
    def test_torus3_matches_brute_force(self, lam):
        model = TorusModel(n=3)
        assert counting_function(model, lam) == brute_force_count_torus(3, lam)

    def test_known_values(self):
        t2 = TorusModel(n=2)
        assert counting_function(t2, 5.0) == 81
        assert counting_function(t2, 2.0) == 13
        assert counting_function(t2, 0.0) == 1

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, 10.5, 31.0, 200.0])
    def test_sphere_matches_brute_force(self, lam):
        model = SphereModel()
        assert counting_function(model, lam) == brute_force_count_sphere(lam)

    def test_sphere_closed_form(self):
        # every full cluster through L included: (L+1)^2 states
        model = SphereModel()
        assert counting_function(model, 10.5) == 121
        assert counting_function(model, 0.0) == 1

    def test_counting_is_right_continuous_in_window_sense(self):
        # N(lam) counts <= lam^2, so crossing an eigenvalue bumps the count
        model = TorusModel(n=2)
        assert counting_function(model, 1.0) == 5
        assert counting_function(model, 0.999999) == 1


class TestWindows:
    def test_half_open_membership_is_exact(self):
        # (lo, hi] with hi exactly on an eigenvalue must include it
        lo, hi = squared_norm_range(SpectralWindow(1.0, 2.0))
        assert (lo, hi) == (2, 4)
        lo, hi = squared_norm_range(SpectralWindow(0.0, 5.0))
        assert (lo, hi) == (1, 25)

    def test_float_windows_do_not_leak_neighbors(self):
        # 2.2360679... ~ sqrt(5); the window must not include m=5 until hi^2
        # actually reaches 5 as a rational
        lo, hi = squared_norm_range(SpectralWindow(2.0, 2.2360679))
        assert hi == 4
        lo, hi = squared_norm_range(SpectralWindow(2.0, 2.2360680))
        assert hi == 5

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SpectralWindow(2.0, 2.0)
        with pytest.raises(ValueError):
            SpectralWindow(-1.0, 2.0)
        with pytest.raises(ValueError):
            SpectralWindow(0.0, math.inf)

    def test_mode_counts(self):
        t2 = TorusModel(n=2)
        assert torus_modes(t2, SpectralWindow(0.0, 5.0)).count == 80
        t3 = TorusModel(n=3)
        assert torus_modes(t3, SpectralWindow(0.0, 2.0)).count == 32
        s2 = SphereModel()
        clusters = sphere_clusters(s2, SpectralWindow(10.0, 11.0)).clusters
        assert [(c.ell, c.multiplicity) for c in clusters] == [(10, 21)]
        clusters = sphere_clusters(s2, SpectralWindow(0.0, 1.5)).clusters
        assert [(c.ell, c.multiplicity) for c in clusters] == [(1, 3)]

    def test_empty_windows(self):
        t2 = TorusModel(n=2)
        assert torus_modes(t2, SpectralWindow(2.3, 2.8)).count == 0
        s2 = SphereModel()
        assert sphere_clusters(s2, SpectralWindow(1.5, 2.4)).count == 0

    @settings(max_examples=60, deadline=None)
    @given(split=st.floats(0.5, 7.5), hi=st.floats(8.0, 12.0))
    def test_mode_sets_partition_across_split(self, split, hi):
        # (0, split] and (split, hi] partition (0, hi] exactly
        model = TorusModel(n=2)
        low = torus_modes(model, SpectralWindow(0.0, split))
        high = torus_modes(model, SpectralWindow(split, hi))
        full = torus_modes(model, SpectralWindow(0.0, hi))
        assert low.count + high.count == full.count
        merged = {tuple(v) for v in low.vectors} | {tuple(v)
                                                    for v in high.vectors}
        assert merged == {tuple(v) for v in full.vectors}

    @pytest.mark.parametrize("n,top", [(2, 30.0), (3, 10.0)])
    def test_vectors_equal_box_scan(self, n, top):
        # values and order; a third of the edges sit at sqrt(integer) and
        # a few at integers, where float windows meet eigenfrequencies
        rng = np.random.default_rng(1000 + n)
        model = TorusModel(n=n)

        def edge():
            pick = rng.random()
            if pick < 1 / 3:
                return math.sqrt(int(rng.integers(0, int(top * top))))
            if pick < 0.45:
                return float(rng.integers(0, int(top)))
            return float(rng.uniform(0.0, top))

        def on_sqrt_integers():
            # an annulus with both edges at sqrt(integer): a shell of the
            # lattice sits exactly on each
            lo2, hi2 = sorted(rng.choice(int(top * top), 2, replace=False))
            return math.sqrt(int(lo2)), math.sqrt(int(hi2))

        for i in range(80):
            lo, hi = sorted((edge(), edge())) if i < 60 else on_sqrt_integers()
            if hi <= lo:
                continue
            window = SpectralWindow(lo, hi)
            vectors = torus_modes(model, window).vectors
            assert vectors.dtype == np.float64
            assert not vectors.flags.writeable
            assert np.array_equal(vectors, brute_force_modes_torus(n, window))

    @pytest.mark.parametrize("n,window", [(2, (0.0, 300.0)),
                                          (2, (212.5, 300.0)),
                                          (3, (0.0, 40.0))])
    def test_build_peak_within_half_a_mode_list(self, n, window):
        # the walk fills one preallocated array column by column, so the
        # build needs little beyond the vectors themselves
        torus_modes.cache_clear()
        tracemalloc.start()
        try:
            vectors = torus_modes(TorusModel(n=n),
                                  SpectralWindow(*window)).vectors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vectors.shape[0] > 10_000
        assert peak <= 1.5 * vectors.nbytes

    def test_mode_vectors_immutable(self):
        model = TorusModel(n=2)
        vectors = torus_modes(model, SpectralWindow(0.0, 3.0)).vectors
        with pytest.raises(ValueError):
            vectors[0, 0] = 99

    @pytest.mark.parametrize("n", [2, 3])
    def test_shell_ranges_equal_box_scan(self, n):
        # torus_shells(m_min, m_max) in lexicographic order; [4, 3] is an
        # empty range, and [7, 7] holds no point in 2 or 3 dimensions
        axis = np.arange(-5, 6)
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        box = np.stack([g.ravel() for g in grids], axis=1)
        sq = np.sum(box * box, axis=1)
        for m_min, m_max in ((1, 3), (4, 3), (4, 6), (7, 7), (8, 25)):
            vectors = torus_shells(TorusModel(n=n), m_min, m_max)
            assert vectors.dtype == np.float64
            assert not vectors.flags.writeable
            assert np.array_equal(vectors,
                                  box[(m_min <= sq) & (sq <= m_max)])

    def test_budget_errors(self):
        with pytest.raises(BudgetError):
            torus_modes(TorusModel(n=2), SpectralWindow(0.0, 2.0e4))
        with pytest.raises(BudgetError):
            sphere_clusters(SphereModel(), SpectralWindow(0.0, 1.1e4))
        with pytest.raises(BudgetError):
            torus_modes(TorusModel(n=3), SpectralWindow(0.0, 9.0e3))
        with pytest.raises(BudgetError):
            torus_shells(TorusModel(n=2), 10 ** 8, 10 ** 8 + 1)
        with pytest.raises(BudgetError):
            torus_shells(TorusModel(n=3), 600 ** 2, 600 ** 2)


class TestGeometry:
    def test_torus_separation_wraps(self):
        model = TorusModel(n=2)
        x = np.array([0.1, 6.2])
        y = np.array([6.2, 0.1])
        sep = torus_separation(model, x, y)
        assert np.all(np.abs(sep) <= math.pi)
        wrapped = 0.1 - 6.2 + TWO_PI
        assert distance(model, x, y) == pytest.approx(
            math.sqrt(2) * wrapped, abs=1e-12)

    def test_torus_antipodal_distance(self):
        model = TorusModel(n=2)
        d = distance(model, np.zeros(2), np.array([math.pi, math.pi]))
        assert d == pytest.approx(math.pi * math.sqrt(2), abs=1e-12)

    def test_sphere_distance(self):
        model = SphereModel()
        north = np.array([0.0, 0.0, 1.0])
        east = np.array([1.0, 0.0, 0.0])
        assert distance(model, north, east) == pytest.approx(math.pi / 2)
        assert distance(model, north, -north) == pytest.approx(math.pi)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6))
    def test_torus_triangle_inequality(self, coords):
        model = TorusModel(n=2)
        x = np.array(coords[0:2])
        y = np.array(coords[2:4])
        z = np.array(coords[4:6])
        assert distance(model, x, z) <= (distance(model, x, y)
                                         + distance(model, y, z) + 1e-12)

    def test_exp_map_torus(self):
        model = TorusModel(n=2)
        x = exp_map(model, np.array([6.0, 0.1]), np.array([1.0, -0.5]))
        assert x == pytest.approx([7.0 % TWO_PI, (0.1 - 0.5) % TWO_PI])

    def test_exp_map_sphere_radial_isometry(self):
        model = SphereModel()
        x0 = np.array([0.0, 0.0, 1.0])
        for r in (0.3, 1.2, 2.9):
            u = np.array([r, 0.0])
            y = exp_map(model, x0, u)
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
            assert distance(model, x0, y) == pytest.approx(r, abs=1e-12)

    def test_exp_map_rejects_cut_locus(self):
        model = SphereModel()
        with pytest.raises(ValueError):
            exp_map(model, np.array([0.0, 0.0, 1.0]), np.array([math.pi, 0]))

    @staticmethod
    def single_sphere_exp(x0, u):
        # the one-vector arithmetic: np.linalg.norm, np.dot, math.cos/sin
        x0 = x0 / np.linalg.norm(x0)
        r = float(np.linalg.norm(u))
        if r == 0.0:
            return x0
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(x0)))] = 1.0
        e1 = seed - np.dot(seed, x0) * x0
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(x0, e1)
        w = (u[0] * e1 + u[1] * e2) / r
        return math.cos(r) * x0 + math.sin(r) * w

    def test_exp_map_batch_bit_equal_to_single_vectors(self):
        rng = np.random.default_rng(4)
        sphere = SphereModel()
        bases = rng.standard_normal((300, 3))
        bases /= np.linalg.norm(bases, axis=1)[:, None]
        offsets = rng.uniform(-1.5, 1.5, (300, 2))
        offsets[7] = 0.0
        shared = exp_map(sphere, bases[0], offsets)
        per_row = exp_map(sphere, bases, offsets)
        assert shared.shape == per_row.shape == (300, 3)
        for i in range(300):
            for got, base in ((shared[i], bases[0]), (per_row[i], bases[i])):
                want = self.single_sphere_exp(base, offsets[i])
                assert np.array_equal(got, want)
                assert np.array_equal(got, exp_map(sphere, base, offsets[i]))
        torus = TorusModel(n=2)
        corners = rng.uniform(0.0, TWO_PI, (300, 2))
        batch = exp_map(torus, corners, offsets)
        for i in range(300):
            want = np.mod(corners[i] + offsets[i], TWO_PI)
            assert np.array_equal(batch[i], want)
            assert np.array_equal(batch[i],
                                  exp_map(torus, corners[i], offsets[i]))

    def test_exp_map_batch_rejects_one_bad_row(self):
        sphere = SphereModel()
        bases = np.tile([0.0, 0.0, 1.0], (5, 1))
        offsets = np.full((5, 2), 0.1)
        offsets[3] = (math.pi, 0.0)
        with pytest.raises(ValueError, match="injectivity radius"):
            exp_map(sphere, bases, offsets)
        bases[2] *= 1.01
        with pytest.raises(ValueError, match="unit length"):
            exp_map(sphere, bases, np.full((5, 2), 0.1))

    def test_tangent_frame_orthonormal(self):
        model = SphereModel()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x0 = rng.standard_normal(3)
            x0 /= np.linalg.norm(x0)
            e1, e2 = tangent_frame(x0)
            for a, b, want in [(e1, e1, 1), (e2, e2, 1), (e1, e2, 0),
                               (e1, x0, 0), (e2, x0, 0)]:
                assert np.dot(a, b) == pytest.approx(want, abs=1e-12)

    def test_model_invariants(self):
        t2 = TorusModel(n=2)
        t3 = TorusModel(n=3)
        s2 = SphereModel()
        assert t2.volume == pytest.approx(TWO_PI ** 2)
        assert t3.volume == pytest.approx(TWO_PI ** 3)
        assert s2.volume == pytest.approx(4 * math.pi)
        assert t2.injectivity_radius == s2.injectivity_radius == math.pi
        with pytest.raises(ValueError):
            TorusModel(n=4)


class TestLeadSign:
    def test_sign_of_first_nonzero_entry(self):
        rows = np.array([[0.0, 0.0, 0.0],      # zero row
                         [-0.0, 0.0, -0.0],    # -0.0 counts as zero
                         [0.0, -2.0, 5.0],     # leading zeros
                         [-0.0, 3.0, -1.0],
                         [-0.0, -0.0, -4.0],
                         [-1.0, 0.0, 7.0]])
        signs = lead_sign(rows)
        assert signs.dtype == np.float64
        assert signs.tolist() == [1.0, 1.0, -1.0, 1.0, -1.0, -1.0]
        # r and -r fold onto one representative
        folded = rows * signs[:, None]
        assert np.array_equal(folded, -rows * lead_sign(-rows)[:, None])

    def test_integer_rows(self):
        rows = np.array([[0, -1], [2, -3], [0, 0], [0, 4]], dtype=np.int64)
        assert lead_sign(rows).tolist() == [-1.0, 1.0, 1.0, 1.0]
