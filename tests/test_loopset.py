"""Geodesic integrator and loop-fraction tests.

Oracles:
- straight lines (torus) and great circles (sphere) in closed form;
- the meridian ellipse on an ellipsoid of revolution, whose perimeter and
  arclength parametrization are evaluated here with scipy quad and brentq
  (independent of the package's own quadrature);
- a rational-direction enumeration for the flat torus: a direction loops
  within tolerance iff the covering-plane ray passes within tolerance of
  some nonzero lattice point 2 pi m reachable before t_max;
- the exact chord distance of the sphere's return segment, and Clairaut's
  relation rho = |L_z| at the latitude turning points of an ellipsoid path;
- a step-by-step march written out below (one RK4 step or closed-form
  state, the guards and one closest-approach segment at a time), which the
  blocked march must reproduce bit for bit.
"""

import math

import numpy as np
import pytest
from scipy import integrate as sintegrate
from scipy import optimize as soptimize
from scipy import special as sspecial

from specproj import loopset
from specproj.loopset import (
    SurfaceSpec,
    closed_form_geodesic,
    integrate_geodesic,
    loopset_fraction,
)

TWO_PI = 2.0 * math.pi


def torus_ray_min_distances(angles, t_max, t_min):
    """Min distance of the ray t*(cos a, sin a) to the lattice 2 pi Z^2
    over t in [t_min, t_max], skipping the origin itself."""
    reach = int(math.ceil(t_max / TWO_PI)) + 1
    ms = [np.array([i, j]) for i in range(-reach, reach + 1)
          for j in range(-reach, reach + 1) if (i, j) != (0, 0)]
    out = []
    for a in angles:
        omega = np.array([math.cos(a), math.sin(a)])
        best = np.inf
        for m in ms:
            p = TWO_PI * m
            t_star = float(np.dot(p, omega))
            t_star = min(max(t_star, t_min), t_max)
            best = min(best, float(np.linalg.norm(t_star * omega - p)))
        # the origin copy: closest approach at t_min
        best = min(best, t_min) if t_min <= t_max else best
        out.append(best)
    return np.array(out)


class TestSurfaceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SurfaceSpec(kind="plane")
        with pytest.raises(ValueError):
            SurfaceSpec(kind="ellipsoid", c=0.3)
        assert SurfaceSpec(kind="sphere").c == 1.0
        assert SurfaceSpec(kind="torus").embed_dim == 2
        assert SurfaceSpec(kind="ellipsoid", c=1.7).embed_dim == 3


class TestIntegration:
    def test_torus_straight_lines(self):
        surface = SurfaceSpec(kind="torus")
        x0 = np.array([0.3, 1.2])
        for angle in (0.0, 0.7, 2.4, 4.0):
            path = integrate_geodesic(surface, x0, angle, 3.0)
            want = closed_form_geodesic(surface, x0, angle, path.times)
            assert np.max(np.abs(path.positions - want)) < 1e-12
            assert path.max_energy_drift < 1e-12

    def test_sphere_great_circles(self):
        surface = SurfaceSpec(kind="sphere")
        x0 = np.array([1.1, 0.4])
        for angle in (0.0, 1.0, 2.5):
            path = integrate_geodesic(surface, x0, angle, 5.0)
            want = closed_form_geodesic(surface, x0, angle, path.times)
            assert np.max(np.linalg.norm(path.positions - want, axis=1)) < 1e-9
            assert path.max_energy_drift < 1e-9

    def test_sphere_geodesic_through_poles(self):
        # meridian launch through both poles: must stay exact
        surface = SurfaceSpec(kind="sphere")
        x0 = np.array([0.5, 0.0])
        path = integrate_geodesic(surface, x0, 0.0, 6.5)
        want = closed_form_geodesic(surface, x0, 0.0, path.times)
        assert np.max(np.linalg.norm(path.positions - want, axis=1)) < 1e-9

    def test_ellipsoid_stays_on_surface(self):
        c = 1.5
        surface = SurfaceSpec(kind="ellipsoid", c=c)
        path = integrate_geodesic(surface, np.array([1.0, 0.3]), 0.9, 8.0)
        r = path.positions
        level = r[:, 0] ** 2 + r[:, 1] ** 2 + (r[:, 2] / c) ** 2
        assert np.max(np.abs(level - 1.0)) < 1e-12
        assert path.max_energy_drift <= 1e-6

    def test_ellipsoid_meridian_period_matches_arclength(self):
        # the meridian is a closed ellipse; its circumference is
        # 4 integral_0^{pi/2} sqrt(sin^2 + c^2 cos^2) dt (scipy oracle)
        c = 1.5
        surface = SurfaceSpec(kind="ellipsoid", c=c)
        perimeter, _ = sintegrate.quad(
            lambda t: math.sqrt(math.sin(t) ** 2 + c * c * math.cos(t) ** 2),
            0.0, math.pi / 2)
        perimeter *= 4.0
        path = integrate_geodesic(surface, np.array([1.0, 0.3]), 0.0, 9.0)
        dist = np.linalg.norm(path.positions - path.positions[0], axis=1)
        late = path.times >= 1.0
        idx = np.argmin(dist[late])
        t_return = path.times[late][idx]
        assert dist[late][idx] < 5e-4
        assert t_return == pytest.approx(perimeter, abs=1e-3)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_ellipsoid_meridian_pointwise(self, c):
        # launch angle 0 follows d/dtheta, so the geodesic is the meridian
        # (sin a cos phi, sin a sin phi, c cos a) with a(t) fixed by the
        # arclength int_theta0^a sqrt(cos^2 + c^2 sin^2) = t; it passes
        # the pole a = pi before t = 3
        theta0, phi = 1.0, 0.3
        surface = SurfaceSpec(kind="ellipsoid", c=c)
        path = integrate_geodesic(surface, np.array([theta0, phi]), 0.0, 3.0)

        def arclength(a):
            return sintegrate.quad(
                lambda s: math.sqrt(math.cos(s) ** 2
                                    + c * c * math.sin(s) ** 2),
                theta0, a, epsabs=1e-12, epsrel=1e-12)[0]

        for t in (0.5, 1.0, 2.0, 3.0):
            idx = int(round(t / 1e-3))
            t_step = path.times[idx]
            a = soptimize.brentq(lambda a: arclength(a) - t_step, theta0,
                                 theta0 + t_step / min(1.0, c) + 0.1,
                                 xtol=1e-15, rtol=1e-15)
            want = np.array([math.sin(a) * math.cos(phi),
                             math.sin(a) * math.sin(phi), c * math.cos(a)])
            assert np.linalg.norm(path.positions[idx] - want) < 1e-9

    @pytest.mark.parametrize("c, x0, angle", [(0.5, (1.3, 0.0), 0.4),
                                              (1.7, (1.0, 0.3), 0.9)])
    def test_ellipsoid_turning_points_obey_clairaut(self, c, x0, angle):
        # L_z = x v_y - y v_x is conserved, and where the latitude turns the
        # velocity runs along the parallel, so the distance to the axis
        # there is rho = |L_z|; each turning point is the vertex of the
        # parabola through the three samples of rho around its minimum
        surface = SurfaceSpec(kind="ellipsoid", c=c)
        x, v = loopset._launch(surface, np.array(x0), np.array([angle]))
        lz = abs(x[0, 0] * v[0, 1] - x[0, 1] * v[0, 0])
        path = integrate_geodesic(surface, x0, angle, 12.0)
        rho = np.hypot(path.positions[:, 0], path.positions[:, 1])
        i = np.flatnonzero((rho[1:-1] < rho[:-2]) & (rho[1:-1] <= rho[2:])) + 1
        assert len(i) >= 2
        lo, mid, hi = rho[i - 1], rho[i], rho[i + 1]
        turn = mid - (hi - lo) ** 2 / (8.0 * (hi - 2.0 * mid + lo))
        # measured 7.3e-11 (c = 0.5) and 1.6e-13 (c = 1.7)
        assert np.max(np.abs(turn - lz)) < 1e-9

    @pytest.mark.parametrize("t_max", [6.2834, 6.28255])
    def test_path_ends_at_t_max(self, t_max):
        # t_max / h is not whole: floor(t_max / h) steps, then a partial
        # one to t_max, the closed form on the sphere and RK4 at c = 1
        x0, angle = (1.0, 0.3), 0.7
        want = closed_form_geodesic(SurfaceSpec(kind="sphere"), x0, angle,
                                    [t_max])[0]
        exact = integrate_geodesic(SurfaceSpec(kind="sphere"), x0, angle,
                                   t_max)
        assert exact.times[-1] == t_max
        assert np.array_equal(exact.positions[-1], want)
        rk4 = integrate_geodesic(SurfaceSpec(kind="ellipsoid", c=1.0), x0,
                                 angle, t_max)
        assert rk4.times[-1] == t_max
        assert np.max(np.abs(rk4.positions[-1] - want)) < 1e-12

    def test_unit_speed_preserved_on_ellipsoid(self):
        surface = SurfaceSpec(kind="ellipsoid", c=0.6)
        path = integrate_geodesic(surface, np.array([0.8, 2.0]), 1.3, 6.0)
        # consecutive positions are ~h apart because speed is 1
        steps = np.linalg.norm(np.diff(path.positions, axis=0), axis=1)
        assert np.allclose(steps, 1e-3, atol=1e-6)

    def test_step_validation(self):
        surface = SurfaceSpec(kind="sphere")
        with pytest.raises(ValueError):
            integrate_geodesic(surface, np.array([1.0, 0.0]), 0.0, 1.0,
                               h=5e-3)
        with pytest.raises(ValueError):
            integrate_geodesic(surface, np.array([1.0, 0.0]), 0.0, -1.0)

    def test_no_closed_form_on_flattened_ellipsoid(self):
        with pytest.raises(ValueError):
            closed_form_geodesic(SurfaceSpec(kind="ellipsoid", c=2.0),
                                 np.array([1.0, 0.0]), 0.0, np.zeros(3))


class TestLoopFraction:
    def test_sphere_all_directions_loop(self):
        surface = SurfaceSpec(kind="sphere")
        est = loopset_fraction(surface, np.array([1.0, 0.3]), 64, 7.0, 1e-3,
                               seed=3)
        assert est.fraction == 1.0
        assert np.allclose(est.first_return_times, TWO_PI, atol=5e-3)
        assert est.max_energy_drift <= 1e-6

    def test_torus_flags_match_rational_enumeration(self):
        # coarse tolerance so several directions flag; the analytic ray
        # distances must agree direction by direction
        surface = SurfaceSpec(kind="torus")
        t_max, tol = 10.0, 5e-2
        est = loopset_fraction(surface, np.zeros(2), 400, t_max, tol, seed=12)
        want_d = torus_ray_min_distances(est.angles, t_max, est.t_min)
        got_flags = est.min_distances <= tol
        want_flags = want_d <= tol
        assert np.array_equal(got_flags, want_flags)
        assert np.max(np.abs(est.min_distances - want_d)) < 1e-6
        assert np.any(got_flags)       # the check is not vacuous
        assert not np.all(got_flags)

    def test_torus_fraction_shrinks_with_tol(self):
        surface = SurfaceSpec(kind="torus")
        est = loopset_fraction(surface, np.zeros(2), 400, 10.0, 5e-2, seed=12)
        assert est.fraction_at(5e-2) >= est.fraction_at(1e-2) >= \
            est.fraction_at(1e-3)

    def test_deterministic_for_seed(self):
        surface = SurfaceSpec(kind="torus")
        a = loopset_fraction(surface, np.zeros(2), 32, 7.0, 1e-3, seed=5)
        b = loopset_fraction(surface, np.zeros(2), 32, 7.0, 1e-3, seed=5)
        assert np.array_equal(a.min_distances, b.min_distances)
        assert np.array_equal(a.angles, b.angles)

    def test_angles_are_stratified(self):
        surface = SurfaceSpec(kind="torus")
        est = loopset_fraction(surface, np.zeros(2), 100, 1.0, 1e-3, seed=0,
                               t_min=0.1)
        lo = TWO_PI * np.arange(100) / 100
        hi = TWO_PI * (np.arange(100) + 1) / 100
        assert np.all((est.angles >= lo) & (est.angles < hi))

    def test_first_return_matches_min_distance_flag(self):
        surface = SurfaceSpec(kind="torus")
        est = loopset_fraction(surface, np.zeros(2), 200, 10.0, 5e-2, seed=9)
        flagged = est.min_distances <= est.tol
        assert np.all((est.first_return_times >= 0) == flagged)
        returned = est.first_return_times[flagged]
        assert np.all(returned >= est.t_min)
        assert np.all(returned <= est.t_max)

    def test_csv_rows_shape(self):
        surface = SurfaceSpec(kind="sphere")
        est = loopset_fraction(surface, np.array([1.0, 0.0]), 8, 6.5, 1e-3)
        rows = est.csv_rows()
        assert len(rows) == 8
        assert all(len(r) == 3 for r in rows)
        assert all(r[1] > 0 for r in rows)   # all spheres loop by 6.5

    def test_march_stops_at_t_max_before_the_return(self):
        # t_max = 6.28255 lies inside the step [6.282, 6.283], short of the
        # return at 2 pi: no direction comes within 5e-4, and the closest
        # approach is the chord to the point at t_max
        surface = SurfaceSpec(kind="sphere")
        t_max = 6.28255
        est = loopset_fraction(surface, np.array([1.0, 0.3]), 64, t_max,
                               5e-4, seed=1)
        assert np.all(est.first_return_times == -1.0)
        chord = 2.0 * math.sin((TWO_PI - t_max) / 2.0)
        assert np.max(np.abs(est.min_distances - chord)) < 1e-9

    def test_march_reaches_t_max_past_the_return(self):
        # t_max = 6.2834 lies inside the step [6.283, 6.284] that straddles
        # 2 pi, so that step's segment counts, clamped at t_max
        surface = SurfaceSpec(kind="sphere")
        est = loopset_fraction(surface, np.array([1.0, 0.3]), 64, 6.2834,
                               5e-4, seed=1)
        assert est.fraction == 1.0
        assert np.all(est.first_return_times <= 6.2834)
        assert np.max(est.min_distances) < 1e-6

    def test_validation(self):
        surface = SurfaceSpec(kind="torus")
        with pytest.raises(ValueError):
            loopset_fraction(surface, np.zeros(2), 0, 5.0, 1e-3)
        with pytest.raises(ValueError):
            loopset_fraction(surface, np.zeros(2), 4, 5.0, -1e-3)
        with pytest.raises(ValueError):
            loopset_fraction(surface, np.zeros(2), 4, 0.05, 1e-3)


GUARD_CASES = [("_ENERGY_TOL", "energy"), ("_CONSTRAINT_TOL", "constraint"),
               ("_CLAIRAUT_TOL", "Clairaut")]


class TestExactOracles:
    # the closed forms against oracles that share no code with them

    @pytest.mark.parametrize("x0", [(1.0, 0.3), (0.0, 0.3), (2.5, 4.0)],
                             ids=["generic", "pole", "south"])
    def test_sphere_return_is_the_exact_chord(self, x0):
        # the segment that straddles 2 pi is a chord of the great circle
        # between arcs m - h/2 and m + h/2 from the base point, m being its
        # midpoint's offset from 2 pi; its distance to the base point is
        # cos m - cos(h/2) = 2 sin((h/2 + m)/2) sin((h/2 - m)/2)
        h = 1e-3
        est = loopset_fraction(SurfaceSpec(kind="sphere"), x0, 64, 6.5, 1e-3,
                               seed=1)
        m = (math.floor(TWO_PI / h) + 0.5) * h - TWO_PI
        chord = 2.0 * math.sin((h / 2 + m) / 2) * math.sin((h / 2 - m) / 2)
        assert np.max(np.abs(est.min_distances - chord)) < 1e-15

    @pytest.mark.parametrize("x0, n, t_max, tol, seed", [
        ((0.0, 0.0), 400, 10.0, 5e-2, 12), ((2.0, -1.0), 200, 20.0, 1e-2, 3)])
    def test_torus_distances_match_ray_oracle(self, x0, n, t_max, tol, seed):
        est = loopset_fraction(SurfaceSpec(kind="torus"), x0, n, t_max, tol,
                               seed=seed)
        want = torus_ray_min_distances(est.angles, t_max, est.t_min)
        assert np.max(np.abs(est.min_distances - want)) < 1e-14

    @pytest.mark.parametrize("x0", [(1.0, 0.3), (0.0, 0.3), (2.5, 4.0)],
                             ids=["generic", "pole", "south"])
    def test_round_ellipsoid_rk4_matches_sphere(self, x0):
        # c = 1 takes the RK4 route on the round sphere
        rk4 = loopset_fraction(SurfaceSpec(kind="ellipsoid", c=1.0), x0, 64,
                               6.5, 1e-3, seed=1)
        exact = loopset_fraction(SurfaceSpec(kind="sphere"), x0, 64, 6.5,
                                 1e-3, seed=1)
        assert np.max(np.abs(rk4.min_distances - exact.min_distances)) < 1e-12


class TestGuards:
    @pytest.mark.parametrize("name, what", GUARD_CASES)
    def test_guard_raises_on_drift(self, monkeypatch, name, what):
        # at tolerance 0 any round-off drift trips the guard
        monkeypatch.setattr(loopset, name, 0.0)
        surface = SurfaceSpec(kind="ellipsoid", c=1.5)
        x0 = np.array([1.0, 0.3])
        with pytest.raises(ArithmeticError, match=f"{what} drift .* exceeds"):
            integrate_geodesic(surface, x0, 0.9, 0.5)
        with pytest.raises(ArithmeticError, match=f"{what} drift .* exceeds"):
            loopset_fraction(surface, x0, 8, 0.5, 1e-3)


class TestPoleCrossing:
    def test_many_directions_cross_poles_cleanly(self):
        # directions launched straight at the poles of the (theta, phi) input
        surface = SurfaceSpec(kind="ellipsoid", c=0.8)
        est = loopset_fraction(surface, np.array([1.2, 0.0]), 16, 5.0, 1e-3,
                               seed=1)
        assert est.max_energy_drift <= 1e-6


class TestPoles:
    # every geodesic from a pole of a surface of revolution is a meridian,
    # so all directions return after one meridian perimeter: 2 pi on the
    # sphere, 4 c E(1 - 1/c^2) (scipy ellipe) on the ellipsoid (1, 1, c)
    @pytest.mark.parametrize("surface, period", [
        (SurfaceSpec(kind="sphere"), TWO_PI),
        (SurfaceSpec(kind="ellipsoid", c=1.5),
         4.0 * 1.5 * sspecial.ellipe(1.0 - 1.0 / 1.5 ** 2)),
    ], ids=["sphere", "ellipsoid"])
    # at theta = 1e-200 the norm of d/dphi underflows to 0 as at the pole
    @pytest.mark.parametrize("theta", [0.0, 1e-200])
    def test_every_direction_returns_from_a_pole(self, surface, period,
                                                 theta):
        tol = 1e-3
        est = loopset_fraction(surface, np.array([theta, 0.3]), 16, 9.0, tol,
                               seed=3)
        assert est.fraction == 1.0
        assert np.max(est.min_distances) <= 1e-6
        # the first return is the first time within tol, so up to tol early
        assert np.max(np.abs(est.first_return_times - period)) <= 2 * tol

    def test_pole_frame_is_orthonormal_and_tangent(self):
        surface = SurfaceSpec(kind="ellipsoid", c=0.7)
        # on both sides of the 1e-150 switch to the meridian limit
        for theta in (0.0, 1e-200, -1e-200, 1e-151, 1e-149, math.pi):
            pos, e1, e2 = loopset._base_frame(surface, np.array([theta, 0.4]))
            frame = np.stack([e1, e2])
            assert np.all(np.isfinite(frame))
            assert np.allclose(frame @ frame.T, np.eye(2), atol=1e-15)
            # tangent: orthogonal to the normal A x, which is vertical here
            assert np.allclose(frame @ (pos * [1.0, 1.0, 1.0 / 0.49]), 0.0,
                               atol=1e-15)


class TestNaN:
    def test_nan_state_raises(self, monkeypatch):
        # NaN compares false with everything, so a guard written as
        # `value > tol` would let it pass
        monkeypatch.setattr(loopset, "_accel",
                            lambda signed, xv, v, out, scratch:
                            out.fill(np.nan))
        surface = SurfaceSpec(kind="ellipsoid", c=1.5)
        with pytest.raises(ArithmeticError, match="energy drift nan"):
            loopset_fraction(surface, np.array([1.0, 0.3]), 4, 0.5, 1e-3)
        with pytest.raises(ArithmeticError, match="energy drift nan"):
            integrate_geodesic(surface, np.array([1.0, 0.3]), 0.2, 0.5)


# --------------------------------------------------------------------------
# the step-by-step march, as loopset.py ran it before it marched in blocks
# --------------------------------------------------------------------------

def ref_accel(a, x, v):
    if a is None:
        return np.zeros_like(v)
    ax = a * x
    return -(np.sum(a * v * v, axis=1) / np.sum(ax * ax, axis=1))[:, None] * ax


def ref_rk4_step(a, x, v, h):
    k1x = v
    k1v = ref_accel(a, x, v)
    k2x = v + 0.5 * h * k1v
    k2v = ref_accel(a, x + 0.5 * h * k1x, k2x)
    k3x = v + 0.5 * h * k2v
    k3v = ref_accel(a, x + 0.5 * h * k2x, k3x)
    k4x = v + h * k3v
    k4v = ref_accel(a, x + h * k3x, k4x)
    x_new = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v_new = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x_new, v_new


def ref_states(surface, x, v, steps, h, t_end=None):
    """The states (x, v) after steps 1 .. steps, one at a time: an RK4
    step on an ellipsoid, the closed form at t = k h on the torus and the
    sphere.  With t_end the last step ends at t = t_end instead."""
    a = loopset._quadric(surface)
    x0, v0 = x, v
    for k in range(1, steps + 1):
        t, dt = k * h, h
        if t_end is not None and k == steps:
            t, dt = t_end, t_end - (k - 1) * h
        if surface.kind == "ellipsoid":
            x, v = ref_rk4_step(a, x, v, dt)
        elif surface.kind == "torus":
            x = x0 + t * v0
        else:
            x = np.cos(t) * x0 + np.sin(t) * v0
            v = np.cos(t) * v0 - np.sin(t) * x0
        yield x, v


def ref_lz(x, v):
    return x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0]


def ref_march(surface, x, v, steps, h, t_end=None):
    """Yield (x, energy drift, constraint drift, Clairaut drift) of every
    step, each the step's own value; raise as the guards do, reading the
    tolerances from the module at call time."""
    a = loopset._quadric(surface)
    lz0 = ref_lz(x, v)
    for x, v in ref_states(surface, x, v, steps, h, t_end):
        energy = float(np.max(np.abs(np.sum(v * v, axis=1) - 1.0)))
        if not energy <= loopset._ENERGY_TOL:
            raise ArithmeticError(
                f"energy drift {energy:.3e} exceeds {loopset._ENERGY_TOL}")
        level = clairaut = 0.0
        if a is not None:
            level = float(np.max(np.abs(np.sum(a * x * x, axis=1) - 1.0)))
            if not level <= loopset._CONSTRAINT_TOL:
                raise ArithmeticError(f"constraint drift {level:.3e} "
                                      f"exceeds {loopset._CONSTRAINT_TOL}")
            clairaut = float(np.max(np.abs(ref_lz(x, v) - lz0)))
            if not clairaut <= loopset._CLAIRAUT_TOL:
                raise ArithmeticError(f"Clairaut drift {clairaut:.3e} "
                                      f"exceeds {loopset._CLAIRAUT_TOL}")
        yield x, energy, level, clairaut


def ref_segment_min(rel, delta):
    dd = np.sum(delta * delta, axis=1)
    s = -np.sum(rel * delta, axis=1) / np.where(dd > 0.0, dd, 1.0)
    s = np.clip(s, 0.0, 1.0)
    closest = rel + s[:, None] * delta
    return np.sqrt(np.sum(closest * closest, axis=1)), s


def ref_angles(n, seed):
    return TWO_PI * (np.arange(n) + np.random.default_rng(seed).random(n)) / n


def ref_offset(surface, pos, base):
    rel = pos - base[None, :]
    return loopset._wrap(rel) if surface.kind == "torus" else rel


def ref_loopset(surface, x0, n, t_max, tol, seed, t_min, h=1e-3):
    """(first return times, min distances, energy drift, constraint drift,
    Clairaut drift)."""
    angles = ref_angles(n, seed)
    pos, v = loopset._launch(surface, np.asarray(x0, dtype=float), angles)
    base = pos[0]
    rel = ref_offset(surface, pos, base)
    min_d = np.full(n, np.inf)
    ret_t = np.full(n, -1.0)
    drift = level = clairaut = 0.0
    end = t_max / h
    steps = math.ceil(end)
    for step, (new_pos, energy, lvl, lz) in enumerate(
            ref_march(surface, pos, v, steps, h)):
        drift, level = max(drift, energy), max(level, lvl)
        clairaut = max(clairaut, lz)
        delta = new_pos - pos
        t0 = step * h
        if t0 + h >= t_min:
            if t0 < t_min:
                frac = (t_min - t0) / h
                seg_start = rel + frac * delta
                seg_delta = (1.0 - frac) * delta
                seg_t0, seg_len = t_min, (1.0 - frac) * h
            else:
                seg_start, seg_delta = rel, delta
                seg_t0, seg_len = t0, h
            # the last step straddles t_max unless t_max / h is whole
            if step == steps - 1 and end < steps:
                frac = (t_max - seg_t0) / seg_len
                seg_delta = frac * seg_delta
                seg_len = t_max - seg_t0
            d, s = ref_segment_min(seg_start, seg_delta)
            np.minimum(min_d, d, out=min_d)
            hit = (ret_t < 0.0) & (d <= tol)
            if np.any(hit):
                ret_t[hit] = seg_t0 + s[hit] * seg_len
        rel = ref_offset(surface, new_pos, base)
        pos = new_pos
    return ret_t, min_d, drift, level, clairaut


def ref_path(surface, x0, angle, t_max, h=1e-3):
    x, v = loopset._launch(surface, np.asarray(x0, dtype=float),
                           np.array([float(angle)]))
    # whole steps to floor(t_max / h), then a partial one to t_max
    whole = math.floor(t_max / h)
    partial = t_max / h > whole
    positions = [x[0]]
    drift = 0.0
    for x, energy, _, _ in ref_march(surface, x, v, whole + partial, h,
                                     t_max if partial else None):
        positions.append(x[0])
        drift = max(drift, energy)
    return np.array(positions), drift


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def block_steps(n):
    return max(1, loopset._BLOCK_ROWS // n)


SURFACES = [SurfaceSpec(kind="sphere"), SurfaceSpec(kind="ellipsoid", c=0.6),
            SurfaceSpec(kind="ellipsoid", c=1.7), SurfaceSpec(kind="torus")]
SURFACE_IDS = ["sphere", "ellipsoid0.6", "ellipsoid1.7", "torus"]


def base_point(surface):
    return np.array([0.3, 1.2]) if surface.kind == "torus" else \
        np.array([0.9, 0.4])


def step_count(kind, b):
    """1, b - 1, b, b + 1, or 2b + 3 (not a multiple of b unless b = 1)."""
    return {"one": 1, "b-1": max(1, b - 1), "b": b, "b+1": b + 1,
            "2b+3": 2 * b + 3}[kind]


STEP_KINDS = ["one", "b-1", "b", "b+1", "2b+3"]


def assert_loopset_equal(got, want):
    ret_t, min_d, drift, level, clairaut = want
    assert np.array_equal(bits(got.first_return_times), bits(ret_t))
    assert np.array_equal(bits(got.min_distances), bits(min_d))
    assert got.max_energy_drift == drift
    assert got.max_constraint_drift == level
    assert got.max_clairaut_drift == clairaut


def check_loopset_bit_equal(surface, n, steps_kind, t_min_kind):
    # t_min is 0.3 of a step into a segment halfway through the first
    # block, or exactly on the first block edge past the start (the start
    # itself when the run is one block or less)
    h = 1e-3
    b = block_steps(n)
    steps = step_count(steps_kind, b)
    if t_min_kind == "mid-block":
        t_min = (min(b // 2, steps - 1) + 0.3) * h
    else:
        t_min = b * h if steps > b else 0.0
    x0 = base_point(surface)
    # t_min + 2e-4 sits between the distance at t_min and the largest
    # one, so some directions return on the first segment and some
    # later or never
    tol = t_min + 2e-4
    got = loopset_fraction(surface, x0, n, steps * h, tol, seed=4,
                           t_min=t_min)
    want = ref_loopset(surface, x0, n, steps * h, tol, 4, t_min)
    assert_loopset_equal(got, want)


class TestBlockedMarch:
    # the blocked march must give every output bit for bit as the
    # step-by-step march above, whatever the block boundaries cut: RK4 on
    # the ellipsoids, the closed forms on the sphere and the torus

    # from 2048 directions on a block is one step in a buffer of two rows
    @pytest.mark.parametrize("surface", SURFACES, ids=SURFACE_IDS)
    @pytest.mark.parametrize("n", [1, 7, 64, 300, 2048, 2049])
    @pytest.mark.parametrize("steps_kind", STEP_KINDS)
    @pytest.mark.parametrize("t_min_kind", ["mid-block", "block-edge"])
    def test_loopset_bit_equal_to_step_by_step(self, surface, n, steps_kind,
                                               t_min_kind):
        check_loopset_bit_equal(surface, n, steps_kind, t_min_kind)

    # the limits of the axis ratio that the config layer accepts
    @pytest.mark.parametrize("c", [0.5, 2.0])
    @pytest.mark.parametrize("n", [7, 2048])
    @pytest.mark.parametrize("steps_kind", STEP_KINDS)
    def test_axis_ratio_limits_bit_equal_to_step_by_step(self, c, n,
                                                        steps_kind):
        check_loopset_bit_equal(SurfaceSpec(kind="ellipsoid", c=c), n,
                                steps_kind, "mid-block")

    # geodesics that come back after t = 5: the first-return search runs
    # in blocks well past t_min (0.1, where every distance is near 0.1)
    @pytest.mark.parametrize("surface, x0, tol", [
        (SURFACES[0], (0.9, 0.4), 1e-3), (SURFACES[1], (0.9, 0.4), 5e-2),
        (SURFACES[2], (1.5, 0.4), 5e-2), (SURFACES[3], (0.3, 1.2), 9.5e-2)],
        ids=SURFACE_IDS)
    def test_long_loopset_bit_equal_to_step_by_step(self, surface, x0, tol):
        got = loopset_fraction(surface, x0, 64, 6.5, tol, seed=1)
        want = ref_loopset(surface, x0, 64, 6.5, tol, 1, 0.1)
        assert np.any(want[0] > 5.0)     # the check is not vacuous
        assert_loopset_equal(got, want)

    @pytest.mark.parametrize("surface", SURFACES, ids=SURFACE_IDS)
    @pytest.mark.parametrize("steps_kind", STEP_KINDS)
    def test_path_bit_equal_to_step_by_step(self, surface, steps_kind):
        h = 1e-3
        steps = step_count(steps_kind, block_steps(1))
        x0 = base_point(surface)
        got = integrate_geodesic(surface, x0, 0.7, steps * h)
        positions, drift = ref_path(surface, x0, 0.7, steps * h)
        assert np.array_equal(bits(got.positions), bits(positions))
        assert got.max_energy_drift == drift

    # t_max / h not whole: a partial last step alone, at the end of the
    # first block, and alone in a second block
    @pytest.mark.parametrize("surface", SURFACES, ids=SURFACE_IDS)
    @pytest.mark.parametrize("t_max", [4e-4, 2.0474, 2.0484])
    def test_partial_path_bit_equal_to_step_by_step(self, surface, t_max):
        x0 = base_point(surface)
        got = integrate_geodesic(surface, x0, 0.7, t_max)
        positions, drift = ref_path(surface, x0, 0.7, t_max)
        assert got.times[-1] == t_max
        assert np.array_equal(bits(got.positions), bits(positions))
        assert got.max_energy_drift == drift


class TestGuardTiming:
    # a guard that sees a whole block must still raise at the first step
    # past its tolerance, with that step's value: the step-by-step march
    # raises the same message
    @pytest.mark.parametrize("name, what", GUARD_CASES)
    @pytest.mark.parametrize("n", [1, 8])
    def test_first_violation_mid_block(self, monkeypatch, name, what, n):
        h, steps = 1e-3, 1500
        b = block_steps(n)
        surface = SurfaceSpec(kind="ellipsoid", c=1.5)
        x0 = np.array([1.0, 0.3])
        angles = np.zeros(1) if n == 1 else ref_angles(n, 5)
        pos, v = loopset._launch(surface, x0, angles)
        column = 1 + [case[1] for case in GUARD_CASES].index(what)
        drifts = np.array([r[column] for r in
                           ref_march(surface, pos, v, steps, h)])
        # a step that sets a new record mid-block, in a block that later
        # climbs higher still: its predecessor record is the tolerance
        record = np.maximum.accumulate(drifts)
        picks = [j for j in range(1, steps)
                 if drifts[j] > record[j - 1] and 0 < j % b < b - 1
                 and f"{record[min(steps, (j // b + 1) * b) - 1]:.3e}"
                 != f"{drifts[j]:.3e}"]
        assert picks
        j = picks[len(picks) // 2]
        tol = float(record[j - 1])
        monkeypatch.setattr(loopset, name, tol)
        with pytest.raises(ArithmeticError) as want:
            for _ in ref_march(surface, pos, v, steps, h):
                pass
        assert str(want.value) == f"{what} drift {drifts[j]:.3e} exceeds {tol}"
        with pytest.raises(ArithmeticError) as got:
            if n == 1:
                integrate_geodesic(surface, x0, 0.0, steps * h)
            else:
                loopset_fraction(surface, x0, n, steps * h, 1e-3, seed=5)
        assert str(got.value) == str(want.value)
