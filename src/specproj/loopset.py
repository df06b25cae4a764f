"""Geodesic return statistics on model surfaces.

A direction xi at a base point is flagged as looping when the unit-speed
geodesic it launches comes back within tol of the base point at some time
in [t_min, T_max].  The flagged fraction over a stratified sample of
directions estimates the size of the loop set: measure zero on the flat
torus (rational slopes only), everything on the round sphere (all great
circles close), and somewhere in between on ellipsoids of revolution.

Integration is fixed-step RK4 in ambient coordinates.  The sphere and the
ellipsoids are the quadric x^T A x = 1 in R^3 with A = diag(1, 1, 1/c^2);
the normal there is A x, and a unit-speed curve on it is a geodesic when
its acceleration is normal, which fixes

    x'' = - (v^T A v / |A x|^2) A x,        v = x'.

The state (x, v) has no poles or charts.  The flat torus integrates
x'' = 0 in R^2 and measures distances modulo 2 pi.  Every step checks the
energy | |v|^2 - 1 | and, on a quadric, the constraint | x^T A x - 1 |;
both must stay within 1e-6.  Nothing projects back onto the surface, so
the two guards measure the integration error itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

_ENERGY_TOL = 1e-6
_CONSTRAINT_TOL = 1e-6
_MAX_STEP = 1e-3


@dataclass(frozen=True)
class SurfaceSpec:
    """Flat torus, round sphere, or ellipsoid of revolution (1, 1, c)."""

    kind: str
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in ("torus", "sphere", "ellipsoid"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.kind == "ellipsoid" and not (0.5 <= self.c <= 2.0):
            raise ValueError("ellipsoid axis ratio c must lie in [0.5, 2]")

    @property
    def axis_c(self) -> float:
        return 1.0 if self.kind == "sphere" else self.c

    @property
    def embed_dim(self) -> int:
        return 2 if self.kind == "torus" else 3


def _quadric(surface: SurfaceSpec) -> np.ndarray | None:
    """Diagonal of A in x^T A x = 1, or None for the flat torus."""
    if surface.kind == "torus":
        return None
    return np.array([1.0, 1.0, 1.0 / surface.axis_c ** 2])


def _accel(a: np.ndarray | None, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    if a is None:
        return np.zeros_like(v)
    ax = a * x
    return -(np.sum(a * v * v, axis=1) / np.sum(ax * ax, axis=1))[:, None] * ax


def _rk4_step(a: np.ndarray | None, x: np.ndarray, v: np.ndarray,
              h: float) -> tuple[np.ndarray, np.ndarray]:
    k1x = v
    k1v = _accel(a, x, v)
    k2x = v + 0.5 * h * k1v
    k2v = _accel(a, x + 0.5 * h * k1x, k2x)
    k3x = v + 0.5 * h * k2v
    k3v = _accel(a, x + 0.5 * h * k2x, k3x)
    k4x = v + h * k3v
    k4v = _accel(a, x + h * k3x, k4x)
    x_new = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v_new = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x_new, v_new


def _base_frame(surface: SurfaceSpec, x0: np.ndarray):
    """Embedded base point and orthonormal tangent frame at x0.

    x0 is (theta, phi) of the polar parametrization
    (sin theta cos phi, sin theta sin phi, c cos theta) on the sphere and
    ellipsoid; e1 follows d/dtheta and e2 completes the frame.  Where
    |d/dphi| = |sin theta| is below 1e-150 (at a pole, or so near one that
    its square underflows) the frame is the limit along the meridian phi:
    e1 = +-(cos phi, sin phi, 0) with the sign of cos theta,
    e2 = (-sin phi, cos phi, 0)."""
    if surface.kind == "torus":
        return x0.copy(), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    c = surface.axis_c
    sa, ca = np.sin(x0[0]), np.cos(x0[0])
    sb, cb = np.sin(x0[1]), np.cos(x0[1])
    pos = np.array([sa * cb, sa * sb, c * ca])
    d2 = np.array([-sa * sb, sa * cb, 0.0])
    if np.linalg.norm(d2) < 1e-150:
        e1 = np.sign(ca) * np.array([cb, sb, 0.0])
        return pos, e1, np.array([-sb, cb, 0.0])
    d1 = np.array([ca * cb, ca * sb, -c * sa])
    e1 = d1 / np.linalg.norm(d1)
    e2 = d2 - np.dot(d2, e1) * e1
    e2 /= np.linalg.norm(e2)
    return pos, e1, e2


def _launch(surface: SurfaceSpec, x0: np.ndarray, angles: np.ndarray):
    """Embedded positions and unit velocities for the given launch angles."""
    base, e1, e2 = _base_frame(surface, x0)
    v = (np.cos(angles)[:, None] * e1[None, :]
         + np.sin(angles)[:, None] * e2[None, :])
    return np.tile(base, (angles.shape[0], 1)), v


def _march(surface: SurfaceSpec, x: np.ndarray, v: np.ndarray, steps: int,
           h: float):
    """Take `steps` RK4 steps; yield (positions, max energy drift so far)
    after each one.

    Raises ArithmeticError once | |v|^2 - 1 | exceeds _ENERGY_TOL or
    | x^T A x - 1 | exceeds _CONSTRAINT_TOL, or either one is NaN (each
    guard reads `not (value <= tol)` on the current step's value).
    """
    a = _quadric(surface)
    drift = 0.0
    for _ in range(steps):
        x, v = _rk4_step(a, x, v, h)
        energy = float(np.max(np.abs(np.sum(v * v, axis=1) - 1.0)))
        if not energy <= _ENERGY_TOL:
            raise ArithmeticError(f"energy drift {energy:.3e} exceeds {_ENERGY_TOL}")
        drift = max(drift, energy)
        if a is not None:
            level = float(np.max(np.abs(np.sum(a * x * x, axis=1) - 1.0)))
            if not level <= _CONSTRAINT_TOL:
                raise ArithmeticError(
                    f"constraint drift {level:.3e} exceeds {_CONSTRAINT_TOL}")
        yield x, drift


def _wrap(rel: np.ndarray) -> np.ndarray:
    return np.mod(rel + math.pi, TWO_PI) - math.pi


def _segment_min(rel: np.ndarray, delta: np.ndarray):
    """Min distance to the origin over the segment rel + s*delta, s in [0,1]."""
    dd = np.sum(delta * delta, axis=1)
    s = -np.sum(rel * delta, axis=1) / np.where(dd > 0.0, dd, 1.0)
    s = np.clip(s, 0.0, 1.0)
    closest = rel + s[:, None] * delta
    return np.sqrt(np.sum(closest * closest, axis=1)), s


@dataclass(frozen=True)
class GeodesicPath:
    times: np.ndarray
    positions: np.ndarray      # embedded coordinates per step
    max_energy_drift: float


def integrate_geodesic(surface: SurfaceSpec, x0, angle: float, t_max: float,
                       h: float = _MAX_STEP) -> GeodesicPath:
    """Integrate one unit-speed geodesic; returns the embedded path.

    x0 is a torus point, or polar (theta, phi) on the sphere/ellipsoid;
    angle is the launch direction in the tangent frame at x0.
    """
    if not (0 < h <= _MAX_STEP):
        raise ValueError(f"step must lie in (0, {_MAX_STEP}]")
    if t_max <= 0:
        raise ValueError("t_max must be > 0")
    x0 = np.asarray(x0, dtype=float)
    x, v = _launch(surface, x0, np.array([float(angle)]))
    steps = int(round(t_max / h))
    positions = np.empty((steps + 1, surface.embed_dim))
    positions[0] = x[0]
    drift = 0.0
    for step, (x, drift) in enumerate(_march(surface, x, v, steps, h), 1):
        positions[step] = x[0]
    times = h * np.arange(steps + 1)
    return GeodesicPath(times=times, positions=positions,
                        max_energy_drift=drift)


def closed_form_geodesic(surface: SurfaceSpec, x0, angle: float,
                         times: np.ndarray) -> np.ndarray:
    """Exact geodesics for the torus (straight lines) and sphere (great
    circles), used as integration oracles."""
    x0 = np.asarray(x0, dtype=float)
    times = np.asarray(times, dtype=float)
    base, e1, e2 = _base_frame(surface, x0)
    xi = math.cos(angle) * e1 + math.sin(angle) * e2
    if surface.kind == "torus":
        return x0[None, :] + times[:, None] * xi[None, :]
    if surface.kind == "sphere" or surface.axis_c == 1.0:
        return (np.cos(times)[:, None] * base[None, :]
                + np.sin(times)[:, None] * xi[None, :])
    raise ValueError("no closed form for a non-round ellipsoid")


@dataclass(frozen=True)
class LoopsetEstimate:
    surface: SurfaceSpec
    x0: tuple[float, float]
    t_max: float
    tol: float
    t_min: float
    angles: np.ndarray
    first_return_times: np.ndarray   # -1 where no return within tol
    min_distances: np.ndarray
    max_energy_drift: float

    @property
    def fraction(self) -> float:
        return float(np.mean(self.min_distances <= self.tol))

    def fraction_at(self, tol: float) -> float:
        """Flagged fraction at a different tolerance, same trajectories."""
        return float(np.mean(self.min_distances <= tol))

    def csv_rows(self):
        return [(float(a), float(t), float(d))
                for a, t, d in zip(self.angles, self.first_return_times,
                                   self.min_distances)]


def loopset_fraction(surface: SurfaceSpec, x0, n_directions: int,
                     t_max: float, tol: float, h: float = _MAX_STEP,
                     seed: int = 0, t_min: float = 0.1) -> LoopsetEstimate:
    """Fraction of directions whose geodesic returns within tol of x0.

    Directions are stratified: n equally spaced angles with an independent
    seeded jitter inside each stratum.  Distances are measured to the
    chord-accurate minimum over each integration segment, from t_min on.
    """
    if n_directions < 1:
        raise ValueError("n_directions must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if not (0 < h <= _MAX_STEP):
        raise ValueError(f"step must lie in (0, {_MAX_STEP}]")
    if t_max <= t_min:
        raise ValueError("t_max must exceed t_min")
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(seed)
    jitter = rng.random(n_directions)
    angles = TWO_PI * (np.arange(n_directions) + jitter) / n_directions

    pos, v = _launch(surface, x0, angles)
    base = pos[0]
    rel = _wrap(pos - base[None, :]) if surface.kind == "torus" else pos - base[None, :]
    min_d = np.full(n_directions, np.inf)
    ret_t = np.full(n_directions, -1.0)
    drift = 0.0
    steps = int(round(t_max / h))
    for step, (new_pos, drift) in enumerate(_march(surface, pos, v, steps, h)):
        delta = new_pos - pos
        t0 = step * h
        if t0 + h >= t_min:
            # clamp the one segment that straddles t_min so distances are
            # measured over [t_min, t_max] exactly
            if t0 < t_min:
                frac = (t_min - t0) / h
                seg_start = rel + frac * delta
                seg_delta = (1.0 - frac) * delta
                seg_t0, seg_len = t_min, (1.0 - frac) * h
            else:
                seg_start, seg_delta = rel, delta
                seg_t0, seg_len = t0, h
            d, s = _segment_min(seg_start, seg_delta)
            np.minimum(min_d, d, out=min_d)
            hit = (ret_t < 0.0) & (d <= tol)
            if np.any(hit):
                ret_t[hit] = seg_t0 + s[hit] * seg_len
        if surface.kind == "torus":
            rel = _wrap(rel + delta)
        else:
            rel = new_pos - base[None, :]
        pos = new_pos
    return LoopsetEstimate(surface=surface, x0=(float(x0[0]), float(x0[1])),
                           t_max=float(t_max), tol=float(tol),
                           t_min=float(t_min), angles=angles,
                           first_return_times=ret_t, min_distances=min_d,
                           max_energy_drift=drift)
