"""Geodesic return statistics on model surfaces.

A direction xi at a base point is flagged as looping when the unit-speed
geodesic it launches comes back within tol of the base point at some time
in [t_min, T_max].  The flagged fraction over a stratified sample of
directions estimates the size of the loop set: measure zero on the flat
torus (rational slopes only), everything on the round sphere (all great
circles close), and somewhere in between on ellipsoids of revolution.

The sphere and the ellipsoids are the quadric x^T A x = 1 in R^3 with
A = diag(1, 1, 1/c^2); the flat torus is R^2 with distances taken modulo
2 pi.  The state (x, v) has no poles or charts.  On the torus and the
sphere a state at t = k h is the closed form from the launch state,

    torus:   x(t) = x0 + t v0,               v(t) = v0,
    sphere:  x(t) = cos t x0 + sin t v0,     v(t) = cos t v0 - sin t x0.

Ellipsoids, c = 1 included (an RK4 route on the round sphere for
cross-checks), take fixed RK4 steps: the normal is A x, and a unit-speed
curve on the quadric is a geodesic when its acceleration is normal, so

    x'' = - (v^T A v / |A x|^2) A x,        v = x'.

Guards bound each state's energy | |v|^2 - 1 | and, on a quadric, the
constraint | x^T A x - 1 | and the drift of Clairaut's invariant
L_z = x v_y - y v_x (conserved on surfaces of revolution), all by 1e-6.
Nothing projects back onto the surface, so they read the integration error
or the closed form's rounding.

The march runs in blocks of b = max(1, 2048 // n) steps for n directions,
a budget of 2048 stored states whatever n is: one closed-form evaluation,
or b stacked RK4 steps.  The guards, the closest approach per segment and
the first-return search then run vectorized over the block.  The result
is bit for bit the one of a step-by-step march: the guards raise at the
first offending step with its value, elementwise operations keep their
operands and order, sums over the d = 2 or 3 coordinates of a point run
left to right (the bits of np.add.reduce, without its slow loop over a
short axis), and min and argmax are exact.

An RK4 step costs numpy call overhead, not arithmetic, so it makes 36
ufunc calls (out positional, scalars 0-d) into contiguous buffers, and
views of them, built once per march.  They are coordinate-major, (3, n)
per x, v or a, so a coordinate is one contiguous row.  The acceleration
takes 6 calls: one multiply by the signed diagonal (-A, A) gives
(-A x, A v), two more the squares (-A x)^2 and (A v) v, an add.reduce
over the middle, coordinate axis (left to right) their sums, and
r = v^T A v / |A x|^2 times -A x is the result.  Negation is exact and
rounding is symmetric, so (-A x)^2 = (A x)^2 and r (-A x) = -(r A x)
bit for bit, signed zeros included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

_ENERGY_TOL = 1e-6
_CONSTRAINT_TOL = 1e-6
_CLAIRAUT_TOL = 1e-6
_GUARDS = ("energy", "constraint", "Clairaut")
_MAX_STEP = 1e-3
# states per march block: steps per block times directions
_BLOCK_ROWS = 2048


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
        if self.kind != "ellipsoid" and self.c != 1.0:
            raise ValueError(f"c applies to the ellipsoid only; a {self.kind} "
                             "takes c = 1.0")

    @property
    def embed_dim(self) -> int:
        return 2 if self.kind == "torus" else 3


def _quadric(surface: SurfaceSpec) -> np.ndarray | None:
    """Diagonal of A in x^T A x = 1, or None for the flat torus."""
    if surface.kind == "torus":
        return None
    return np.array([1.0, 1.0, 1.0 / surface.c ** 2])


def _coord_sum(p: np.ndarray) -> np.ndarray:
    """Sum over the last axis of 2 or 3 coordinates, left to right."""
    total = p[..., 0] + p[..., 1]
    if p.shape[-1] == 3:
        total += p[..., 2]
    return total


def _clairaut(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """L_z = x v_y - y v_x, conserved on surfaces of revolution."""
    return x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]


def _accel(signed: np.ndarray, xv: np.ndarray, v: np.ndarray,
           out: np.ndarray, scratch: tuple) -> None:
    """The acceleration -(v^T A v / |A x|^2) A x into out, of shape (3, n),
    for xv = (x, v) of shape (2, 3, n) whose second entry is v.  signed is
    (-A, A) spread to (2, 3, n), and scratch holds `_RK4`'s work buffers
    and their views."""
    m, nax, av, squares, nax2, avv, sums, p, q = scratch
    np.multiply(signed, xv, m)         # (-A x, A v)
    np.multiply(nax, nax, nax2)
    np.multiply(av, v, avv)
    np.add.reduce(squares, 1, None, sums)     # (|A x|^2, v^T A v)
    np.divide(q, p, q)
    np.multiply(q, nax, out)


def _flow(torus: bool, x: np.ndarray, v: np.ndarray, t: np.ndarray):
    """Exact states (x(t), v(t)), shape (len(t), n, d), from (x, v) at
    t = 0: straight lines on the torus, great circles on the sphere."""
    t = t[:, None, None]
    if torus:
        xs = x + t * v
        return xs, np.broadcast_to(v, xs.shape)
    cos, sin = np.cos(t), np.sin(t)
    return cos * x + sin * v, cos * v - sin * x


class _RK4:
    """Stacked RK4 steps of a block held in rows (x, v, a) of shape
    (block + 1, 3, 3, n): row i + 1 takes the state (x, v) one step past
    row i's, and a step writes a(x, v) into row i, so the last two entries
    of a row are k1 = (v, a) and no stage copies its velocity.  The rows,
    the three inner stages and the scratch of `_accel` are allocated once
    per march, and so is every view a step takes."""

    def __init__(self, a: np.ndarray, x: np.ndarray, v: np.ndarray,
                 h: float, block: int):
        n, dim = x.shape
        self.rows = np.empty((block + 1, 3, dim, n))
        self.rows[0, :2] = x.T, v.T
        self.signed = np.empty((2, dim, n))
        self.signed[0] = -a[:, None]
        self.signed[1] = a[:, None]
        m = np.empty((2, dim, n))
        squares = np.empty((2, dim, n))
        sums = np.empty((2, n))
        self.scratch = (m, m[0], m[1], squares, squares[0], squares[1],
                        sums, sums[0], sums[1])
        # per row and stage: (x, v), v, k = (v, a), a
        self.row_views = [(r[:2], r[1], r[1:], r[2]) for r in self.rows]
        stages = np.empty((3, 3, dim, n))
        self.stage_views = [(s[:2], s[1], s[1:], s[2]) for s in stages]
        self.k2, self.k3, self.k4 = (s[1:] for s in stages)
        # doubling k2, k3 doubles their spent stages whole, one block
        self.stages23 = stages[:2]
        self.two = np.array(2.0)
        self.set_step(h)

    def set_step(self, h: float) -> None:
        # 0-d arrays, numpy's fastest scalar operands
        self.coeffs = tuple(np.array(c) for c in (0.5 * h, 0.5 * h, h))
        self.sixth = np.array(h / 6.0)

    def step(self, i: int) -> None:
        """One step from the state in row i into row i + 1.

        The arithmetic is x + h/6 (((k1x + 2 k2x) + 2 k3x) + k4x), and the
        same for v, term for term and in that order; the stage states are
        y + (h/2) k1, y + (h/2) k2 and y + h k3."""
        signed, scratch = self.signed, self.scratch
        y, v, k1, acc = self.row_views[i]
        _accel(signed, y, v, acc, scratch)
        k = k1
        for (state, sv, sk, sa), c in zip(self.stage_views, self.coeffs):
            np.multiply(c, k, state)
            np.add(state, y, state)
            _accel(signed, state, sv, sa, scratch)
            k = sk
        k2, stages23 = self.k2, self.stages23
        np.multiply(stages23, self.two, stages23)
        np.add(k2, k1, k2)
        np.add(k2, self.k3, k2)
        np.add(k2, self.k4, k2)
        np.multiply(k2, self.sixth, k2)
        np.add(y, k2, self.row_views[i + 1][0])


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
    c = surface.c
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
           h: float, t_end: float | None = None):
    """States after 0 .. `steps` steps from (x, v) in blocks of
    max(1, _BLOCK_ROWS // n) steps.  Yields (positions, drifts) per block
    of b steps: positions of shape (b + 1, n, d) from the state before the
    block to the state after it (RK4's are a view of a buffer the next
    block overwrites), and the largest (energy, constraint, Clairaut)
    drifts so far, the last two 0 on the torus.  With t_end the last step
    is a partial one that ends at t = t_end, in (h (steps - 1), h steps].

    Raises ArithmeticError at the first step whose drift exceeds
    _ENERGY_TOL, _CONSTRAINT_TOL or _CLAIRAUT_TOL, in that order, or is NaN
    (each guard reads `not (value <= tol)`), with that step's value.
    """
    a = _quadric(surface)
    n, dim = x.shape
    block = max(1, _BLOCK_ROWS // n)
    rk4 = surface.kind == "ellipsoid"
    if rk4:
        stepper = _RK4(a, x, v, h, block)
        rows = stepper.rows
    tols = np.array([_ENERGY_TOL, _CONSTRAINT_TOL, _CLAIRAUT_TOL])
    lz = _clairaut(x, v)
    worst = np.zeros(3)
    done = 0
    while done < steps:
        b = min(block, steps - done)
        partial = t_end is not None and done + b == steps
        if rk4:
            for i in range(b - partial):
                stepper.step(i)
            if partial:
                stepper.set_step(t_end - h * (steps - 1))
                stepper.step(b - 1)
            xs, vs = (rows[:b + 1, j].swapaxes(1, 2) for j in (0, 1))
        else:
            t = h * np.arange(done, done + b + 1)
            if partial:
                t[-1] = t_end
            xs, vs = _flow(a is None, x, v, t)
        # drifts[g, i]: guard g after step i + 1 of the block
        drifts = np.zeros((3, b))
        drifts[0] = np.abs(_coord_sum(vs[1:] * vs[1:]) - 1.0).max(axis=1)
        if a is not None:
            drifts[1] = np.abs(_coord_sum(a * xs[1:] * xs[1:])
                               - 1.0).max(axis=1)
            drifts[2] = np.abs(_clairaut(xs[1:], vs[1:]) - lz).max(axis=1)
        bad = ~(drifts <= tols[:, None])
        if bad.any():
            first = int(bad.any(axis=0).argmax())
            g = int(bad[:, first].argmax())
            raise ArithmeticError(f"{_GUARDS[g]} drift {drifts[g, first]:.3e} "
                                  f"exceeds {float(tols[g])}")
        worst = np.maximum(worst, drifts.max(axis=1))
        yield xs, tuple(worst.tolist())
        if rk4:
            rows[0] = rows[b]
        done += b


def _wrap(rel: np.ndarray) -> np.ndarray:
    return np.mod(rel + math.pi, TWO_PI) - math.pi


def _segment_min(rel: np.ndarray, delta: np.ndarray):
    """Min distance to the origin over the segment rel + s*delta, s in [0,1],
    for each row of the last axis."""
    dd = _coord_sum(delta * delta)
    s = -_coord_sum(rel * delta) / np.where(dd > 0.0, dd, 1.0)
    s = np.clip(s, 0.0, 1.0)
    closest = rel + s[..., None] * delta
    return np.sqrt(_coord_sum(closest * closest)), s


@dataclass(frozen=True)
class GeodesicPath:
    times: np.ndarray
    positions: np.ndarray      # embedded coordinates per step
    max_energy_drift: float


def integrate_geodesic(surface: SurfaceSpec, x0, angle: float, t_max: float,
                       h: float = _MAX_STEP) -> GeodesicPath:
    """Integrate one unit-speed geodesic; returns the embedded path.

    x0 is a torus point, or polar (theta, phi) on the sphere/ellipsoid;
    angle is the launch direction in the tangent frame at x0.  The path
    samples t = k h for k = 0 .. floor(t_max / h) and ends at t_max: when
    t_max / h is not whole, a last partial step of t_max - h floor(t_max / h)
    reaches it (the closed form at t_max on the torus and the sphere).
    """
    if not (0 < h <= _MAX_STEP):
        raise ValueError(f"step must lie in (0, {_MAX_STEP}]")
    if t_max <= 0:
        raise ValueError("t_max must be > 0")
    x0 = np.asarray(x0, dtype=float)
    x, v = _launch(surface, x0, np.array([float(angle)]))
    whole = math.floor(t_max / h)
    partial = t_max / h > whole
    steps = whole + partial
    positions = np.empty((steps + 1, surface.embed_dim))
    positions[0] = x[0]
    drift = 0.0
    done = 0
    for block, (drift, _, _) in _march(surface, x, v, steps, h,
                                       t_max if partial else None):
        b = block.shape[0] - 1
        positions[done + 1:done + b + 1] = block[1:, 0]
        done += b
    times = h * np.arange(steps + 1)
    if partial:
        times[-1] = t_max
    return GeodesicPath(times=times, positions=positions,
                        max_energy_drift=drift)


def closed_form_geodesic(surface: SurfaceSpec, x0, angle: float,
                         times: np.ndarray) -> np.ndarray:
    """Exact geodesics for the torus (straight lines) and sphere (great
    circles), used as integration oracles."""
    if surface.c != 1.0:
        raise ValueError("no closed form for a non-round ellipsoid")
    base, e1, e2 = _base_frame(surface, np.asarray(x0, dtype=float))
    xi = math.cos(angle) * e1 + math.sin(angle) * e2
    positions, _ = _flow(surface.kind == "torus", base[None, :],
                         xi[None, :], np.asarray(times, dtype=float))
    return positions[:, 0]


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
    max_constraint_drift: float     # 0 on the torus, which has no constraint
    max_clairaut_drift: float       # 0 on the torus, which has no axis

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
    chord-accurate minimum over each step's segment, over [t_min, t_max]
    exactly: the march takes ceil(t_max / h) steps, and the segments that
    straddle t_min or t_max are clamped there.
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
    min_d = np.full(n_directions, np.inf)
    ret_t = np.full(n_directions, -1.0)
    drifts = (0.0, 0.0, 0.0)
    end = t_max / h
    steps = math.ceil(end)
    done = 0
    for block, drifts in _march(surface, pos, v, steps, h):
        b = block.shape[0] - 1
        t0 = np.arange(done, done + b) * h
        done += b
        delta = block[1:] - block[:-1]
        rels = block[:-1] - base
        if surface.kind == "torus":
            rels = _wrap(rels)
        live = t0 + h >= t_min
        if not live[-1]:
            continue
        lo = int(live.argmax())
        rels, delta, t0 = rels[lo:], delta[lo:], t0[lo:]
        seg_t0 = t0.copy()
        seg_len = np.full_like(t0, h)
        # clamp the segments that straddle t_min and t_max
        for i in np.flatnonzero(t0 < t_min):
            frac = (t_min - t0[i]) / h
            rels[i] = rels[i] + frac * delta[i]
            delta[i] = (1.0 - frac) * delta[i]
            seg_t0[i], seg_len[i] = t_min, (1.0 - frac) * h
        if done == steps and end < steps:
            frac = (t_max - seg_t0[-1]) / seg_len[-1]
            delta[-1] = frac * delta[-1]
            seg_len[-1] = t_max - seg_t0[-1]
        d, s = _segment_min(rels, delta)
        np.minimum(min_d, d.min(axis=0), out=min_d)
        hits = d <= tol
        first = hits.argmax(axis=0)
        new = (ret_t < 0.0) & hits.any(axis=0)
        if new.any():
            k = first[new]
            ret_t[new] = seg_t0[k] + s[k, new] * seg_len[k]
    return LoopsetEstimate(surface=surface, x0=(float(x0[0]), float(x0[1])),
                           t_max=float(t_max), tol=float(tol),
                           t_min=float(t_min), angles=angles,
                           first_return_times=ret_t, min_distances=min_d,
                           max_energy_drift=drifts[0],
                           max_constraint_drift=drifts[1],
                           max_clairaut_drift=drifts[2])
