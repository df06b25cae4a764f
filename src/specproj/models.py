"""Model manifolds with exactly known spectra.

Two families are supported:

* the flat torus with side 2*pi in dimension 2 or 3, whose Laplace
  frequencies are the Euclidean norms |k| of integer vectors k, and
* the round unit 2-sphere, whose frequencies are sqrt(l*(l+1)) with
  multiplicity 2*l+1.

Frequency windows are half-open intervals (lo, hi].  Membership is decided
in exact integer arithmetic: |k| lies in (lo, hi] iff the integer |k|^2
lies in [floor(lo^2)+1, floor(hi^2)], with lo^2 and hi^2 squared exactly
as rationals.  The same trick handles l*(l+1) on the sphere, so window
boundaries that collide with eigenfrequencies are resolved without any
floating-point tie-breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

TWO_PI = 2.0 * math.pi

# Enumeration budget: windows are capped at hi <= 1e4 and the torus bounding
# box at 1e9 candidate lattice points.  Larger requests fail loudly instead
# of thrashing.
MAX_FREQUENCY = 1.0e4
MAX_BOX_CANDIDATES = 10 ** 9


class BudgetError(Exception):
    """Raised when a request exceeds the enumeration budget."""


@dataclass(frozen=True)
class TorusModel:
    """Flat torus (R/2piZ)^n, n in {2, 3}."""

    n: int = 2

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"torus dimension must be 2 or 3, got {self.n}")

    @property
    def dim(self) -> int:
        return self.n

    @property
    def volume(self) -> float:
        return TWO_PI ** self.n

    @property
    def injectivity_radius(self) -> float:
        return math.pi

    @property
    def model_id(self) -> str:
        return f"torus{self.n}"


@dataclass(frozen=True)
class SphereModel:
    """Round unit sphere S^2 embedded in R^3."""

    @property
    def n(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return 2

    @property
    def volume(self) -> float:
        return 4.0 * math.pi

    @property
    def injectivity_radius(self) -> float:
        return math.pi

    @property
    def model_id(self) -> str:
        return "sphere2"


Model = Union[TorusModel, SphereModel]


@dataclass(frozen=True)
class SpectralWindow:
    """Half-open frequency window (lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo >= 0.0 and math.isfinite(self.lo)):
            raise ValueError(f"window.lo must be finite and >= 0, got {self.lo}")
        if not (self.hi > self.lo and math.isfinite(self.hi)):
            raise ValueError(f"window needs hi > lo, got ({self.lo}, {self.hi}]")


class ClusterRecord(NamedTuple):
    """One spherical-harmonic eigenspace."""

    ell: int
    multiplicity: int


@dataclass(frozen=True)
class ModeList:
    """Modes of a window: integer vectors on the torus, clusters on the sphere."""

    window: SpectralWindow
    vectors: np.ndarray | None = None      # (count, n) float64, torus only
    clusters: tuple[ClusterRecord, ...] | None = None  # sphere only

    @property
    def count(self) -> int:
        if self.vectors is not None:
            return int(self.vectors.shape[0])
        return sum(c.multiplicity for c in self.clusters)


def squared_norm_range(window: SpectralWindow) -> tuple[int, int]:
    """Integer range [m_min, m_max] equivalent to lo < sqrt(m) <= hi.

    lo and hi are squared exactly as rationals, so the comparison against
    the integer m is exact.
    """
    lo2 = math.floor(Fraction(window.lo) ** 2)
    hi2 = math.floor(Fraction(window.hi) ** 2)
    return lo2 + 1, hi2


def _check_window_budget(window: SpectralWindow) -> None:
    if window.hi > MAX_FREQUENCY:
        raise BudgetError(
            f"window.hi={window.hi} exceeds the frequency budget {MAX_FREQUENCY:g}"
        )


def _ball_points(d: int, m_max: int):
    """Integer points p of Z^d with |p|^2 <= m_max, lexicographic, lazily.

    Yields (p, |p|^2) with p a tuple; d = 0 yields the empty point.
    """
    if d == 0:
        yield (), 0
        return
    for prefix, sq in _ball_points(d - 1, m_max):
        b = math.isqrt(m_max - sq)
        for k in range(-b, b + 1):
            yield prefix + (k,), sq + k * k


@lru_cache(maxsize=128)
def torus_modes(model: TorusModel, window: SpectralWindow) -> ModeList:
    """Enumerate integer vectors k with |k| in the window.

    Walks the prefixes (k_1..k_{n-1}) of the ball |k|^2 <= m_max in
    lexicographic order; for each, the last coordinate is one arange kept
    where m_min <= |k|^2, in exact integer arithmetic.  The vectors are
    stored as read-only float64, exact because |k|^2 <= MAX_FREQUENCY^2,
    and their lexicographic order makes the downstream summation order
    reproducible.
    """
    if not isinstance(model, TorusModel):
        raise TypeError("torus_modes needs a TorusModel")
    _check_window_budget(window)
    box_side = 2 * math.ceil(window.hi) + 1
    if box_side ** model.n > MAX_BOX_CANDIDATES:
        raise BudgetError(
            f"bounding box has {box_side ** model.n} candidates "
            f"(budget {MAX_BOX_CANDIDATES})"
        )
    m_min, m_max = squared_norm_range(window)
    n = model.n
    blocks = []
    if m_min <= m_max:
        for prefix, sq in _ball_points(n - 1, m_max):
            b = math.isqrt(m_max - sq)
            last = np.arange(-b, b + 1, dtype=np.int64)
            last = last[sq + last * last >= m_min]
            if last.size:
                block = np.empty((last.size, n))
                for i, k in enumerate(prefix):
                    block[:, i] = k
                block[:, -1] = last
                blocks.append(block)
    vectors = np.concatenate(blocks) if blocks else np.zeros((0, n))
    vectors.setflags(write=False)
    return ModeList(window=window, vectors=vectors)


def lead_sign(rows) -> np.ndarray:
    """+1.0 or -1.0 per row: the sign of the row's first nonzero entry.

    A zero row gets +1; -0.0 counts as zero.  Folding rows r and -r onto
    r * lead_sign(r) picks one representative of each pair.
    """
    rows = np.asarray(rows)
    lead = rows[np.arange(rows.shape[0]), np.argmax(rows != 0, axis=1)]
    return np.where(lead < 0, -1.0, 1.0)


@lru_cache(maxsize=128)
def sphere_clusters(model: SphereModel, window: SpectralWindow) -> ModeList:
    """List eigenspace clusters l with sqrt(l*(l+1)) in the window."""
    if not isinstance(model, SphereModel):
        raise TypeError("sphere_clusters needs a SphereModel")
    _check_window_budget(window)
    m_min, m_max = squared_norm_range(window)
    out = []
    if m_max >= m_min:
        for ell in range(0, math.isqrt(max(m_max, 0)) + 1):
            t = ell * (ell + 1)
            if m_min <= t <= m_max:
                out.append(ClusterRecord(ell=ell, multiplicity=2 * ell + 1))
    return ModeList(window=window, clusters=tuple(out))


# --------------------------------------------------------------------------
# points, exponential maps, distances
# --------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # stacked vector products round as np.dot does on one vector, which an
    # axis=-1 sum does not
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _as_point(model: Model, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if isinstance(model, TorusModel):
        if x.shape[-1:] != (model.n,):
            raise ValueError(f"torus point must have shape (..., {model.n})")
        return x
    if x.shape[-1:] != (3,):
        raise ValueError("sphere point must be a 3-vector")
    nrm = _norm(x)
    worst = float(np.max(np.abs(nrm - 1.0)))
    if worst > 1e-9:
        raise ValueError(f"sphere point must be unit length, ||x|-1|={worst}")
    return x / nrm[..., None]


def tangent_frame(x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed orthonormal frame of the tangent plane at sphere points (..., 3).

    The seed axis is the coordinate direction least aligned with x0, which
    makes the frame deterministic for a given point.
    """
    x0 = np.asarray(x0, dtype=float)
    seed = np.eye(3)[np.argmin(np.abs(x0), axis=-1)]
    e1 = seed - _dot(seed, x0)[..., None] * x0
    e1 = e1 / _norm(e1)[..., None]
    e2 = np.cross(x0, e1)
    return e1, e2


def exp_map(model: Model, x0, u) -> np.ndarray:
    """Exponential map at x0 applied to tangent vectors u (..., dim).

    Leading axes of x0 and u broadcast, so one base point or one per row
    may be given.  Torus: coordinate translation mod 2*pi.  Sphere: u is
    expressed in the fixed tangent frame of x0 and followed along the great
    circle.  Tangent vectors at or beyond the injectivity radius are
    rejected.
    """
    x0 = _as_point(model, x0)
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (model.dim,):
        raise ValueError(f"tangent vector must have shape (..., {model.dim})")
    r = _norm(u)
    if np.any(r >= model.injectivity_radius):
        raise ValueError(
            f"|u|={float(np.max(r))} is not below the injectivity radius "
            f"{model.injectivity_radius}"
        )
    if isinstance(model, TorusModel):
        return np.mod(x0 + u, TWO_PI)
    e1, e2 = tangent_frame(x0)
    zero = (r == 0.0)[..., None]
    w = (u[..., :1] * e1 + u[..., 1:] * e2) / np.where(zero, 1.0, r[..., None])
    moved = np.cos(r)[..., None] * x0 + np.sin(r)[..., None] * w
    return np.where(zero, x0, moved)


def torus_separation(model: TorusModel, x, y) -> np.ndarray:
    """Shortest representative of x - y, componentwise in [-pi, pi).

    For the square torus the minimum over all 3^n shifted representatives
    decouples into per-coordinate wraps, so this is the exact minimizer.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.mod(d + math.pi, TWO_PI) - math.pi


def distance(model: Model, x, y) -> float | np.ndarray:
    """Geodesic distance between points; leading axes of x and y broadcast."""
    x = _as_point(model, x)
    y = _as_point(model, y)
    if isinstance(model, TorusModel):
        d = _norm(torus_separation(model, x, y))
    else:
        d = np.arccos(np.clip(_dot(x, y), -1.0, 1.0))
    return d if d.ndim else float(d)


def counting_function(model: Model, lam: float) -> int:
    """Number of eigenvalues with frequency <= lam, multiplicity counted.

    Exact integer arithmetic throughout: the threshold floor(lam^2) is formed
    from the exact rational square of lam.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    t = math.floor(Fraction(lam) ** 2)
    if isinstance(model, SphereModel):
        # largest l with l*(l+1) <= t; sum of 2l+1 telescopes to (L+1)^2
        if t < 0:
            return 0
        ell = math.isqrt(t)
        if ell * (ell + 1) > t:
            ell -= 1
        return (ell + 1) ** 2
    half = math.isqrt(t)
    if model.n == 2:
        total = 0
        for k1 in range(-half, half + 1):
            total += 2 * math.isqrt(t - k1 * k1) + 1
        return total
    total = 0
    for k1 in range(-half, half + 1):
        rem1 = t - k1 * k1
        b1 = math.isqrt(rem1)
        k2 = np.arange(-b1, b1 + 1, dtype=np.int64)
        rem2 = rem1 - k2 * k2
        s = np.floor(np.sqrt(rem2.astype(float))).astype(np.int64)
        # one-ulp corrections keep the integer square root exact
        s = np.where((s + 1) * (s + 1) <= rem2, s + 1, s)
        s = np.where(s * s > rem2, s - 1, s)
        total += int(np.sum(2 * s + 1))
    return total
