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
floating-point tie-breaking.  torus_shells walks any integer range of
shells m_min <= |k|^2 <= m_max, uncached, so a caller can stream a ball
in blocks of whole shells; torus_modes is its cached one-window call.
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


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(x)) of int64 x >= 0 below 2**52: there the float
    square root is off by at most one, and one step each way corrects it."""
    s = np.sqrt(x.astype(float)).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def _ball_prefixes(d: int, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Points p of Z^d with |p|^2 <= m_max, lexicographic, and their |p|^2.

    Built one coordinate at a time as int64 arrays: each point of the
    previous level is followed by its run -b..b, b = isqrt(m_max - |p|^2).
    """
    points = np.zeros((1, 0), dtype=np.int64)
    sq = np.zeros(1, dtype=np.int64)
    for _ in range(d):
        b = _isqrt(m_max - sq)
        counts = 2 * b + 1
        parent = np.repeat(np.arange(sq.size), counts)
        k = np.arange(parent.size) - (np.cumsum(counts) - counts + b)[parent]
        points = np.column_stack([points[parent], k])
        sq = sq[parent] + k * k
    return points, sq


def _fill_runs(column: np.ndarray, at: np.ndarray, first: np.ndarray,
               step: float) -> None:
    """Write runs into a float64 column in place, with no whole-column
    temporary: run j starts at row at[j] with value first[j] and moves by
    `step` per row.  The jumps go in at the run starts and one cumulative
    sum carries them, exact because every value is an integer < 2**53."""
    column.fill(step)
    jumps = np.diff(first.astype(float), prepend=0.0)
    jumps[1:] -= step * (np.diff(at) - 1)
    column[at] = jumps
    np.cumsum(column, out=column)


def check_torus_budget(model: TorusModel, m_max: int) -> None:
    """Refuse a torus walk to |k|^2 = m_max above MAX_FREQUENCY^2 or with
    more than MAX_BOX_CANDIDATES points in its bounding box."""
    if not isinstance(model, TorusModel):
        raise TypeError("torus enumeration needs a TorusModel")
    if m_max > MAX_FREQUENCY ** 2:
        raise BudgetError(f"|k|^2={m_max} exceeds the frequency budget "
                          f"{MAX_FREQUENCY:g}^2")
    box = (2 * math.isqrt(m_max) + 1) ** model.n
    if box > MAX_BOX_CANDIDATES:
        raise BudgetError(f"bounding box has {box} candidates "
                          f"(budget {MAX_BOX_CANDIDATES})")


def torus_shells(model: TorusModel, m_min: int, m_max: int) -> np.ndarray:
    """Integer vectors k with m_min <= |k|^2 <= m_max, uncached.

    Walks the prefixes p = (k_1..k_{n-1}) of the ball |k|^2 <= m_max in
    lexicographic order; for each, the last coordinate takes the runs
    [-b, -a] and [a, b] with b = isqrt(m_max - |p|^2) and
    a = ceil(sqrt(m_min - |p|^2)), or the one run [-b, b] when a = 0, in
    exact integer arithmetic, so a shell range costs its own modes and not
    its ball's.  The vectors are written column by column into one
    read-only float64 array, exact because |k|^2 <= MAX_FREQUENCY^2, and
    their lexicographic order makes the downstream summation order
    reproducible.  The budget is checked before anything is allocated.
    """
    check_torus_budget(model, m_max)
    n = model.n
    vectors = np.zeros((0, n))
    if m_min <= m_max:
        prefixes, sq = _ball_prefixes(n - 1, m_max)
        b = _isqrt(m_max - sq)
        rest = m_min - sq
        a = np.where(rest > 0, _isqrt(np.maximum(rest - 1, 0)) + 1, 0)
        length = np.where(a > 0, b - a + 1, 2 * b + 1)
        # the runs in order: [-b, -a] then [a, b] where a > 0, else [-b, b];
        # a prefix whose line misses the shells (a > b) has none
        owner = np.repeat(np.arange(sq.size),
                          np.where(length > 0, 1 + (a > 0), 0))
        second = np.zeros(owner.size, dtype=bool)
        second[1:] = owner[1:] == owner[:-1]
        first = np.where(second, a[owner], -b[owner])
        length = length[owner]
        at = np.cumsum(length) - length
        vectors = np.empty((int(np.sum(length)), n))
        if at.size:
            for i in range(n - 1):
                _fill_runs(vectors[:, i], at, prefixes[owner, i], 0.0)
            _fill_runs(vectors[:, -1], at, first, 1.0)
    vectors.setflags(write=False)
    return vectors


@lru_cache(maxsize=128)
def torus_modes(model: TorusModel, window: SpectralWindow) -> ModeList:
    """Integer vectors k with |k| in the window, by torus_shells; cached."""
    _check_window_budget(window)
    return ModeList(vectors=torus_shells(model, *squared_norm_range(window)))


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
    return ModeList(clusters=tuple(out))


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


def tangent_norm(model: Model, u) -> np.ndarray:
    """Norms of tangent vectors u (..., dim), which must be below the
    injectivity radius (NaN is not).

    The one such check: exp_map, the kernel's offset rows and the config's
    probe grids all go through it, so they agree to the last bit.
    """
    r = _norm(np.asarray(u, dtype=float))
    if not np.all(r < model.injectivity_radius):
        raise ValueError(
            f"|u|={float(np.max(r))} is not below the injectivity radius "
            f"{model.injectivity_radius}"
        )
    return r


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
    r = tangent_norm(model, u)
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
