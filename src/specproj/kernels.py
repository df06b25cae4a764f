"""Spectral projector kernels and their scaling limits.

The projector kernel of a frequency window I is

    E_I(x, y) = sum over modes with frequency in I of phi(x) phi(y)

with real orthonormal eigenfunctions.  On the torus the mode sum collapses
to cos<k, x-y> / (2pi)^n summed over window lattice vectors; on the sphere
it collapses to (2l+1)/(4pi) P_l(cos d(x, y)) summed over window clusters.

Rescaling a unit window around frequency lam by 1/lam and normalizing by
lam^(n-1) produces, as lam grows, the Fourier transform of the uniform
measure on the unit cosphere:

    (2pi)^-n  integral over S^{n-1} of exp(i<u-v, w>) dw

whose radial profile is an elementary Bessel function.  The volume term of
the cumulative kernel (ball_kernel) has both a Bessel closed form and an
independent adaptive-quadrature route; both are kept on purpose.

Derivatives: one mechanism and one batched evaluator per model.  Torus
kernels are differentiated term by term (exact trig factors) in
torus_pair_deriv_batch, and torus_cumulative_batch runs the same sums over
the nested windows of a cumulative sweep.  Sphere kernels go through sphere_fd_batch:
central finite differences with one Richardson extrapolation level in
normal coordinates, applied to any elementwise profile of t = <x, y>,
with the stencil points of both steps and every row in one call of the
profile on the distinct t.  projector_kernel_deriv turns offset rows
(x0, us, vs) into a call of either for both models; rescaled_kernel is a
one-row call of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import (
    Model,
    ModeList,
    SphereModel,
    SpectralWindow,
    TorusModel,
    distance,
    exp_map,
    sphere_clusters,
    tangent_norm,
    torus_modes,
)
from .special import (
    SphereQuadrature,
    adaptive_simpson,
    bessel_j_scaled,
    legendre_weighted_sum,
    sphere_quadrature,
)

TWO_PI = 2.0 * math.pi
MAX_DERIV_ORDER = 4
FD_STEP = 1e-4

# chunk size (in floats) for mode-by-pair phase matrices
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True)
class DerivOrder:
    """Pair of derivative multi-indices (alpha on x/u, beta on y/v)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same length")
        if any(a < 0 for a in self.alpha + self.beta):
            raise ValueError("multi-index entries must be >= 0")
        if self.omega > MAX_DERIV_ORDER:
            raise ValueError(
                f"total derivative order {self.omega} exceeds {MAX_DERIV_ORDER}"
            )

    @property
    def omega(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    @classmethod
    def zero(cls, dim: int) -> "DerivOrder":
        return cls(alpha=(0,) * dim, beta=(0,) * dim)


def multi_indices(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices of total order <= max_order, by (order, lex)."""
    # descending ranges give the descending lexicographic order, and the
    # stable sort by total order keeps it within each order
    return sorted((index for index in itertools.product(
        range(max_order, -1, -1), repeat=dim) if sum(index) <= max_order),
        key=sum)


# --------------------------------------------------------------------------
# torus mode sums
# --------------------------------------------------------------------------

def _torus_deriv_sum(vectors: np.ndarray, diffs: np.ndarray,
                     alpha: tuple[int, ...], beta: tuple[int, ...]) -> np.ndarray:
    """sum_k k^alpha (-k)^beta cos^(omega)(<k, diff>) for each diff row.

    The omega-th derivative of cos is read off the exact table
    (cos, -sin, -cos, sin)[omega % 4], evaluated in place into the phase
    block; the integer weights multiply in only when some exponent is
    nonzero.  Summation runs along the contiguous mode axis, so numpy's
    pairwise accumulation applies; this is what keeps 1e5+ term sums at
    1e-12.  Every step is odd or even in diff bit for bit (the phases
    negate exactly, cos(-z) == cos(z) and sin(-z) == -sin(z), the weights
    are exact integers, and pairwise summation of negated terms gives the
    negated sum), so the row -d returns (-1)^omega times the row d exactly.
    The trig parity is a property of numpy's float64 sin/cos build, not of
    IEEE arithmetic; tests/test_remainder.py checks it as an environment
    assumption, and the torus fold in remainder_batch is bit-exact only
    where it holds.
    """
    count, n = vectors.shape
    pairs = diffs.shape[0]
    out = np.zeros(pairs)
    if count == 0:
        return out
    omega = sum(alpha) + sum(beta)
    weights = None
    for sign, orders in ((1.0, alpha), (-1.0, beta)):
        for i, order in enumerate(orders):
            if order:
                factor = (sign * vectors[:, i]) ** order
                weights = factor if weights is None else weights * factor
    trig = np.sin if omega % 2 else np.cos
    negate = omega % 4 in (1, 2)
    chunk = max(1, _CHUNK_BUDGET // max(count, 1))
    for start in range(0, pairs, chunk):
        block = diffs[start:start + chunk]
        terms = block @ vectors.T      # (B, count), contiguous along modes
        trig(terms, out=terms)
        if negate:
            np.negative(terms, out=terms)
        if weights is not None:
            terms *= weights
        out[start:start + chunk] = np.sum(terms, axis=1)
    return out


def sphere_coeffs(modes: ModeList) -> np.ndarray:
    """Legendre coefficients (2l+1)/(4pi) of a window's clusters, by degree."""
    if not modes.clusters:
        return np.zeros(0)
    lmax = max(c.ell for c in modes.clusters)
    coeffs = np.zeros(lmax + 1)
    for c in modes.clusters:
        coeffs[c.ell] = c.multiplicity / (4.0 * math.pi)
    return coeffs


# --------------------------------------------------------------------------
# finite differences (sphere derivatives)
# --------------------------------------------------------------------------

_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


@lru_cache(maxsize=256)
def _tensor_stencil(alpha: tuple[int, ...], beta: tuple[int, ...]):
    """Tensor-product central stencil: coefficients and the offsets du, dv
    of its points, shape (points, 1, dim).

    Coefficients are for step h = 1; the caller divides by h^omega.
    """
    taps = list(itertools.product(*(_STENCILS[o] for o in alpha + beta)))
    coeffs = np.array([math.prod(w for _, w in row) for row in taps])
    steps = np.array([[s for s, _ in row] for row in taps],
                     dtype=float)[:, None, :]
    return coeffs, steps[..., :len(alpha)], steps[..., len(alpha):]


def sphere_fd_batch(model: SphereModel, xu, xv, profile, us, vs,
                    order: DerivOrder) -> np.ndarray:
    """Derivatives of profile(<exp_xu(u), exp_xv(v)>) at offset rows us, vs.

    xu and xv are base points, one for all rows or one per row; alpha acts
    on u and beta on v in their normal coordinates.  Orders above zero use
    central differences (step FD_STEP, one Richardson level): the stencil
    points of both steps and every row go through one pair of exp_map
    calls and one profile call on the distinct values of t.  So a profile
    must be elementwise in t, giving equal values at equal t whatever else
    its argument holds.  It returns the shape of its argument, or one
    leading axis more (one row per window, say), and then so does this.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    u, v = us, vs
    if order.omega:
        coeffs, du, dv = _tensor_stencil(order.alpha, order.beta)
        steps = np.array([0.5 * FD_STEP, FD_STEP])[:, None, None, None]
        u, v = us + steps * du, vs + steps * dv
    t = np.sum(exp_map(model, xu, u) * exp_map(model, xv, v), axis=-1)
    distinct, inverse = np.unique(np.clip(t, -1.0, 1.0), return_inverse=True)
    # take keeps the values C-contiguous, so each (stencil, rows) block
    # meets BLAS in the layout of a one-step sweep, and rounds as it did
    vals = profile(distinct).take(inverse.reshape(t.shape), axis=-1)
    if not order.omega:
        return vals

    def combine(pair):
        # (2, stencil, rows) values, combined along the stencil axis
        small, big = ((coeffs @ part) / step ** order.omega
                      for part, step in zip(pair, (0.5 * FD_STEP, FD_STEP)))
        return (4.0 * small - big) / 3.0

    if vals.ndim == t.ndim:
        return combine(vals)
    return np.array([combine(pair) for pair in vals])


# --------------------------------------------------------------------------
# projector kernels
# --------------------------------------------------------------------------

def projector_kernel(model: Model, window: SpectralWindow, x, y) -> float:
    """Projector kernel E_window(x, y) by exact mode summation."""
    distance(model, x, y)     # refuses mis-shaped and non-unit points
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(model, TorusModel):
        return float(torus_pair_deriv_batch(model, window, (x - y)[None, :],
                                            DerivOrder.zero(model.n))[0])
    coeffs = sphere_coeffs(sphere_clusters(model, window))
    return float(legendre_weighted_sum(coeffs,
                                       np.clip(np.sum(x * y), -1.0, 1.0)))


def projector_kernel_deriv(model: Model, window: SpectralWindow, x0,
                           us, vs, order: DerivOrder) -> np.ndarray:
    """Derivatives of E_window(exp_x0(us[i]), exp_x0(vs[i])) per offset row.

    alpha acts on u, beta on v, both in normal coordinates at x0; the
    offset rows have shape (rows, dim) and stay below the injectivity
    radius.  The rows go to torus_pair_deriv_batch (as us - vs) or to
    sphere_pair_deriv_batch unchanged.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if us.ndim != 2 or us.shape[1] != model.dim or vs.shape != us.shape:
        raise ValueError(f"offsets must be rows of shape (rows, {model.dim})")
    tangent_norm(model, us)
    tangent_norm(model, vs)
    if isinstance(model, TorusModel):
        return torus_pair_deriv_batch(model, window, us - vs, order)
    return sphere_pair_deriv_batch(model, window, x0, us, vs, order)


def rescaled_kernel(model: Model, x0, lam: float, delta: float,
                    u, v, order: DerivOrder) -> float:
    """Derivative of lam^-(n-1) E_(lam, lam+delta](exp(u/lam), exp(v/lam)).

    Differentiation happens after the 1/lam rescaling of the offsets, so a
    total derivative order omega contributes an extra lam^-omega.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    window = SpectralWindow(lam, lam + delta)
    u = np.asarray(u, dtype=float) / lam
    v = np.asarray(v, dtype=float) / lam
    base = projector_kernel_deriv(model, window, x0, u[None, :], v[None, :],
                                  order)[0]
    return float(base * lam ** (-(model.n - 1) - order.omega))


# --------------------------------------------------------------------------
# limit kernel (Fourier transform of the cosphere measure)
# --------------------------------------------------------------------------

def default_quad_degree(reach: float, omega: int) -> int:
    """Quadrature degree heuristic: twice (offset reach + order + 10)."""
    return int(math.ceil(2.0 * (reach + omega + 10)))


def limit_kernel_batch(n: int, diffs: np.ndarray, order: DerivOrder,
                       quad: SphereQuadrature) -> np.ndarray:
    """Derivatives of (2pi)^-n int_{S^{n-1}} exp(i<diff, w>) dw, batched.

    The directional monomial (i w)^alpha (-i w)^beta reduces to
    i^(|alpha|-|beta|) w^(alpha+beta); the surviving real part is read off
    the phase quadrant.  The imaginary residue of the quadrature sum is
    asserted to stay below 1e-10, never silently dropped.
    """
    if quad.n != n:
        raise ValueError("quadrature dimension does not match n")
    diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
    gamma = tuple(a + b for a, b in zip(order.alpha, order.beta))
    wfac = quad.weights.copy()
    for axis, g in enumerate(gamma):
        if g:
            wfac = wfac * quad.nodes[:, axis] ** g
    phases = diffs @ quad.nodes.T
    cos_part = np.cos(phases) @ wfac
    sin_part = np.sin(phases) @ wfac
    m = (sum(order.alpha) - sum(order.beta)) % 4
    if m == 0:
        real, imag = cos_part, sin_part
    elif m == 1:
        real, imag = -sin_part, cos_part
    elif m == 2:
        real, imag = -cos_part, -sin_part
    else:
        real, imag = sin_part, -cos_part
    scale = TWO_PI ** (-n)
    residue = float(np.max(np.abs(imag))) * scale
    if residue > 1e-10:
        raise ArithmeticError(
            f"imaginary quadrature residue {residue:.3e} exceeds 1e-10"
        )
    return real * scale


def limit_kernel(n: int, u, v, order: DerivOrder | None = None,
                 quad: SphereQuadrature | None = None) -> float:
    """Scaling-limit kernel (and derivatives) at offsets u, v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if order is None:
        order = DerivOrder.zero(n)
    if quad is None:
        reach = float(np.linalg.norm(u - v))
        quad = sphere_quadrature(n, default_quad_degree(reach, order.omega))
    return float(limit_kernel_batch(n, (u - v)[None, :], order, quad)[0])


def limit_kernel_closed_form(n: int, r: float) -> float:
    """Order-zero limit kernel as an elementary Bessel profile.

    (2pi)^(-n/2) J_((n-2)/2)(r) / r^((n-2)/2); at r=0 this is the volume of
    the unit cosphere divided by (2pi)^n.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    nu = 0.5 * (n - 2)
    return TWO_PI ** (-0.5 * n) * bessel_j_scaled(nu, r)


# --------------------------------------------------------------------------
# ball kernel (volume term of the cumulative kernel)
# --------------------------------------------------------------------------

def ball_kernel(n: int, d, lam: float):
    """Closed form (2pi)^(-n/2) lam^(n/2) d^(-n/2) J_(n/2)(lam d).

    Evaluated through the scaled profile J_nu(z)/z^nu, which removes the
    d -> 0 singularity: the diagonal value is lam^n vol(B^n) / (2pi)^n.
    d is a float or an array of distances.
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported dimension n={n}")
    if np.any(np.asarray(d) < 0):
        raise ValueError("d must be >= 0")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return (lam * lam / TWO_PI) ** (0.5 * n) * bessel_j_scaled(0.5 * n, lam * d)


def ball_kernel_quadrature(n: int, d: float, lam: float,
                           tol: float = 1e-12) -> float:
    """Independent route: adaptive Simpson of the radial spectral measure.

    integral over mu in [0, lam] of mu^(n-1) (2pi)^(-n/2) J_nu(mu d)/(mu d)^nu
    with nu = (n-2)/2.  Kept separate from the closed form so the two can
    check each other.
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported dimension n={n}")
    if lam < 0 or d < 0:
        raise ValueError("d and lam must be >= 0")
    if lam == 0.0:
        return 0.0
    nu = 0.5 * (n - 2)
    scale = TWO_PI ** (-0.5 * n)

    def integrand(mu):
        return scale * mu ** (n - 1) * bessel_j_scaled(nu, mu * d)

    panels = max(8, int(math.ceil(lam * d)) + 8)
    rough = adaptive_simpson(integrand, 0.0, lam, tol=1e-6, min_panels=panels)
    return adaptive_simpson(integrand, 0.0, lam,
                            tol=tol * max(1.0, abs(rough)), min_panels=panels)


@lru_cache(maxsize=256)
def _radial_terms(gamma: tuple[int, ...]):
    """Expansion of d^gamma applied to a radial profile g0(|w|^2).

    Terms are (exponents, m, coeff) meaning coeff * w^exponents * gm(|w|^2)
    where each profile satisfies d gm / ds = -(lam/2) g_{m+1}; the (-lam)
    factor of every m-step is folded in at evaluation time.
    """
    dim = len(gamma)
    terms = {((0,) * dim, 0): 1.0}
    for axis, order in enumerate(gamma):
        for _ in range(order):
            new: dict = {}
            for (exps, m), coeff in terms.items():
                if exps[axis] > 0:
                    down = tuple(e - (1 if i == axis else 0)
                                 for i, e in enumerate(exps))
                    key = (down, m)
                    new[key] = new.get(key, 0.0) + coeff * exps[axis]
                up = tuple(e + (1 if i == axis else 0)
                           for i, e in enumerate(exps))
                key = (up, m + 1)
                new[key] = new.get(key, 0.0) + coeff
            terms = new
    return tuple((exps, m, coeff) for (exps, m), coeff in sorted(terms.items()))


def ball_kernel_deriv(n: int, w, lam: float, gamma: tuple[int, ...]):
    """Exact partial derivative d^gamma_w of ball_kernel(n, |w|, lam).

    Uses the radial ladder J_nu(lam r)/r^nu whose derivative in r^2 lowers
    to the next order, so every term stays finite on the diagonal w = 0.
    w is one point (n,), giving a float, or rows (rows, n), giving an
    array.  The monomials w^e are taken with np.float_power (the C
    library's pow, as for a float), so they negate exactly with w.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != n or len(gamma) != n:
        raise ValueError("w and gamma must have length n")
    if sum(gamma) > MAX_DERIV_ORDER:
        raise ValueError(f"total order exceeds {MAX_DERIV_ORDER}")
    rows = np.atleast_2d(w)
    # stacked products round as np.linalg.norm does on one row
    r = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    total = np.zeros(rows.shape[0])
    for exps, m, coeff in _radial_terms(tuple(gamma)):
        mono = 1.0
        for column, e in zip(rows.T, exps):
            if e:
                mono = mono * np.float_power(column, e)
        profile = lam ** (n + 2 * m) * bessel_j_scaled(0.5 * n + m, lam * r)
        total += coeff * (-1.0) ** m * mono * profile
    total *= TWO_PI ** (-0.5 * n)
    return total if w.ndim == 2 else float(total[0])


# --------------------------------------------------------------------------
# batched probe-grid evaluation (used by the scaling and remainder sweeps)
# --------------------------------------------------------------------------

def torus_cumulative_batch(model: TorusModel, lambdas, diffs: np.ndarray,
                           order: DerivOrder) -> np.ndarray:
    """Cumulative-kernel derivatives E_(0,lam] for each lam, in one pass.

    lambdas must not decrease.  The windows (lam_{j-1}, lam_j], the first
    being (0, lam_1], are disjoint runs of shells, so each is enumerated
    and summed once, and the raw mode sums are carried across them with
    Neumaier compensation; the volume divides once per lam.  Returns shape
    (len(lambdas), rows).  With one lam the carry is 0 + part, so the
    values are torus_pair_deriv_batch's on (0, lam].
    """
    out = np.empty((len(lambdas), diffs.shape[0]))
    total = np.zeros(diffs.shape[0])
    comp = np.zeros(diffs.shape[0])
    lo = 0.0
    for j, lam in enumerate(lambdas):
        if lam < lo:
            raise ValueError("lambdas must not decrease")
        if lam > lo:
            part = _torus_deriv_sum(
                torus_modes(model, SpectralWindow(lo, lam)).vectors, diffs,
                order.alpha, order.beta)
            carried = total + part
            comp += np.where(np.abs(total) >= np.abs(part),
                             (total - carried) + part,
                             (part - carried) + total)
            total, lo = carried, lam
        out[j] = (total + comp) / model.volume
    return out


def torus_pair_deriv_batch(model: TorusModel, window: SpectralWindow,
                           diffs: np.ndarray, order: DerivOrder) -> np.ndarray:
    """Window-kernel derivatives for a batch of coordinate differences."""
    modes = torus_modes(model, window)
    if modes.count == 0:
        return np.zeros(diffs.shape[0])
    return _torus_deriv_sum(modes.vectors, diffs, order.alpha,
                            order.beta) / model.volume


def sphere_pair_deriv_batch(model: SphereModel, window: SpectralWindow,
                            x0, us: np.ndarray, vs: np.ndarray,
                            order: DerivOrder) -> np.ndarray:
    """Sphere kernel derivatives for paired offset rows (us[i], vs[i]).

    sphere_fd_batch with the window's Legendre sum as the profile: all
    stencil points of all rows share one Legendre sweep.
    """
    modes = sphere_clusters(model, window)
    if modes.count == 0:
        return np.zeros(np.shape(us)[0])
    coeffs = sphere_coeffs(modes)
    return sphere_fd_batch(model, x0, x0,
                           lambda t: legendre_weighted_sum(coeffs, t),
                           us, vs, order)
