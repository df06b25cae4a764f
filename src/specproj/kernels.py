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
torus_pair_deriv_batch.  Sphere kernels go through sphere_fd_batch:
central finite differences with one Richardson extrapolation level in
normal coordinates, applied to any profile of t = <x, y>, with every
stencil point of every row in one sweep.  The scalar entry points are
one-row calls of these.
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
    exp_map,
    sphere_clusters,
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
    out = []
    for total in range(max_order + 1):
        def build(prefix, remaining, dims_left):
            if dims_left == 1:
                out.append(prefix + (remaining,))
                return
            for head in range(remaining, -1, -1):
                build(prefix + (head,), remaining - head, dims_left - 1)
        build((), total, dim)
    return out


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
    """Tensor-product central stencil: list of (du, dv, coeff).

    Coefficients are for step h = 1; the caller divides by h^omega.
    """
    dim = len(alpha)
    points = []
    for taps in itertools.product(*(_STENCILS[o] for o in alpha + beta)):
        steps = tuple(step for step, _ in taps)
        points.append((steps[:dim], steps[dim:], math.prod(w for _, w in taps)))
    return tuple(points)


def sphere_fd_batch(model: SphereModel, xu, xv, profile, us, vs,
                    order: DerivOrder) -> np.ndarray:
    """Derivatives of profile(<exp_xu(u), exp_xv(v)>) at offset rows us, vs.

    xu and xv are base points, one for all rows or one per row; alpha acts
    on u and beta on v in their normal coordinates.  Orders above zero use
    central differences (step FD_STEP, one Richardson level), and every
    stencil point of every row goes through one profile sweep.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)

    def sweep(u, v):
        t = np.sum(exp_map(model, xu, u) * exp_map(model, xv, v), axis=-1)
        return profile(np.clip(t, -1.0, 1.0))

    if order.omega == 0:
        return sweep(us, vs)
    stencil = _tensor_stencil(order.alpha, order.beta)
    coeffs = np.array([c for _, _, c in stencil])
    du = np.array([du for du, _, _ in stencil], dtype=float)[:, None, :]
    dv = np.array([dv for _, dv, _ in stencil], dtype=float)[:, None, :]

    def value(step):
        # (stencil, rows) values, combined along the stencil axis
        vals = sweep(us + step * du, vs + step * dv)
        return (coeffs @ vals) / step ** order.omega

    return (4.0 * value(0.5 * FD_STEP) - value(FD_STEP)) / 3.0


# --------------------------------------------------------------------------
# projector kernels
# --------------------------------------------------------------------------

def projector_kernel(model: Model, window: SpectralWindow, x, y) -> float:
    """Projector kernel E_window(x, y) by exact mode summation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(model, TorusModel):
        return float(torus_pair_deriv_batch(model, window, (x - y)[None, :],
                                            DerivOrder.zero(model.n))[0])
    coeffs = sphere_coeffs(sphere_clusters(model, window))
    return float(legendre_weighted_sum(coeffs,
                                       np.clip(np.sum(x * y), -1.0, 1.0)))


def projector_kernel_deriv(model: Model, window: SpectralWindow, x0,
                           u, v, order: DerivOrder) -> float:
    """Derivative of E_window(exp_x0(u), exp_x0(v)) at the given offsets.

    alpha acts on u, beta on v, both in normal coordinates at x0.  This is
    a one-row call of torus_pair_deriv_batch or sphere_pair_deriv_batch.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (model.dim,) or v.shape != (model.dim,):
        raise ValueError(f"offsets must have shape ({model.dim},)")
    inj = model.injectivity_radius
    if np.linalg.norm(u) >= inj or np.linalg.norm(v) >= inj:
        raise ValueError("offsets must stay below the injectivity radius")
    if isinstance(model, TorusModel):
        return float(torus_pair_deriv_batch(model, window, (u - v)[None, :],
                                            order)[0])
    return float(sphere_pair_deriv_batch(model, window, x0, u[None, :],
                                         v[None, :], order)[0])


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
    base = projector_kernel_deriv(model, window, x0, u, v, order)
    return base * lam ** (-(model.n - 1) - order.omega)


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

def ball_kernel(n: int, d: float, lam: float) -> float:
    """Closed form (2pi)^(-n/2) lam^(n/2) d^(-n/2) J_(n/2)(lam d).

    Evaluated through the scaled profile J_nu(z)/z^nu, which removes the
    d -> 0 singularity: the diagonal value is lam^n vol(B^n) / (2pi)^n.
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported dimension n={n}")
    if d < 0:
        raise ValueError("d must be >= 0")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0.0:
        return 0.0
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


def ball_kernel_deriv(n: int, w, lam: float, gamma: tuple[int, ...]) -> float:
    """Exact partial derivative d^gamma_w of ball_kernel(n, |w|, lam).

    Uses the radial ladder J_nu(lam r)/r^nu whose derivative in r^2 lowers
    to the next order, so every term stays finite on the diagonal w = 0.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (len(gamma),) or len(gamma) != n:
        raise ValueError("w and gamma must have length n")
    if sum(gamma) > MAX_DERIV_ORDER:
        raise ValueError(f"total order exceeds {MAX_DERIV_ORDER}")
    if lam == 0.0:
        return 0.0
    r = float(np.linalg.norm(w))
    total = 0.0
    for exps, m, coeff in _radial_terms(tuple(gamma)):
        mono = 1.0
        for wi, e in zip(w, exps):
            if e:
                mono *= wi ** e
        if mono == 0.0:
            continue
        profile = lam ** (n + 2 * m) * bessel_j_scaled(0.5 * n + m, lam * r)
        total += coeff * (-1.0) ** m * mono * profile
    return TWO_PI ** (-0.5 * n) * total


# --------------------------------------------------------------------------
# batched probe-grid evaluation (used by the scaling and remainder sweeps)
# --------------------------------------------------------------------------

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
