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

Derivatives: one exact mechanism and one batched evaluator per model.
Torus kernels are differentiated term by term (exact trig factors) in
torus_pair_deriv_batch; torus_cumulative_batch runs the same sums over a
cumulative sweep in uncached blocks of whole shells |k|^2, so one block
sets its memory.  sphere_deriv_batch composes the t-derivatives of a
profile of t = <x, y> with closed-form jets of the exponential map by Faa
di Bruno's formula, jets once per distinct offset at one base point.
projector_kernel_deriv turns offset rows (x0, us, vs) into a call of
either for both models.
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
    check_torus_budget,
    distance,
    exp_map,
    sphere_clusters,
    squared_norm_range,
    tangent_frame,
    tangent_norm,
    torus_modes,
    torus_shells,
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

# chunk size (in floats) for mode-by-pair phase matrices, and the modes of
# one shell block of a cumulative sweep: 16 rows fill one phase matrix
_CHUNK_BUDGET = 2 ** 20
_BLOCK_MODES = _CHUNK_BUDGET // 16


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
        del terms       # so that the next chunk's table replaces this one
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
# exact sphere derivatives
# --------------------------------------------------------------------------

def faa_di_bruno(outer, inner, count: int):
    """Derivative of F(g) in count >= 1 slots by Faa di Bruno's formula:
    the sum over the set partitions of the slots of outer[j] = F^(j)(g),
    j the number of blocks, times inner(block), the derivative of g in the
    block's slots, for every block.  Arrays broadcast."""
    partitions = [()]
    for slot in range(count):
        # the slot joins each block of a partition of the earlier slots in
        # turn, or opens a block of its own
        grown = []
        for p in partitions:
            grown += [p[:i] + (block + (slot,),) + p[i + 1:]
                      for i, block in enumerate(p)]
            grown.append(p + ((slot,),))
        partitions = grown
    total = 0.0
    for partition in partitions:
        term = outer[len(partition)]
        for block in partition:
            term = term * inner(block)
        total = total + term
    return total


def _exp_map_jets(x0, u, point, top: tuple[int, ...]) -> dict:
    """d^a exp_x0(u) for every multi-index a <= top, keyed by a; a = 0 is
    the point.  exp_x0(u) = g0 x0 + g1 (u1 e1 + u2 e2), where the rungs
    g_m = sqrt(pi/2) J_(m-1/2)(r) / r^(m-1/2) of |u|^2 = r^2 give g0 = cos r
    and g1 = sin r / r.  So d^a g0 is the ball kernel's radial ladder, and
    u_i g1 = -d_i g0 moves one order onto u_i."""
    x0 = np.asarray(x0, dtype=float)
    x0 = x0 / np.linalg.norm(x0, axis=-1, keepdims=True)
    r = np.linalg.norm(u, axis=-1)
    rungs = [None] + [math.sqrt(0.5 * math.pi) * bessel_j_scaled(m - 0.5, r)
                      for m in range(1, sum(top) + 2)]

    def radial(gamma):
        return np.asarray(_radial_ladder(gamma, np.moveaxis(u, -1, 0),
                                         lambda m: rungs[m]))[..., None]

    frame = tangent_frame(x0)
    jets = {(0,) * len(top): point}
    for a in itertools.product(*(range(k + 1) for k in top)):
        if any(a):
            jets[a] = radial(a) * x0 - sum(
                radial(tuple(k + (i == axis) for i, k in enumerate(a))) * e
                for axis, e in enumerate(frame))
    return jets


def _offset_jets(model: SphereModel, x0, rows: np.ndarray,
                 top: tuple[int, ...]) -> dict:
    """_exp_map_jets of exp_x0 at offset rows (the point for a zero top),
    at one base point once per distinct row read as a complex number; -0.0
    and 0.0 fall together, moving only signs of zeros no result keeps."""
    inverse = slice(None)
    if np.ndim(x0) == 1:
        keys, inverse = np.unique(
            np.ascontiguousarray(rows).view(complex).squeeze(-1),
            return_inverse=True)
        inverse = inverse.reshape(rows.shape[:-1])
        rows = keys.view(float).reshape(-1, model.dim)
    point = exp_map(model, x0, rows)
    jets = _exp_map_jets(x0, rows, point, top) if any(top) else {top: point}
    return {a: jet[inverse] for a, jet in jets.items()}


def sphere_deriv_batch(model: SphereModel, xu, xv, profile, us, vs,
                       order: DerivOrder) -> np.ndarray:
    """Derivatives of F(<exp_xu(u), exp_xv(v)>) at offset rows us, vs.

    xu and xv are base points, one for all rows or one per row; alpha acts
    on u and beta on v in their normal coordinates.  profile(t, k), which
    must be elementwise in t, returns F^(j)(t) for j = 0..k along a leading
    axis, and may hold one more (one row per window, say), as then does the
    result; it runs once, on the distinct t of the per-offset jets.  t is
    bilinear, so in faa_di_bruno a block of slots taking a from u and b
    from v contributes <d^a X, d^b Y>, and the result is exact.
    """
    jets_u = _offset_jets(model, xu, np.asarray(us, dtype=float),
                          order.alpha)
    jets_v = _offset_jets(model, xv, np.asarray(vs, dtype=float), order.beta)
    t = np.sum(jets_u[(0,) * model.dim] * jets_v[(0,) * model.dim], axis=-1)
    distinct, inverse = np.unique(np.clip(t, -1.0, 1.0), return_inverse=True)
    vals = profile(distinct, order.omega).take(inverse.reshape(t.shape),
                                               axis=-1)
    if not order.omega:
        return vals[0]
    # one row per slot: the unit multi-index (on u, then on v) it adds
    slots = np.repeat(np.eye(2 * model.dim, dtype=int),
                      order.alpha + order.beta, axis=0)

    def block_product(block):
        counts = tuple(slots[list(block)].sum(axis=0).tolist())
        return np.sum(jets_u[counts[:model.dim]] * jets_v[counts[model.dim:]],
                      axis=-1)

    return faa_di_bruno(vals, block_product, order.omega)


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
                                       np.clip(np.sum(x * y), -1.0, 1.0))[0])


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
    # written so that NaN fails the check too
    if not (0.0 <= d < math.inf and 0.0 <= lam < math.inf):
        raise ValueError("d and lam must be finite and >= 0")
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
    where the rungs satisfy d gm / ds = -g_{m+1} / 2 for s = |w|^2; the
    (-1)^m of every m-step is folded in by _radial_ladder.
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


def _radial_ladder(gamma: tuple[int, ...], columns, rung):
    """d^gamma of g0(|w|^2) at w, given its coordinate columns and rung(m)
    = g_m(|w|^2).  The monomials w^e are taken with np.float_power (the C
    library's pow, as for a float), so they negate exactly with w."""
    total = 0.0
    for exps, m, coeff in _radial_terms(gamma):
        mono = 1.0
        for column, e in zip(columns, exps):
            if e:
                mono = mono * np.float_power(column, e)
        total = total + coeff * (-1.0) ** m * mono * rung(m)
    return total


def ball_kernel_deriv(n: int, w, lam: float, gamma: tuple[int, ...]):
    """Exact partial derivative d^gamma_w of ball_kernel(n, |w|, lam).

    Uses the radial ladder J_nu(lam r)/r^nu whose derivative in r^2 lowers
    to the next order, so every term stays finite on the diagonal w = 0.
    w is one point (n,), giving a float, or rows (rows, n), giving an
    array; rows -w give (-1)^|gamma| times the values of w exactly.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != n or len(gamma) != n:
        raise ValueError("w and gamma must have length n")
    if sum(gamma) > MAX_DERIV_ORDER:
        raise ValueError(f"total order exceeds {MAX_DERIV_ORDER}")
    rows = np.atleast_2d(w)
    # stacked products round as np.linalg.norm does on one row
    r = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    total = _radial_ladder(tuple(gamma), rows.T, lambda m: lam ** (n + 2 * m)
                           * bessel_j_scaled(0.5 * n + m, lam * r))
    total = total * TWO_PI ** (-0.5 * n)
    return total if w.ndim == 2 else float(total[0])


# --------------------------------------------------------------------------
# batched probe-grid evaluation (used by the scaling and remainder sweeps)
# --------------------------------------------------------------------------

def torus_cumulative_batch(model: TorusModel, lambdas, diffs: np.ndarray,
                           order: DerivOrder) -> np.ndarray:
    """Cumulative-kernel derivatives E_(0,lam] for each lam, in one pass.

    lambdas must not decrease, and the budget of (0, max lam] is checked
    first.  The shells 0 < |k|^2 <= max lam^2 are walked once by
    torus_shells in blocks of about _BLOCK_MODES modes (by the ball volume
    omega_n m^(n/2)), each floor(lam_j^2) ending one; a block is summed and
    dropped, and the raw sums are carried across blocks with Neumaier
    compensation.  Returns shape (len(lambdas), rows).  A lam whose (0, lam]
    is one block gets torus_pair_deriv_batch's values on (0, lam].
    """
    tops, lo = [0], 0.0
    for lam in lambdas:
        if lam < lo:
            raise ValueError("lambdas must not decrease")
        tops.append(squared_norm_range(SpectralWindow(lo, lam))[1]
                    if lam > lo else tops[-1])
        lo = max(lo, lam)
    check_torus_budget(model, tops[-1])
    half = 0.5 * model.n
    omega = math.pi ** half / math.gamma(half + 1.0)
    out = np.empty((len(lambdas), diffs.shape[0]))
    total = np.zeros(diffs.shape[0])
    comp = np.zeros(diffs.shape[0])
    below = 0
    for j, top in enumerate(tops[1:]):
        while below < top:
            m_max = min(top, math.ceil(
                (below ** half + _BLOCK_MODES / omega) ** (1.0 / half)))
            part = _torus_deriv_sum(torus_shells(model, below + 1, m_max),
                                    diffs, order.alpha, order.beta)
            carried = total + part
            comp += np.where(np.abs(total) >= np.abs(part),
                             (total - carried) + part,
                             (part - carried) + total)
            total, below = carried, m_max
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
    """Sphere kernel derivatives for paired offset rows (us[i], vs[i]):
    sphere_deriv_batch on the window's Legendre sum and its t-derivatives,
    one sweep for all rows."""
    modes = sphere_clusters(model, window)
    if modes.count == 0:
        return np.zeros(np.shape(us)[0])
    coeffs = sphere_coeffs(modes)
    return sphere_deriv_batch(
        model, x0, x0, lambda t, k: legendre_weighted_sum(coeffs, t, derivs=k),
        us, vs, order)
