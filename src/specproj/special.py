"""Special functions needed by the kernel sums.

Bessel J of integer and half-integer order, Legendre polynomials with
derivatives, and product quadrature rules on the unit circle and sphere.
Everything here is scalar-exact and deliberately simple: ascending series
below the switch point x = 12, large-argument expansions above it, and
three-term recurrences for Legendre.  Accuracy target is 1e-10 relative
away from zeros of the functions, for x up to 1e4.  bessel_j_scaled also
takes an array, with the float path's values element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_SERIES_SWITCH = 12.0
_MAX_ORDER = Fraction(6)


def _as_half_integer(order) -> Fraction:
    nu = Fraction(order)
    if nu.denominator not in (1, 2):
        raise ValueError(f"order must be a half-integer, got {order}")
    if nu < 0 or nu > _MAX_ORDER:
        raise ValueError(f"order must lie in [0, {_MAX_ORDER}], got {order}")
    return nu


def _recur_up(j_prev, j, order: float, nu: float, x):
    # upward recurrence J_{o+1} = (2o/x) J_o - J_{o-1} from order o up to
    # nu, on floats and arrays alike; forward-stable because x > 12 > nu
    while order < nu - 1e-12:
        j, j_prev = (2.0 * order / x) * j - j_prev, j
        order += 1.0
    return j


def _half_order_closed(nu: float, x, xp=math):
    # upward recurrence from the elementary J_{-1/2}, J_{1/2}; xp is math
    # for a float x and numpy for an array
    amp = xp.sqrt(2.0 / (xp.pi * x))
    return _recur_up(amp * xp.cos(x), amp * xp.sin(x), 0.5, nu, x)


def _hankel_asymptotic(p: int, x: float) -> float:
    # J_p(x) ~ sqrt(2/(pi x)) [P cos(chi) - Q sin(chi)], chi = x-(2p+1)pi/4,
    # with P, Q the standard inverse-power series; truncated at the smallest
    # term.  Only called with p in {0, 1}, where the smallest term is far
    # below 1e-13 for x > 12; higher integer orders go through the upward
    # recurrence instead because their expansions stall near x ~ p^2/2.
    mu = 4.0 * p * p
    chi = x - (0.5 * p + 0.25) * math.pi
    term = 1.0
    p_sum = 1.0
    q_sum = 0.0
    prev = abs(term)
    for k in range(1, 40):
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) > prev or abs(term) < 1e-18:
            break
        prev = abs(term)
        if k % 2 == 1:
            q_sum += term if (k - 1) % 4 == 0 else -term
        else:
            p_sum += -term if (k - 2) % 4 == 0 else term
    return math.sqrt(2.0 / (math.pi * x)) * (p_sum * math.cos(chi) - q_sum * math.sin(chi))


def bessel_j(order, x: float) -> float:
    """Bessel function of the first kind, order in {0, 1/2, 1, ..., 6}."""
    nu = _as_half_integer(order)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    if x <= _SERIES_SWITCH:
        return x ** float(nu) * bessel_j_scaled(order, x)
    if nu.denominator == 2:
        return _half_order_closed(float(nu), x)
    # integer orders: two asymptotic seeds, then upward recurrence
    j_prev = _hankel_asymptotic(0, x)
    if nu == 0:
        return j_prev
    return _recur_up(j_prev, _hankel_asymptotic(1, x), 1.0, float(nu), x)


def _hankel_asymptotic_array(p: int, x: np.ndarray) -> np.ndarray:
    # _hankel_asymptotic on an array: each element takes the terms that
    # the float path takes for it and stops where that path breaks
    mu = 4.0 * p * p
    chi = x - (0.5 * p + 0.25) * math.pi
    term = np.ones(x.shape)
    p_sum = np.ones(x.shape)
    q_sum = np.zeros(x.shape)
    prev = np.ones(x.shape)
    live = np.ones(x.shape, dtype=bool)
    for k in range(1, 40):
        term = term * ((mu - (2 * k - 1) ** 2) / (8.0 * k * x))
        live &= (np.abs(term) <= prev) & (np.abs(term) >= 1e-18)
        if not live.any():
            break
        prev = np.abs(term)
        step = term if k % 4 in (0, 1) else -term
        if k % 2 == 1:
            q_sum = np.where(live, q_sum + step, q_sum)
        else:
            p_sum = np.where(live, p_sum + step, p_sum)
    return np.sqrt(2.0 / (np.pi * x)) * (p_sum * np.cos(chi)
                                         - q_sum * np.sin(chi))


def _series_array(nu: float, z: np.ndarray) -> np.ndarray:
    # the ascending series of bessel_j_scaled on an array, each element
    # stopping at the term where the float path stops
    term = np.full(z.shape, 1.0 / (2.0 ** nu * math.gamma(nu + 1.0)))
    total = term.copy()
    q = 0.25 * z * z
    live = np.ones(z.shape, dtype=bool)
    for m in range(1, 400):
        if not live.any():
            break
        term *= -q / (m * (nu + m))
        total = np.where(live, total + term, total)
        live &= ~((np.abs(term) < 1e-17 * (np.abs(total) + 1e-300))
                  & (m > 0.5 * z))
    return total


def bessel_j_scaled(order, z):
    """The entire function J_nu(z) / z^nu, finite at z = 0.

    This is the natural radial profile of Fourier transforms of sphere
    measures; evaluating it directly avoids 0/0 at the origin.  z is a
    float or an ndarray.  An array runs each branch once over the elements
    that take it (the series for z <= 12, the Hankel seeds and the upward
    recurrence, or the half-order closed form) with the float path's
    per-element stopping rules, so it returns the float path's values; they
    are bit-equal where numpy's float64 cos and sin round as the C
    library's do, and z^nu is taken with np.float_power, which calls the C
    library's pow as the float path does.
    """
    nu = float(_as_half_integer(order))
    if np.ndim(z):
        z = np.asarray(z, dtype=float)
        if np.any(z < 0.0) or np.any(z == math.inf):
            raise ValueError("z must be finite and >= 0")
        out = np.empty(z.shape)
        small = z <= _SERIES_SWITCH
        out[small] = _series_array(nu, z[small])
        x = z[~small]
        if nu % 1:
            j = _half_order_closed(nu, x, np)
        else:
            j = _hankel_asymptotic_array(0, x)
            if nu:
                j = _recur_up(j, _hankel_asymptotic_array(1, x), 1.0, nu, x)
        out[~small] = j / np.float_power(x, nu)
        return out
    if z < 0.0:
        raise ValueError("z must be >= 0")
    if z > _SERIES_SWITCH:
        return bessel_j(order, z) / z ** nu
    term = 1.0 / (2.0 ** nu * math.gamma(nu + 1.0))
    total = term
    q = 0.25 * z * z
    for m in range(1, 400):
        term *= -q / (m * (nu + m))
        total += term
        if abs(term) < 1e-17 * (abs(total) + 1e-300) and m > 0.5 * z:
            break
    return total


def legendre_p(ell: int, t: float) -> tuple[float, float]:
    """Legendre polynomial P_ell(t) and its derivative.

    Both follow three-term recurrences; the derivative uses
    P'_{m+1} = P'_{m-1} + (2m+1) P_m, which stays finite at t = +-1.
    Arguments slightly outside [-1, 1] (within 1e-12) are clamped.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if abs(t) > 1.0 + 1e-12:
        raise ValueError(f"t={t} outside [-1, 1]")
    t = min(1.0, max(-1.0, t))
    if ell == 0:
        return 1.0, 0.0
    if ell == 1:
        return t, 1.0
    p_prev, p = 1.0, t
    dp_prev, dp = 0.0, 1.0
    for m in range(1, ell):
        p_next = ((2 * m + 1) * t * p - m * p_prev) / (m + 1)
        dp_next = dp_prev + (2 * m + 1) * p
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return p, dp


def legendre_weighted_sum(coeffs: np.ndarray, t: np.ndarray,
                          tops=None) -> np.ndarray:
    """sum_l coeffs[l] * P_l(t) for an array of arguments t.

    One vectorized sweep of the recurrence up to len(coeffs)-1, run in
    place in three rotating buffers.  Given a non-decreasing sequence of
    tops in [-1, len(coeffs)-1], the sweep runs to the last top and returns
    the partial sums over l <= top for every top, shape (len(tops),) +
    t.shape; a top of -1 gives 0.  Each partial sum has taken exactly the
    operations of a call on coeffs[:top + 1], so it equals that call bit
    for bit.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ValueError("t outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    wanted = [coeffs.size - 1] if tops is None else [int(k) for k in tops]
    if (any(b < a for a, b in zip(wanted, wanted[1:]))
            or wanted and not -1 <= wanted[0] <= wanted[-1] < coeffs.size):
        raise ValueError("tops must not decrease and must lie in "
                         f"[-1, {coeffs.size - 1}]")
    sums = np.zeros((len(wanted),) + t.shape)
    rows = {l: [i for i, top in enumerate(wanted) if top == l]
            for l in wanted}
    if wanted and wanted[-1] >= 0:
        out = np.full_like(t, coeffs[0])
        if 0 in rows:
            sums[rows[0]] = out
        p_prev, p = np.ones_like(t), np.ones_like(t)
        p_next, scratch = np.empty_like(t), np.empty_like(t)
        for m in range(wanted[-1]):
            # P_{m+1} = ((2m+1) t P_m - m P_{m-1}) / (m+1), in that order;
            # m = 0 gives P_1 = t exactly
            np.multiply(t, 2 * m + 1, out=p_next)
            p_next *= p
            p_prev *= m
            p_next -= p_prev
            p_next /= m + 1
            p_prev, p, p_next = p, p_next, p_prev
            if m == 0 or coeffs[m + 1] != 0.0:
                np.multiply(p, coeffs[m + 1], out=scratch)
                out += scratch
            if m + 1 in rows:
                sums[rows[m + 1]] = out
    return sums if tops is not None else sums[0]


# --------------------------------------------------------------------------
# quadrature on S^{n-1}
# --------------------------------------------------------------------------

_MAX_DEGREE = 200


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights integrating polynomials exactly up to `degree`."""

    n: int
    degree: int
    nodes: np.ndarray    # (N, n)
    weights: np.ndarray  # (N,)


def sphere_quadrature(n: int, degree: int) -> SphereQuadrature:
    """Quadrature on the unit circle (n=2) or unit sphere (n=3).

    n=2: uniform trapezoid with max(degree+1, 64) nodes, exact for
    trigonometric polynomials of the requested degree.
    n=3: Gauss-Legendre in the polar cosine times uniform azimuth, exact
    for spherical polynomials of the requested degree.
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported dimension n={n}")
    if not (0 <= degree <= _MAX_DEGREE):
        raise ValueError(f"degree must lie in [0, {_MAX_DEGREE}], got {degree}")
    if n == 2:
        count = max(degree + 1, 64)
        theta = 2.0 * math.pi * np.arange(count) / count
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(count, 2.0 * math.pi / count)
        return SphereQuadrature(n=2, degree=degree, nodes=nodes, weights=weights)
    n_polar = degree // 2 + 1
    ct, w_polar = np.polynomial.legendre.leggauss(n_polar)
    n_az = max(degree + 1, 4)
    phi = 2.0 * math.pi * np.arange(n_az) / n_az
    st = np.sqrt(1.0 - ct ** 2)
    nodes = np.empty((n_polar * n_az, 3))
    nodes[:, 0] = np.outer(st, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(st, np.sin(phi)).ravel()
    nodes[:, 2] = np.repeat(ct, n_az)
    weights = np.repeat(w_polar * (2.0 * math.pi / n_az), n_az)
    return SphereQuadrature(n=3, degree=degree, nodes=nodes, weights=weights)


# --------------------------------------------------------------------------
# adaptive Simpson, used as the independent route for kernel identities
# --------------------------------------------------------------------------

def adaptive_simpson(f, a: float, b: float, tol: float = 1e-11,
                     min_panels: int = 8, max_depth: int = 40) -> float:
    """Adaptive Simpson integration of f over [a, b].

    The interval is pre-split into min_panels panels (callers raise this for
    oscillatory integrands) and each panel is refined recursively until the
    standard 15x Richardson estimate meets its share of the tolerance.
    """
    if b < a:
        raise ValueError("need b >= a")
    if b == a:
        return 0.0

    def simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def refine(x0, f0, x2, f2, whole_mid, whole_fmid, whole, tol_here, depth):
        lm, lf, left = simpson(x0, f0, whole_mid, whole_fmid)
        rm, rf, right = simpson(whole_mid, whole_fmid, x2, f2)
        err = left + right - whole
        if abs(err) <= 15.0 * tol_here or depth >= max_depth:
            return left + right + err / 15.0
        return (refine(x0, f0, whole_mid, whole_fmid, lm, lf, left,
                       0.5 * tol_here, depth + 1)
                + refine(whole_mid, whole_fmid, x2, f2, rm, rf, right,
                         0.5 * tol_here, depth + 1))

    edges = np.linspace(a, b, min_panels + 1)
    total = 0.0
    for x0, x2 in zip(edges[:-1], edges[1:]):
        f0, f2 = f(x0), f(x2)
        mid, fmid, whole = simpson(x0, f0, x2, f2)
        total += refine(x0, f0, x2, f2, mid, fmid, whole,
                        tol / min_panels, 0)
    return total
