"""Special functions needed by the kernel sums.

Bessel J of integer and half-integer order, Legendre polynomials with
derivatives, and product quadrature rules on the unit circle and sphere.
Everything here is scalar-exact and deliberately simple: ascending series
below the switch point x = 12, large-argument expansions above it, and
three-term recurrences for Legendre.  Accuracy target is 1e-10 relative
away from zeros of the functions, for x up to 1e4.
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


def _half_order_closed(nu: float, x: float) -> float:
    # upward recurrence from the elementary J_{-1/2}, J_{1/2}; stable here
    # because it is only used for x > 12 > nu
    amp = math.sqrt(2.0 / (math.pi * x))
    j_prev = amp * math.cos(x)   # order -1/2
    j = amp * math.sin(x)        # order +1/2
    order = 0.5
    while order < nu - 1e-12:
        j, j_prev = (2.0 * order / x) * j - j_prev, j
        order += 1.0
    return j


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
    # integer orders: two asymptotic seeds, then upward recurrence, which
    # is forward-stable since x > 12 > nu
    j_prev = _hankel_asymptotic(0, x)
    if nu == 0:
        return j_prev
    j = _hankel_asymptotic(1, x)
    order = 1
    while order < nu:
        j, j_prev = (2.0 * order / x) * j - j_prev, j
        order += 1
    return j


def bessel_j_scaled(order, z: float) -> float:
    """The entire function J_nu(z) / z^nu, finite at z = 0.

    This is the natural radial profile of Fourier transforms of sphere
    measures; evaluating it directly avoids 0/0 at the origin.
    """
    nu = float(_as_half_integer(order))
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


def legendre_weighted_sum(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_l coeffs[l] * P_l(t) for an array of arguments t.

    Single vectorized sweep of the recurrence up to len(coeffs)-1.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ValueError("t outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    out = np.full_like(t, coeffs[0]) if coeffs.size else np.zeros_like(t)
    if coeffs.size <= 1:
        return out
    p_prev = np.ones_like(t)
    p = t.copy()
    out = out + coeffs[1] * p
    for m in range(1, coeffs.size - 1):
        p_next = ((2 * m + 1) * t * p - m * p_prev) / (m + 1)
        p_prev, p = p, p_next
        if coeffs[m + 1] != 0.0:
            out = out + coeffs[m + 1] * p
    return out


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
