"""Special functions needed by the kernel sums.

Bessel J of integer and half-integer order, weighted Legendre sums with
their t-derivatives, and product quadrature rules on the unit circle and
sphere.  Everything here is deliberately simple: ascending series below
the switch point x = 12, large-argument expansions above it, and Bonnet's
three-term recurrence for Legendre, differentiated for the derivative
rows.  Accuracy target is 1e-10 relative away from zeros of the
functions, for x up to 1e4.  The Bessel functions run on arrays, a float
as a 0-d array.
"""

from __future__ import annotations

import itertools
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


def _recur_up(j_prev, j, order: float, nu: float, x: np.ndarray):
    # upward recurrence J_{o+1} = (2o/x) J_o - J_{o-1} from order o up to
    # nu; forward-stable because x > 12 > nu
    while order < nu - 1e-12:
        j, j_prev = (2.0 * order / x) * j - j_prev, j
        order += 1.0
    return j


def _hankel_asymptotic(p: int, x: np.ndarray) -> np.ndarray:
    # J_p(x) ~ sqrt(2/(pi x)) [P cos(chi) - Q sin(chi)], chi = x-(2p+1)pi/4,
    # with P, Q the standard inverse-power series; each element stops at
    # its smallest term.  Only called with p in {0, 1}, where the smallest
    # term is far below 1e-13 for x > 12; higher integer orders go through
    # the upward recurrence instead because their expansions stall near
    # x ~ p^2/2.
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


def _series(nu: float, z: np.ndarray) -> np.ndarray:
    # the ascending series of J_nu(z) / z^nu; each element stops after the
    # first term below 1e-17 of its sum once m > z/2
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


def bessel_j(order, x):
    """Bessel function of the first kind, order in {0, 1/2, 1, ..., 6}."""
    return bessel_j_scaled(order, x) * np.float_power(x, float(order))


def bessel_j_scaled(order, z):
    """The entire function J_nu(z) / z^nu, finite at z = 0.

    This is the natural radial profile of Fourier transforms of sphere
    measures; evaluating it directly avoids 0/0 at the origin.  z is a
    float or an ndarray of finite values >= 0; a float runs as a 0-d array
    and gives a float.  Each branch runs once over the elements that take
    it: the series for z <= 12, and above 12 the half-order closed form or
    the Hankel seeds and the upward recurrence, divided by z^nu (taken
    with np.float_power, the C library's pow).
    """
    nu = float(_as_half_integer(order))
    values = np.asarray(z, dtype=float)
    if not np.all((values >= 0.0) & (values < math.inf)):
        raise ValueError("z must be finite and >= 0")
    out = np.empty(values.shape)
    small = values <= _SERIES_SWITCH
    out[small] = _series(nu, values[small])
    x = values[~small]
    if nu % 1:
        # upward from the elementary J_{-1/2}, J_{1/2}
        amp = np.sqrt(2.0 / (np.pi * x))
        j = _recur_up(amp * np.cos(x), amp * np.sin(x), 0.5, nu, x)
    else:
        j = _hankel_asymptotic(0, x)
        if nu:
            j = _recur_up(j, _hankel_asymptotic(1, x), 1.0, nu, x)
    out[~small] = j / np.float_power(x, nu)
    return out if values.ndim else float(out)


def legendre_weighted_sum(coeffs: np.ndarray, t: np.ndarray, tops=None,
                          derivs: int = 0) -> np.ndarray:
    """sum_l coeffs[l] P^(k)_l(t) for k = 0..derivs, on an array of t.

    One vectorized sweep up to len(coeffs)-1, in place in three rotating
    buffers whose row k holds E^(k) = P^(k) / k!.  Bonnet's recurrence
    differentiated k times becomes, for every row,
    (m+1) E^(k)_{m+1} = (2m+1) (t E^(k)_m + E^(k-1)_m) - m E^(k)_{m-1},
    which stays finite at t = +-1.  The result has a leading axis k.  Given
    non-decreasing tops in [-1, len(coeffs)-1], it holds the partial sums
    over l <= top for each top, shape (derivs + 1, len(tops)) + t.shape, a
    top of -1 giving 0.  Each partial sum has taken exactly the operations
    of a call on coeffs[:top + 1], and row 0 those of a call with derivs = 0,
    so each equals that call bit for bit.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) <= 1.0 + 1e-12):
        raise ValueError("t outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    wanted = [coeffs.size - 1] if tops is None else [int(k) for k in tops]
    if (any(b < a for a, b in zip(wanted, wanted[1:]))
            or wanted and not -1 <= wanted[0] <= wanted[-1] < coeffs.size):
        raise ValueError("tops must not decrease and must lie in "
                         f"[-1, {coeffs.size - 1}]")
    shape = (derivs + 1,) + t.shape
    sums = np.zeros((derivs + 1, len(wanted)) + t.shape)
    rows = {l: [i for i, top in enumerate(wanted) if top == l]
            for l in wanted}
    if wanted and wanted[-1] >= 0:
        top = wanted[-1]
        out = np.zeros(shape)
        out[0] = coeffs[0]
        if 0 in rows:
            sums[:, rows[0]] = out[:, None]
        # P_{-1} = P_0 = 1 in row 0 and 0 in the derivative rows; a step
        # takes (prev, cur, cur rows ..-1, next, next rows 1..) off a cycle,
        # and the ufuncs out positionally and m, 2m+1 as 0-d arrays
        bufs = [np.zeros(shape) for _ in range(3)]
        bufs[0][0] = bufs[1][0] = 1.0
        cycle = itertools.cycle([(p, c, c[:-1], n, n[1:]) for p, c, n in (
            bufs, bufs[1:] + bufs[:1], bufs[2:] + bufs[:2])])
        t_rows = np.broadcast_to(t, shape).copy()
        scratch, lower = np.empty(shape), np.empty((derivs,) + t.shape)
        steps = np.arange(top + 1, dtype=float)
        odd = 2.0 * steps + 1.0
        # the degrees >= 1 that add a coefficient (1 always) or end a top
        marked = coeffs[:top + 1] != 0.0
        marked[[min(1, top)] + wanted] = True
        marks = iter(np.flatnonzero(marked[1:]) + 1)
        mark, step = int(next(marks, -1)), steps[0, ...]
        for m, (prev, cur, cur_lo, nxt, nxt_hi) in zip(range(top), cycle):
            # row 0 takes ((2m+1) t P_m - m P_{m-1}) / (m+1) in that
            # order; m = 0 gives P_1 = t and P'_1 = 1 exactly
            odd_m = odd[m, ...]
            np.multiply(t_rows, odd_m, scratch)
            np.multiply(cur, scratch, nxt)
            if derivs:
                np.multiply(cur_lo, odd_m, lower)
                np.add(nxt_hi, lower, nxt_hi)
            np.multiply(prev, step, prev)
            np.subtract(nxt, prev, nxt)
            step = steps[m + 1, ...]
            np.divide(nxt, step, nxt)
            if m + 1 == mark:
                if m == 0 or coeffs[mark] != 0.0:
                    np.multiply(nxt, coeffs[mark, ...], scratch)
                    np.add(out, scratch, out)
                if mark in rows:
                    sums[:, rows[mark]] = out[:, None]
                mark = int(next(marks, -1))
        factorials = [math.factorial(k) for k in range(derivs + 1)]
        sums *= np.reshape(factorials, (-1,) + (1,) * (sums.ndim - 1))
    return sums if tops is not None else sums[:, 0]


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
    """Adaptive Simpson integration of a vectorized f over [a, b].

    The interval is pre-split into min_panels panels (callers raise this for
    oscillatory integrands) and each panel is halved until the standard 15x
    Richardson estimate meets its share of the tolerance, which halves with
    every level.  The refinement runs level by level: f is called once on
    the edges and midpoints of the panels, then once per level on an array
    of the new abscissae, at most max_depth + 2 calls.  Every accepted
    interval's estimate, and the order in which the estimates are added, are
    the depth-first recursion's, so the result is the recursion's.
    """
    if b < a:
        raise ValueError("need b >= a")
    if b == a:
        return 0.0
    edges = np.linspace(a, b, min_panels + 1)
    x0, x2 = edges[:-1], edges[1:]
    mid = 0.5 * (x0 + x2)
    f_edges, fmid = np.split(f(np.concatenate([edges, mid])), [edges.size])
    f0, f2 = f_edges[:-1], f_edges[1:]
    whole = (x2 - x0) * (f0 + 4.0 * fmid + f2) / 6.0
    tol_here = tol / min_panels
    levels = []
    for depth in itertools.count():
        lm, rm = 0.5 * (x0 + mid), 0.5 * (mid + x2)
        lf, rf = np.split(f(np.concatenate([lm, rm])), 2)
        left = (mid - x0) * (f0 + 4.0 * lf + fmid) / 6.0
        right = (x2 - mid) * (fmid + 4.0 * rf + f2) / 6.0
        err = left + right - whole
        done = (np.abs(err) <= 15.0 * tol_here) | (depth >= max_depth)
        levels.append((done, left + right + err / 15.0))
        if done.all():
            break
        # the open intervals' halves, all left halves first, are the next
        # level's intervals
        x0, mid, x2, f0, fmid, f2, whole = np.concatenate(
            [np.array([x0, lm, mid, f0, lf, fmid, left])[:, ~done],
             np.array([mid, rm, x2, fmid, rf, f2, right])[:, ~done]], axis=1)
        tol_here *= 0.5
    # add up as the recursion does: an open interval's value is its left
    # half's plus its right half's, and the panels add in order
    value = levels[-1][1]
    for done, estimate in reversed(levels[:-1]):
        half = value.size // 2
        estimate[~done] = value[:half] + value[half:]
        value = estimate
    total = 0.0
    for panel in value.tolist():
        total += panel
    return total
