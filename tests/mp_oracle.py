"""mpmath oracles for sphere derivatives, shared by the kernel and
remainder tests: exact maps and sums at the working precision, and
partial derivatives by mpmath.diff at 50 digits."""

import mpmath as mp

from specproj.models import tangent_frame


def mp_frame(x0):
    """x0 and tangent_frame's frame at x0, made orthonormal at 60 digits,
    so that the oracle maps with a frame within rounding of the package's."""
    with mp.workdps(60):
        x = [mp.mpf(float(c)) for c in x0]
        x = [c / mp.norm(x) for c in x]
        e1 = [mp.mpf(float(c)) for c in tangent_frame(x0)[0]]
        along = mp.fdot(e1, x)
        e1 = [a - along * b for a, b in zip(e1, x)]
        e1 = [c / mp.norm(e1) for c in e1]
        e2 = [x[1] * e1[2] - x[2] * e1[1], x[2] * e1[0] - x[0] * e1[2],
              x[0] * e1[1] - x[1] * e1[0]]
    return x, e1, e2


def mp_exp_map(frame, u):
    """exp_x0(u) in mpmath numbers, for frame = mp_frame(x0)."""
    r = mp.sqrt(u[0] ** 2 + u[1] ** 2)
    sinc = mp.sin(r) / r if r else mp.mpf(1)
    return [mp.cos(r) * a + sinc * (u[0] * b + u[1] * c)
            for a, b, c in zip(*frame)]


def mp_legendre_sum(coeffs, t):
    """sum_l coeffs[l] P_l(t) by Bonnet's recurrence in mpmath numbers."""
    total, p_prev, p = mp.mpf(float(coeffs[0])), mp.mpf(1), t
    for m in range(1, len(coeffs)):
        total += mp.mpf(float(coeffs[m])) * p
        p_prev, p = p, ((2 * m + 1) * t * p - m * p_prev) / (m + 1)
    return total


def mp_derivative(f, u, v, order):
    """d_u^alpha d_v^beta f(u, v) at 50 digits."""
    with mp.workdps(50):
        return float(mp.diff(lambda *w: f(w[:2], w[2:]),
                             [mp.mpf(float(c)) for c in (*u, *v)],
                             order.alpha + order.beta))
