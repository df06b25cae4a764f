"""Remainder of the cumulative kernel after subtracting the volume term.

For the cumulative window [0, lam] the kernel splits as

    E_[0,lam](x, y) = ball_kernel(n, d(x,y), lam) + R(x, y, lam)

and this module measures R and its derivatives on probe grids, then fits
the growth exponent alpha_hat in sup|R| ~ C * lam^alpha_hat by least
squares in log-log coordinates.  remainder_batch, the one evaluator,
gives R for rows of point pairs and every lam of a non-decreasing
sequence at once, with the kernels module's exact derivative mechanism
for each model (term by term on the torus, sphere_deriv_batch on the
sphere): a torus call enumerates each mode of its largest window once and
a sphere call runs one Legendre pass.  A sweep is one call of it.  On the
torus the diagonal remainder is the classical lattice-count error divided
by the volume, so exact integer counting doubles as an oracle for
everything here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    Model,
    SpectralWindow,
    TorusModel,
    distance,
    exp_map,
    lead_sign,
    sphere_clusters,
    torus_separation,
)
from .kernels import (
    TWO_PI,
    DerivOrder,
    ball_kernel,
    ball_kernel_deriv,
    faa_di_bruno,
    sphere_coeffs,
    sphere_deriv_batch,
    torus_cumulative_batch,
)
from .special import bessel_j_scaled, legendre_weighted_sum

def cluster_lambda(ell: int, offset: float = 0.01) -> float:
    """Frequency just above the sphere cluster l (for sampling sweeps)."""
    return math.sqrt(ell * (ell + 1.0)) + offset


def remainder_batch(model: Model, xs, ys, lambdas,
                    order: DerivOrder) -> np.ndarray:
    """Derivatives of [E_(0,lam] + 1/vol - ball_kernel(n, d, lam)] per row
    and lam, shape (len(lambdas), rows).

    Rows are point pairs (xs[i], ys[i]) within half the injectivity radius
    of each other; lambdas are >= 0 and do not decrease.  Both are checked
    before any window.  The constant mode restores the full cumulative
    kernel E_[0,lam]; it only contributes at derivative order zero.
    Derivatives are taken in normal coordinates centered at xs[i] and
    ys[i]: term by term on the torus, which enumerates every mode of
    (0, max lam] once, and by sphere_deriv_batch on the sphere, whose
    profile is the whole bracket with its t-derivatives from one Legendre
    pass to the top degree.

    On the torus the bracket depends only on the separation d = x - y and
    R(-d) = (-1)^omega R(d), so the rows are folded into classes {d, -d},
    each class is evaluated once and the values are indexed back, times
    the row's sign when omega is odd.  The fold is bit-exact wherever
    numpy's float64 sin is odd and cos even bit for bit (a platform
    property that the tests check): the mode sum is then odd or even in d
    bit for bit (see kernels._torus_deriv_sum), and so is
    ball_kernel_deriv, whose monomials w^e negate exactly.
    """
    # written so that a NaN distance or lam fails the check too
    if not np.max(distance(model, xs, ys)) < 0.5 * model.injectivity_radius:
        raise ValueError("x and y must be within half the injectivity radius")
    lams = np.asarray(lambdas, dtype=float)
    if not (lams.ndim == 1 and lams.size and np.all(lams >= 0)
            and np.all(np.diff(lams) >= 0)):
        raise ValueError("lambdas must be a sequence of values >= 0 that "
                         "does not decrease")
    n = model.n
    const = 1.0 / model.volume if order.omega == 0 else 0.0
    if isinstance(model, TorusModel):
        # fold d and -d onto the sign whose first nonzero coordinate is
        # positive (+ 0.0 clears -0.0) and evaluate each class once
        diffs = torus_separation(model, xs, ys)
        flip = lead_sign(diffs)
        reps, inverse = np.unique(diffs * flip[:, None] + 0.0, axis=0,
                                  return_inverse=True)
        mode_part = torus_cumulative_batch(model, lambdas, reps, order)
        gamma = tuple(a + b for a, b in zip(order.alpha, order.beta))
        sign = (-1.0) ** sum(order.beta)
        mains = np.array([sign * ball_kernel_deriv(n, reps, lam, gamma)
                          for lam in lambdas])
        values = (mode_part + const - mains)[:, inverse.reshape(-1)]
        # odd omega: const is 0 and the unfolded bracket is never -0.0
        return values * flip + 0.0 if order.omega % 2 else values

    # the coefficients of (0, lam_j] are those of (0, lam_max] up to the
    # top degree of (0, lam_j], so one Legendre pass gives every lam_j its
    # partial sum, bit-equal to a pass truncated there
    windows = [sphere_coeffs(sphere_clusters(model, SpectralWindow(0.0, lam)))
               if lam > 0 else np.zeros(0) for lam in lambdas]

    def bracket(t, k):
        values = legendre_weighted_sum(windows[-1], t,
                                       [c.size - 1 for c in windows], k)
        d = np.arccos(t)
        for row, lam in zip(values[0], lambdas):
            row += const
            row -= ball_kernel(n, d, lam)
        if k:
            # the ball term is b(sigma), sigma = arccos(t)^2, with b^(j) =
            # (lam^2/2pi)^(n/2) (-lam^2/2)^j J_(n/2+j)(lam d)/(lam d)^(n/2+j);
            # sigma's series in 1 - t falls like ((1 - t)/2)^m, so 80 terms
            # reach round-off for t > 0, where every row lies
            series = np.polynomial.Polynomial(
                [0.0] + [2.0 ** (m + 1) / (m * m * math.comb(2 * m, m))
                         for m in range(1, 81)])
            sigma = [None] + [(-1.0) ** j * series.deriv(j)(1.0 - t)
                              for j in range(1, k + 1)]
            ball = [None] + [(lams[:, None] ** 2 / TWO_PI) ** (0.5 * n)
                             * (-0.5 * lams[:, None] ** 2) ** j
                             * bessel_j_scaled(0.5 * n + j, lams[:, None] * d)
                             for j in range(1, k + 1)]
            for j in range(1, k + 1):
                values[j] -= faa_di_bruno(
                    ball, lambda block: sigma[len(block)], j)
        return values

    zero = np.zeros(model.dim)
    return sphere_deriv_batch(model, xs, ys, bracket, zero, zero, order)


# --------------------------------------------------------------------------
# exponent fit
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    alpha_hat: float
    c_hat: float
    residual: float       # max |log deviation| over kept samples
    dropped_zeros: int


def scaling_exponent_fit(samples) -> ExponentFit:
    """Least-squares fit of log(value) against log(lam).

    Every lam and value must be finite.  Zero values are dropped (their
    count is recorded); at least four positive samples with strictly
    increasing lam must remain.
    """
    lams = np.array([s[0] for s in samples], dtype=float)
    vals = np.array([s[1] for s in samples], dtype=float)
    if not (np.all(np.isfinite(lams)) and np.all(np.isfinite(vals))):
        raise ValueError("lam samples and values must be finite")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("lam samples must be strictly increasing")
    if np.any(vals < 0):
        raise ValueError("values must be >= 0")
    keep = vals > 0
    dropped = int(np.sum(~keep))
    lams, vals = lams[keep], vals[keep]
    if lams.size < 4:
        raise ValueError(
            f"degenerate fit input: {lams.size} positive samples (need >= 4)"
        )
    lx = np.log(lams)
    ly = np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return ExponentFit(alpha_hat=float(slope), c_hat=float(math.exp(intercept)),
                       residual=residual, dropped_zeros=dropped)


# --------------------------------------------------------------------------
# probe sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeGrid:
    """Regular grid of normal-coordinate offsets around a base point."""

    radius: float = 0.1
    points_per_axis: int = 5

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("probe radius must be > 0")
        if self.points_per_axis < 1:
            raise ValueError("points_per_axis must be >= 1")

    def offsets(self, dim: int) -> np.ndarray:
        axis = (np.linspace(-self.radius, self.radius, self.points_per_axis)
                if self.points_per_axis > 1 else np.zeros(1))
        grids = np.meshgrid(*([axis] * dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def pairs(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Every ordered pair (us[i], vs[i]) of offsets, u varying slowest."""
        offsets = self.offsets(dim)
        count = offsets.shape[0]
        return (np.repeat(offsets, count, axis=0),
                np.tile(offsets, (count, 1)))


@dataclass(frozen=True)
class RemainderReport:
    model_id: str
    x0: tuple[float, ...]
    order: DerivOrder
    lambdas: tuple[float, ...]
    sups: tuple[float, ...]
    fit: ExponentFit

    def csv_rows(self):
        return [(lam, sup) for lam, sup in zip(self.lambdas, self.sups)]

    def summary_record(self) -> dict:
        return {
            "model": self.model_id,
            "x0": list(self.x0),
            "alpha": list(self.order.alpha),
            "beta": list(self.order.beta),
            "alpha_hat": self.fit.alpha_hat,
            "C_hat": self.fit.c_hat,
            "residual": self.fit.residual,
            "dropped_zeros": self.fit.dropped_zeros,
        }


def remainder_sweep(model: Model, x0, probe: ProbeGrid, lambdas,
                    order: DerivOrder | None = None) -> RemainderReport:
    """Sup of |remainder_batch| over all ordered probe pairs, per lam, plus
    the fit.  All lam go through one remainder_batch call, so a torus sweep
    enumerates each mode of (0, max lam] once; lam must increase strictly,
    which is checked before any window."""
    if order is None:
        order = DerivOrder.zero(model.dim)
    lambdas = tuple(float(l) for l in lambdas)
    if len(lambdas) < 4:
        raise ValueError("need at least 4 lambda samples for the exponent fit")
    if any(l <= 0 for l in lambdas):
        raise ValueError("lambda samples must be > 0")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambda samples must be strictly increasing")
    us, vs = probe.pairs(model.dim)
    values = remainder_batch(model, exp_map(model, x0, us),
                             exp_map(model, x0, vs), lambdas, order)
    sups = tuple(float(s) for s in np.max(np.abs(values), axis=1))
    fit = scaling_exponent_fit(list(zip(lambdas, sups)))
    x0 = np.asarray(x0, dtype=float)
    return RemainderReport(model_id=model.model_id, x0=tuple(x0.tolist()),
                           order=order, lambdas=lambdas, sups=sups, fit=fit)
