"""The benchmark's workloads: seeded experiment batches and their oracles.

A workload turns (seed, batch index) into a fixed batch of experiment
configs.  Every draw is stratified, so two seeds ask for the same amount
of work while no two experiments share a window.  Each experiment's
outputs are checked afterwards by an oracle written here, independently
of specproj: brute-force lattice sums, closed forms and exact integer
counts.  An oracle returns the worst relative deviation it saw and whether
it stayed within its tolerance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Experiment:
    kind: str          # specproj experiment kind
    label: str         # short shape name, stable across seeds
    text: str          # INI config text


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: Callable[[int, int], list]
    oracle: Callable[[Experiment, object, Path], tuple]


def _rng(seed: int, batch: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, batch, salt])


def _ini(kind: str, **items) -> str:
    lines = [f"[{kind}]"]
    for key, value in items.items():
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, (tuple, list)):
            value = ",".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _unit_vector(rng: np.random.Generator) -> tuple:
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-3:
            return tuple(float(c) for c in v / n)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _rel(a: float, b: float, floor: float = 0.0) -> float:
    return abs(a - b) / max(abs(b), floor)


# --------------------------------------------------------------------------
# torus-scaling: criterion-4 shape, one unit window per experiment
# --------------------------------------------------------------------------

# Below lambda ~ 97 a window's modes times 6561 pairs fit in one chunk of
# the mode sum, so peak memory grows smoothly with the window in every
# stratum.  An odd number of strata keeps the median experiment inside the
# middle one instead of between two.
SCALING_STRATA = ((50.0, 55.0), (60.0, 65.0), (70.0, 75.0))


def scaling_batch(seed: int, batch: int) -> list[Experiment]:
    out = []
    for i, (lo, hi) in enumerate(SCALING_STRATA):
        rng = _rng(seed, batch, i)
        lam = float(rng.uniform(lo, hi))
        x0 = tuple(float(c) for c in rng.uniform(0.0, TWO_PI, 2))
        out.append(Experiment("scaling", f"scaling-{i}", _ini(
            "scaling", model="torus2", x0=x0, lambdas=(lam,), delta=1.0,
            max_j=2, max_k=2, probe_radius=2.0, points_per_axis=9)))
    return out


def _lattice(lo2: int, hi2: int) -> np.ndarray:
    """All integer vectors k in Z^2 with lo2 <= |k|^2 <= hi2 (box scan)."""
    r = math.isqrt(hi2) + 1
    axis = np.arange(-r, r + 1, dtype=np.int64)
    k1, k2 = np.meshgrid(axis, axis, indexing="ij")
    norm2 = k1 * k1 + k2 * k2
    keep = (norm2 >= lo2) & (norm2 <= hi2)
    return np.stack([k1[keep], k2[keep]], axis=1)


def _square_floor(x: float) -> int:
    return math.floor(Fraction(x) ** 2)


def _orders(max_order: int):
    """Multi-indices (a1, a2) with a1 + a2 <= max_order."""
    return [(a1, t - a1) for t in range(max_order + 1)
            for a1 in range(t, -1, -1)]


def _probe_offsets(radius: float, per_axis: int, dim: int) -> np.ndarray:
    axis = np.linspace(-radius, radius, per_axis)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def scaling_oracle(exp: Experiment, config, out: Path) -> tuple:
    """Brute-force lattice sums and a fine trapezoid rule for the limit.

    The sup over the 81 x 81 probe pairs equals the sup over the distinct
    differences u - v, so both sides are evaluated there only.
    """
    offsets = _probe_offsets(config.probe_radius, config.points_per_axis, 2)
    diffs = np.unique((offsets[:, None, :] - offsets[None, :, :])
                      .reshape(-1, 2), axis=0)
    theta = TWO_PI * np.arange(1024) / 1024
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    rows = {(float(r["lambda"]), r["alpha"], r["beta"]): float(r["sup_error"])
            for r in _read_csv(out / "scaling_report.csv")}
    worst = 0.0
    for lam in config.lambdas:
        k = _lattice(_square_floor(lam) + 1,
                     _square_floor(lam + config.delta)).astype(float)
        phase = (diffs / lam) @ k.T
        limit_phase = diffs @ nodes.T
        for alpha in _orders(config.max_j):
            for beta in _orders(config.max_k):
                gamma = (alpha[0] + beta[0], alpha[1] + beta[1])
                omega = sum(gamma)
                weight = (k[:, 0] ** gamma[0] * k[:, 1] ** gamma[1]
                          * (-1.0) ** sum(beta))
                # d^omega/dphase^omega of cos(phase) = Re(i^omega e^{i phase})
                trig = np.real(1j ** omega * np.exp(1j * phase))
                kernel = (trig * weight).sum(axis=1) / TWO_PI ** 2
                scaled = kernel * lam ** (-1 - omega)
                w = nodes[:, 0] ** gamma[0] * nodes[:, 1] ** gamma[1]
                m = sum(alpha) - sum(beta)
                limit = (np.real(1j ** m * np.exp(1j * limit_phase)) @ w
                         * (TWO_PI / 1024) / TWO_PI ** 2) * config.delta
                expect = float(np.max(np.abs(scaled - limit)))
                got = rows[(float(lam), f"{alpha[0]}:{alpha[1]}",
                            f"{beta[0]}:{beta[1]}")]
                worst = max(worst, _rel(got, expect))
    return worst, worst <= 1e-8


# --------------------------------------------------------------------------
# sphere-kernel: finite-difference path, windows log-uniform in [50, 9000]
# --------------------------------------------------------------------------

SPHERE_EDGES = tuple(float(x) for x in np.geomspace(50.0, 9000.0, 7))


def sphere_batch(seed: int, batch: int) -> list[Experiment]:
    out = []
    for i, (lo, hi) in enumerate(zip(SPHERE_EDGES, SPHERE_EDGES[1:])):
        rng = _rng(seed, batch, i)
        lam = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        out.append(Experiment("kernel", f"kernel-{i}", _ini(
            "kernel", model="sphere2", window_lo=lam, window_hi=lam + 1.0,
            x0=_unit_vector(rng), alpha="1:0", beta="1:0",
            probe_radius=0.5, points_per_axis=5)))
    return out


def _clusters(lo: float, hi: float) -> list[int]:
    """Degrees l with lo < sqrt(l(l+1)) <= hi, decided exactly."""
    lo2, hi2 = _square_floor(lo), _square_floor(hi)
    return [l for l in range(math.isqrt(hi2) + 2)
            if lo2 < l * (l + 1) <= hi2]


def sphere_kernel_oracle(exp: Experiment, config, out: Path) -> tuple:
    """Closed-form diagonal of d_u1 d_v1 E(exp_x0 u, exp_x0 v) at u = v.

    With t = <X(u), Y(v)> and E = F(t), the diagonal value is
    F'(1) |d X / d u1|^2, where F'(1) = sum_l c_l l(l+1)/2 and the metric
    of normal coordinates is g11 = (u1/r)^2 + (sin r / r)^2 (u2/r)^2.
    """
    ells = _clusters(config.window.lo, config.window.hi)
    fprime = sum((2 * l + 1) / (4.0 * math.pi) * l * (l + 1) / 2.0
                 for l in ells)
    worst = 0.0
    count = 0
    for r in _read_csv(out / "kernel_field.csv"):
        u = (float(r["u_1"]), float(r["u_2"]))
        if u != (float(r["v_1"]), float(r["v_2"])):
            continue
        radius = math.hypot(*u)
        g11 = 1.0 if radius == 0.0 else (
            (u[0] / radius) ** 2
            + (math.sin(radius) / radius) ** 2 * (u[1] / radius) ** 2)
        worst = max(worst, _rel(float(r["value"]), fprime * g11))
        count += 1
    # finite differences lose accuracy as the window grows; 1e-2 catches a
    # wrong factor or sign without failing the known high-window error
    return worst, count == config.points_per_axis ** 2 and worst <= 1e-2


# --------------------------------------------------------------------------
# cumulative-remainder: three sweep shapes of 9 geometric windows
# --------------------------------------------------------------------------

REMAINDER_SHAPES = (
    # label, model, lambda_max, alpha, beta, points_per_axis
    ("torus-diag", "torus2", 1200.0, "0:0", "0:0", 1),
    ("torus-d1", "torus2", 400.0, "1:0", "0:0", 3),
    ("sphere-d1", "sphere2", 400.0, "1:0", "0:0", 3),
)


def remainder_batch(seed: int, batch: int) -> list[Experiment]:
    out = []
    for i, (label, model, lam_max, alpha, beta, ppa) in enumerate(
            REMAINDER_SHAPES):
        rng = _rng(seed, batch, i)
        top = lam_max * float(rng.uniform(0.99, 1.01))
        lambdas = tuple(float(x) for x in np.geomspace(top / 16.0, top, 9))
        if model == "sphere2":
            x0 = _unit_vector(rng)
        else:
            x0 = tuple(float(c) for c in rng.uniform(0.0, TWO_PI, 2))
        out.append(Experiment("remainder", label, _ini(
            "remainder", model=model, x0=x0, lambdas=lambdas, alpha=alpha,
            beta=beta, probe_radius=0.1, points_per_axis=ppa)))
    return out


def _gauss_circle(lam: float) -> int:
    """#{k in Z^2 : |k| <= lam}, exact integer arithmetic."""
    t = _square_floor(lam)
    r = math.isqrt(t)
    return sum(2 * math.isqrt(t - k1 * k1) + 1 for k1 in range(-r, r + 1))


def _remainder_rows(out: Path) -> dict:
    return {float(r["lambda"]): float(r["sup_remainder"])
            for r in _read_csv(out / "remainder.csv")}


def _torus_diag_oracle(config, rows) -> float:
    """E_[0,lam](x,x) = N(lam)/(2pi)^2 and the ball term is lam^2/(4 pi).

    The remainder is their difference and can come arbitrarily close to
    zero, so deviations are taken relative to the ball term.
    """
    worst = 0.0
    for lam in config.lambdas:
        ball = Fraction(lam) ** 2 / Fraction(4.0 * math.pi)
        expect = abs(Fraction(_gauss_circle(lam)) / Fraction(TWO_PI ** 2)
                     - ball)
        worst = max(worst, _rel(rows[lam], float(expect), float(ball)))
    return worst


def _sweep_points(config) -> np.ndarray:
    offsets = _probe_offsets(config.probe_radius, config.points_per_axis, 2)
    x0 = np.asarray(config.x0, dtype=float)
    if config.model.model_id == "torus2":
        return np.mod(x0 + offsets, TWO_PI)
    x0 = x0 / np.linalg.norm(x0)
    e1, e2 = _frame(x0)
    pts = []
    for u in offsets:
        r = float(np.hypot(*u))
        if r == 0.0:
            pts.append(x0)
        else:
            w = (u[0] * e1 + u[1] * e2) / r
            pts.append(math.cos(r) * x0 + math.sin(r) * w)
    return np.array(pts)


def _frame(x: np.ndarray):
    # specproj's tangent-frame convention: seed axis least aligned with x
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(x)))] = 1.0
    e1 = seed - np.dot(seed, x) * x
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(x, e1)


def _torus_d1_oracle(config, rows) -> float:
    """d/du1 of the remainder: brute-force lattice sum minus the Bessel term.

    Mode sums accumulate in extended precision along modes sorted by norm,
    so every window of the sweep is one prefix of the same sum.
    """
    from scipy.special import jv

    pts = _sweep_points(config)
    sep = pts[:, None, :] - pts[None, :, :]
    sep = np.mod(sep + math.pi, TWO_PI) - math.pi
    diffs = np.unique(sep.reshape(-1, 2), axis=0)
    lam_top = config.lambdas[-1]
    k = _lattice(1, _square_floor(lam_top))
    norm2 = k[:, 0] * k[:, 0] + k[:, 1] * k[:, 1]
    order = np.argsort(norm2, kind="stable")
    k, norm2 = k[order].astype(float), norm2[order]
    ends = [int(np.searchsorted(norm2, _square_floor(lam), side="right"))
            for lam in config.lambdas]
    prefix = np.empty((len(diffs), len(ends)), dtype=np.longdouble)
    for j, d in enumerate(diffs):
        # d/du1 cos<k, u - v> = -k1 sin<k, u - v>
        terms = (-k[:, 0] * np.sin(k @ d)).astype(np.longdouble)
        sums = np.cumsum(terms)
        prefix[j] = [sums[e - 1] if e else 0.0 for e in ends]
    worst = 0.0
    for col, lam in enumerate(config.lambdas):
        best = 0.0
        for j, d in enumerate(diffs):
            # d/dw1 of lam J1(lam r)/(2 pi r) = -lam^4/(2 pi) J2(z)/z^2 w1
            # with z = lam r; J2(z)/z^2 -> 1/8 at z = 0
            z = lam * float(np.hypot(*d))
            j2z2 = jv(2, z) / z ** 2 if z > 1e-8 else 0.125
            main = -(lam ** 4) / TWO_PI * j2z2 * d[0]
            value = float(prefix[j, col]) / TWO_PI ** 2 - main
            best = max(best, abs(value))
        worst = max(worst, _rel(rows[lam], best))
    return worst


def _sphere_d1_oracle(config, rows) -> float:
    """d/du1 at u = 0 of F(t) - B(arccos t), t = <exp_x(u), y>.

    The derivative is (F'(t) + B'(d)/sin d) <e1(x), y> with
    F = sum_l (2l+1)/(4 pi) P_l and B(d) = lam J1(lam d)/(2 pi d).
    """
    from scipy.special import eval_legendre, jv

    pts = _sweep_points(config)
    worst = 0.0
    for lam in config.lambdas:
        ells = np.array(_clusters(0.0, lam), dtype=float)
        ells = ells[ells > 0]
        best = 0.0
        for i, x in enumerate(pts):
            e1, _ = _frame(x)
            for j, y in enumerate(pts):
                if i == j:
                    # t = 1 and <e1(x), x> = 0: the derivative vanishes
                    continue
                slope = float(np.dot(e1, y))
                t = float(np.clip(np.dot(x, y), -1.0, 1.0))
                d = math.acos(t)
                pl = eval_legendre(ells, t)
                pl1 = eval_legendre(ells - 1, t)
                # P_l'(t) = l (t P_l - P_{l-1}) / (t^2 - 1)
                fprime = float(np.sum((2 * ells + 1) / (4.0 * math.pi)
                                      * ells * (t * pl - pl1))) / (t * t - 1)
                z = lam * d
                ball_prime = -(lam ** 3) / TWO_PI * jv(2, z) / z
                best = max(best, abs((fprime + ball_prime / math.sin(d))
                                     * slope))
        worst = max(worst, _rel(rows[lam], best))
    return worst


def remainder_oracle(exp: Experiment, config, out: Path) -> tuple:
    rows = _remainder_rows(out)
    if exp.label == "torus-diag":
        worst = _torus_diag_oracle(config, rows)
        return worst, worst <= 1e-12
    if exp.label == "torus-d1":
        worst = _torus_d1_oracle(config, rows)
        return worst, worst <= 1e-8
    # finite differences; about 6e-9 is seen up to lambda = 400
    worst = _sphere_d1_oracle(config, rows)
    return worst, worst <= 1e-6


# --------------------------------------------------------------------------
# geodesic-loopset: RK4 on the sphere and on ellipsoids of revolution
# --------------------------------------------------------------------------

LOOPSET_DIRECTIONS = 64
LOOPSET_T_MAX = 6.5


def loopset_batch(seed: int, batch: int) -> list[Experiment]:
    out = []
    for i, surface in enumerate(("sphere", "ellipsoid")):
        rng = _rng(seed, batch, i)
        c = (1.0 if surface == "sphere"
             else float(math.exp(rng.uniform(math.log(0.5), math.log(2.0)))))
        x0 = (float(rng.uniform(0.8, math.pi - 0.8)),
              float(rng.uniform(0.0, TWO_PI)))
        out.append(Experiment("loopset", surface, _ini(
            "loopset", surface=surface, c=c, x0=x0,
            n_directions=LOOPSET_DIRECTIONS, t_max=LOOPSET_T_MAX, tol=1e-3,
            seed=int(rng.integers(0, 2 ** 31)))))
    return out


def loopset_oracle(exp: Experiment, config, out: Path) -> tuple:
    """Every sphere geodesic is a great circle and closes at t = 2 pi.

    The deviation is the largest closest approach to the start point, in
    units of the radius.  Ellipsoids have no closed form; their rows are
    only checked to be well formed.
    """
    rows = _read_csv(out / "loopset.csv")
    dist = np.array([float(r["min_distance"]) for r in rows])
    times = np.array([float(r["first_return_time_or_-1"]) for r in rows])
    formed = (len(rows) == config.n_directions and np.all(dist >= 0.0)
              and np.all((times == -1.0) | ((times >= config.t_min)
                                            & (times <= config.t_max))))
    if config.surface.kind != "sphere":
        return 0.0, bool(formed)
    worst = float(np.max(dist))
    closes = np.all(np.abs(times - TWO_PI) <= 2.0 * config.tol)
    return worst, bool(formed and closes and worst <= config.tol)


WORKLOADS = {w.name: w for w in (
    Workload("torus-scaling",
             "criterion-4 shape on torus2: 36 derivative orders over 6561 "
             "probe pairs that share 289 differences",
             scaling_batch, scaling_oracle),
    Workload("sphere-kernel",
             "sphere2 kernel derivatives by finite differences: per-point "
             "exp maps and Legendre sweeps up to window 9000",
             sphere_batch, sphere_kernel_oracle),
    Workload("cumulative-remainder",
             "remainder sweeps over huge cumulative windows: enumeration, "
             "memory and scalar Bessel terms, one order, no cache reuse",
             remainder_batch, remainder_oracle),
    Workload("geodesic-loopset",
             "RK4 geodesics on the sphere and ellipsoids: only the loopset "
             "layer runs",
             loopset_batch, loopset_oracle),
)}
