"""Random waves with the window projector as covariance.

A sample is phi = sum_j a_j phi_j over a real orthonormal basis of the
window eigenspace, with a_j independent standard normals, so

    E[phi(x) phi(y)] = E_window(x, y)

exactly.  Torus basis: sqrt(2)/(2pi)^(n/2) {cos, sin}<k, x> over the
lexicographically positive half of the window lattice.  Sphere clusters are
sampled jointly on the evaluation grid through a symmetric factorization of
the exact cluster covariance (2l+1)/(4pi) P_l(cos d), drawing exactly 2l+1
normals per cluster.

Randomness is counter-based and splittable: sample i of seed s uses the
Philox stream keyed by (s, i), so ensembles are reproducible bit for bit
and independent of evaluation order or ensemble size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    Model,
    SpectralWindow,
    TorusModel,
    lead_sign,
    sphere_clusters,
    torus_modes,
)
from .special import legendre_weighted_sum

TWO_PI = 2.0 * math.pi


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def torus_half_lattice(model: TorusModel, window: SpectralWindow) -> np.ndarray:
    """One representative per +-k pair: first nonzero entry positive.

    Ordered by (|k|^2, lexicographic), which fixes the coefficient layout.
    """
    vectors = torus_modes(model, window).vectors
    half = vectors[lead_sign(vectors) > 0]
    # lexsort's last key is its primary one; |k|^2 is exact in float64
    return half[np.lexsort((*half.T[::-1], np.sum(half * half, axis=1)))]


@dataclass(frozen=True)
class WaveEnsemble:
    """Sampled ensemble: coefficient draws and wave values on a grid."""

    model_id: str
    window: SpectralWindow
    seed: int
    grid: np.ndarray       # (G, point_dim)
    coeffs: np.ndarray     # (m, n_coeffs) standard-normal draws
    values: np.ndarray     # (m, G)

    @property
    def count(self) -> int:
        return int(self.values.shape[0])


def _torus_basis_matrix(model: TorusModel, reps: np.ndarray,
                        grid: np.ndarray) -> np.ndarray:
    # rows alternate cos/sin per half-lattice representative
    scale = math.sqrt(2.0) / TWO_PI ** (0.5 * model.n)
    phases = reps @ grid.T                        # (P, G)
    basis = np.empty((2 * reps.shape[0], grid.shape[0]))
    basis[0::2] = scale * np.cos(phases)
    basis[1::2] = scale * np.sin(phases)
    return basis


def _sphere_cluster_factor(ell: int, grid: np.ndarray) -> np.ndarray:
    """Factor L with L L^T equal to the cluster covariance on the grid.

    Symmetric eigendecomposition, eigenvalues clipped at zero, exactly
    2l+1 columns retained (zero-padded if the grid is smaller), so each
    cluster consumes one normal draw per real mode.
    """
    t = np.clip(grid @ grid.T, -1.0, 1.0)
    coeffs = np.zeros(ell + 1)
    coeffs[ell] = (2 * ell + 1) / (4.0 * math.pi)
    cov = legendre_weighted_sum(coeffs, t.ravel()).reshape(t.shape)
    cov = 0.5 * (cov + cov.T)
    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0.0, None)
    order = np.argsort(evals)[::-1]
    mult = 2 * ell + 1
    keep = order[:mult]
    factor = evecs[:, keep] * np.sqrt(evals[keep])[None, :]
    if factor.shape[1] < mult:
        pad = np.zeros((factor.shape[0], mult - factor.shape[1]))
        factor = np.concatenate([factor, pad], axis=1)
    return factor


def sample_ensemble(model: Model, window: SpectralWindow, m: int, seed: int,
                    grid) -> WaveEnsemble:
    """Draw m independent waves and evaluate them on the grid points."""
    if m < 1:
        raise ValueError("m must be >= 1")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ValueError("grid must be a 2d array of points")

    if isinstance(model, TorusModel):
        if grid.shape[1] != model.n:
            raise ValueError(f"grid points must have dimension {model.n}")
        reps = torus_half_lattice(model, window)
        if reps.shape[0] == 0:
            raise ValueError("empty window: nothing to sample")
        basis = _torus_basis_matrix(model, reps, grid)
        n_coeffs = basis.shape[0]
        coeffs = np.empty((m, n_coeffs))
        for i in range(m):
            coeffs[i] = _sample_rng(seed, i).standard_normal(n_coeffs)
        values = coeffs @ basis
        return WaveEnsemble(model_id=model.model_id, window=window, seed=seed,
                            grid=grid, coeffs=coeffs, values=values)

    if grid.shape[1] != 3:
        raise ValueError("sphere grid points must be unit 3-vectors")
    clusters = sphere_clusters(model, window).clusters
    if not clusters:
        raise ValueError("empty window: nothing to sample")
    factors = [_sphere_cluster_factor(c.ell, grid) for c in clusters]
    n_coeffs = sum(f.shape[1] for f in factors)
    coeffs = np.empty((m, n_coeffs))
    values = np.zeros((m, grid.shape[0]))
    for i in range(m):
        draws = _sample_rng(seed, i).standard_normal(n_coeffs)
        coeffs[i] = draws
        start = 0
        for factor in factors:
            width = factor.shape[1]
            values[i] += factor @ draws[start:start + width]
            start += width
    return WaveEnsemble(model_id=model.model_id, window=window, seed=seed,
                        grid=grid, coeffs=coeffs, values=values)


def empirical_covariance(ensemble: WaveEnsemble, i: int, j: int) -> tuple[float, float]:
    """Empirical covariance of wave values at grid points i and j.

    Returns (estimate, stderr) with the Gaussian (Wick) standard error
    sqrt((v_xx * v_yy + v_xy^2) / m) built from empirical second moments.
    """
    m = ensemble.count
    if m < 2:
        raise ValueError("need at least 2 samples")
    a = ensemble.values[:, i]
    b = ensemble.values[:, j]
    v_xy = float(np.mean(a * b))
    v_xx = float(np.mean(a * a))
    v_yy = float(np.mean(b * b))
    stderr = math.sqrt((v_xx * v_yy + v_xy * v_xy) / m)
    return v_xy, stderr


def ensemble_summary_rows(ensemble: WaveEnsemble):
    """Per-point CSV rows: index, mean, variance, covariance to point 0."""
    rows = []
    for idx in range(ensemble.grid.shape[0]):
        vals = ensemble.values[:, idx]
        cov0, stderr = empirical_covariance(ensemble, idx, 0)
        rows.append((idx, float(np.mean(vals)), float(np.var(vals)),
                     cov0, stderr))
    return rows
