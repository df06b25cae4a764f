"""Experiment runner.

Subcommands kernel / scaling / remainder / randomwave / loopset each read
one INI config, run the experiment, and write CSV (and JSONL) reports plus
a manifest.json holding the full config text, the package version, the
wall time and a metrics block (for loopset, the largest energy and
constraint drift the integrator's guards saw).  Exit status: 0 success,
2 validation error, 3 budget error; every failure prints one
machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import (
    EXPERIMENT_KINDS,
    SEEDED_KINDS,
    ConfigError,
    ExperimentConfig,
    KernelConfig,
    LoopsetConfig,
    RandomwaveConfig,
    RemainderConfig,
    ScalingConfig,
    config_as_text,
    format_multi_index,
    load_config,
)
from .kernels import (
    DerivOrder,
    default_quad_degree,
    limit_kernel_batch,
    multi_indices,
    sphere_pair_deriv_batch,
    torus_pair_deriv_batch,
)
from .loopset import loopset_fraction
from .models import BudgetError, Model, SpectralWindow, TorusModel, exp_map
from .randomwave import ensemble_summary_rows, sample_ensemble
from .remainder import ProbeGrid, remainder_sweep
from .reports import (
    atomic_write_bytes,
    atomic_write_text,
    write_csv,
    write_jsonl,
    write_manifest,
)
from .special import sphere_quadrature


def convergence_report(model: Model, x0, lambdas, delta: float, max_j: int,
                       max_k: int, probe_radius: float,
                       points_per_axis: int):
    """Sup distance between the rescaled kernel and its universal limit.

    One row (lambda, alpha, beta, sup_error) per window position and
    derivative pair with |alpha| <= max_j, |beta| <= max_k; the limit side
    is integrated once per derivative pair since it does not move.
    """
    x0 = np.asarray(x0, dtype=float)
    us, vs = ProbeGrid(radius=probe_radius,
                       points_per_axis=points_per_axis).pairs(model.dim)
    diffs = us - vs
    reach = float(np.max(np.linalg.norm(diffs, axis=1)))
    if isinstance(model, TorusModel):
        # the torus kernel depends on u - v only: evaluate each distinct
        # difference once and index back to the pairs
        distinct, inverse = np.unique(diffs, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)     # 2-D under numpy 2.0.0 only

        def kernel(window, order, lam):
            return torus_pair_deriv_batch(model, window, distinct / lam,
                                          order)[inverse]
    else:
        def kernel(window, order, lam):
            return sphere_pair_deriv_batch(model, window, x0, us / lam,
                                           vs / lam, order)
    sups = {}
    for alpha in multi_indices(model.dim, max_j):
        for beta in multi_indices(model.dim, max_k):
            order = DerivOrder(alpha=alpha, beta=beta)
            quad = sphere_quadrature(
                model.dim, default_quad_degree(reach, order.omega))
            limit_vals = delta * limit_kernel_batch(model.dim, diffs, order,
                                                    quad)
            for lam in lambdas:
                window = SpectralWindow(lo=lam, hi=lam + delta)
                scale = lam ** (-(model.dim - 1) - order.omega)
                sups[(lam, alpha, beta)] = float(np.max(np.abs(
                    scale * kernel(window, order, lam) - limit_vals)))
    rows = []
    for lam in lambdas:
        for alpha in multi_indices(model.dim, max_j):
            for beta in multi_indices(model.dim, max_k):
                rows.append((float(lam), format_multi_index(alpha),
                             format_multi_index(beta),
                             sups[(lam, alpha, beta)]))
    return rows


def _run_kernel(config: KernelConfig, out_dir: Path,
                metrics: dict) -> list[str]:
    model = config.model
    x0 = np.asarray(config.x0, dtype=float)
    us, vs = ProbeGrid(radius=config.probe_radius,
                       points_per_axis=config.points_per_axis).pairs(model.dim)
    order = DerivOrder(alpha=config.alpha, beta=config.beta)
    if isinstance(model, TorusModel):
        values = torus_pair_deriv_batch(model, config.window, us - vs, order)
    else:
        values = sphere_pair_deriv_batch(model, config.window, x0, us, vs,
                                         order)
    dim = model.dim
    header = ([f"u_{i + 1}" for i in range(dim)]
              + [f"v_{i + 1}" for i in range(dim)]
              + ["alpha", "beta", "value"])
    alpha_text = format_multi_index(config.alpha)
    beta_text = format_multi_index(config.beta)
    rows = [tuple(us[i]) + tuple(vs[i]) + (alpha_text, beta_text,
                                           float(values[i]))
            for i in range(us.shape[0])]
    write_csv(out_dir / "kernel_field.csv", header, rows)
    return ["kernel_field.csv"]


def _run_scaling(config: ScalingConfig, out_dir: Path,
                 metrics: dict) -> list[str]:
    rows = convergence_report(config.model, config.x0, config.lambdas,
                              config.delta, config.max_j, config.max_k,
                              config.probe_radius, config.points_per_axis)
    write_csv(out_dir / "scaling_report.csv",
              ["lambda", "alpha", "beta", "sup_error"], rows)
    return ["scaling_report.csv"]


def _run_remainder(config: RemainderConfig, out_dir: Path,
                   metrics: dict) -> list[str]:
    order = DerivOrder(alpha=config.alpha, beta=config.beta)
    probe = ProbeGrid(radius=config.probe_radius,
                      points_per_axis=config.points_per_axis)
    report = remainder_sweep(config.model, np.asarray(config.x0, dtype=float),
                             probe, config.lambdas, order=order)
    write_csv(out_dir / "remainder.csv", ["lambda", "sup_remainder"],
              report.csv_rows())
    write_jsonl(out_dir / "remainder_summary.jsonl",
                [report.summary_record()])
    return ["remainder.csv", "remainder_summary.jsonl"]


def _run_randomwave(config: RandomwaveConfig, out_dir: Path,
                    metrics: dict) -> list[str]:
    model = config.model
    x0 = np.asarray(config.x0, dtype=float)
    offsets = ProbeGrid(radius=config.probe_radius,
                        points_per_axis=config.points_per_axis).offsets(
                            model.dim)
    grid = exp_map(model, x0, offsets)
    ensemble = sample_ensemble(model, config.window, config.samples,
                               config.seed, grid)
    write_csv(out_dir / "randomwave_summary.csv",
              ["point_index", "mean", "variance", "covariance_to_x0",
               "stderr"],
              ensemble_summary_rows(ensemble))
    outputs = ["randomwave_summary.csv"]
    if config.dump_samples:
        raw = np.ascontiguousarray(ensemble.values)
        atomic_write_bytes(out_dir / "samples.bin", raw.tobytes())
        header = {
            "dtype": str(raw.dtype),
            "model": model.model_id,
            "seed": config.seed,
            "shape": list(raw.shape),
            "window": [config.window.lo, config.window.hi],
        }
        atomic_write_text(out_dir / "samples.json",
                          json.dumps(header, indent=2, sort_keys=True) + "\n")
        outputs += ["samples.bin", "samples.json"]
    return outputs


def _run_loopset(config: LoopsetConfig, out_dir: Path,
                 metrics: dict) -> list[str]:
    estimate = loopset_fraction(config.surface, np.asarray(config.x0),
                                config.n_directions, config.t_max,
                                config.tol, h=config.step, seed=config.seed,
                                t_min=config.t_min)
    write_csv(out_dir / "loopset.csv",
              ["direction_angle", "first_return_time_or_-1", "min_distance"],
              estimate.csv_rows())
    metrics["max_energy_drift"] = estimate.max_energy_drift
    metrics["max_constraint_drift"] = estimate.max_constraint_drift
    return ["loopset.csv"]


# kind -> runner(config, out_dir, metrics): it writes the kind's reports,
# returns their names and puts what the run measured into metrics
_RUNNERS = {"kernel": _run_kernel, "scaling": _run_scaling,
            "remainder": _run_remainder, "randomwave": _run_randomwave,
            "loopset": _run_loopset}


def run(kind: str, config: ExperimentConfig, out_dir: Path) -> list[str]:
    """Execute one experiment and write its reports plus manifest.json.

    The reports create out_dir, so a run refused before its first write
    leaves nothing behind."""
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    out_dir = Path(out_dir)
    metrics: dict = {}
    start = time.perf_counter()
    outputs = _RUNNERS[kind](config, out_dir, metrics)
    from . import __version__
    write_manifest(out_dir, config_as_text(kind, config), outputs,
                   time.perf_counter() - start, __version__, metrics)
    return outputs


def _fail(kind: str, exc: BaseException) -> None:
    msg = str(exc).replace('"', "'").replace("\n", " ")
    print(f'error kind={kind} msg="{msg}"', file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specproj",
        description="spectral projector kernel experiments on model "
                    "surfaces")
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        sub = subparsers.add_parser(kind)
        sub.add_argument("--config", required=True, help="INI config file")
        sub.add_argument("--out", required=True, help="output directory")
        if kind in SEEDED_KINDS:
            sub.add_argument("--seed", type=int, default=None,
                             help="override the config seed")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.kind,
                             seed_override=getattr(args, "seed", None))
        run(args.kind, config, Path(args.out))
    except ConfigError as exc:
        _fail("validation", exc)
        return 2
    except BudgetError as exc:
        _fail("budget", exc)
        return 3
    except (ValueError, OSError) as exc:
        _fail("validation", exc)
        return 2
    except ArithmeticError as exc:
        _fail("numerical", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
