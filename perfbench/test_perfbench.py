"""Self-tests of the benchmark harness, on tiny experiments.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._bootstrap()

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Experiment, _ini  # noqa: E402

TINY = [
    Experiment("scaling", "scaling", _ini(
        "scaling", model="torus2", x0=(0.0, 0.0), lambdas=(10.0, 14.5),
        delta=1.0, max_j=1, max_k=1, probe_radius=1.0, points_per_axis=3)),
    Experiment("kernel", "kernel", _ini(
        "kernel", model="sphere2", window_lo=20.0, window_hi=21.0,
        x0=(0.0, 0.0, 1.0), alpha="1:0", beta="1:0", probe_radius=0.3,
        points_per_axis=3)),
    Experiment("remainder", "sphere-d1", _ini(
        "remainder", model="sphere2", x0=(0.0, 0.6, 0.8),
        lambdas=(5.0, 7.0, 10.0, 14.0), alpha="1:0", beta="0:0",
        probe_radius=0.1, points_per_axis=2)),
    Experiment("remainder", "torus-diag", _ini(
        "remainder", model="torus2", x0=(1.0, 2.0),
        lambdas=(10.0, 20.0, 40.0, 80.0), alpha="0:0", beta="0:0",
        probe_radius=0.1, points_per_axis=1)),
    Experiment("loopset", "ellipsoid", _ini(
        "loopset", surface="ellipsoid", c=1.4, x0=(1.0, 0.3),
        n_directions=4, t_max=0.3, tol=1e-3, seed=5)),
    Experiment("randomwave", "randomwave", _ini(
        "randomwave", model="torus2", window_lo=5.0, window_hi=6.0,
        x0=(0.0, 0.0), samples=20, probe_radius=0.5, points_per_axis=2)),
]


def _run(tmp_path, tag, tracer=None):
    runner = run.Runner(tmp_path)
    paths = runner.write(TINY, tag)

    def work():
        return runner.run_batch(TINY, runner.load(TINY, paths), tag)

    if tracer is None:
        _, _, done = work()
        layers = None
    else:
        (_, _, done), _, layers = run._traced(runner, tracer, work)
    assert all(r["error"] is None for r in done), [r["error"] for r in done]
    return [run._digest(r["out"], r["outputs"]) for r in done], layers


def _counts(layers):
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def test_wrapping_leaves_outputs_bit_identical(tmp_path):
    plain, _ = _run(tmp_path, "plain")
    traced, _ = _run(tmp_path, "traced", Tracer())
    assert traced == plain


def test_counts_repeat_between_traced_runs(tmp_path):
    _, first = _run(tmp_path, "a", Tracer())
    _, second = _run(tmp_path, "b", Tracer())
    assert _counts(first) == _counts(second)
    assert first["models.enum_calls"] > 0
    assert first["models.exp_map_calls"] > 0
    assert first["kernels.torus_terms"] > 0
    assert first["loopset.direction_steps"] == 4 * 300


def test_self_times_account_for_traced_wall(tmp_path):
    _, layers = _run(tmp_path, "t", Tracer())
    selfs = {k: v for k, v in layers.items() if k.endswith(".self_s")}
    assert all(v >= 0.0 for v in selfs.values()), selfs
    assert layers["trace.hook_s"] >= 0.0
    total = sum(selfs.values()) + layers["trace.hook_s"]
    assert total == pytest.approx(layers["trace.wall_s"], abs=1e-6)
    assert run._accounted(layers)


def test_uninstall_restores_every_namespace():
    import specproj.cli
    import specproj.kernels
    import specproj.models

    before = (specproj.cli.run, specproj.kernels.exp_map,
              specproj.models.exp_map, specproj.models.torus_modes)
    tracer = Tracer()
    with tracer:
        assert specproj.kernels.exp_map is not before[1]
        assert specproj.kernels.exp_map is specproj.models.exp_map
    after = (specproj.cli.run, specproj.kernels.exp_map,
             specproj.models.exp_map, specproj.models.torus_modes)
    assert after == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_batches_are_seeded_and_valid(tmp_path, name):
    workload = WORKLOADS[name]
    assert workload.batch(7, 0) == workload.batch(7, 0)
    assert workload.batch(7, 0) != workload.batch(8, 0)
    runner = run.Runner(tmp_path)
    experiments = workload.batch(7, 0)
    runner.load(experiments, runner.write(experiments, "v"))


def test_tiny_oracles_pass(tmp_path):
    runner = run.Runner(tmp_path)
    chosen = [TINY[2], TINY[3]]
    paths = runner.write(chosen, "o")
    _, _, done = runner.run_batch(chosen, runner.load(chosen, paths), "o")
    oracle = WORKLOADS["cumulative-remainder"].oracle
    for r in done:
        err, ok = oracle(r["exp"], r["config"], r["out"])
        assert ok, (r["exp"].label, err)
