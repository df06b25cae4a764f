#!/usr/bin/env python3
"""specproj benchmark: seeded closed-loop experiment workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs one experiment at a time
through `specproj.cli.run`, for about S seconds, on configs generated from
the seed.  Each experiment's lru caches start empty, as in a fresh CLI
invocation.

--trace 0 times the workload untraced and prints the end-to-end metrics.
--trace 1 runs the five example configs and the workload's first batch
under the span tracer (perfbench/spans.py) and prints per-layer metrics;
the same batch run untraced gives `trace.overhead_s`.

Every output is checked by the workload's oracle outside the timed region.
A human-readable report goes to stdout first; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A record with
the environment and the sha256 of every experiment's CSV outputs is
written to perfbench/_work/records/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# The seed used while the workloads were sized, and one that was not.
TUNING_SEED = 1
HELD_OUT_SEED = 2

# fresh-interpreter set-ups per run; their median is setup_s
SETUP_REPEATS = 9

# the end-to-end metrics gated in BENCHMARK.json
E2E_UNITS = {
    "batch_s": "s",
    "exp_s.p50": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed with them, not gated: a run has too few experiments for ten to
# lie beyond its p90, failed_frac is 0 when all is well, and err.max sits
# at round-off level on most workloads
CONTEXT_UNITS = {"exp_s.p90": "s", "failed_frac": "1", "err.max": "1"}


def _bootstrap() -> None:
    """Import specproj from this checkout's src/, never from elsewhere."""
    if not (SRC / "specproj" / "__init__.py").is_file():
        raise SystemExit(f"error: no specproj sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specproj
    if Path(specproj.__file__).resolve().parent != (SRC / "specproj"):
        raise SystemExit("error: specproj imported from outside src/")


# --------------------------------------------------------------------------
# running experiments
# --------------------------------------------------------------------------

def _cache_functions():
    """Every lru cache in specproj, so each experiment can start empty."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("specproj"):
            continue
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                found[id(obj)] = obj
    return list(found.values())


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except AttributeError:
        return lambda pad: 0


class Runner:
    """Writes, loads and runs experiment configs under one work directory."""

    def __init__(self, work: Path):
        from specproj import cli, config
        self.cli = cli
        self.config = config
        self.work = work
        self.caches = _cache_functions()
        self.trim = _malloc_trim()
        self.tracer = None

    def clear_caches(self) -> None:
        """Start the next experiment as a fresh CLI invocation would.

        The lru caches are emptied, and free heap memory goes back to the
        system, so that what an earlier experiment left in the allocator
        does not decide the next one's peak RSS.
        """
        for fn in self.caches:
            fn.cache_clear()
        self.trim(0)
        if self.tracer is not None:
            self.tracer.caches_cleared()

    def write(self, experiments, tag: str) -> list[Path]:
        paths = []
        for i, exp in enumerate(experiments):
            path = self.work / "configs" / f"{tag}-{i}-{exp.label}.cfg"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(exp.text)
            paths.append(path)
        return paths

    def load(self, experiments, paths) -> list:
        return [self.config.load_config(path, exp.kind)
                for exp, path in zip(experiments, paths)]

    def run_batch(self, experiments, configs, tag: str):
        """Run one batch; returns (wall, cpu, per-experiment results)."""
        results = []
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for i, (exp, cfg) in enumerate(zip(experiments, configs)):
            out = self.work / "out" / f"{tag}-{i}-{exp.label}"
            self.clear_caches()
            start = time.perf_counter()
            try:
                outputs = self.cli.run(exp.kind, cfg, out)
                error = None
            except Exception as exc:  # a failed experiment is a result
                outputs, error = [], f"{type(exc).__name__}: {exc}"
            results.append({"exp": exp, "config": cfg, "out": out,
                            "outputs": outputs, "error": error,
                            "seconds": time.perf_counter() - start})
        wall = time.perf_counter() - wall0
        return wall, time.process_time() - cpu0, results


def _digest(out: Path, outputs) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(outputs)}


def _check(workload, results) -> tuple[int, float, list]:
    """Run the oracle on each result; returns (failed, err.max, records)."""
    failed, worst, records = 0, 0.0, []
    for r in results:
        record = {"label": r["exp"].label, "seconds": r["seconds"],
                  "error": r["error"]}
        if r["error"] is None:
            try:
                err, ok = workload.oracle(r["exp"], r["config"], r["out"])
            except Exception as exc:  # an unreadable output misses its oracle
                err, ok = math.inf, False
                record["error"] = f"oracle {type(exc).__name__}: {exc}"
            record.update(err=err, ok=bool(ok),
                          sha256=_digest(r["out"], r["outputs"]))
            worst = max(worst, float(err))
        else:
            ok = False
            record["ok"] = False
        failed += not ok
        records.append(record)
    return failed, worst, records


# --------------------------------------------------------------------------
# set-up time: fresh interpreters importing specproj and loading configs
# --------------------------------------------------------------------------

_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import specproj
from specproj.config import load_config
for arg in sys.argv[2:]:
    kind, path = arg.split("=", 1)
    load_config(path, kind)
print(repr(time.perf_counter()))
"""


def measure_setup(experiments, paths) -> list[float]:
    """Seconds from spawning an interpreter to its configs being loaded."""
    args = [f"{exp.kind}={path}" for exp, path in zip(experiments, paths)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), *args],
            capture_output=True, text=True, check=True, timeout=60,
            cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


# --------------------------------------------------------------------------
# environment and provenance (context only, never gated)
# --------------------------------------------------------------------------

def _blas_threads():
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps
                    if "openblas" in line.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------

def _quantile(values, q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(workload, runner: Runner, seed: int, seconds: float) -> dict:
    first = workload.batch(seed, 0)
    setup = measure_setup(first, runner.write(first, "setup"))
    batches, cpus, results = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        experiments = workload.batch(seed, index)
        configs = runner.load(experiments,
                              runner.write(experiments, f"b{index}"))
        gc.collect()
        wall, cpu, done = runner.run_batch(experiments, configs, f"b{index}")
        batches.append(wall)
        cpus.append(cpu)
        results += done
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(batches) > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, worst, records = _check(workload, results)
    exp_times = [r["seconds"] for r in results]
    p90 = _quantile(exp_times, 90)
    metrics = {
        "batch_s": statistics.median(batches),
        "exp_s.p50": statistics.median(exp_times),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    context = {
        "exp_s.p90": p90,
        "failed_frac": failed / len(results),
        "err.max": worst,
        "batches": len(batches),
        "experiments": len(results),
        "experiments_beyond_p90": sum(t > p90 for t in exp_times),
        "measured_s": time.perf_counter() - start,
        "batch_s.all": batches,
        "setup_s.all": setup,
    }
    return {"metrics": metrics, "context": context, "attempted": len(results),
            "failed": failed, "correct": failed == 0, "records": records}


def _example_configs():
    return sorted((ROOT / "scripts" / "configs").glob("*.cfg"))


def _traced(runner: Runner, tracer, work):
    """Run `work()` under the tracer; returns (result, wall, layer metrics)."""
    from spans import layer_metrics, segment

    with tracer:
        runner.tracer = tracer
        try:
            mark = tracer.mark()
            start = time.perf_counter()
            result = work()
            wall = time.perf_counter() - start
        finally:
            runner.tracer = None
    return result, wall, layer_metrics(segment(tracer.spans, mark,
                                               tracer.mark()), wall)


def _accounted(layers) -> bool:
    """Self times are non-negative and add up to the traced wall time."""
    parts = [v for k, v in layers.items()
             if k.endswith(".self_s") or k == "trace.hook_s"]
    return (min(parts) >= -1e-9
            and abs(sum(parts) - layers["trace.wall_s"]) <= 1e-6)


def traced_run(workload, runner: Runner, seed: int) -> dict:
    """Examples and batch 0 traced; batch 0 untraced before and after.

    The first untraced pass also warms the allocator, so the traced pass
    and the last untraced pass run under the same conditions and their
    difference is the tracing overhead.
    """
    from spans import Tracer

    tracer = Tracer()
    metrics, example_layers = {}, {}
    for path in _example_configs():
        kind = path.stem

        def example():
            cfg = runner.config.load_config(path, kind)
            runner.clear_caches()
            runner.cli.run(kind, cfg, runner.work / "examples" / kind)

        _, wall, layers = _traced(runner, tracer, example)
        metrics[f"examples.{kind}_s"] = wall
        example_layers[kind] = layers
    # randomwave runs only in its example config
    for key in ("randomwave.self_s", "randomwave.draws"):
        metrics[key] = example_layers["randomwave"][key]

    experiments = workload.batch(seed, 0)
    paths = runner.write(experiments, "b0")

    def batch(tag):
        gc.collect()
        return runner.run_batch(experiments, runner.load(experiments, paths),
                                tag)

    _, _, results = batch("warm")
    (traced_wall, _, traced), _, layers = _traced(
        runner, tracer, lambda: batch("traced"))
    untraced_wall, _, untraced = batch("untraced")
    failed, worst, records = _check(workload, results)

    digests = [[_digest(r["out"], r["outputs"]) for r in done]
               for done in (results, traced, untraced)]
    checks = {"outputs_identical": digests[0] == digests[1] == digests[2],
              "self_times_account": _accounted(layers)
              and all(_accounted(v) for v in example_layers.values())}
    metrics.update({k: v for k, v in layers.items()
                    if not k.startswith("randomwave.")})
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    context = {"failed_frac": failed / len(results), "err.max": worst,
               "batch_s.untraced": untraced_wall,
               "batch_s.traced": traced_wall, "checks": checks,
               "example_layers": example_layers}
    return {"metrics": metrics, "context": context, "attempted": len(results),
            "failed": failed, "correct": failed == 0 and all(checks.values()),
            "records": records}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in CONTEXT_UNITS:
        return CONTEXT_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_value"):
        return "ratio"
    if name == "reports.bytes":
        return "bytes"
    if name == "loopset.energy_drift":
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _bootstrap()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK / "runs" / tag
    runner = Runner(work)
    try:
        if args.trace:
            result = traced_run(workload, runner, args.seed)
        else:
            result = timed_run(workload, runner, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "environment": environment(), **result}
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"({workload.why})")
    for key, value in record["environment"].items():
        print(f"  env {key} = {value}")
    shown = dict(result["metrics"])
    shown.update({k: v for k, v in result["context"].items()
                  if k in CONTEXT_UNITS})
    for key in sorted(shown):
        print(f"  {key:32s} {shown[key]!r:>24} {_unit(key)}")
    for key, value in sorted(result["context"].items()):
        if key not in shown and key != "example_layers":
            print(f"  context {key} = {value}")
    for r in result["records"]:
        if not r["ok"]:
            print(f"  MISS {r['label']}: err={r.get('err')} "
                  f"error={r['error']}")
    print(f"  record {records / (tag + '.json')}")
    if args.trace:
        names = sorted(result["metrics"])
    else:
        names = list(E2E_UNITS)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": result["metrics"][k], "unit": _unit(k)}
                    for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
