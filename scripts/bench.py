#!/usr/bin/env python3
"""Timed perfbench runs of one or more source trees, written to BENCH_<label>.json.

Usage:
    python3 scripts/bench.py LABEL [--tree NAME=PATH ...]

The workloads, the gated end-to-end metrics and the run length are read
from BENCHMARK.json, the seeds are perfbench's tuning and held-out seeds.
For each workload and seed every tree runs
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0` in
its own directory REPEATS times, the trees taking turns and swapping which
goes first from one repeat to the next, so that a slow spell of a shared
host falls on all of them alike.  The default is one tree, `change`, the
checkout this script lives in; a parent commit is compared by adding e.g.
`--tree parent=../parent-checkout --tree change=.`.

BENCH_<label>.json (written to the repository root) holds, per run: the
tree name, the git sha and `src/` line count perfbench recorded, the gated
metrics, `measured_s` (the run's wall time including the oracles, which
perfbench checks after the timed loop), the attempted and failed counts
and, per batch, a sha256 (first 16 hex digits) over the batch's output
digests, so two runs' outputs of a batch are byte-identical exactly when
those hashes match.  Beside the runs sit the environment of the first run
and, per tree and workload, the quartiles [q1, median, q3] of every metric
over all its runs.  Given exactly two trees it also records, per workload
and gated metric, how many (seed, repeat) pairs the second tree won (ties
count for neither) and whether the two medians differ by more than the
first tree's IQR; and, per workload, how many of the (seed, batch) pairs
that both trees ran have one digest over all runs, and the first that
does not.  Every run with failed experiments is printed at the end.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# alternating runs per tree, workload and seed: two seeds give ten pairs
REPEATS = 5


def _perfbench():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
GATED = [m["name"] for m in BENCHMARK["end_to_end"]]
SECONDS = BENCHMARK["run_seconds"]
_PERFBENCH = _perfbench()
SEEDS = (_PERFBENCH.TUNING_SEED, _PERFBENCH.HELD_OUT_SEED)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One timed perfbench run in `tree`; returns the summary of its record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    path = next(line.split("record ", 1)[1] for line in lines
                if line.startswith("  record "))
    record = json.loads(Path(path).read_text())
    context = record["context"]
    per_batch = context["experiments"] // context["batches"]
    digests = [r.get("sha256") for r in record["records"]]
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": record["environment"]["git_sha"],
        "src_lines": record["environment"]["src_lines"],
        "metrics": {k: record["metrics"][k] for k in GATED},
        "measured_s": context["measured_s"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "batch_sha256": [
            hashlib.sha256(json.dumps(digests[i:i + per_batch],
                                      sort_keys=True).encode()).hexdigest()[:16]
            for i in range(0, len(digests), per_batch)],
        "environment": record["environment"],
    }


def quartiles(runs: list[dict]) -> dict:
    """[q1, median, q3] of each metric and of measured_s, per tree/workload."""
    groups: dict = {}
    for run in runs:
        groups.setdefault(f"{run['tree']}/{run['workload']}", []).append(run)

    def spread(values):
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return [q1, q2, q3]

    return {key: {name: spread([r["metrics"][name] for r in group])
                  for name in GATED}
            | {"measured_s": spread([r["measured_s"] for r in group]),
               "runs": len(group)}
            for key, group in groups.items()}


def pair_wins(runs: list[dict], quarts: dict, first: str,
              second: str) -> dict:
    """Per workload and gated metric: the pairs the second tree won and
    whether the two medians differ by more than the first tree's IQR."""
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    by_key = {(r["tree"], r["workload"], r["seed"], r["repeat"]): r["metrics"]
              for r in runs}
    out = {}
    for workload in WORKLOADS:
        keys = sorted((s, k) for t, w, s, k in by_key
                      if t == first and w == workload)
        out[workload] = {}
        for name in GATED:
            sign = 1.0 if better[name] == "lower" else -1.0
            wins = sum(sign * (by_key[(first, workload, *key)][name]
                               - by_key[(second, workload, *key)][name]) > 0
                       for key in keys)
            q1, med1, q3 = quarts[f"{first}/{workload}"][name]
            med2 = quarts[f"{second}/{workload}"][name][1]
            out[workload][name] = {"pairs": len(keys), "wins": wins,
                                   "beyond_iqr": abs(med2 - med1) > q3 - q1}
    return out


def output_identity(runs: list[dict], first: str, second: str) -> dict:
    """Per workload: the (seed, batch) pairs that both trees ran, how many
    of them have one output digest over every run of either tree, and the
    first (seed, batch) that does not."""
    out = {}
    for workload in WORKLOADS:
        trees: dict = {}
        digests: dict = {}
        for run in runs:
            if run["workload"] == workload:
                for batch, digest in enumerate(run["batch_sha256"]):
                    key = (run["seed"], batch)
                    trees.setdefault(key, set()).add(run["tree"])
                    digests.setdefault(key, set()).add(digest)
        both = sorted(key for key, names in trees.items()
                      if {first, second} <= names)
        differing = [key for key in both if len(digests[key]) > 1]
        out[workload] = {"pairs": len(both),
                         "matching": len(both) - len(differing),
                         "first_differing": (list(differing[0]) if differing
                                             else None)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label")
    parser.add_argument("--tree", action="append", default=[],
                        help="NAME=PATH of a checkout to run (repeatable)")
    args = parser.parse_args(argv)
    trees = [tuple(spec.split("=", 1)) for spec in args.tree] or [
        ("change", str(ROOT))]
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for repeat in range(REPEATS):
                order = trees if repeat % 2 == 0 else trees[::-1]
                for name, path in order:
                    run = run_once(Path(path).resolve(), workload, seed)
                    run["tree"] = name
                    run["repeat"] = repeat
                    runs.append(run)
                    shown = "  ".join(f"{k}={v:.4g}"
                                      for k, v in run["metrics"].items())
                    print(f"{name:8s} {workload:22s} seed {seed}  {shown}  "
                          f"measured_s={run['measured_s']:.1f}  "
                          f"failed={run['failed']}", flush=True)
    environment = runs[0]["environment"]
    for run in runs:
        del run["environment"]
    result = {"label": args.label, "seconds": SECONDS, "repeats": REPEATS,
              "command": "python3 perfbench/run.py --workload W --seed N "
                         f"--seconds {SECONDS:g} --trace 0",
              "environment": environment, "quartiles": quartiles(runs),
              "runs": runs}
    if len(trees) == 2:
        first, second = (name for name, _ in trees)
        result["pair_wins"] = pair_wins(runs, result["quartiles"], first,
                                        second)
        for workload, metrics in result["pair_wins"].items():
            shown = "  ".join(f"{k}={v['wins']}/{v['pairs']}"
                              + ("*" if v["beyond_iqr"] else "")
                              for k, v in metrics.items())
            print(f"{second} wins {workload:22s} {shown}")
        result["output_identity"] = output_identity(runs, first, second)
        for workload, same in result["output_identity"].items():
            print(f"identical {workload:22s} {same['matching']}/"
                  f"{same['pairs']} (seed, batch) pairs, first differing "
                  f"{same['first_differing']}")
    for run in runs:
        if run["failed"]:
            print(f"FAILED   {run['tree']:8s} {run['workload']:22s} "
                  f"seed {run['seed']} repeat {run['repeat']}: "
                  f"{run['failed']} of {run['attempted']} experiments")
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
