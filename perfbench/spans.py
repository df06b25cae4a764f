"""Span tracing of specproj's public functions, from outside the package.

`Tracer.install()` wraps every public function of the traced modules and
patches the wrapper into every specproj namespace that holds the function.
The modules bind each other's names with `from .x import y`, so patching
only the defining module would miss most calls.  Each call records one
span (name, start, end, parent, info); `uninstall()` restores the
originals.  Per-layer metrics are derived from the spans afterwards by
`layer_metrics`.

Some spans carry an `info` value computed by a post-call hook (rows of a
batch, bytes written, ...).  A hook runs after its span has ended and is
recorded as a `trace.hook` child of the caller, so its cost counts as
tracing overhead and not as the caller's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "specproj"
LAYERS = ("models", "special", "kernels", "remainder", "randomwave",
          "loopset", "reports", "config", "cli")

HOOK = "trace.hook"


def _rows_key(model, window, diffs) -> tuple:
    digest = hashlib.blake2b(np.ascontiguousarray(diffs).tobytes(),
                             digest_size=16).digest()
    return (model, window, diffs.shape, digest)


class Tracer:
    """Records a span for every call of a public specproj function."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self._modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                         for name in LAYERS}
        self._cached = {}          # qualified name -> lru-cached original
        self._last_misses = {}     # qualified name -> misses seen so far
        self._rows_seen = {}       # (model, window, rows) -> orders seen
        self._unique_rows = {}     # rows digest -> distinct row count

    # -- patching ----------------------------------------------------------

    def targets(self) -> dict:
        """Qualified name -> original function, for every public function."""
        found = {}
        for layer, module in self._modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or inspect.isclass(obj):
                    continue
                if not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                found[f"{layer}.{name}"] = obj
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {}
        for qualname, fn in targets.items():
            if hasattr(fn, "cache_info"):
                self._cached[qualname] = fn
                self._last_misses[qualname] = fn.cache_info().misses
            wrappers[id(fn)] = self._wrap(qualname, fn,
                                          _POST_HOOKS.get(qualname))
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def caches_cleared(self) -> None:
        """Tell the tracer that the benchmark emptied the lru caches."""
        for qualname, fn in self._cached.items():
            self._last_misses[qualname] = fn.cache_info().misses
        self._rows_seen.clear()

    def _wrap(self, qualname: str, fn, post):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (qualname, start, end, parent, None)
            if post is not None:
                hook_start = clock()
                info = post(tracer, fn, args, kwargs, result)
                spans[sid] = (qualname, start, end, parent, info)
                spans.append((HOOK, hook_start, clock(), parent, None))
            return result

        return wrapper

    # -- segments ----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; two marks delimit a `segment`."""
        return len(self.spans)


def _package_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE
                                   or name.startswith(PACKAGE + ".")):
            yield module


# --------------------------------------------------------------------------
# post-call hooks: small facts about a call, stored as the span's info
# --------------------------------------------------------------------------

def _enum_info(tracer, fn, args, kwargs, result):
    qualname = "models." + fn.__name__
    misses = fn.cache_info().misses
    missed = misses > tracer._last_misses[qualname]
    tracer._last_misses[qualname] = misses
    return {"modes": int(result.count), "miss": missed}


def _torus_batch_info(tracer, fn, args, kwargs, result):
    bound = _bind(fn, args, kwargs)
    diffs = np.asarray(bound["diffs"])
    key = _rows_key(bound["model"], bound["window"], diffs)
    unique = tracer._unique_rows.get(key[-1])
    if unique is None:
        unique = int(np.unique(diffs, axis=0).shape[0])
        tracer._unique_rows[key[-1]] = unique
    orders = tracer._rows_seen.setdefault(key, set())
    repeat = bool(orders) and bound["order"] not in orders
    orders.add(bound["order"])
    return {"rows": int(diffs.shape[0]), "unique": unique, "repeat": repeat}


def _sphere_batch_info(tracer, fn, args, kwargs, result):
    return {"values": int(np.asarray(result).shape[0])}


def _legendre_sum_info(tracer, fn, args, kwargs, result):
    bound = _bind(fn, args, kwargs)
    return {"terms": int(np.size(bound["coeffs"])) * int(np.size(result))}


def _legendre_p_info(tracer, fn, args, kwargs, result):
    return {"terms": int(_bind(fn, args, kwargs)["ell"]) + 1}


def _sweep_info(tracer, fn, args, kwargs, result):
    return {"windows": len(result.lambdas)}


def _loopset_info(tracer, fn, args, kwargs, result):
    bound = _bind(fn, args, kwargs)
    steps = int(round(bound["t_max"] / bound["h"]))
    return {"direction_steps": int(bound["n_directions"]) * steps,
            "energy_drift": float(result.max_energy_drift)}


def _write_info(tracer, fn, args, kwargs, result):
    bound = _bind(fn, args, kwargs)
    # the manifest holds the run's wall time, so its size is not a count
    if Path(bound["path"]).name == "manifest.json":
        return {"bytes": 0}
    return {"bytes": len(bound["text"].encode())}


def _ensemble_info(tracer, fn, args, kwargs, result):
    return {"draws": int(result.coeffs.size)}


_SIGNATURES = {}


def _bind(fn, args, kwargs) -> dict:
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


_POST_HOOKS = {
    "models.torus_modes": _enum_info,
    "models.sphere_clusters": _enum_info,
    "kernels.torus_pair_deriv_batch": _torus_batch_info,
    "kernels.sphere_pair_deriv_batch": _sphere_batch_info,
    "special.legendre_weighted_sum": _legendre_sum_info,
    "special.legendre_p": _legendre_p_info,
    "remainder.remainder_sweep": _sweep_info,
    "loopset.loopset_fraction": _loopset_info,
    "reports.atomic_write_text": _write_info,
    "randomwave.sample_ensemble": _ensemble_info,
}


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

ENUM = ("models.torus_modes", "models.sphere_clusters",
        "models.counting_function")
EXP_MAP = ("models.exp_map", "models.tangent_frame")
LEGENDRE = ("special.legendre_weighted_sum", "special.legendre_p")
BESSEL = ("special.bessel_j_scaled", "special.bessel_j")
LIMIT = ("kernels.limit_kernel_batch", "kernels.limit_kernel",
         "kernels.limit_kernel_closed_form")
WRITES = ("reports.write_csv", "reports.write_jsonl", "reports.write_manifest",
          "reports.atomic_write_text")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, wall: float) -> dict:
    """Per-layer self times, work counts and ratios for one traced segment.

    `spans` is the list of spans recorded in the segment, with parent
    indices relative to its start, and `wall` the segment's wall time.
    Every `_s` metric is a self time, except `config.load_s`, which is the
    whole time spent in load_config.
    """
    own = self_times(spans)
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), t in zip(spans, own):
        self_by_name[name] = self_by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1

    def total(names):
        return sum(self_by_name.get(n, 0.0) for n in names)

    def count(names):
        return sum(calls.get(n, 0) for n in names)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (t for n, t in self_by_name.items() if n.startswith(layer + ".")),
            0.0)
    out["trace.hook_s"] = self_by_name.get(HOOK, 0.0)
    out["bench.self_s"] = wall - sum(own)
    out["trace.wall_s"] = wall

    enum_calls = hits = modes = 0
    torus_rows = torus_unique = torus_repeat = torus_calls = 0
    torus_terms = 0
    sphere_values = fd_points = 0
    legendre_terms = windows = direction_steps = written = draws = 0
    drift = 0.0
    modes_of_child: dict[int, int] = {}
    exp_maps_of_child: dict[int, int] = {}
    for index, (name, start, end, parent, info) in enumerate(spans):
        if name in ("models.torus_modes", "models.sphere_clusters"):
            enum_calls += 1
            if info["miss"]:
                modes += info["modes"]
            else:
                hits += 1
            if parent >= 0:
                modes_of_child[parent] = info["modes"]
        elif name == "models.exp_map" and parent >= 0:
            exp_maps_of_child[parent] = exp_maps_of_child.get(parent, 0) + 1
        elif name in LEGENDRE:
            legendre_terms += info["terms"]
        elif name == "remainder.remainder_sweep":
            windows += info["windows"]
        elif name == "loopset.loopset_fraction":
            direction_steps += info["direction_steps"]
            drift = max(drift, info["energy_drift"])
        elif name == "reports.atomic_write_text":
            written += info["bytes"]
        elif name == "randomwave.sample_ensemble":
            draws += info["draws"]
    for index, (name, start, end, parent, info) in enumerate(spans):
        if name == "kernels.torus_pair_deriv_batch":
            torus_calls += 1
            torus_rows += info["rows"]
            torus_unique += info["unique"]
            torus_repeat += info["repeat"]
            torus_terms += info["rows"] * modes_of_child.get(index, 0)
        elif name == "kernels.sphere_pair_deriv_batch":
            sphere_values += info["values"]
            fd_points += exp_maps_of_child.get(index, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    torus_s = self_by_name.get("kernels.torus_pair_deriv_batch", 0.0)
    integrate_s = total(("loopset.loopset_fraction",
                         "loopset.integrate_geodesic"))
    load_s = sum(end - start for name, start, end, _, _ in spans
                 if name == "config.load_config")
    out.update({
        "models.enum_s": total(ENUM),
        "models.modes": modes,
        "models.enum_calls": enum_calls,
        "models.cache_hit_ratio": ratio(hits, enum_calls),
        "models.exp_map_s": total(EXP_MAP),
        "models.exp_map_calls": calls.get("models.exp_map", 0),
        "kernels.sphere_s": self_by_name.get(
            "kernels.sphere_pair_deriv_batch", 0.0),
        # each value needs its two points (x and y), hence the factor 2
        "kernels.fd_points_per_value": ratio(fd_points, 2 * sphere_values),
        "special.legendre_s": total(LEGENDRE),
        "special.legendre_terms": legendre_terms,
        "kernels.torus_s": torus_s,
        "kernels.torus_terms": torus_terms,
        "kernels.torus_terms_per_s": ratio(torus_terms, torus_s),
        "kernels.diff_unique_ratio": ratio(torus_unique, torus_rows),
        "kernels.order_repeat_ratio": ratio(torus_repeat, torus_calls),
        "kernels.limit_s": total(LIMIT),
        "special.quadrature_s": self_by_name.get(
            "special.sphere_quadrature", 0.0),
        "kernels.ball_deriv_s": self_by_name.get(
            "kernels.ball_kernel_deriv", 0.0),
        "kernels.ball_deriv_calls": calls.get("kernels.ball_kernel_deriv", 0),
        "kernels.ball_s": self_by_name.get("kernels.ball_kernel", 0.0),
        "kernels.ball_calls": calls.get("kernels.ball_kernel", 0),
        "special.bessel_s": total(BESSEL),
        "special.bessel_calls": count(BESSEL),
        "remainder.windows": windows,
        "loopset.integrate_s": integrate_s,
        "loopset.direction_steps": direction_steps,
        "loopset.direction_steps_per_s": ratio(direction_steps, integrate_s),
        "loopset.energy_drift": drift,
        "reports.write_s": total(WRITES),
        "reports.bytes": written,
        "config.load_s": load_s,
        "randomwave.draws": draws,
    })
    return out


def segment(spans, first: int, last: int) -> list:
    """Spans[first:last] with parent indices made relative to `first`.

    A parent outside the segment (the benchmark's own frame) becomes -1.
    """
    out = []
    for name, start, end, parent, info in spans[first:last]:
        parent = parent - first if parent >= first else -1
        out.append((name, start, end, parent, info))
    return out
