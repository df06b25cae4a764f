"""Experiment configuration: INI-style files, one experiment per file.

Each config file has exactly one section whose name is the experiment kind
(kernel, scaling, remainder, randomwave, loopset).  One key table per kind
drives both `load_config` and `config_as_text`.  Unknown keys are a hard
error, floats must be finite, and every parameter is validated before any
computation starts.  Frequency budgets are enforced here as well so
oversized requests fail fast with a budget status rather than a
validation status.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple, Union

from .models import (
    MAX_FREQUENCY,
    BudgetError,
    Model,
    SphereModel,
    SpectralWindow,
    TorusModel,
    tangent_norm,
)
from .loopset import SurfaceSpec


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


_MODEL_NAMES = ("torus2", "torus3", "sphere2")


def parse_model(name: str) -> Model:
    if name == "torus2":
        return TorusModel(n=2)
    if name == "torus3":
        return TorusModel(n=3)
    if name == "sphere2":
        return SphereModel()
    raise ConfigError(f"model must be one of {_MODEL_NAMES}, got {name!r}")


def parse_multi_index(text: str, dim: int) -> tuple[int, ...]:
    """Colon-separated multi-index, e.g. '1:0' for d/du_1 in dimension 2."""
    parts = text.split(":")
    if len(parts) != dim:
        raise ConfigError(f"multi-index {text!r} needs {dim} entries")
    try:
        entries = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad multi-index {text!r}: {exc}") from None
    if any(e < 0 for e in entries):
        raise ConfigError(f"multi-index entries must be >= 0, got {text!r}")
    return entries


def format_multi_index(entries) -> str:
    return ":".join(str(int(e)) for e in entries)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite float")
    return value


def _boolean(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"{text!r} is not a boolean")
    return word in ("1", "true", "yes", "on")


class _Codec(NamedTuple):
    """How one value type is read from and written to INI text."""

    parse: Callable[[str], Any]
    render: Callable[[Any], str]


_STR = _Codec(str, str)
_INT = _Codec(int, str)
_FLOAT = _Codec(_finite, repr)
_FLOATS = _Codec(lambda text: tuple(_finite(p) for p in text.split(",")),
                 lambda values: ",".join(map(repr, values)))
# any length here: the length is checked against the model across keys
_MULTI_INDEX = _Codec(
    lambda text: parse_multi_index(text, text.count(":") + 1),
    format_multi_index)
_BOOL = _Codec(_boolean, lambda flag: "true" if flag else "false")
_MODEL = _Codec(parse_model, lambda model: model.model_id)


class _Key(NamedTuple):
    """One row of a kind's key table."""

    name: str
    codec: _Codec
    default: Any = None    # None: required; a callable reads earlier keys
    ok: Callable[[Any], bool] | None = None    # a check on this key alone
    rule: str = ""         # what `ok` asks, for its error message


def _increasing(lambdas: tuple[float, ...]) -> bool:
    return lambdas[0] > 0 and all(b > a for a, b in zip(lambdas, lambdas[1:]))


# alpha and beta default to no derivative
_ORDERS = tuple(_Key(name, _MULTI_INDEX,
                     lambda values: (0,) * values["model"].dim)
                for name in ("alpha", "beta"))
_WINDOW = (_Key("window_lo", _FLOAT), _Key("window_hi", _FLOAT))
_POINTS = _Key("points_per_axis", _INT, 5, lambda n: n >= 1, "be >= 1")
_SEED = _Key("seed", _INT, 0, lambda n: n >= 0, "be >= 0")


@dataclass(frozen=True)
class KernelConfig:
    model: Model
    window: SpectralWindow
    x0: tuple[float, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    probe_radius: float
    points_per_axis: int


@dataclass(frozen=True)
class ScalingConfig:
    model: Model
    x0: tuple[float, ...]
    lambdas: tuple[float, ...]
    delta: float
    max_j: int
    max_k: int
    probe_radius: float
    points_per_axis: int


@dataclass(frozen=True)
class RemainderConfig:
    model: Model
    x0: tuple[float, ...]
    lambdas: tuple[float, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    probe_radius: float
    points_per_axis: int


@dataclass(frozen=True)
class RandomwaveConfig:
    model: Model
    window: SpectralWindow
    x0: tuple[float, ...]
    samples: int
    probe_radius: float
    points_per_axis: int
    seed: int
    dump_samples: bool


@dataclass(frozen=True)
class LoopsetConfig:
    surface: SurfaceSpec
    x0: tuple[float, float]
    n_directions: int
    t_max: float
    tol: float
    t_min: float
    step: float
    seed: int


ExperimentConfig = Union[KernelConfig, ScalingConfig, RemainderConfig,
                         RandomwaveConfig, LoopsetConfig]

# kind -> (config class, key table); `model` first, as later rows read it
_TABLES = {
    "kernel": (KernelConfig, (
        _Key("model", _MODEL), *_WINDOW, _Key("x0", _FLOATS), *_ORDERS,
        _Key("probe_radius", _FLOAT, 0.5), _POINTS)),
    "scaling": (ScalingConfig, (
        _Key("model", _MODEL), _Key("x0", _FLOATS),
        _Key("lambdas", _FLOATS, None, _increasing,
             "be positive and strictly increasing"),
        _Key("delta", _FLOAT, 1.0, lambda d: d > 0, "be > 0"),
        _Key("max_j", _INT, 1, lambda j: 0 <= j <= 2, "lie in [0, 2]"),
        _Key("max_k", _INT, 1, lambda k: 0 <= k <= 2, "lie in [0, 2]"),
        _Key("probe_radius", _FLOAT, 2.0), _POINTS._replace(default=9))),
    "remainder": (RemainderConfig, (
        _Key("model", _MODEL), _Key("x0", _FLOATS),
        _Key("lambdas", _FLOATS, None,
             lambda lambdas: len(lambdas) >= 4 and _increasing(lambdas),
             "hold >= 4 positive increasing values (for an exponent fit)"),
        *_ORDERS, _Key("probe_radius", _FLOAT, 0.1), _POINTS)),
    "randomwave": (RandomwaveConfig, (
        _Key("model", _MODEL), *_WINDOW, _Key("x0", _FLOATS),
        _Key("samples", _INT, None, lambda n: n >= 2, "be >= 2"),
        _Key("probe_radius", _FLOAT, 0.5), _POINTS, _SEED,
        _Key("dump_samples", _BOOL, False))),
    "loopset": (LoopsetConfig, (
        _Key("surface", _STR), _Key("c", _FLOAT, 1.0),
        _Key("x0", _FLOATS, None, lambda x0: len(x0) == 2,
             "have 2 coordinates"),
        _Key("n_directions", _INT, None, lambda n: n >= 1, "be >= 1"),
        _Key("t_max", _FLOAT),
        _Key("tol", _FLOAT, None, lambda tol: tol > 0, "be > 0"),
        _Key("t_min", _FLOAT, 0.1),
        _Key("step", _FLOAT, 1e-3, lambda h: 0 < h <= 1e-3,
             "lie in (0, 1e-3]"),
        _SEED)),
}

# config fields made of several keys: field -> (type, keys of its fields)
_PARTS = {"window": (SpectralWindow, ("window_lo", "window_hi")),
          "surface": (SurfaceSpec, ("surface", "c"))}

EXPERIMENT_KINDS = tuple(_TABLES)
# the kinds that draw random numbers, the only ones with a seed
SEEDED_KINDS = tuple(kind for kind, (_, keys) in _TABLES.items()
                     if any(key.name == "seed" for key in keys))


def _section_items(path: Path, kind: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    sections = parser.sections()
    if sections != [kind]:
        raise ConfigError(
            f"config must contain exactly one [{kind}] section, got {sections}"
        )
    return dict(parser.items(kind))


def _check_across(kind: str, values: dict) -> None:
    """The checks that read more than one key; each fails on NaN."""
    model = values.get("model")
    if model is not None:
        x0 = values["x0"]
        # sphere points live in ambient R^3; torus points in [0, 2pi)^n
        expected = 3 if isinstance(model, SphereModel) else model.dim
        if len(x0) != expected:
            raise ConfigError(f"x0 needs {expected} coordinates")
        if isinstance(model, SphereModel) and not (
                abs(math.sqrt(sum(c * c for c in x0)) - 1.0) <= 1e-9):
            raise ConfigError("sphere x0 must be a unit vector")
        if not (0.0 < values["probe_radius"] < model.injectivity_radius):
            raise ConfigError("probe_radius must lie in "
                              f"(0, {model.injectivity_radius:g})")
        if kind in ("kernel", "randomwave") and values["points_per_axis"] > 1:
            # the grid's farthest offsets are its corners (+-r, ..., +-r)
            try:
                tangent_norm(model, [values["probe_radius"]] * model.dim)
            except ValueError:
                raise ConfigError(
                    f"probe_radius * sqrt({model.dim}) must lie below "
                    f"{model.injectivity_radius:g}") from None
    if "alpha" in values:
        for name in ("alpha", "beta"):
            if len(values[name]) != model.dim:
                raise ConfigError(f"{name} needs {model.dim} entries")
        if not (sum(values["alpha"]) + sum(values["beta"]) <= 4):
            raise ConfigError("total derivative order above 4 is unsupported")
    if kind == "loopset" and not (values["t_max"] > values["t_min"]):
        raise ConfigError("t_max must exceed t_min")
    if kind in ("kernel", "randomwave"):
        top, what = values["window"].hi, "window_hi"
    elif kind == "scaling":
        top = max(values["lambdas"]) + values["delta"]
        what = "lambda_max+delta"
    elif kind == "remainder":
        top, what = max(values["lambdas"]), "lambda_max"
    else:
        return
    if not (top <= MAX_FREQUENCY):
        raise BudgetError(
            f"{what}={top:g} exceeds the frequency budget {MAX_FREQUENCY:g}")


def load_config(path, kind: str,
                seed_override: int | None = None) -> ExperimentConfig:
    """Parse, validate, and freeze one experiment configuration."""
    if kind not in _TABLES:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    config_class, keys = _TABLES[kind]
    items = _section_items(Path(path), kind)
    if seed_override is not None:
        items["seed"] = str(seed_override)
    values: dict = {}
    for key in keys:
        if key.name in items:
            try:
                values[key.name] = key.codec.parse(items.pop(key.name))
            except ValueError as exc:
                raise ConfigError(f"key {key.name!r}: {exc}") from None
        elif key.default is None:
            raise ConfigError(f"missing required key {key.name!r}")
        else:
            values[key.name] = (key.default(values) if callable(key.default)
                                else key.default)
        if key.ok is not None and not key.ok(values[key.name]):
            raise ConfigError(f"{key.name} must {key.rule}")
    if items:
        raise ConfigError(f"unknown keys: {sorted(items)}")
    for name, (part, names) in _PARTS.items():
        if names[0] in values:
            try:
                values[name] = part(*[values.pop(n) for n in names])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    _check_across(kind, values)
    return config_class(**values)


def config_as_text(kind: str, config: ExperimentConfig) -> str:
    """Render a config back to INI text (manifest round-trips through this)."""
    values = {field.name: getattr(config, field.name)
              for field in fields(config)}
    for name, (_, names) in _PARTS.items():
        if name in values:
            values.update(zip(names, astuple(values.pop(name))))
    lines = [f"[{kind}]"] + [
        f"{key.name} = {key.codec.render(values[key.name])}"
        for key in _TABLES[kind][1]]
    return "\n".join(lines) + "\n"
