"""The run settings, each written once: type, default and allowed values.
``load_run_config`` checks every value from every source against them. Rules
an engine function enforces with ``ConfigError`` (absorption, window and hop,
vicinity percentile, dataset size) stay there. Imports no training code.
"""

from __future__ import annotations

import json
import numbers
import operator
import types
from typing import NamedTuple, get_args, get_origin

from .dsp import HOP, SAMPLE_RATE, WINDOW
from .errors import ConfigError


class Setting(NamedTuple):
    """``kind`` is int, float, str, bool, a list of one or a union; ``bounds``
    are comparisons like ">= 1". A None default also allows None."""

    kind: object
    default: object
    choices: tuple = ()
    bounds: tuple = ()
    length: int | None = None


SETTINGS = {
    "mode": Setting(str, "binaural", choices=("binaural", "rir")),
    "seed": Setting(int, 0, bounds=(">= 0",)),
    "out": Setting(str, None),
    "dataset": Setting(str, None),
    "point_cloud": Setting(str, None),
    "checkpoint": Setting(str, None),
    "resume": Setting(str, None),
    "split": Setting(str, "val", choices=("train", "val")),
    # training
    "iterations": Setting(int, 2000, bounds=(">= 1",)),
    "lambda_a": Setting(float, 0.01, bounds=(">= 0", "<= 1")),
    "lr_alpha": Setting(float, 1.6e-4, bounds=("> 0",)),
    "lr_nets": Setting(float, 5e-4, bounds=("> 0",)),
    # the point-management cadence: prune, then densify (0: neither)
    "densify_interval": Setting(int, 500, bounds=(">= 0",)),
    "densify_threshold": Setting(float, 0.0004, bounds=("> 0",)),
    "vicinity_percentile": Setting(float, 15.0),
    "eval_interval": Setting(int, 200, bounds=(">= 1",)),
    "window": Setting(int, WINDOW),
    "hop": Setting(int, HOP),
    "rir_time_batch": Setting(int, 1024, bounds=(">= 1",)),
    "init_points": Setting(int, 512),
    "alpha_init": Setting(list[str], ["SH", "R"]),
    # data generation
    "room": Setting(list[float], [6.0, 4.0, 3.0], length=3),
    "absorption": Setting(float | list[float], 0.3),
    "max_order": Setting(int, 3),
    "n_samples": Setting(int, 100),
    "signal": Setting(str, "pink", choices=("pink", "sweep")),
    "sample_rate": Setting(int, SAMPLE_RATE, bounds=(">= 1",)),
    "duration": Setting(float, 1.0, bounds=("> 0",)),
    "ir_duration": Setting(float, 0.5),
    "source": Setting(list[float], None, length=3),
    "with_rir": Setting(bool, None),
    "min_source_distance": Setting(float, 1.2),
    # render
    "pose": Setting(str, None),
    "mono": Setting(str, None),
    # bench / ablate
    "n_renders": Setting(int, 100, bounds=(">= 10",)),
    "axis": Setting(str, None, choices=("alpha_init", "vicinity")),
    "ablate_iterations": Setting(int, None, bounds=(">= 1",)),
}

_NOUNS = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
          list[str]: "a list of strings", list[float]: "a list of numbers",
          float | list[float]: "a number or a list of numbers"}
_BASES = {int: numbers.Integral, float: numbers.Real}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _typed(value, kind):
    """``value`` as ``kind``, or ValueError; an int is a number, a bool is not."""
    if isinstance(kind, types.UnionType):
        for option in get_args(kind):
            try:
                return _typed(value, option)
            except ValueError:
                pass
    elif get_origin(kind) is list:
        if isinstance(value, list):
            return [_typed(item, get_args(kind)[0]) for item in value]
    elif isinstance(value, bool) == (kind is bool) and isinstance(value, _BASES.get(kind, kind)):
        return kind(value)
    raise ValueError(value)


def check(key, value):
    """``value`` as the type of the setting ``key``; raises ConfigError
    naming the key when the table does not allow it."""
    s = SETTINGS[key]
    if value is None and s.default is None:
        return None
    try:
        typed = _typed(value, s.kind)
        if ((not s.choices or typed in s.choices) and (not s.length or len(typed) == s.length)
                and all(_COMPARE[op](typed, float(n)) for op, n in map(str.split, s.bounds))):
            return typed
    except ValueError:
        pass
    rules = " and ".join([*s.bounds] + ([f"of length {s.length}"] if s.length else []))
    wanted = (f"one of {', '.join(map(repr, s.choices))}" if s.choices
              else f"{_NOUNS[s.kind]} {rules}".rstrip())
    raise ConfigError(f"{key}: expected {wanted}, got {value!r}")


def load_run_config(path=None, overrides=None):
    """Defaults, then the config file, then the overrides (flags) that are
    not None; unknown keys are rejected and every value is checked."""
    cfg = {key: setting.default for key, setting in SETTINGS.items()}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = sorted(set(loaded) - set(SETTINGS))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
        cfg.update(loaded)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key: {key}")
        cfg[key] = value
    return {key: check(key, value) for key, value in cfg.items()}
