"""Run configuration: JSON parsing with strict key checking, eager validation.

Every block is validated (grid built, parameter/option objects constructed)
before any output file is created, so an invalid config can never leave
partial results behind.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path

from .continuation import ContinuationOptions
from .errors import ConfigError
from .geometry import Grid, build_grid
from .model import ModelParams
from .timestepping import TimeOptions

DEFAULT_REFUGE_BOX = (0.375, 0.375, 0.625, 0.625)
DEFAULT_MU_MIN = 1e-3

_TOP_KEYS = {"geometry", "params", "newton", "continuation", "time", "output"}
# option fields read under another config key
_RENAMED = {"lam": "lambda", "u": "initial_u", "v": "initial_v"}


@dataclass(frozen=True)
class InitialData:
    """Constant initial fields for simulation runs (v is masked to the exterior)."""

    u: float = 0.5
    v: float = 0.1

    def __post_init__(self):
        for key, value in (("initial_u", self.u), ("initial_v", self.v)):
            if not value >= 0.0:
                raise ConfigError(f"'time.{key}' must be non-negative, got {value!r}")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    emit_svg: bool = True
    snapshot_every: int = 50

    def __post_init__(self):
        if not self.snapshot_every >= 1:
            raise ConfigError("'output.snapshot_every' must be at least 1")


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    params: ModelParams
    continuation: ContinuationOptions
    mu_min: float
    time: TimeOptions
    initial: InitialData
    output: OutputConfig


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in '{where}' block")


def _value(raw, default, where: str):
    """``raw`` checked to be of the type of ``default``, converted to it.

    Integers must be integral, booleans JSON booleans and numbers finite;
    nothing is coerced.
    """
    kind = type(default)
    if issubclass(kind, Enum):
        try:
            return kind(raw)
        except ValueError:
            choices = " or ".join(repr(e.value) for e in kind)
            raise ConfigError(f"'{where}' must be {choices}, got {raw!r}") from None
    if kind in (bool, str):
        if type(raw) is not kind:
            name = "boolean" if kind is bool else "string"
            raise ConfigError(f"'{where}' must be a {name}, got {raw!r}")
        return raw
    if (
        isinstance(raw, bool)
        or not isinstance(raw, (int, float))
        or not abs(raw) <= sys.float_info.max
    ):
        raise ConfigError(f"'{where}' must be a finite number, got {raw!r}")
    if kind is int and raw != int(raw):
        raise ConfigError(f"'{where}' must be an integer, got {raw!r}")
    return kind(raw)


def _read(block: dict, where: str, defaults: dict) -> dict:
    """Override ``defaults`` (name -> option dataclass or plain value) from one block.

    A plain value is read under its name, a dataclass's scalar fields under
    theirs or their ``_RENAMED`` key.  Each default fixes the type its value
    must have.
    """
    slots = {}  # config key -> (defaults name, field name or None, default)
    for name, default in defaults.items():
        if not is_dataclass(default):
            slots[name] = (name, None, default)
            continue
        for f in fields(default):
            value = getattr(default, f.name)
            if isinstance(value, (int, float, str, Enum)):
                slots[_RENAMED.get(f.name, f.name)] = (name, f.name, value)
    _check_keys(block, set(slots), where)
    changes = {name: {} for name in defaults}
    for key, raw in block.items():
        name, attr, default = slots[key]
        changes[name][attr] = _value(raw, default, f"{where}.{key}")
    return {
        name: replace(default, **changes[name])
        if is_dataclass(default)
        else changes[name].get(None, default)
        for name, default in defaults.items()
    }


def _geometry(block: dict) -> Grid:
    _check_keys(block, {"n", "n_x", "n_y", "domain_length", "refuge_box"}, "geometry")
    if "n" in block and ("n_x" in block or "n_y" in block):
        raise ConfigError("'geometry' takes either 'n' or 'n_x'/'n_y', not both")
    n = _value(block.get("n", 64), 0, "geometry.n")
    n_x = _value(block.get("n_x", n), 0, "geometry.n_x")
    n_y = _value(block.get("n_y", n_x), 0, "geometry.n_y")
    length = block.get("domain_length", 1.0)
    if not isinstance(length, (list, tuple)):
        length = (length, length)
    elif len(length) != 2:
        raise ConfigError("'geometry.domain_length' must be a number or a pair")
    length = tuple(_value(c, 0.0, "geometry.domain_length") for c in length)
    box = block.get("refuge_box", DEFAULT_REFUGE_BOX)
    if box is not None:
        if not (isinstance(box, (list, tuple)) and len(box) == 4):
            raise ConfigError("'geometry.refuge_box' must be null or [x0, y0, x1, y1]")
        box = tuple(_value(c, 0.0, "geometry.refuge_box") for c in box)
    return build_grid(n_x, n_y, domain_length=length, refuge_box=box)


def parse_config(data: dict) -> RunConfig:
    """Validate a config mapping and build every referenced object eagerly."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(data, _TOP_KEYS, "top-level")
    for name in _TOP_KEYS:
        if name in data and not isinstance(data[name], dict):
            raise ConfigError(f"'{name}' block must be a JSON object")
    grid = _geometry(data.get("geometry", {}))
    # block -> the RunConfig fields it sets, with their defaults
    blocks = {
        "params": {"params": ModelParams(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)},
        # the newton block tunes the continuation corrector, over its defaults
        "newton": {"newton": ContinuationOptions().corrector},
        "continuation": {"continuation": ContinuationOptions(), "mu_min": DEFAULT_MU_MIN},
        "time": {"time": TimeOptions(), "initial": InitialData()},
        "output": {"output": OutputConfig()},
    }
    opts = {}
    for where, defaults in blocks.items():
        opts.update(_read(data.get(where, {}), where, defaults))
    opts["continuation"] = replace(opts["continuation"], corrector=opts.pop("newton"))
    return RunConfig(grid=grid, **opts)


def load_config(path: str | Path | None) -> RunConfig:
    """Load and validate a JSON config file; None gives the built-in defaults."""
    if path is None:
        return parse_config({})
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
