"""Config file loading.

Configs are YAML mappings that mirror SimConfig: sections for the grid, the
channel statistics, the frame layout and the sparse solver, top-level sweep
controls, and ``mode`` for the frame's data fill, which FrameSpec.data_mode
takes as spelled. One table per section maps each YAML key to its dataclass
field and parser; an absent key keeps its dataclass default. Unknown and
repeated keys are errors, so a typo cannot fall back silently.
CDCE_BASE_SEED in the environment overrides the seed.
"""

from __future__ import annotations

import os

import yaml

from .channel import ChannelStats
from .estimator import LassoConfig
from .grids import Dims
from .harness import SimConfig
from .pilots import FrameSpec

__all__ = ["ConfigError", "load_config", "ENV_BASE_SEED"]

ENV_BASE_SEED = "CDCE_BASE_SEED"


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or fails validation."""


class _UniqueKeyLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """Safe loader, libyaml's where PyYAML was built with it, that refuses a
    key given twice in one mapping (``<<`` merges aside)."""

    def construct_mapping(self, node, deep=False):
        keys = []
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node, deep=deep)
                if key in keys:
                    mark = key_node.start_mark
                    raise ConfigError(f"repeated key {key!r} in {mark.name}, line {mark.line + 1}")
                keys.append(key)
        return super().construct_mapping(node, deep)


def _typed(types, noun: str, convert=None):
    def parse(value, where: str):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{where} must be {noun}, got {value!r}")
        return value if convert is None else convert(value)

    return parse


_int = _typed(int, "an integer")
_float = _typed((int, float), "a number", float)
_str = _typed(str, "a string")


def _nonempty_list(parse, noun: str):
    def parse_list(value, where: str) -> tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{where} must be a non-empty list of {noun}")
        return tuple(parse(x, f"{where} entry") for x in value)

    return parse_list


def _same(parse, *keys: str) -> dict:
    return {key: (key, parse) for key in keys}


# YAML key -> (dataclass field, parser), one table per section.
_DIMS = _same(_int, "m", "n", "cp_len")
_STATS = _same(_int, "n_paths", "l_max", "k_max")
_FRAME = {
    **_same(_int, "freq_spacing", "time_spacing"),
    "sequence": ("sequence_kind", _str),
    "pilot_power": ("pilot_power", _float),
    "placement": ("placement", _str),
}
_LASSO = {"lambda": ("lam", _float), "tol": ("tol", _float), "max_iter": ("max_iter", _int)}
_MODE = {"mode": ("data_mode", _str)}
_TOP = {
    "snr_grid_db": ("snr_grid_db", _nonempty_list(_float, "numbers")),
    "estimators": ("estimators", _nonempty_list(_str, "names")),
    **_same(_int, "trials", "cov_samples", "base_seed"),
}
_SECTIONS = {"dims": _DIMS, "stats": _STATS, "frame": _FRAME, "lasso": _LASSO}


def _check_keys(section: dict, allowed, where: str) -> None:
    extra = set(section) - set(allowed)
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in {where}")


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping, got {type(value).__name__}")
    _check_keys(value, _SECTIONS[name], f"section {name!r}")
    return value


def _fields(raw: dict, table: dict, where: str) -> dict:
    """The fields that the keys present in ``raw`` set, parsed."""
    return {field: parse(raw[key], where + key) for key, (field, parse) in table.items() if key in raw}


def _build(cls, what: str, raw: dict, table: dict, where: str, **given):
    """``cls`` from the present keys of ``raw`` and the ``given`` fields,
    which win; any ValueError becomes a ConfigError naming ``what``."""
    try:
        return cls(**{**_fields(raw, table, where), **given})
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def load_config(path: str, env: dict | None = None) -> SimConfig:
    """Parse a YAML config into a SimConfig, rejecting unknown and repeated keys."""
    if env is None:
        env = dict(os.environ)
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at the top level")
    _check_keys(raw, _SECTIONS.keys() | _TOP.keys() | _MODE.keys(), "the top level")

    dims = _build(Dims, f"dims section in {path}", _section(raw, "dims"), _DIMS, "dims.")
    stats = _build(ChannelStats, f"stats section in {path}", _section(raw, "stats"), _STATS, "stats.")
    frame = _build(FrameSpec, f"frame section in {path}", _section(raw, "frame"), _FRAME, "frame.",
                   dims=dims, **_fields(raw, _MODE, ""))
    lasso = _build(LassoConfig, f"lasso section in {path}", _section(raw, "lasso"), _LASSO, "lasso.")

    seed = {}
    if ENV_BASE_SEED in env:
        try:
            seed["base_seed"] = int(env[ENV_BASE_SEED])
        except ValueError as exc:
            raise ConfigError(f"{ENV_BASE_SEED} must be an integer, got {env[ENV_BASE_SEED]!r}") from exc
    return _build(SimConfig, f"config {path}", raw, _TOP, "",
                  dims=dims, stats=stats, frame=frame, lasso=lasso, **seed)
