"""Config file loading.

Configs are YAML mappings that mirror SimConfig, with ``mode`` setting the
frame's data fill: nested sections for the grid, the channel statistics, the
frame layout and the sparse solver, plus top-level sweep controls. Unknown
keys anywhere are an error so typos cannot silently fall back to defaults.
CDCE_BASE_SEED in the environment, when set, overrides the file's seed.
"""

from __future__ import annotations

import os

import yaml

from .channel import ChannelStats, Pulse
from .estimator import LassoConfig
from .grids import Dims
from .harness import ESTIMATOR_NAMES, SimConfig
from .pilots import FrameSpec, Lattice

__all__ = ["ConfigError", "load_config", "ENV_BASE_SEED"]

ENV_BASE_SEED = "CDCE_BASE_SEED"

_TOP_KEYS = {
    "dims", "stats", "frame", "lasso",
    "snr_grid_db", "trials", "mode", "estimators",
    "cov_samples", "base_seed", "pulse",
}
_DIMS_KEYS = {"m", "n", "cp_len"}
_STATS_KEYS = {"n_paths", "l_max", "k_max", "gain_variance"}
_FRAME_KEYS = {
    "freq_spacing", "time_spacing", "freq_offset", "time_offset",
    "sequence", "sequence_param", "pilot_power", "placement",
}
_LASSO_KEYS = {"lambda", "tol", "max_iter"}


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or fails validation."""


def _check_keys(section: dict, allowed: set, where: str) -> None:
    extra = set(section) - allowed
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in {where}")


def _section(raw: dict, name: str, allowed: set) -> dict:
    value = raw.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping, got {type(value).__name__}")
    _check_keys(value, allowed, f"section {name!r}")
    return value


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def load_config(path: str, env: dict | None = None) -> SimConfig:
    """Parse a YAML config into a SimConfig, rejecting unknown keys."""
    if env is None:
        env = dict(os.environ)
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at the top level")
    _check_keys(raw, _TOP_KEYS, "the top level")

    dims_raw = _section(raw, "dims", _DIMS_KEYS)
    try:
        dims = Dims(
            m=_as_int(dims_raw.get("m", 8), "dims.m"),
            n=_as_int(dims_raw.get("n", 14), "dims.n"),
            cp_len=_as_int(dims_raw.get("cp_len", 2), "dims.cp_len"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid dims section in {path}: {exc}") from exc

    stats_raw = _section(raw, "stats", _STATS_KEYS)
    gain_variance = stats_raw.get("gain_variance")
    try:
        stats = ChannelStats(
            n_paths=_as_int(stats_raw.get("n_paths", 3), "stats.n_paths"),
            l_max=_as_int(stats_raw.get("l_max", 2), "stats.l_max"),
            k_max=_as_int(stats_raw.get("k_max", 3), "stats.k_max"),
            gain_variance=(
                None if gain_variance is None
                else _as_float(gain_variance, "stats.gain_variance")
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid stats section in {path}: {exc}") from exc

    mode = _as_str(raw.get("mode", "pilot_only"), "mode")
    if mode not in ("pilot_only", "with_data"):
        raise ConfigError(f"mode must be pilot_only or with_data, got {mode!r}")

    frame_raw = _section(raw, "frame", _FRAME_KEYS)
    sequence_param = frame_raw.get("sequence_param")
    try:
        frame = FrameSpec(
            dims=dims,
            lattice=Lattice(
                freq_spacing=_as_int(frame_raw.get("freq_spacing", 2), "frame.freq_spacing"),
                time_spacing=_as_int(frame_raw.get("time_spacing", 1), "frame.time_spacing"),
                freq_offset=_as_int(frame_raw.get("freq_offset", 0), "frame.freq_offset"),
                time_offset=_as_int(frame_raw.get("time_offset", 0), "frame.time_offset"),
            ),
            sequence_kind=_as_str(frame_raw.get("sequence", "all_ones"), "frame.sequence"),
            sequence_param=(
                None if sequence_param is None
                else _as_int(sequence_param, "frame.sequence_param")
            ),
            pilot_power=_as_float(frame_raw.get("pilot_power", 1.0), "frame.pilot_power"),
            data_mode="none" if mode == "pilot_only" else "qpsk",
            placement=_as_str(frame_raw.get("placement", "lattice"), "frame.placement"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid frame section in {path}: {exc}") from exc

    lasso_raw = _section(raw, "lasso", _LASSO_KEYS)
    try:
        lasso = LassoConfig(
            lam=_as_float(lasso_raw.get("lambda", 0.01), "lasso.lambda"),
            tol=_as_float(lasso_raw.get("tol", 1e-6), "lasso.tol"),
            max_iter=_as_int(lasso_raw.get("max_iter", 1000), "lasso.max_iter"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid lasso section in {path}: {exc}") from exc

    snr_raw = raw.get("snr_grid_db", [0.0, 5.0, 10.0, 15.0, 20.0])
    if not isinstance(snr_raw, (list, tuple)) or not snr_raw:
        raise ConfigError("snr_grid_db must be a non-empty list of numbers")
    snr_grid = tuple(_as_float(x, "snr_grid_db entry") for x in snr_raw)

    estimators_raw = raw.get("estimators", list(ESTIMATOR_NAMES))
    if not isinstance(estimators_raw, (list, tuple)) or not estimators_raw:
        raise ConfigError("estimators must be a non-empty list of names")
    estimators = tuple(_as_str(x, "estimators entry") for x in estimators_raw)

    pulse_kind = _as_str(raw.get("pulse", "ideal"), "pulse")

    base_seed = _as_int(raw.get("base_seed", 0), "base_seed")
    if ENV_BASE_SEED in env:
        try:
            base_seed = int(env[ENV_BASE_SEED])
        except ValueError as exc:
            raise ConfigError(
                f"{ENV_BASE_SEED} must be an integer, got {env[ENV_BASE_SEED]!r}"
            ) from exc

    try:
        return SimConfig(
            dims=dims,
            stats=stats,
            frame=frame,
            snr_grid_db=snr_grid,
            trials=_as_int(raw.get("trials", 500), "trials"),
            estimators=estimators,
            lasso=lasso,
            cov_samples=_as_int(raw.get("cov_samples", 1000), "cov_samples"),
            base_seed=base_seed,
            pulse=Pulse(pulse_kind),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
