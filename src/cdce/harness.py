"""Monte Carlo simulation harness.

Every trial is keyed by (base_seed, SNR point, trial index) so results are
reproducible run to run and, within one trial, every estimator is evaluated
against the identical received frame. NMSE is averaged in the linear domain
across trials and converted to dB at the end.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field, asdict

import numpy as np
import numpy.random  # numpy loads it lazily; load it with cdce, not in the first trial

from .baselines import (
    CovarianceModel,
    fit_covariance,
    fs_lmmse,
    st_lmmse,
    st_ls,
    tf_lasso,
    tf_lasso_gains,
)
from .channel import ChannelStats, Pulse, effective_tf_channel, sample_channel, time_channel_matrix, apply_channel
from .estimator import LassoConfig, cdce_estimate
from .grids import Dims, remove_cp, tf_to_time, time_to_tf, vec
from .pilots import FrameSpec, assemble_frame

__all__ = [
    "ESTIMATOR_NAMES",
    "SimConfig",
    "ResultRow",
    "ratio_db",
    "nmse_db",
    "run_trial",
    "run_sweep",
    "emit",
]

ESTIMATOR_NAMES = ("cdce", "fs_lmmse", "st_ls", "st_lmmse", "tf_lasso")

NMSE_FLOOR_DB = -200.0

_COV_SEED_TAG = 0x636F76

# Trials per batched tf_lasso solve in run_sweep. Per solve on the 8 x 14
# lattice dictionary, the batched loop ran 2.5x as fast as one-by-one solves
# at 16 rows, 3.2x at 32 and 3.9x at 64 (one BLAS thread, x86-64). A chunk
# holds only its received vectors and their solutions: a few KiB per trial.
LASSO_BATCH = 32

# The largest noise variance simulated: noise of this variance squares to at
# most the largest float, so every NMSE stays finite. MIN_SNR_DB is its SNR.
MAX_N0 = math.sqrt(sys.float_info.max)
MIN_SNR_DB = -10.0 * math.log10(MAX_N0)

# glibc serves each block above its mmap threshold (128 KiB at start) with a
# fresh mapping, faulted in page by page, and unmaps it on free. Freeing a
# mapped block raises the threshold to its size, so the larger temporaries
# (G and CDCE's correlation operator; H_TF is now small bands) stay on the
# heap once one was freed. Freeing this 4 MiB block does so before the first
# trial. Other allocators ignore it.
np.empty(4 << 20, dtype=np.uint8)


@dataclass(frozen=True)
class SimConfig:
    dims: Dims
    stats: ChannelStats
    frame: FrameSpec
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 500
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    lasso: LassoConfig = field(default_factory=LassoConfig)
    cov_samples: int = 1000
    base_seed: int = 0
    pulse: Pulse = field(default_factory=lambda: Pulse("ideal"))

    def __post_init__(self) -> None:
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must not be empty")
        for i, snr_db in enumerate(self.snr_grid_db):
            _check_snr(snr_db)
            twins = [s for s in self.snr_grid_db[:i] if _snr_key(s) == _snr_key(snr_db)]
            if twins:
                raise ValueError(f"SNR points {twins[0]!r} and {snr_db!r} dB share a seed key: identical trials")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not self.estimators:
            raise ValueError("estimators must not be empty")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if unknown:
            raise ValueError(f"unknown estimators {unknown}, choose from {ESTIMATOR_NAMES}")
        repeated = sorted({e for e in self.estimators if self.estimators.count(e) > 1})
        if repeated:
            raise ValueError(f"estimators {repeated} are listed more than once")
        if self.cov_samples < 2:
            raise ValueError(f"cov_samples must be at least 2, got {self.cov_samples}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        stats, dims = self.stats, self.dims
        if stats.l_max > dims.cp_len:
            raise ValueError(f"l_max {stats.l_max} exceeds the CP length {dims.cp_len}")
        if 2 * stats.k_max >= dims.n:
            # on even N, Doppler +N/2 and -N/2 are one DD column
            raise ValueError(
                f"k_max {stats.k_max} must stay below half the Doppler grid (N/2 = {dims.n / 2})"
            )
        if stats.n_paths > stats.region_size:
            raise ValueError(
                f"cannot draw {stats.n_paths} distinct paths from a region of {stats.region_size} bins"
            )


@dataclass(frozen=True)
class ResultRow:
    estimator: str
    snr_db: float
    trials: int
    nmse_db: float
    stderr_db: float


def ratio_db(ratio: float) -> float:
    """A non-negative power ratio in dB, floored at NMSE_FLOOR_DB."""
    if ratio == 0:
        return NMSE_FLOOR_DB
    return max(10.0 * math.log10(ratio), NMSE_FLOOR_DB)


def nmse_db(h_hat: np.ndarray, h_true: np.ndarray) -> float:
    """Normalized squared error in dB, floored at -200 dB."""
    denom = float(np.sum(np.abs(h_true) ** 2))
    if denom == 0:
        raise ValueError("the true channel is identically zero")
    return ratio_db(float(np.sum(np.abs(np.asarray(h_hat) - h_true) ** 2)) / denom)


def _check_snr(snr_db: float) -> float:
    """The per-sample noise variance of a finite SNR in dB, or 0 at +inf
    (noiseless). Rejects any other value, a finite one too large in
    magnitude to form its seed key, and one below MIN_SNR_DB."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"SNR must be finite in dB or +inf (noiseless), got {snr_db}")
    if snr_db < MIN_SNR_DB:
        raise ValueError(
            f"SNR {snr_db} dB is below {MIN_SNR_DB:.2f} dB: its noise variance would "
            f"exceed {MAX_N0:.3g} and overflow the squared errors of an NMSE"
        )
    try:
        _snr_key(snr_db)
    except OverflowError:
        raise ValueError(f"SNR {snr_db} dB is too large in magnitude to simulate") from None
    return 0.0 if snr_db == math.inf else 10.0 ** (-snr_db / 10.0)


def _snr_key(snr_db: float) -> int:
    if snr_db == math.inf:
        return 2**62
    return int(round(snr_db * 1e6)) % 2**63


def _trial_rngs(cfg: SimConfig, snr_db: float, trial_index: int):
    ss = np.random.SeedSequence([cfg.base_seed, _snr_key(snr_db), trial_index])
    return tuple(np.random.default_rng(child) for child in ss.spawn(3))


def fit_config_covariance(cfg: SimConfig) -> CovarianceModel:
    """Fit the channel statistics model with the config's dedicated seed."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed, _COV_SEED_TAG]))
    return fit_covariance(cfg.stats, cfg.dims, cfg.cov_samples, rng, pulse=cfg.pulse)


def _received(cfg: SimConfig, snr_db: float, trial_index: int, n0: float):
    """One trial's keyed transmit chain: the channel realization, whose atom
    sum is the truth, the frame, and the received TF grid at noise variance n0."""
    channel_rng, frame_rng, noise_rng = _trial_rngs(cfg, snr_db, trial_index)
    ch = sample_channel(cfg.stats, cfg.dims, channel_rng)
    g = time_channel_matrix(ch, cfg.pulse)
    frame = assemble_frame(cfg.frame, frame_rng)
    s = tf_to_time(frame.tf, cfg.dims, with_cp=True)
    r = apply_channel(s, g, n0, noise_rng)
    return ch, frame, time_to_tf(remove_cp(r, cfg.dims), cfg.dims)


def run_trial(
    cfg: SimConfig,
    snr_db: float,
    trial_index: int,
    cov: CovarianceModel | None = None,
    lasso_gains: np.ndarray | None = None,
) -> dict[str, float]:
    """One paired trial: returns the linear NMSE of every configured
    estimator against the same received frame, scored on the symbol-block
    bands (see ``effective_tf_channel``) of the truth and every estimate.

    ``lasso_gains``, when given, must be this trial's ``tf_lasso_gains``;
    tf_lasso then reconstructs them instead of solving."""
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index}")
    n0 = _check_snr(snr_db)
    if cov is None and "fs_lmmse" in cfg.estimators:
        cov = fit_config_covariance(cfg)
    ch, frame, y_tf = _received(cfg, snr_db, trial_index, n0)
    h_true = effective_tf_channel(ch, cfg.pulse)
    denom = float(np.sum(np.abs(h_true) ** 2))
    out: dict[str, float] = {}
    st_ls_hat = None
    for name in cfg.estimators:
        if name == "cdce":
            h_hat = cdce_estimate(y_tf, frame, cfg.stats, n0, lasso=cfg.lasso, pulse=cfg.pulse).h_tf_hat
        elif name == "fs_lmmse":
            h_hat = fs_lmmse(y_tf, frame, cov, n0)
        elif name in ("st_ls", "st_lmmse"):
            # ST-LMMSE scales the ST-LS estimate, which is interpolated once
            if st_ls_hat is None:
                st_ls_hat = st_ls(y_tf, frame)
            snr = math.inf if n0 == 0 else 1.0 / n0
            h_hat = st_ls_hat if name == "st_ls" else st_lmmse(st_ls_hat, snr)
        else:
            h_hat = tf_lasso(y_tf, frame, cfg.lasso, cfg.pulse, gains=lasso_gains)
        out[name] = float(np.sum(np.abs(h_hat - h_true) ** 2)) / denom
    return out


def _solved_ahead(cfg: SimConfig, snr_db: float, trials: range) -> np.ndarray:
    """The tf_lasso gains of ``trials``, row i for trials[i], from one
    batched solve of their received vectors against the last trial's frame:
    on a lattice every trial's frame has the same pilot-only grid."""
    n0 = _check_snr(snr_db)
    ys = []
    for t in trials:
        _, frame, y_tf = _received(cfg, snr_db, t, n0)
        ys.append(vec(y_tf))
    return tf_lasso_gains(np.stack(ys), frame, cfg.lasso, cfg.pulse)


def run_sweep(cfg: SimConfig, cov: CovarianceModel | None = None) -> list[ResultRow]:
    """Sweep the SNR grid, averaging linear NMSE over trials per estimator.

    The covariance model is fitted once up front when any estimator needs it.
    The standard error is propagated to dB with the delta method.

    On a pilot lattice every trial's tf_lasso problem shares one dictionary,
    so each SNR point is cut into chunks of LASSO_BATCH trials: the chunk's
    received grids are simulated ahead and their tf_lasso problems solved in
    one batched call, and each trial's row of gains is passed to run_trial.
    run_trial still runs the trial's whole transmit chain, so the chain runs
    twice per trial. Every row equals, bit for bit, the one a trial-by-trial
    sweep gives.
    """
    if cov is None and "fs_lmmse" in cfg.estimators:
        cov = fit_config_covariance(cfg)
    batched = "tf_lasso" in cfg.estimators and cfg.frame.placement == "lattice"
    chunk = LASSO_BATCH if batched else cfg.trials
    rows: list[ResultRow] = []
    for snr_db in cfg.snr_grid_db:
        ratios = {name: np.empty(cfg.trials) for name in cfg.estimators}
        for start in range(0, cfg.trials, chunk):
            trials = range(start, min(start + chunk, cfg.trials))
            gains = _solved_ahead(cfg, snr_db, trials) if batched else [None] * len(trials)
            for t, h in zip(trials, gains):
                result = run_trial(cfg, snr_db, t, cov=cov, lasso_gains=h)
                for name, value in result.items():
                    ratios[name][t] = value
        for name in cfg.estimators:
            samples = ratios[name]
            mean_lin = float(samples.mean())
            if cfg.trials > 1 and mean_lin > 0:
                se_lin = float(samples.std(ddof=1)) / math.sqrt(cfg.trials)
                stderr = (10.0 / math.log(10.0)) * se_lin / mean_lin
            else:
                stderr = 0.0
            rows.append(ResultRow(
                estimator=name,
                snr_db=float(snr_db),
                trials=cfg.trials,
                nmse_db=ratio_db(mean_lin),
                stderr_db=stderr,
            ))
    rows.sort(key=lambda r: (r.estimator, r.snr_db))
    return rows


def emit(rows: list[ResultRow], path: str, fmt: str = "csv") -> None:
    """Write sweep rows to disk as CSV or JSON.

    An empty row list still produces a valid file (header only for CSV, an
    empty array for JSON).
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}, choose csv or json")
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["estimator", "snr_db", "trials", "nmse_db", "stderr_db"])
                for row in rows:
                    writer.writerow([
                        row.estimator,
                        f"{row.snr_db:g}",
                        row.trials,
                        f"{row.nmse_db:.6f}",
                        f"{row.stderr_db:.6f}",
                    ])
        else:
            with open(path, "w") as fh:
                json.dump([asdict(row) for row in rows], fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
