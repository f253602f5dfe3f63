"""Monte Carlo simulation harness.

Every trial is keyed by (base_seed, SNR point, trial index) so results are
reproducible run to run and, within one trial, every estimator is evaluated
against the identical received frame. NMSE is averaged in the linear domain
across trials and converted to dB at the end.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field, replace

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
from .channel import ChannelStats, effective_tf_channel, sample_channel, time_channel_matrix, apply_channel
from .estimator import LS_CONDITION_LIMIT, LassoConfig, cached_dictionary, cdce_estimate
from .grids import Dims, remove_cp, tf_to_time, time_to_tf, vec
from .pilots import FrameSpec, assemble_frame

__all__ = [
    "ESTIMATOR_NAMES",
    "SimConfig",
    "ResultRow",
    "ratio_db",
    "run_trial",
    "run_sweep",
    "emit",
]

ESTIMATOR_NAMES = ("cdce", "fs_lmmse", "st_ls", "st_lmmse", "tf_lasso")

NMSE_FLOOR_DB = -200.0

_COV_SEED_TAG = 0x636F76

# Trials per run_sweep chunk, and so per batched tf_lasso solve on a pilot
# lattice. Medians per solve on the 8 x 14 lattice dictionary, whose Gram
# blocks run as real gemms (scripts/time_fista_loops.py --batch 64 96 128,
# one BLAS thread, x86-64, the sizes alternating in each run), for 64 / 96 /
# 128 rows: on 500 solves, an acceptance sweep's trials per SNR point (the
# median of three runs), 0.550 / 0.491 / 0.507 ms on configs/pilot_only.yaml,
# where 96 rows led in every run, and 0.510 / 0.464 / 0.452 ms on
# configs/with_data.yaml; on 384 solves (two runs) 0.55-0.57 / 0.47-0.49 /
# 0.53-0.54 and 0.54-0.55 / 0.49-0.54 / 0.52-0.57 ms. 128 rows led only on
# 100 solves, a sweep no config runs. One-by-one solves of the single-vector
# loop, one matmul of [S | shift] per iteration, took 3.47 ms on
# configs/pilot_only.yaml and 3.43 ms on configs/with_data.yaml (medians of
# 7 rounds of 500 solves, one run per config; the same run read 0.60 and
# 0.57 ms per solve in 96-row chunks). A lattice chunk with tf_lasso holds
# its trials' true bands (28 KiB each at 8 x 14) and received grids, one
# frame, and the solve's (P, K) blocks, about 1.5 MiB at 96 rows.
LASSO_BATCH = 96

# The largest noise variance simulated: noise of this variance squares to at
# most the largest float, so every NMSE stays finite. MIN_SNR_DB is its SNR.
MAX_N0 = math.sqrt(sys.float_info.max)
MIN_SNR_DB = -10.0 * math.log10(MAX_N0)

# glibc serves each block above its mmap threshold (128 KiB at start) with a
# fresh mapping, faulted in page by page, and unmaps it on free. Freeing a
# mapped block raises the threshold to its size (and the heap's trim
# threshold to twice that), so a trial's largest temporary, G (306 KiB at
# 8 x 14), stays on the heap once one was freed. Freeing this 4 MiB block
# does so before the first trial. Other allocators ignore it.
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
        if stats.n_paths < 3:
            # ||h||² of P Gaussian gains is near zero like a Gamma(P) variable
            raise ValueError(
                f"n_paths {stats.n_paths} is below 3: each trial's NMSE divides by ||h||², and "
                f"E[1/||h||²] is finite only from 2 paths and E[1/||h||⁴] only from 3, so below "
                f"3 paths the sweep's stderr_db estimates nothing"
            )
        if stats.l_max > dims.cp_len:
            raise ValueError(f"l_max {stats.l_max} exceeds the CP length {dims.cp_len}")
        stats.check_doppler_grid(dims)
        if self.frame.placement == "uniform_random" and self.frame.n_pilots < stats.region_size:
            raise ValueError(
                f"{self.frame.n_pilots} randomly placed pilots cannot resolve a search region of "
                f"{stats.region_size} bins: a frame needs at least one pilot per region bin"
            )
        if self.frame.placement == "lattice":
            # a lattice's pilot-only frame is fixed, so its region dictionary
            # (the one fs_lmmse solves on, cached here for it) tells at load
            # whether the lattice can tell every region bin from the others
            frame = assemble_frame(replace(self.frame, data_mode="pilot_only"))
            cond = cached_dictionary(frame.pilot_only_tf, stats.region_pairs, frame.dims).cond
            if not cond < LS_CONDITION_LIMIT:
                raise ValueError(
                    f"the pilot lattice aliases the search region: its dictionary's condition number "
                    f"{cond:.3g} is not below {LS_CONDITION_LIMIT:.0e}. A lattice resolves the region when "
                    f"freq_spacing·(l_max+1) ≤ M and time_spacing·(2·k_max+1) ≤ N; here "
                    f"{self.frame.freq_spacing}·{stats.l_max + 1} against M = {dims.m} and "
                    f"{self.frame.time_spacing}·{2 * stats.k_max + 1} against N = {dims.n}"
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
    return fit_covariance(cfg.stats, cfg.dims, cfg.cov_samples, rng)


def _received(cfg: SimConfig, snr_db: float, trial_index: int, n0: float):
    """One trial's keyed transmit chain: the true channel's bands (see
    ``effective_tf_channel``), the frame, and the received TF grid at noise
    variance n0."""
    channel_rng, frame_rng, noise_rng = _trial_rngs(cfg, snr_db, trial_index)
    ch = sample_channel(cfg.stats, cfg.dims, channel_rng)
    g = time_channel_matrix(ch)
    frame = assemble_frame(cfg.frame, frame_rng)
    s = tf_to_time(frame.tf, cfg.dims, with_cp=True)
    r = apply_channel(s, g, n0, noise_rng)
    return effective_tf_channel(ch), frame, time_to_tf(remove_cp(r, cfg.dims), cfg.dims)


def _energy(h: np.ndarray) -> float:
    """The squared Frobenius norm of a channel's bands, in one BLAS call."""
    return float(np.vdot(h, h).real)


def _ratio(h_hat: np.ndarray, h_true: np.ndarray, energy: float) -> float:
    """The linear NMSE of an estimate against the truth, whose ``_energy``
    is ``energy``: the one expression every sweep row is scored by."""
    return _energy(h_hat - h_true) / energy


def run_trial(
    cfg: SimConfig,
    snr_db: float,
    trial_index: int,
    cov: CovarianceModel | None = None,
    received: tuple | None = None,
) -> dict[str, float]:
    """One paired trial: returns the linear NMSE of every configured
    estimator against the same received frame, scored on the symbol-block
    bands (see ``effective_tf_channel``) of the truth and every estimate.

    ``received``, when given, must be this trial's truth and transmit
    chain, as ``_received`` returns them; the trial then builds neither."""
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index}")
    n0 = _check_snr(snr_db)
    if cov is None and "fs_lmmse" in cfg.estimators:
        cov = fit_config_covariance(cfg)
    h_true, frame, y_tf = _received(cfg, snr_db, trial_index, n0) if received is None else received
    energy = _energy(h_true)
    out: dict[str, float] = {}
    st_ls_hat = None
    for name in cfg.estimators:
        if name == "cdce":
            h_hat = cdce_estimate(y_tf, frame, cfg.stats, n0, lasso=cfg.lasso).h_tf_hat
        elif name == "fs_lmmse":
            h_hat = fs_lmmse(y_tf, frame, cov, n0)
        elif name in ("st_ls", "st_lmmse"):
            # ST-LMMSE scales the ST-LS estimate, which is interpolated once
            if st_ls_hat is None:
                st_ls_hat = st_ls(y_tf, frame)
            h_hat = st_ls_hat if name == "st_ls" else st_lmmse(st_ls_hat, n0)
        else:
            h_hat = tf_lasso(y_tf, frame, cfg.lasso)
        out[name] = _ratio(h_hat, h_true, energy)
    return out


def _point(
    cfg: SimConfig, rest: SimConfig | None, batched: bool, snr_db: float, cov: CovarianceModel | None, ratios: dict
) -> None:
    """One SNR point of a sweep into ``ratios``, chunk by chunk as
    ``run_sweep`` describes. ``rest`` is the config run_trial scores, None
    when it has no estimator; ``batched`` says that tf_lasso is solved per
    chunk here instead."""
    n0 = _check_snr(snr_db)
    for start in range(0, cfg.trials, LASSO_BATCH):
        trials = range(start, min(start + LASSO_BATCH, cfg.trials))
        truths, grids = [], []
        for t in trials:
            h_true, frame, y_tf = rec = _received(cfg, snr_db, t, n0)
            if rest is not None:
                for name, value in run_trial(rest, snr_db, t, cov, received=rec).items():
                    ratios[name][t] = value
            if batched:
                truths.append(h_true)
                grids.append(y_tf)
                # every lattice trial's pilot-only grid, and so its
                # dictionary, is the same: the chunk keeps the first frame
                if t == start:
                    first = frame
        if batched:
            gains = tf_lasso_gains(np.stack([vec(y_tf) for y_tf in grids]), first, cfg.lasso)
            for t, h_true, y_tf, row in zip(trials, truths, grids, gains):
                h_hat = tf_lasso(y_tf, first, cfg.lasso, gains=row)
                ratios["tf_lasso"][t] = _ratio(h_hat, h_true, _energy(h_true))


def run_sweep(cfg: SimConfig, cov: CovarianceModel | None = None) -> list[ResultRow]:
    """Sweep the SNR grid, averaging linear NMSE over trials per estimator.

    The covariance model is fitted once up front when any estimator needs it.
    The standard error is propagated to dB with the delta method.

    Each SNR point is cut into chunks of LASSO_BATCH trials. In a chunk,
    each trial's truth and transmit chain are built once, in trial order,
    and run_trial gets them (``received=``). On a pilot lattice every
    trial's tf_lasso problem shares one dictionary, so run_trial scores
    every estimator but tf_lasso, and the chunk's tf_lasso problems are
    solved in one batched call on its first trial's frame and scored
    against the same truths; on other frames run_trial scores every
    estimator, tf_lasso one problem at a time. The chain of one trial and
    its run_trial call run back to back, so each trial's channel is drawn
    just before its estimators run; a lattice config whose only estimator
    is tf_lasso makes no run_trial call. Every estimator's row equals, bit
    for bit, the mean of run_trial's results, except a lattice sweep's
    tf_lasso row, which equals it to rounding.
    """
    if cov is None and "fs_lmmse" in cfg.estimators:
        cov = fit_config_covariance(cfg)
    batched = "tf_lasso" in cfg.estimators and cfg.frame.placement == "lattice"
    others = tuple(name for name in cfg.estimators if not (batched and name == "tf_lasso"))
    rest = replace(cfg, estimators=others) if others else None
    rows: list[ResultRow] = []
    for snr_db in cfg.snr_grid_db:
        ratios = {name: np.empty(cfg.trials) for name in cfg.estimators}
        _point(cfg, rest, batched, snr_db, cov, ratios)
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


def emit(rows: list[ResultRow], path: str) -> None:
    """Write sweep rows to disk as CSV.

    An empty row list still produces the header. A noiseless SNR point is
    written as "inf". An SNR label is its ``:g`` form when that
    reads back as the same float, and its ``repr`` otherwise, so two
    distinct points never share a label.
    """
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["estimator", "snr_db", "trials", "nmse_db", "stderr_db"])
            for row in rows:
                writer.writerow([
                    row.estimator,
                    _snr_label(row.snr_db),
                    row.trials,
                    f"{row.nmse_db:.6f}",
                    f"{row.stderr_db:.6f}",
                ])
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def _snr_label(snr_db: float) -> str:
    short = f"{snr_db:g}"
    return short if float(short) == snr_db else repr(snr_db)
