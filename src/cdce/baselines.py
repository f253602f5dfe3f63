"""Reference estimators: single-tap interpolators, the full-size statistical
LMMSE, and a TF-domain sparse recovery without coarse support detection.

The last two estimate a channel in the span of the same unit-path atoms as
CDCE and share its dictionary builder and reconstruction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelStats, draw_paths, full_grid_pairs, reconstruct
from .estimator import LassoConfig, cached_dictionary, solve_lasso
from .grids import Dims, vec
from .pilots import Frame

__all__ = [
    "st_ls",
    "st_lmmse",
    "CovarianceModel",
    "fit_covariance",
    "fs_lmmse",
    "full_grid_pairs",
    "tf_lasso_gains",
    "tf_lasso",
]


@lru_cache(maxsize=8)
def _interp_plans(shape: tuple[int, int], mask_bits: bytes) -> tuple[tuple[np.ndarray, ...], ...]:
    """np.interp's plans for a pilot mask, along frequency in each symbol and
    then along time across the pilot symbols: per line and position, the
    sample lo at or before it and hi after it, the distance from lo, the
    spacing, and whether the position lies strictly between two samples (else
    np.interp returns lo, a hit or the nearest end). Lines without samples
    are never read."""
    mask = np.frombuffer(mask_bits, dtype=bool).reshape(shape)
    plans = []
    for has in (mask.T, mask.any(axis=0)[None]):
        pos = np.arange(has.shape[1])
        prev = np.maximum.accumulate(np.where(has, pos, -1), axis=1)
        ahead = np.minimum.accumulate(np.where(has, pos, pos.size)[:, ::-1], axis=1)[:, ::-1]
        inner = ~has & (prev >= 0) & (ahead < pos.size)
        lo = np.minimum(np.where(prev >= 0, prev, ahead), pos.size - 1)
        hi = np.where(inner, ahead, lo)
        plans.append((lo, hi, (pos - lo)[..., None], np.where(inner, hi - lo, 1)[..., None], inner[..., None]))
        for part in plans[-1]:
            part.setflags(write=False)
    return tuple(plans)


def _interpolate_grid(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fill a full M x N grid from samples on the pilot mask, interpolating
    along frequency first and then along time, linearly with constant end
    extension, real and imaginary parts separately, all lines at once: every
    entry is np.interp's slope * (x - xp[j]) + fp[j], slope (fp[j+1] - fp[j])
    / (xp[j+1] - xp[j])."""
    m, n = mask.shape
    grid = np.ascontiguousarray(values, dtype=complex).view(float).reshape(m, n, 2)
    plans = _interp_plans(mask.shape, np.asarray(mask, dtype=bool).tobytes())
    for (lo, hi, dx, gap, inner), lines in zip(plans, (np.arange(n)[:, None], np.arange(m)[:, None])):
        # positions on axis 0, lines on axis 1; the result is transposed
        a, b = grid[lo, lines], grid[hi, lines]
        grid = np.where(inner, (b - a) / gap * dx + a, a)
    return grid.view(complex)[..., 0]


def st_ls(y_tf: np.ndarray, frame: Frame) -> np.ndarray:
    """Single-tap least squares: divide by the pilots at their positions,
    the non-zero entries of the pilot-only grid, interpolate bilinearly,
    return the diagonal TF channel estimate as its symbol-block bands (see
    ``reconstruct``), zero off the diagonal."""
    d = frame.dims
    mask = frame.pilot_only_tf != 0
    if not mask.any():
        raise ValueError("the frame carries no pilots")
    ratios = np.zeros_like(y_tf)
    ratios[mask] = y_tf[mask] / frame.pilot_only_tf[mask]
    bands = np.zeros((2, d.n, d.m, d.m), dtype=complex)
    bands[0, :, np.arange(d.m), np.arange(d.m)] = _interpolate_grid(ratios, mask)
    return bands


def st_lmmse(st_ls_estimate: np.ndarray, n0: float) -> np.ndarray:
    """Single-tap LMMSE: the ``st_ls`` estimate of the same received grid
    divided by 1 + N0: the shrink SNR / (SNR + 1) with SNR = 1/N0."""
    if n0 < 0:
        raise ValueError(f"n0 must be non-negative, got {n0}")
    return st_ls_estimate / (1.0 + n0)


@dataclass(frozen=True)
class CovarianceModel:
    """Sample mean and a low-rank factor U with cov = U U^H of the path-gain
    vector over the search-region bins ``pairs``.

    The effective TF channel is that vector mapped through the unit-path
    atoms (see ``reconstruct``), so the model of vec(H_TF) is the same mean
    and factor lifted by the atoms.
    """

    mean: np.ndarray
    factor: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    n_samples: int

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


def fit_covariance(
    stats: ChannelStats,
    d: Dims,
    k_samples: int,
    rng: np.random.Generator,
) -> CovarianceModel:
    """Monte Carlo estimate of the mean and covariance factor of the region
    path-gain vector: each sampled path's gain lands in its bin's entry. The
    samples are the channels ``sample_channel`` would draw from ``rng``, the
    same rng calls in the same order, scattered straight into the samples.

    The factor keeps only singular directions above a 1e-12 relative cutoff;
    for the integer-grid path ensemble the rank equals the region size.
    """
    if k_samples < 2:
        raise ValueError(f"need at least 2 samples, got {k_samples}")
    pairs = stats.region_pairs
    samples = np.zeros((len(pairs), k_samples), dtype=complex)
    for j in range(k_samples):
        flat, gains = draw_paths(stats, d, rng)
        samples[flat, j] = gains
    mean = samples.mean(axis=1)
    centered = (samples - mean[:, None]) / np.sqrt(k_samples)
    u, sv, _ = np.linalg.svd(centered, full_matrices=False)
    # rounding in the sample mean leaves scatter near machine epsilon even
    # when every sample is the same channel, so gate on the sample scale too
    scale = np.linalg.norm(samples) / np.sqrt(k_samples)
    if sv.size and sv[0] > max(scale, 1.0) * 1e-12:
        r = int(np.sum(sv > sv[0] * 1e-12))
    else:
        r = 0
    return CovarianceModel(mean=mean, factor=u[:, :r] * sv[:r], pairs=pairs, n_samples=k_samples)


def fs_lmmse(y_tf: np.ndarray, frame: Frame, cov: CovarianceModel, n0: float) -> np.ndarray:
    """Full-size LMMSE estimate of the effective TF channel's bands.

    With D the pilot-only responses of the region atoms and B = D U, the
    estimate is reconstruct(hbar + U z) with
        z = (B^H B + N0 I)^{-1} B^H (y - D hbar),
    the pseudo-inverse solution when N0 = 0. By the push-through identity this
    equals the LMMSE over vec(H_TF) with the lifted mean and covariance. A
    rank-0 prior (U with no columns) gives an empty z: the prior mean.
    """
    if n0 < 0:
        raise ValueError(f"n0 must be non-negative, got {n0}")
    d = frame.dims
    atoms = cached_dictionary(frame.pilot_only_tf, cov.pairs, d).matrix
    b = atoms @ cov.factor
    resid = vec(y_tf) - atoms @ cov.mean
    if n0 == 0:
        z, *_ = np.linalg.lstsq(b, resid, rcond=None)
    else:
        bh = b.conj().T
        z = np.linalg.solve(bh @ b + n0 * np.eye(cov.rank), bh @ resid)
    return reconstruct(cov.mean + cov.factor @ z, cov.pairs, d)


def tf_lasso_gains(
    y: np.ndarray,
    frame: Frame,
    cfg: LassoConfig = LassoConfig(),
) -> np.ndarray:
    """tf_lasso's path gains on ``full_grid_pairs``: ``solve_lasso`` of the
    received vector y against ``frame``'s full-grid dictionary. A (K, MN)
    stack of received vectors on one frame is solved in one batched loop and
    gives a (K, MN) array, each row equal to that vector's own solve to
    rounding."""
    d = frame.dims
    return solve_lasso(y, cached_dictionary(frame.pilot_only_tf, full_grid_pairs(d), d), cfg)


def tf_lasso(
    y_tf: np.ndarray,
    frame: Frame,
    cfg: LassoConfig = LassoConfig(),
    gains: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse recovery over the full M x N delay-Doppler dictionary, the
    search region extended to the whole grid in place of coarse detection.

    ``gains``, when given, are this problem's ``tf_lasso_gains``, solved by
    the caller; only the reconstruction runs then."""
    if gains is None:
        gains = tf_lasso_gains(vec(y_tf), frame, cfg)
    return reconstruct(gains, full_grid_pairs(frame.dims), frame.dims)
