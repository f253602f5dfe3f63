"""Two-stage cross-domain channel estimator.

Stage one correlates the received DD image against the pilot DD image with a
twisted convolution, normalizes by the pilot energy so a unit-gain path scores
its gain magnitude, and keeps the (delay, Doppler) bins inside the search
region whose score clears a threshold. Stage two rebuilds the TF dictionary
restricted to the surviving bins and recovers the fading coefficients with a
pseudo-inverse least squares solve (or FISTA when the dictionary is fat or
ill-conditioned), then reconstructs the effective TF channel matrix from the
unit-path atoms. The dictionary builder and the reconstruction are shared
with the reference estimators, which work in the span of the same atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStats, Pulse, unit_path_tf_channel
from .grids import Dims, tf_to_dd, vec
from .pilots import Frame

__all__ = [
    "CoarseEstimate",
    "Dictionary",
    "LassoConfig",
    "ChannelEstimate",
    "signed_doppler",
    "doppler_col",
    "twisted_convolution",
    "default_gamma",
    "threshold_select",
    "build_dictionary",
    "reconstruct",
    "soft_threshold",
    "solve_ls",
    "solve_lasso",
    "cdce_estimate",
]

LS_CONDITION_LIMIT = 1e6


@dataclass(frozen=True)
class CoarseEstimate:
    """Surviving (delay, Doppler) pairs with their correlation scores,
    sorted by descending magnitude."""

    pairs: tuple[tuple[int, int], ...]
    scores: tuple[complex, ...]

    @property
    def p_hat(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Dictionary:
    """TF response dictionary restricted to a candidate support."""

    matrix: np.ndarray
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LassoConfig:
    lam: float = 0.01
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass(frozen=True)
class ChannelEstimate:
    """Recovered fading vector, its support, and the rebuilt TF channel."""

    h_hat: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    h_tf_hat: np.ndarray
    empty: bool = False


def signed_doppler(col: int, n: int) -> int:
    """Map a Doppler column index in [0, N) to its signed value."""
    return col if col <= n // 2 else col - n


def doppler_col(k: int, n: int) -> int:
    """Column index of a signed Doppler value."""
    return k % n


def twisted_convolution(y_dd: np.ndarray, x_dd: np.ndarray) -> np.ndarray:
    """Twisted cross-correlation V[l, k] of two DD grids.

    V[l, k] = sum_{m,n} conj(Y[m, n]) X[(m-l) mod M, (n-k) mod N]
              alpha(m-l, n-k) exp(2j pi k_signed (m-l) / (M N))
    with alpha(a, b) = exp(-2j pi b / N) when a < 0 and 1 otherwise. The
    phase factor uses the signed Doppler value and the unwrapped delay
    difference; both are required for correlation peaks at negative Doppler
    to add coherently instead of cancelling.
    """
    y_dd = np.asarray(y_dd, dtype=complex)
    x_dd = np.asarray(x_dd, dtype=complex)
    if y_dd.shape != x_dd.shape or y_dd.ndim != 2:
        raise ValueError(f"DD grids must share one 2-D shape, got {y_dd.shape} and {x_dd.shape}")
    m_dim, n_dim = y_dd.shape
    rows = np.arange(m_dim)[:, None]
    cols = np.arange(n_dim)[None, :]
    y_conj = np.conj(y_dd)
    v = np.empty((m_dim, n_dim), dtype=complex)
    for l in range(m_dim):
        a = rows - l
        wrap = a < 0
        for kc in range(n_dim):
            k = signed_doppler(kc, n_dim)
            shifted = np.roll(x_dd, (l, kc), axis=(0, 1))
            alpha = np.where(wrap, np.exp(-2j * np.pi * (cols - kc) / n_dim), 1.0)
            phase = np.exp(2j * np.pi * k * a / (m_dim * n_dim))
            v[l, kc] = np.sum(y_conj * shifted * alpha * phase)
    return v


def default_gamma(
    mode: str,
    n0: float | None = None,
    v_dd: np.ndarray | None = None,
    region_size: int | None = None,
) -> float:
    """Detection threshold: sqrt(N0)/3 in pilot-only mode, the root mean
    square of vec(V_DD) rescaled to the region size with data present."""
    if mode == "pilot_only":
        if n0 is None or n0 < 0:
            raise ValueError("pilot_only threshold needs a non-negative n0")
        return math.sqrt(n0) / 3.0
    if mode == "with_data":
        if v_dd is None or region_size is None or region_size < 1:
            raise ValueError("with_data threshold needs the score grid and a region size")
        return math.sqrt(float(np.sum(np.abs(v_dd) ** 2)) / region_size)
    raise ValueError(f"unknown mode {mode!r}")


def threshold_select(v_dd: np.ndarray, stats: ChannelStats, gamma: float) -> CoarseEstimate:
    """Keep region bins whose |V_DD| clears gamma, strongest first.

    Doppler columns are unwrapped to signed values; ties break on (l, k).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    v_dd = np.asarray(v_dd)
    n_dim = v_dd.shape[1]
    kept = []
    for l, k in stats.region_pairs:
        score = complex(v_dd[l, doppler_col(k, n_dim)])
        if abs(score) >= gamma:
            kept.append(((l, k), score))
    kept.sort(key=lambda item: (-abs(item[1]), item[0]))
    return CoarseEstimate(
        pairs=tuple(pair for pair, _ in kept),
        scores=tuple(score for _, score in kept),
    )


def build_dictionary(
    pilot_only_tf: np.ndarray,
    pairs: tuple[tuple[int, int], ...],
    pulse: Pulse,
    d: Dims,
) -> Dictionary:
    """Columns are the vectorized TF responses of unit-gain single paths at
    the (delay, Doppler) pairs, driven by the pilot-only frame."""
    if not pairs:
        raise ValueError("cannot build a dictionary from an empty set of pairs")
    x = vec(pilot_only_tf)
    columns = [unit_path_tf_channel(d, pulse, l, k) @ x for l, k in pairs]
    return Dictionary(matrix=np.column_stack(columns), pairs=tuple(pairs))


def reconstruct(
    h: np.ndarray,
    pairs: tuple[tuple[int, int], ...],
    pulse: Pulse,
    d: Dims,
) -> np.ndarray:
    """Effective TF channel sum_i h_i H_TF(pairs[i]) of path gains h on the
    unit-path atoms; zero gains are skipped."""
    mn = d.grid_size
    h_tf = np.zeros((mn, mn), dtype=complex)
    for gain, (l, k) in zip(h, pairs):
        if gain != 0:
            h_tf += gain * unit_path_tf_channel(d, pulse, l, k)
    return h_tf


def soft_threshold(x: np.ndarray, gamma: float) -> np.ndarray:
    """Complex soft threshold: shrink magnitudes by gamma, zero below it."""
    x = np.asarray(x, dtype=complex)
    mag = np.abs(x)
    out = np.zeros_like(x)
    above = mag > gamma
    out[above] = (1.0 - gamma / mag[above]) * x[above]
    return out


def solve_ls(y: np.ndarray, dictionary: Dictionary) -> np.ndarray:
    """Pseudo-inverse least squares, valid for tall well-conditioned D."""
    d = dictionary.matrix
    rows, cols = d.shape
    if rows < cols:
        raise ValueError("dictionary is fat, use solve_lasso")
    cond = np.linalg.cond(d)
    if not cond < LS_CONDITION_LIMIT:
        raise ValueError(
            f"dictionary condition number {cond:.3e} exceeds {LS_CONDITION_LIMIT:.0e}, "
            "use solve_lasso"
        )
    gram = d.conj().T @ d
    return np.linalg.solve(gram, d.conj().T @ y)


def solve_lasso(y: np.ndarray, dictionary: Dictionary, cfg: LassoConfig) -> np.ndarray:
    """FISTA for min_h 0.5 ||y - D h||^2 + lambda ||h||_1.

    Step size 1/||D||_2^2 from the exact largest eigenvalue of the Gram
    (an underestimate would make the iteration diverge), per-step threshold
    lambda times the step, Nesterov momentum from beta_0 = 1, stopping on the
    relative change of the iterate.
    """
    d = dictionary.matrix
    gram = d.conj().T @ d
    dty = d.conj().T @ y
    norm_sq = float(np.linalg.eigvalsh(gram)[-1])
    if norm_sq <= 0:
        raise ValueError("degenerate dictionary with zero spectral norm")
    eps = 1.0 / norm_sq
    gamma = cfg.lam * eps
    h = np.zeros(d.shape[1], dtype=complex)
    z = h.copy()
    beta = 1.0
    for _ in range(cfg.max_iter):
        g = dty - gram @ z
        h_new = soft_threshold(z + eps * g, gamma)
        beta_next = (1.0 + math.sqrt(1.0 + 4.0 * beta * beta)) / 2.0
        z = h_new + ((beta - 1.0) / beta_next) * (h_new - h)
        beta = beta_next
        delta = float(np.linalg.norm(h_new - h))
        denom = float(np.linalg.norm(h))
        h = h_new
        if denom > 0:
            if delta / denom < cfg.tol:
                break
        elif delta == 0:
            break
    return h


def cdce_estimate(
    y_tf: np.ndarray,
    frame: Frame,
    stats: ChannelStats,
    n0: float,
    mode: str = "pilot_only",
    lasso: LassoConfig = LassoConfig(),
    pulse: Pulse = Pulse("ideal"),
) -> ChannelEstimate:
    """Run the full two-stage pipeline on a received TF grid.

    The correlation surface is normalized by the pilot frame energy before
    thresholding, so the pilot-only threshold sqrt(N0)/3 acts on gain-scale
    scores; the with-data RMS threshold is invariant to this scaling. Stage
    two always fits the raw received vector.
    """
    d = frame.dims
    x_dd = tf_to_dd(frame.pilot_only_tf, d)
    pilot_energy = float(np.sum(np.abs(x_dd) ** 2))
    if pilot_energy == 0:
        raise ValueError("the pilot frame is empty")
    y_dd = tf_to_dd(y_tf, d)
    scores = twisted_convolution(y_dd, x_dd) / pilot_energy
    gamma = default_gamma(mode, n0=n0, v_dd=scores, region_size=stats.region_size)
    coarse = threshold_select(scores, stats, gamma)
    h = np.zeros(0, dtype=complex)
    if coarse.p_hat:
        dictionary = build_dictionary(frame.pilot_only_tf, coarse.pairs, pulse, d)
        try:
            h = solve_ls(vec(y_tf), dictionary)
        except ValueError:  # fat or ill-conditioned dictionary
            h = solve_lasso(vec(y_tf), dictionary, lasso)
    keep = h != 0
    kept_pairs = tuple(p for p, flag in zip(coarse.pairs, keep) if flag)
    kept_h = h[keep]
    return ChannelEstimate(
        h_hat=kept_h,
        pairs=kept_pairs,
        h_tf_hat=reconstruct(kept_h, kept_pairs, pulse, d),
        empty=kept_h.size == 0,
    )
