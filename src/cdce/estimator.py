"""Two-stage cross-domain channel estimator.

Stage one correlates the received DD image against the pilot DD image with a
twisted convolution, normalizes by the pilot energy so a unit-gain path scores
its gain magnitude, and keeps the (delay, Doppler) bins inside the search
region whose score clears a threshold. Stage two rebuilds the TF dictionary
restricted to the surviving bins and recovers the fading coefficients with a
pseudo-inverse least squares solve (or FISTA when the dictionary is fat or
ill-conditioned), then reconstructs the effective TF channel's bands from the
unit-path atoms. The dictionary builder and the reconstruction are shared
with the reference estimators, which work in the span of the same atoms.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelStats, Pulse, reconstruct, unit_path_atoms
from .grids import Dims, doppler_col, signed_doppler, tf_to_dd, twisted_convolution, vec
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
    "cached_dictionary",
    "soft_threshold",
    "solve_ls",
    "solve_lasso",
    "cdce_estimate",
]

LS_CONDITION_LIMIT = 1e6

# Dictionaries kept by cached_dictionary, most recently used last. A lattice
# trial asks it for two fixed ones (tf_lasso's full grid and fs_lmmse's search
# region); a random-pilot frame is never seen twice, so the bound keeps its
# misses from growing the cache. CDCE's per-trial supports almost never
# repeat, so cdce_estimate builds its dictionary afresh.
DICTIONARY_CACHE_SIZE = 8
_dictionaries: OrderedDict = OrderedDict()


@dataclass(frozen=True)
class CoarseEstimate:
    """Surviving (delay, Doppler) pairs, sorted by descending magnitude of
    their correlation scores."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def p_hat(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Dictionary:
    """TF response dictionary restricted to a candidate support, with its
    Gram matrix and the Gram's eigenvalues computed on first use: they give
    FISTA's step (``norm_sq``) and the least-squares gate (``cond``)."""

    matrix: np.ndarray
    pairs: tuple[tuple[int, int], ...]

    @cached_property
    def gram(self) -> np.ndarray:
        gram = self.matrix.conj().T @ self.matrix
        gram.setflags(write=False)
        return gram

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The Gram's eigenvalues, ascending: D's squared singular values."""
        return np.linalg.eigvalsh(self.gram)

    @property
    def norm_sq(self) -> float:
        """||D||_2^2, the exact largest eigenvalue of the Gram."""
        return float(self.eigenvalues[-1])

    @property
    def cond(self) -> float:
        """sqrt(lambda_max / lambda_min) of the Gram, infinite when lambda_min
        is not positive: no SVD. Near 1e6 it differs from the SVD's by ~1e-4."""
        eig = self.eigenvalues
        return math.sqrt(eig[-1] / eig[0]) if eig[0] > 0 else math.inf


@dataclass(frozen=True)
class LassoConfig:
    lam: float = 0.01
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and non-negative, got {self.lam}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass(frozen=True)
class ChannelEstimate:
    """Recovered fading vector, its support, and the rebuilt TF channel's bands."""

    h_hat: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    h_tf_hat: np.ndarray
    empty: bool = False


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
        score = abs(complex(v_dd[l, doppler_col(k, n_dim)]))
        if score >= gamma:
            kept.append((-score, (l, k)))
    return CoarseEstimate(pairs=tuple(pair for _, pair in sorted(kept)))


def build_dictionary(
    pilot_only_tf: np.ndarray,
    pairs: tuple[tuple[int, int], ...],
    pulse: Pulse,
    d: Dims,
) -> Dictionary:
    """Columns are the vectorized TF responses of unit-gain single paths at
    the (delay, Doppler) pairs, driven by the pilot-only frame: per symbol,
    the atom's diagonal block times that symbol plus its sub-diagonal block
    times the previous one. The matrix is read-only.

    Built afresh on every call; ``cached_dictionary`` memoises the
    dictionaries that repeat across trials.
    """
    if not pairs:
        raise ValueError("cannot build a dictionary from an empty set of pairs")
    pairs = tuple(pairs)
    atoms = unit_path_atoms(d, pulse, pairs)
    symbols = vec(pilot_only_tf).reshape(d.n, d.m, 1)
    columns = np.matmul(atoms[:, 0], symbols)
    columns[:, 1:] += np.matmul(atoms[:, 1, 1:], symbols[:-1])
    matrix = np.ascontiguousarray(columns.reshape(len(pairs), d.grid_size).T)
    matrix.setflags(write=False)
    return Dictionary(matrix=matrix, pairs=pairs)


def cached_dictionary(
    pilot_only_tf: np.ndarray,
    pairs: tuple[tuple[int, int], ...],
    pulse: Pulse,
    d: Dims,
) -> Dictionary:
    """``build_dictionary``, memoised on (dims, pulse, pairs, pilot-only frame
    bytes) in a least-recently-used cache of DICTIONARY_CACHE_SIZE entries,
    so a frame that repeats across trials builds its dictionary, Gram and
    step once."""
    x = vec(pilot_only_tf)
    key = (d, pulse, tuple(pairs), x.dtype.str, x.tobytes())
    dictionary = _dictionaries.get(key)
    if dictionary is not None:
        _dictionaries.move_to_end(key)
        return dictionary
    dictionary = _dictionaries[key] = build_dictionary(pilot_only_tf, pairs, pulse, d)
    if len(_dictionaries) > DICTIONARY_CACHE_SIZE:
        _dictionaries.popitem(last=False)
    return dictionary


def soft_threshold(x: np.ndarray, gamma: float) -> np.ndarray:
    """Complex soft threshold: shrink magnitudes by gamma, zero at or below it.

    Every entry is scaled by 1 - gamma / max(|x|, gamma). Above gamma that is
    the shrink factor itself; at or below it gamma / gamma is exactly 1, so
    the scale is an exact 0 (0 * x may be a signed zero; a NaN entry stays
    NaN). A zero gamma returns a copy of x.
    """
    x = np.asarray(x, dtype=complex)
    if gamma == 0:
        return x.copy()
    scale = np.abs(x)
    np.maximum(scale, gamma, out=scale)
    np.divide(gamma, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return np.multiply(scale, x)


def solve_ls(y: np.ndarray, dictionary: Dictionary) -> np.ndarray:
    """Pseudo-inverse least squares, valid for tall D with ``cond`` below LS_CONDITION_LIMIT."""
    d = dictionary.matrix
    if d.shape[0] < d.shape[1]:
        raise ValueError("dictionary is fat, use solve_lasso")
    cond = dictionary.cond
    if not cond < LS_CONDITION_LIMIT:
        raise ValueError(f"condition number {cond:.3e} exceeds {LS_CONDITION_LIMIT:.0e}, use solve_lasso")
    return np.linalg.solve(dictionary.gram, d.conj().T @ y)


def solve_lasso(y: np.ndarray, dictionary: Dictionary, cfg: LassoConfig) -> np.ndarray:
    """FISTA for min_h 0.5 ||y - D h||^2 + lambda ||h||_1.

    Step size 1/||D||_2^2 from the exact largest eigenvalue of the Gram
    (an underestimate would make the iteration diverge), per-step threshold
    lambda times the step, Nesterov momentum from beta_0 = 1, stopping on the
    relative change of the iterate. Using up ``max_iter`` without meeting
    ``tol`` emits a RuntimeWarning and returns the last iterate. The Gram and
    the step come with the dictionary.

    A 1-D ``y`` runs the single-vector loop. A (K, rows) stack of received
    vectors runs one loop over all K rows and returns a (K, cols) array whose
    every row is bit-identical to that row's own solve, with one
    RuntimeWarning per row that uses up ``max_iter``. The shape picks the
    loop because the row loop, run on a single row, is slower per solve.
    """
    norm_sq = dictionary.norm_sq
    if norm_sq <= 0:
        raise ValueError("degenerate dictionary with zero spectral norm")
    eps = 1.0 / norm_sq
    gamma = cfg.lam * eps
    if np.ndim(y) == 2:
        h, stalled = _fista_rows(np.asarray(y), dictionary, cfg, eps, gamma)
    else:
        h, stalled = _fista_vector(y, dictionary, cfg, eps, gamma)
    for change in stalled:
        warnings.warn(
            f"FISTA did not converge: lam={cfg.lam:g}, max_iter={cfg.max_iter} used up "
            f"with last relative change {change:.3e} (tol {cfg.tol:g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return h


def _fista_vector(
    y: np.ndarray, dictionary: Dictionary, cfg: LassoConfig, eps: float, gamma: float
) -> tuple[np.ndarray, list[float]]:
    """The FISTA loop on one received vector: the last iterate, and its last
    relative change if it used up ``max_iter`` (else nothing).

    Both norms of the stopping rule are numpy's own formula,
    sqrt(re.re + im.im). The work vectors are allocated once per solve and
    updated in place with the operands in the order of the plain formula
    (with fused multiply-add, a complex product is not bitwise commutative),
    and the iterate change feeds both the momentum and the stopping rule, so
    every iterate equals the plain loop's.
    """
    d = dictionary.matrix
    gram = dictionary.gram
    dty = d.conj().T @ y
    h = np.zeros(d.shape[1], dtype=complex)
    z = h.copy()
    v = np.empty_like(h)
    moved = np.empty_like(h)
    moved_re, moved_im = moved.real, moved.imag
    beta = 1.0
    for _ in range(cfg.max_iter):
        # v = z + eps * (dty - gram @ z)
        np.matmul(gram, z, out=v)
        np.subtract(dty, v, out=v)
        np.multiply(eps, v, out=v)
        np.add(z, v, out=v)
        h_new = soft_threshold(v, gamma)
        beta_next = (1.0 + math.sqrt(1.0 + 4.0 * beta * beta)) / 2.0
        # z = h_new + ((beta - 1) / beta_next) * (h_new - h)
        np.subtract(h_new, h, out=moved)
        np.multiply((beta - 1.0) / beta_next, moved, out=z)
        np.add(h_new, z, out=z)
        beta = beta_next
        delta = math.sqrt(moved_re.dot(moved_re) + moved_im.dot(moved_im))
        denom = math.sqrt(h.real.dot(h.real) + h.imag.dot(h.imag))
        h = h_new
        change = delta / denom if denom > 0 else (0.0 if delta == 0 else math.inf)
        if change < cfg.tol:
            return h, []
    return h, [change]


def _sum_squares(x: np.ndarray) -> np.ndarray:
    """x[k] . x[k] for each row of a 2-D float view: the matmul of a
    (K, 1, P) by a (K, P, 1) stack calls, per row, the ddot of 1-D ``.dot``."""
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _fista_rows(
    y: np.ndarray, dictionary: Dictionary, cfg: LassoConfig, eps: float, gamma: float
) -> tuple[np.ndarray, list[float]]:
    """``_fista_vector`` on every row of y at once: the last iterates, and
    the last relative change of each row that used up ``max_iter``.

    Each numpy call of the single-vector loop becomes one call over the live
    rows that runs the same kernel per row: the matrix-vector products are
    matmuls of stacked (P, 1) columns, one gemv per row; the element-wise
    steps act entry by entry; the norms are per-row ddots. Every live row is
    at the same iteration, so beta is shared. A row that meets ``tol`` is
    stored and leaves the live rows, so each stops at its own iteration. An
    iterate's norm is computed once, as it is made, and serves as the next
    iteration's denominator.
    """
    d = dictionary.matrix
    gram = dictionary.gram
    dty = np.matmul(d.conj().T, y[:, :, None])[:, :, 0]
    out = np.empty(dty.shape, dtype=complex)
    live = np.arange(len(y))
    h = np.zeros(dty.shape, dtype=complex)
    z = h.copy()
    v = np.empty_like(h)
    moved = np.empty_like(h)
    denom = np.zeros(len(y))
    change = np.full(len(y), math.inf)
    beta = 1.0
    for _ in range(cfg.max_iter):
        # v = z + eps * (dty - gram @ z)
        np.matmul(gram, z[:, :, None], out=v[:, :, None])
        np.subtract(dty, v, out=v)
        np.multiply(eps, v, out=v)
        np.add(z, v, out=v)
        h_new = soft_threshold(v, gamma)
        beta_next = (1.0 + math.sqrt(1.0 + 4.0 * beta * beta)) / 2.0
        # z = h_new + ((beta - 1) / beta_next) * (h_new - h)
        np.subtract(h_new, h, out=moved)
        np.multiply((beta - 1.0) / beta_next, moved, out=z)
        np.add(h_new, z, out=z)
        beta = beta_next
        delta = np.sqrt(_sum_squares(moved.real) + _sum_squares(moved.imag))
        change = np.divide(delta, denom, out=np.where(delta == 0, 0.0, math.inf), where=denom > 0)
        h = h_new
        denom = np.sqrt(_sum_squares(h.real) + _sum_squares(h.imag))
        done = change < cfg.tol
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, h, z, dty, denom, change = (a[keep] for a in (live, h, z, dty, denom, change))
            v = np.empty_like(h)
            moved = np.empty_like(h)
        if not live.size:
            break
    out[live] = h
    return out, change.tolist()


def cdce_estimate(
    y_tf: np.ndarray,
    frame: Frame,
    stats: ChannelStats,
    n0: float,
    lasso: LassoConfig = LassoConfig(),
    pulse: Pulse = Pulse("ideal"),
) -> ChannelEstimate:
    """Run the full two-stage pipeline on a received TF grid.

    A frame whose grid differs from its pilot-only grid carries data and gets
    the with-data threshold. The correlation surface is normalized by the
    pilot frame energy before thresholding, so the pilot-only threshold
    sqrt(N0)/3 acts on gain-scale scores; the with-data RMS threshold is
    invariant to this scaling. Stage two always fits the raw received vector.
    """
    d = frame.dims
    x_dd = tf_to_dd(frame.pilot_only_tf, d)
    pilot_energy = float(np.sum(np.abs(x_dd) ** 2))
    if pilot_energy == 0:
        raise ValueError("the pilot frame is empty")
    y_dd = tf_to_dd(y_tf, d)
    scores = twisted_convolution(y_dd, x_dd) / pilot_energy
    mode = "pilot_only" if np.array_equal(frame.tf, frame.pilot_only_tf) else "with_data"
    gamma = default_gamma(mode, n0=n0, v_dd=scores, region_size=stats.region_size)
    coarse = threshold_select(scores, stats, gamma)
    h = np.zeros(0, dtype=complex)
    if coarse.p_hat:
        dictionary = build_dictionary(frame.pilot_only_tf, coarse.pairs, pulse, d)
        rows, cols = dictionary.matrix.shape
        if rows >= cols and dictionary.cond < LS_CONDITION_LIMIT:
            h = solve_ls(vec(y_tf), dictionary)
        else:
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
