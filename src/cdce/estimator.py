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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelStats, atom_columns, reconstruct
from .grids import Dims, doppler_col, signed_doppler, tf_to_dd, twisted_convolution, unvec, vec
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

# Gram entries at or below this times the largest |entry| do not link two
# columns into one block of Dictionary.fista_operator. On the all-ones
# lattice the full-grid Gram's entries between even and odd delays are
# rounding noise (at most 5.8e-14 of a largest 56 at 8 x 14), and the
# smallest linked entry is about 2. A Gram whose phase-rotated imaginary
# parts are all at most this times the largest |entry| runs real; on the
# all-ones and Walsh lattices they are at most 8.4e-15 of it.
GRAM_LINK_RTOL = 1e-12

# Dictionaries kept by cached_dictionary. A lattice trial asks it for two
# fixed ones (tf_lasso's full grid and fs_lmmse's search region); a
# random-pilot frame is never seen twice, so the bound keeps its misses from
# growing the cache. CDCE's per-trial supports almost never repeat, so
# cdce_estimate builds its dictionary afresh.
DICTIONARY_CACHE_SIZE = 8


@dataclass(frozen=True)
class CoarseEstimate:
    """Surviving (delay, Doppler) pairs, sorted by descending magnitude of
    their correlation scores."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def p_hat(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class FistaOperator:
    """FISTA's gradient step on a dictionary, read-only, in the column
    ``order`` of the Gram's blocks, an index array, and rotated by the unit
    ``phases`` p (in that order): with G = diag(p)·R·diag(p̄), the step
    z + eps·(p̄Dᴴy - R z) is S z + eps·p̄Dᴴy. ``whole`` is the one P x P step
    matrix S: real I - eps R per block, zero between them, or the complex
    I - eps G as one block in the natural order 0..P-1 with p = 1.
    ``blocks`` holds (rows, S[rows, rows]) per block, views of S."""

    order: np.ndarray
    phases: np.ndarray
    eps: float
    blocks: tuple[tuple[slice, np.ndarray], ...]
    whole: np.ndarray


@dataclass(frozen=True)
class Dictionary:
    """TF response dictionary restricted to a candidate support, with its
    Gram matrix and the Gram's eigenvalues computed on first use: they give
    FISTA's step (``norm_sq``) and the least-squares gate (``cond``).
    FISTA's step-folded operator on the Gram's blocks is cached the same
    way."""

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

    @cached_property
    def fista_operator(self) -> FistaOperator:
        """FISTA's gradient step with eps = 1/``norm_sq`` folded in, built in
        one pass over the Gram. Needs a positive ``norm_sq``.

        The Gram's blocks are the connected components of its entries above
        GRAM_LINK_RTOL times the largest |entry|, so every entry between two
        blocks is at most that; each block keeps its columns in ascending
        order. A spanning-tree walk over the linked entries gives unit phases
        p that make each tree entry of diag(p̄)·G·diag(p) real and positive.
        When every imaginary part of that rotated Gram is at most the same
        bound, its real part R has G = diag(p)·R·diag(p̄) to that bound, and
        the step matrix S holds I - eps R per block in the blocks' order, zero
        between them: so every all-ones or Walsh lattice. Otherwise S is the
        complex I - eps G, one block in the natural order with p = 1 (a
        Zadoff-Chu lattice, random pilots)."""
        mag = np.abs(self.gram)
        bound = GRAM_LINK_RTOL * mag.max()
        linked = mag > bound
        phase = np.ones(len(mag), dtype=complex)
        unseen = np.ones(len(mag), dtype=bool)
        parts = []
        while unseen.any():
            part = np.zeros_like(unseen)
            part[np.argmax(unseen)] = True
            grown = part
            while grown.any():
                front = np.flatnonzero(grown)
                grown = linked[grown].any(axis=0) & ~part
                new = np.flatnonzero(grown)
                # each new column is reached through one linked entry from the front
                via = front[np.argmax(linked[np.ix_(front, new)], axis=0)]
                link = self.gram[via, new]
                phase[new] = phase[via] * link.conj() / np.abs(link)
                part |= grown
            unseen &= ~part
            parts.append(np.flatnonzero(part))
        rotated = phase.conj()[:, None] * self.gram * phase
        if np.abs(rotated.imag).max() <= bound:
            gram = rotated.real
        else:
            gram, parts, phase = self.gram, [np.arange(len(mag))], np.ones_like(phase)
        eps = 1.0 / self.norm_sq
        whole = np.zeros_like(gram)
        slices, start = [], 0
        for part in parts:
            rows = slice(start, start + len(part))
            whole[rows, rows] = np.identity(len(part)) - eps * gram[np.ix_(part, part)]
            slices.append(rows)
            start = rows.stop
        order = np.concatenate(parts)
        phases = phase[order]
        for array in (whole, phases, order):
            array.setflags(write=False)
        # views of the read-only S, so read-only themselves
        blocks = tuple((rows, whole[rows, rows]) for rows in slices)
        return FistaOperator(order=order, phases=phases, eps=eps, blocks=blocks, whole=whole)

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
    d: Dims,
) -> Dictionary:
    """Columns are the vectorized TF responses of unit-gain single paths at
    the (delay, Doppler) pairs, driven by the pilot-only frame
    (``channel.atom_columns``). The matrix is read-only.

    Built afresh on every call; ``cached_dictionary`` memoises the
    dictionaries that repeat across trials.
    """
    if not pairs:
        raise ValueError("cannot build a dictionary from an empty set of pairs")
    pairs = tuple(pairs)
    matrix = atom_columns(pilot_only_tf, pairs, d)
    matrix.setflags(write=False)
    return Dictionary(matrix=matrix, pairs=pairs)


def cached_dictionary(
    pilot_only_tf: np.ndarray,
    pairs: tuple[tuple[int, int], ...],
    d: Dims,
) -> Dictionary:
    """``build_dictionary``, memoised on (pilot-only frame bytes, pairs,
    dims) in a functools least-recently-used cache of DICTIONARY_CACHE_SIZE
    entries, so a frame that repeats across trials
    builds its dictionary, Gram and step once."""
    x = vec(pilot_only_tf)
    return _frame_dictionary(x.dtype.str, x.tobytes(), tuple(pairs), d)


@lru_cache(maxsize=DICTIONARY_CACHE_SIZE)
def _frame_dictionary(dtype: str, frame_bytes: bytes, pairs, d: Dims) -> Dictionary:
    """``build_dictionary`` of the pilot-only frame held in ``frame_bytes``."""
    return build_dictionary(unvec(np.frombuffer(frame_bytes, dtype=dtype), d.m, d.n), pairs, d)


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
    ``tol`` emits a RuntimeWarning and returns the last iterate. The Gram,
    the step and the step-folded operator (``Dictionary.fista_operator``)
    come with the dictionary.

    A 1-D ``y`` runs the single-vector loop. A (K, rows) stack of received
    vectors runs one loop over all K rows and returns a (K, cols) array, with
    one RuntimeWarning per row that uses up ``max_iter``. Both loops run the
    plain formula in the operator's rotated coordinates, a vector on a copy
    of its one step matrix S with the shift eps p̄Dᴴy as extra columns,
    [S | shift], and a stack on S's diagonal blocks, so every solve agrees
    with the plain loop to rounding and stops at its iteration. The shape
    picks the loop because the row loop, run on a single row, is slower per
    solve.
    """
    if dictionary.norm_sq <= 0:
        raise ValueError("degenerate dictionary with zero spectral norm")
    gamma = cfg.lam * dictionary.fista_operator.eps
    if np.ndim(y) == 2:
        h, stalled = _fista_rows(np.asarray(y), dictionary, cfg, gamma)
    else:
        h, stalled = _fista_vector(y, dictionary, cfg, gamma)
    for change in stalled:
        warnings.warn(
            f"FISTA did not converge: lam={cfg.lam:g}, max_iter={cfg.max_iter} used up "
            f"with last relative change {change:.3e} (tol {cfg.tol:g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return h


def _fista_vector(
    y: np.ndarray, dictionary: Dictionary, cfg: LassoConfig, gamma: float
) -> tuple[np.ndarray, list[float]]:
    """The FISTA loop on one received vector: the last iterate, and its last
    relative change if it used up ``max_iter`` (else nothing).

    It runs in the rotated coordinates of ``Dictionary.fista_operator``:
    eps Dᴴy is permuted into the blocks' order and multiplied by p̄ once,
    each gradient step is v = S z + eps p̄Dᴴy on the whole step matrix S,
    and the last iterate is multiplied by p and permuted back once. The
    step is one matmul of [S | shift], a copy of S with the shift as extra
    columns made once per solve, by a work block whose first P rows are z
    and whose last rows are fixed units, so the product adds the shift. A
    real S acts on the (P + 2, 2) float view of the complex block, half the
    multiplies of a complex gemv: the shift's real and imaginary parts are
    two columns, and the unit rows 1 and 1j add them to v's real and
    imaginary parts. A complex S takes the shift as one column and one unit
    row. The soft threshold keeps phases, and the momentum and both norms
    of the stopping rule do not see them. The rule takes each squared norm
    in one ``np.vdot`` and one square root of their ratio, and keeps each
    iterate's squared norm for the next iteration's denominator. The work
    arrays are allocated once per solve and updated in place;
    ``soft_threshold`` returns each new iterate.
    """
    op = dictionary.fista_operator
    shift = op.eps * (dictionary.matrix.conj().T @ y)[op.order] * op.phases.conj()
    h = np.zeros(len(shift), dtype=complex)
    v = np.empty_like(h)
    moved = np.empty_like(h)
    if op.whole.dtype == float:
        # a real matrix acts on the real and imaginary parts alike
        step = np.hstack((op.whole, shift.view(float).reshape(-1, 2)))
        block = np.concatenate((h, [1.0, 1j]))
        z_in, v_out = block.view(float).reshape(-1, 2), v.view(float).reshape(-1, 2)
    else:
        step = np.hstack((op.whole, shift[:, None]))
        block = np.concatenate((h, [1.0]))
        z_in, v_out = block, v
    z = block[:len(h)]
    beta, h_sq = 1.0, 0.0
    for _ in range(cfg.max_iter):
        np.matmul(step, z_in, out=v_out)
        h_new = soft_threshold(v, gamma)
        beta_next = (1.0 + math.sqrt(1.0 + 4.0 * beta * beta)) / 2.0
        # z = h_new + ((beta - 1) / beta_next) * (h_new - h)
        np.subtract(h_new, h, out=moved)
        np.multiply((beta - 1.0) / beta_next, moved, out=z)
        np.add(h_new, z, out=z)
        beta = beta_next
        delta_sq = np.vdot(moved, moved).real
        change = math.sqrt(delta_sq / h_sq) if h_sq > 0 else (0.0 if delta_sq == 0 else math.inf)
        h, h_sq = h_new, np.vdot(h_new, h_new).real
        if change < cfg.tol:
            return _unrotate(h, op), []
    return _unrotate(h, op), [change]


def _fista_rows(
    y: np.ndarray, dictionary: Dictionary, cfg: LassoConfig, gamma: float
) -> tuple[np.ndarray, list[float]]:
    """The FISTA loop on every row of y at once: the last iterates, and the
    last relative change of each row that used up ``max_iter``.

    The live problems are the columns of a (P, K) block in the rotated
    coordinates of ``Dictionary.fista_operator``, as in ``_fista_vector``,
    but the step multiplies block by block: v = S[rows, rows] z + eps p̄Dᴴy,
    a real block as one real gemm on the (P, 2K) float view of the complex
    block and a complex S (p = 1) as one complex gemm. Every live
    column is at the same iteration, so beta is shared; the stopping rule
    takes one square root per column of a ratio of squared norms, and each
    iterate's squared norm is kept for the next iteration's denominator. The
    (P, K) work arrays are allocated once and updated in place
    (``soft_threshold`` returns each new iterate); a column that meets
    ``tol`` is stored and leaves them, compacted so that they stay
    C-contiguous, and each row stops at its own iteration.
    """
    op = dictionary.fista_operator
    shift = op.eps * (dictionary.matrix.conj().T @ y.T)[op.order] * op.phases.conj()[:, None]
    out = np.empty((len(y), len(shift)), dtype=complex)
    live = np.arange(len(y))
    h = np.zeros_like(shift)
    z = np.zeros_like(shift)
    v = np.empty_like(shift)
    moved = np.empty_like(shift)
    h_sq = np.zeros(len(y))
    change = np.full(len(y), math.inf)
    beta = 1.0
    for _ in range(cfg.max_iter):
        if not live.size:
            break
        for rows, step in op.blocks:
            if step.dtype == float:
                # a real matrix acts on the real and imaginary parts alike
                np.matmul(step, z[rows].view(float), out=v[rows].view(float))
            else:
                np.matmul(step, z[rows], out=v[rows])
        np.add(v, shift, out=v)
        h_new = soft_threshold(v, gamma)
        beta_next = (1.0 + math.sqrt(1.0 + 4.0 * beta * beta)) / 2.0
        np.subtract(h_new, h, out=moved)
        np.multiply((beta - 1.0) / beta_next, moved, out=z)
        np.add(h_new, z, out=z)
        beta = beta_next
        delta_sq = _column_sum_squares(moved)
        change = np.sqrt(np.divide(delta_sq, h_sq, out=np.where(delta_sq == 0, 0.0, math.inf), where=h_sq > 0))
        h, h_sq = h_new, _column_sum_squares(h_new)
        done = change < cfg.tol
        if done.any():
            out[live[done]] = h[:, done].T
            keep = ~done
            # compress keeps the blocks C-contiguous; h[:, keep] would not
            live, h_sq, change = live[keep], h_sq[keep], change[keep]
            h, z, shift = (a.compress(keep, axis=1) for a in (h, z, shift))
            v, moved = np.empty_like(z), np.empty_like(z)
    out[live] = h.T
    return _unrotate(out, op), change.tolist()


def _unrotate(h: np.ndarray, op: FistaOperator) -> np.ndarray:
    """Iterates in the operator's rotated coordinates (the last axis) as
    gains: multiplied by p, in the natural column order."""
    gains = np.empty_like(h)
    gains[..., op.order] = h * op.phases
    return gains


def _column_sum_squares(a: np.ndarray) -> np.ndarray:
    """re² + im² summed down each column of a C-contiguous complex block."""
    sums = np.ones(len(a)) @ np.square(a.view(float))
    return sums[0::2] + sums[1::2]


def cdce_estimate(
    y_tf: np.ndarray,
    frame: Frame,
    stats: ChannelStats,
    n0: float,
    lasso: LassoConfig = LassoConfig(),
) -> ChannelEstimate:
    """Run the full two-stage pipeline on a received TF grid.

    The frame's ``data_mode`` picks the threshold rule of that name. The
    correlation surface is normalized by the pilot frame energy before
    thresholding, so the pilot-only threshold sqrt(N0)/3 acts on gain-scale
    scores; the with-data RMS threshold is invariant to this scaling. Stage
    two always fits the raw received vector: by ``solve_ls`` when the
    dictionary is tall and its ``cond`` is below LS_CONDITION_LIMIT, checked
    here, so a FISTA trial never enters ``solve_ls``, and else by
    ``solve_lasso``.
    """
    d = frame.dims
    x_dd = tf_to_dd(frame.pilot_only_tf, d)
    pilot_energy = float(np.sum(np.abs(x_dd) ** 2))
    if pilot_energy == 0:
        raise ValueError("the pilot frame is empty")
    y_dd = tf_to_dd(y_tf, d)
    scores = twisted_convolution(y_dd, x_dd) / pilot_energy
    gamma = default_gamma(frame.data_mode, n0=n0, v_dd=scores, region_size=stats.region_size)
    coarse = threshold_select(scores, stats, gamma)
    h = np.zeros(0, dtype=complex)
    if coarse.p_hat:
        dictionary = build_dictionary(frame.pilot_only_tf, coarse.pairs, d)
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
        h_tf_hat=reconstruct(kept_h, kept_pairs, d),
    )
