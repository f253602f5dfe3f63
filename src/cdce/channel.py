"""Doubly selective channel generation and its time and TF matrix forms.

A channel realization is a sum of P discrete paths, each with a complex gain,
an integer delay of ``delay_int`` samples, and an integer Doppler shift of
``doppler_int`` cycles per frame of M*N payload samples, on one of the
grid's own bins: 0 <= delay < M and -N/2 < doppler <= N/2. The time-domain
matrix G acts on the CP-extended transmit vector, and each path adds one tap
to it. The effective TF matrix H_TF, the unitary DFT / CP sandwich of G, is
the ground truth that every estimator is scored against: the paths' gains on
their unit-path atoms, summed by ``reconstruct``. The transmit pulse is
the sample grid's own, whose ambiguity function is a Kronecker delta: a
path's taps are its gain times its Doppler phase. Each bin's atom is two
M x M blocks and a Doppler ramp in closed form, one cached table per dims;
only this module knows that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import Dims, dft_matrix, signed_doppler

__all__ = [
    "PathParams",
    "ChannelStats",
    "ChannelRealization",
    "draw_paths",
    "sample_channel",
    "time_channel_matrix",
    "apply_channel",
    "effective_tf_channel",
    "full_grid_pairs",
    "reconstruct",
    "atom_columns",
    "unit_path_tf_channel",
]

# Only integer bins have atoms: a delay or Doppler must be a Python or NumPy
# integer.
_INTEGER = (int, np.integer)


@dataclass(frozen=True)
class PathParams:
    """One propagation path at integer delay ``delay_int`` (samples) and
    integer Doppler ``doppler_int`` (cycles per M*N payload samples)."""

    gain: complex
    delay_int: int
    doppler_int: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.delay_int, _INTEGER) and isinstance(self.doppler_int, _INTEGER)):
            raise ValueError(f"delay and Doppler must be integer bins, got {self.delay_int!r}, {self.doppler_int!r}")
        if self.delay_int < 0:
            raise ValueError(f"delay index must be non-negative, got {self.delay_int}")


@dataclass(frozen=True)
class ChannelStats:
    """Ensemble parameters of the random channel: ``n_paths`` paths on
    distinct bins of the region [0, l_max] x [-k_max, k_max], each gain of
    variance 1/n_paths, so the average total path power is one."""

    n_paths: int = 3
    l_max: int = 2
    k_max: int = 3

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError(f"need at least one path, got {self.n_paths}")
        if self.l_max < 0 or self.k_max < 0:
            raise ValueError("l_max and k_max must be non-negative")
        if self.n_paths > self.region_size:
            raise ValueError(
                f"cannot draw {self.n_paths} distinct paths from a region of {self.region_size} bins"
            )

    def check_doppler_grid(self, dims: Dims) -> None:
        """Reject a region whose Doppler bins reach half the Doppler grid of
        ``dims``: on even N, Doppler +N/2 and -N/2 are one DD column."""
        if 2 * self.k_max >= dims.n:
            raise ValueError(
                f"k_max {self.k_max} must stay below half the Doppler grid (N/2 = {dims.n / 2})"
            )

    @property
    def region_size(self) -> int:
        """Number of (delay, Doppler) bins in the search region."""
        return (self.l_max + 1) * (2 * self.k_max + 1)

    @property
    def region_pairs(self) -> tuple[tuple[int, int], ...]:
        """The region's (delay, Doppler) bins, delay fastest: entry i is the
        bin that ``sample_channel`` draws for flat index i."""
        return tuple(
            (l, k) for k in range(-self.k_max, self.k_max + 1) for l in range(self.l_max + 1)
        )


def _check_bins(pairs, d: Dims) -> None:
    """Reject any (delay, Doppler) pair that is not one of the grid's own
    bins: integers with 0 <= delay < M and -N/2 < doppler <= N/2."""
    for delay, doppler in pairs:
        if not (isinstance(delay, _INTEGER) and isinstance(doppler, _INTEGER)):
            raise ValueError(f"delay and Doppler must be integer bins, got {delay!r}, {doppler!r}")
        if not 0 <= delay < d.m:
            raise ValueError(f"delay {delay} must be non-negative and below m = {d.m}")
        if not -d.n < 2 * doppler <= d.n:
            raise ValueError(f"Doppler {doppler} is outside the Doppler grid (-N/2, N/2] with N = {d.n}")


@dataclass(frozen=True)
class ChannelRealization:
    paths: tuple[PathParams, ...]
    dims: Dims

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("a channel realization needs at least one path")
        _check_bins([(p.delay_int, p.doppler_int) for p in self.paths], self.dims)


def draw_paths(
    stats: ChannelStats,
    dims: Dims,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one random channel's paths as flat indices into
    ``stats.region_pairs`` and complex gains: distinct (delay, Doppler) bins
    uniform over [0, l_max] x [-k_max, k_max], i.i.d. complex Gaussian gains
    of variance 1/n_paths.
    A region that ``ChannelStats.check_doppler_grid`` rejects raises before
    any draw."""
    stats.check_doppler_grid(dims)
    flat = rng.choice(stats.region_size, size=stats.n_paths, replace=False)
    sigma = math.sqrt(1.0 / stats.n_paths / 2.0)
    gains = sigma * (rng.standard_normal(stats.n_paths) + 1j * rng.standard_normal(stats.n_paths))
    return flat, gains


def sample_channel(
    stats: ChannelStats,
    dims: Dims,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw a random channel (see ``draw_paths``) as a realization."""
    flat, gains = draw_paths(stats, dims, rng)
    pairs = stats.region_pairs
    paths = tuple(
        PathParams(complex(gain), *pairs[int(idx)]) for idx, gain in zip(flat, gains)
    )
    return ChannelRealization(paths, dims)


@lru_cache(maxsize=None)
def _payload_indices(d: Dims) -> np.ndarray:
    """Payload-sample index of each CP-extended sample.

    CP samples inherit the index of the payload sample they copy, which keeps
    each prefix a true cyclic extension of its Doppler-modulated symbol block.
    """
    span = d.m + d.cp_len
    n = np.arange(d.frame_len)
    block, offset = np.divmod(n, span)
    phi = block * d.m + (offset - d.cp_len) % d.m
    phi.setflags(write=False)
    return phi


def time_channel_matrix(ch: ChannelRealization) -> np.ndarray:
    """Time-domain channel matrix G on the CP-extended frame.

    Each path adds one tap on its delay's sub-diagonal:
    G[n + l_p, n] += gain_p * exp(2j pi k_p phi(n) / (M N))
    with phi the payload-sample clock; the receive index is the row and the
    transmit index is the column. Delays beyond the CP are valid (dictionary
    atoms reach them); the atom's sub-diagonal band then carries the ISI.
    """
    d = ch.dims
    t_len = d.frame_len
    g = np.zeros((t_len, t_len), dtype=complex)
    cols = np.arange(t_len)
    for p in ch.paths:
        src = cols[: t_len - p.delay_int]
        taps = p.gain * np.exp(2j * np.pi * (p.doppler_int / d.grid_size) * _payload_indices(d))
        g[src + p.delay_int, src] += taps[: t_len - p.delay_int]
    return g


def apply_channel(
    s: np.ndarray,
    g: np.ndarray,
    n0: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Propagate a time signal through G and add complex AWGN of per-sample
    variance ``n0`` (``n0 = 0`` is noiseless and needs no rng)."""
    s = np.asarray(s)
    if n0 < 0:
        raise ValueError(f"noise variance must be non-negative, got {n0}")
    if g.shape != (s.size, s.size):
        raise ValueError(f"channel matrix shape {g.shape} does not match signal length {s.size}")
    r = g @ s
    if n0 > 0:
        if rng is None:
            raise ValueError("an rng is required when n0 > 0")
        w = np.sqrt(n0 / 2.0) * (rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
        r = r + w
    return r


@lru_cache(maxsize=None)
def full_grid_pairs(d: Dims) -> tuple[tuple[int, int], ...]:
    """Every (delay, signed Doppler) bin of the grid, delay fastest:
    tf_lasso's support and the order of the atom table."""
    return tuple((l, signed_doppler(kc, d.n)) for kc in range(d.n) for l in range(d.m))


@lru_cache(maxsize=None)
def _atom_table(d: Dims) -> tuple[np.ndarray, np.ndarray]:
    """Every grid bin's unit-path atom in closed form, in ``full_grid_pairs``
    order: the read-only (MN, 2, M, M) blocks B_b = F_M T_b F_M^H and the
    read-only (MN, N) Doppler ramps e^{2j pi k n / N}.

    With nu = k / MN, CP-free receive sample i of a symbol holds
    e^{2j pi nu j} times payload sample j of the symbol that sent it, taken
    as symbol 0: j = (i - l) mod M of the same symbol when
    i >= l - cp_len (T_0, the diagonal band), else j = (i - l + cp_len) mod M
    of the previous one (T_1, the sub-diagonal band). A sending symbol n
    multiplies its taps by ramp[n], so atom (l, k) has [0, n] = ramp[n] B_0
    and [1, n] = ramp[n - 1] B_1.
    """
    m, size = d.m, d.grid_size
    delay, doppler = np.array(full_grid_pairs(d)).T
    i = np.arange(m)
    taps = np.exp(2j * np.pi * np.outer(doppler / size, i))
    band = (i < delay[:, None] - d.cp_len).astype(int)
    col = (i - delay[:, None] + band * d.cp_len) % m
    slot = np.arange(size)[:, None]
    t = np.zeros((size, 2, m, m), dtype=complex)
    t[slot, band, i, col] = taps[slot, col]
    fm = dft_matrix(m)
    blocks = fm @ t @ fm.conj().T
    ramps = np.exp(2j * np.pi * np.outer(doppler, np.arange(d.n)) / d.n)
    blocks.setflags(write=False)
    ramps.setflags(write=False)
    return blocks, ramps


def _unit_path_atoms(d: Dims, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The table's blocks (P, 2, M, M) and ramps (P, N) of the (delay,
    doppler) pairs, in order. Only the grid's own bins have atoms, bin
    (l, k) at slot (k mod N) * M + l; any other pair is rejected before
    the lookup. The full grid's pairs, as the ``full_grid_pairs`` tuple,
    are the table's own order and get the read-only table itself."""
    if pairs == full_grid_pairs(d):
        return _atom_table(d)
    _check_bins(pairs, d)
    slots = [doppler % d.n * d.m + delay for delay, doppler in pairs]
    blocks, ramps = _atom_table(d)
    return blocks[slots], ramps[slots]


def reconstruct(h: np.ndarray, pairs: tuple[tuple[int, int], ...], d: Dims) -> np.ndarray:
    """Effective TF channel sum_i h_i H_TF(pairs[i]) of path gains h on the
    unit-path atoms, as its two symbol-block bands: a (2, N, M, M) array
    whose [0, n] is the diagonal block of symbol n and [1, n] the block
    through which symbol n - 1 leaks into symbol n ([1, 0] is zero). Each
    band is one (N x P) @ (P x M^2) product of the gains times the ramps
    with the table's blocks. h must hold exactly one gain per pair."""
    if len(h) != len(pairs):
        raise ValueError(f"{len(h)} gains for {len(pairs)} pairs: reconstruct needs one gain per pair")
    blocks, ramps = _unit_path_atoms(d, pairs)
    weights = (np.asarray(h)[:, None] * ramps).T
    flat = blocks.reshape(len(blocks), 2, d.m * d.m)
    bands = np.zeros((2, d.n, d.m * d.m), dtype=complex)
    np.matmul(weights, flat[:, 0], out=bands[0])
    np.matmul(weights[:-1], flat[:, 1], out=bands[1, 1:])
    return bands.reshape(2, d.n, d.m, d.m)


def atom_columns(x_tf: np.ndarray, pairs: tuple[tuple[int, int], ...], d: Dims) -> np.ndarray:
    """The (MN, P) matrix whose column i is vec(H_TF(pairs[i]) vec(x_tf)), the
    response of unit path i to the M x N frame: per symbol n, ramp[n] B_0 x_n
    plus ramp[n - 1] B_1 x_{n - 1}."""
    blocks, ramps = _unit_path_atoms(d, pairs)
    x = np.asarray(x_tf)
    columns = blocks[:, 0] @ x * ramps[:, None, :]
    columns[:, :, 1:] += blocks[:, 1] @ x[:, :-1] * ramps[:, None, :-1]
    return columns.transpose(2, 1, 0).reshape(d.grid_size, len(blocks))


def effective_tf_channel(ch: ChannelRealization) -> np.ndarray:
    """Effective TF channel H_TF = (I_N kron F_M R_CP) G (I_N kron A_CP F_M^H)
    of a realization as its two symbol-block bands: the sum of its paths'
    gains times their unit-path atoms (see ``reconstruct``), within 1e-14 of
    the dense sandwich of G, relative in Frobenius norm."""
    pairs = tuple((p.delay_int, p.doppler_int) for p in ch.paths)
    return reconstruct(np.array([p.gain for p in ch.paths]), pairs, ch.dims)


def unit_path_tf_channel(d: Dims, delay: int, doppler: int) -> np.ndarray:
    """The read-only (2, N, M, M) atom of a unit-gain single path, laid out
    as ``reconstruct``'s bands."""
    atom = reconstruct(np.ones(1), ((delay, doppler),), d)
    atom.setflags(write=False)
    return atom


# the atom table's lookups, whose hit ratio bench/run.py reports
unit_path_tf_channel.cache_info = _atom_table.cache_info
