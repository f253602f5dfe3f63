"""Doubly selective channel generation and its time and TF matrix forms.

A channel realization is a sum of P discrete paths, each with a complex gain,
an integer delay of ``delay_int`` samples, and an integer Doppler shift of
``doppler_int`` cycles per frame of M*N payload samples. The time-domain
matrix G acts on the CP-extended transmit vector, and each path adds one tap
to it. The effective TF matrix H_TF, the unitary DFT / CP sandwich of G, is
the ground truth that every estimator is scored against: the paths' gains on
their unit-path atoms (see ``unit_path_atoms``), summed by ``reconstruct``.
Atoms exist for the grid's own bins only, 0 <= delay < M and
-N/2 < doppler <= N/2, cached as one stack per (dims, pulse).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import Dims, dft_matrix, signed_doppler

__all__ = [
    "Pulse",
    "PathParams",
    "ChannelStats",
    "ChannelRealization",
    "draw_paths",
    "sample_channel",
    "pulse_af",
    "time_channel_matrix",
    "apply_channel",
    "effective_tf_channel",
    "full_grid_pairs",
    "unit_path_atoms",
    "reconstruct",
    "unit_path_tf_channel",
]

_PULSE_KINDS = ("ideal", "rectangular")


@dataclass(frozen=True)
class Pulse:
    """Transmit pulse shape: ``ideal`` (Kronecker AF on the sample grid) or
    ``rectangular`` (unit-energy boxcar of one sample period)."""

    kind: str = "ideal"

    def __post_init__(self) -> None:
        if self.kind not in _PULSE_KINDS:
            raise ValueError(f"pulse kind must be one of {_PULSE_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class PathParams:
    """One propagation path at integer delay ``delay_int`` (samples) and
    integer Doppler ``doppler_int`` (cycles per M*N payload samples)."""

    gain: complex
    delay_int: int
    doppler_int: int = 0

    def __post_init__(self) -> None:
        if self.delay_int < 0:
            raise ValueError(f"delay index must be non-negative, got {self.delay_int}")


@dataclass(frozen=True)
class ChannelStats:
    """Ensemble parameters of the random channel.

    ``gain_variance`` defaults to 1/n_paths so the average total path power
    is one.
    """

    n_paths: int = 3
    l_max: int = 2
    k_max: int = 3
    gain_variance: float | None = None

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError(f"need at least one path, got {self.n_paths}")
        if self.l_max < 0 or self.k_max < 0:
            raise ValueError("l_max and k_max must be non-negative")
        if self.gain_variance is not None and not (
            math.isfinite(self.gain_variance) and self.gain_variance > 0
        ):
            raise ValueError(f"gain variance must be finite and positive, got {self.gain_variance}")

    @property
    def per_path_variance(self) -> float:
        return 1.0 / self.n_paths if self.gain_variance is None else self.gain_variance

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


@dataclass(frozen=True)
class ChannelRealization:
    paths: tuple[PathParams, ...]
    dims: Dims

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("a channel realization needs at least one path")
        for p in self.paths:
            if abs(p.doppler_int) > self.dims.n / 2:
                raise ValueError(
                    f"Doppler {p.doppler_int} exceeds half the Doppler grid (N/2 = {self.dims.n / 2})"
                )


def draw_paths(
    stats: ChannelStats,
    dims: Dims,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one random channel's paths as flat indices into
    ``stats.region_pairs`` and complex gains: distinct (delay, Doppler) bins
    uniform over [0, l_max] x [-k_max, k_max], i.i.d. complex Gaussian gains."""
    n_pairs = stats.region_size
    if stats.n_paths > n_pairs:
        raise ValueError(
            f"cannot draw {stats.n_paths} distinct (delay, Doppler) pairs from a "
            f"region of {n_pairs}"
        )
    if 2 * stats.k_max >= dims.n:
        # on even N, Doppler +N/2 and -N/2 are one DD column
        raise ValueError(
            f"k_max {stats.k_max} must stay below half the Doppler grid (N/2 = {dims.n / 2})"
        )
    flat = rng.choice(n_pairs, size=stats.n_paths, replace=False)
    sigma = math.sqrt(stats.per_path_variance / 2.0)
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


def pulse_af(nu: float, pulse: Pulse) -> complex:
    """Pulse ambiguity function at zero lag, A(0, nu) = integral |p(t)|^2 e^{-2j pi nu t} dt,
    with ``nu`` in cycles per sample.

    At integer delays the pulse enters G only through this value: 1 for the
    ideal pulse, sinc(nu) e^{-j pi nu} for the unit-energy rectangular pulse
    on one sample period.
    """
    if pulse.kind == "ideal":
        return 1.0 + 0.0j
    return np.sinc(nu) * np.exp(-1j * np.pi * nu)


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


def _path_taps(d: Dims, pulse: Pulse, gain: complex, delay: int, doppler: int) -> np.ndarray:
    """The taps G[n + delay, n] of one path, for every transmit sample
    n < frame_len - delay."""
    nu = doppler / d.grid_size
    mod = gain * np.exp(2j * np.pi * nu * _payload_indices(d))
    return np.conj(pulse_af(nu, pulse)) * mod[: d.frame_len - delay]


def time_channel_matrix(ch: ChannelRealization, pulse: Pulse) -> np.ndarray:
    """Time-domain channel matrix G on the CP-extended frame.

    Each path adds one tap on its delay's sub-diagonal:
    G[n + l_p, n] += gain_p * exp(2j pi k_p phi(n) / (M N)) * conj(A(0, k_p / (M N)))
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
        g[src + p.delay_int, src] += _path_taps(d, pulse, p.gain, p.delay_int, p.doppler_int)
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
def _sandwich_factors(d: Dims) -> tuple[np.ndarray, np.ndarray, list]:
    """Per-block factors F_M R_CP and A_CP F_M^H of H_TF, and the dense blockwise
    sandwich's ``optimize=True`` contraction path: contracting G's bands in
    that order keeps every entry bit-identical to the dense H_TF's."""
    span = d.m + d.cp_len
    fm = dft_matrix(d.m)
    eye = np.eye(d.m)
    r_cp = np.hstack([np.zeros((d.m, d.cp_len)), eye])
    a_cp = np.vstack([eye[d.m - d.cp_len:], eye]) if d.cp_len else eye
    c = fm @ r_cp
    b = a_cp @ fm.conj().T
    c.setflags(write=False)
    b.setflags(write=False)
    # the path depends only on the operand shapes
    blocks = np.empty((d.n, span, d.n, span), dtype=complex)
    path, _ = np.einsum_path("ij,ajbk,kl->aibl", c, blocks, b, optimize=True)
    return c, b, path


def _band_sandwich(g_bands: np.ndarray, d: Dims, out: np.ndarray | None = None) -> np.ndarray:
    """TF bands (P, 2, N, M, M) of a stack of G's (P, 2, N, M + cp, M + cp) bands."""
    c, b, path = _sandwich_factors(d)
    return np.einsum("ij,pcajk,kl->pcail", c, g_bands, b, optimize=path,
                     out=np.empty((len(g_bands), 2, d.n, d.m, d.m), dtype=complex) if out is None else out)


# Atoms built per batch: each batch contracts a (B, 2, N, M + cp_len, M + cp_len)
# band stack of G, so the bound keeps a miss of a whole-grid dictionary from
# holding all its bands of G at once.
ATOM_BATCH = 16

# Unit-path atoms by (dims, pulse): the full-grid stack in full_grid_pairs
# order and the mask of its built slots; and the lookups that found or missed
# one, as functools.lru_cache counts them.
_atoms: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_atom_lookups = {"hits": 0, "misses": 0}
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


@lru_cache(maxsize=None)
def full_grid_pairs(d: Dims) -> tuple[tuple[int, int], ...]:
    """Every (delay, signed Doppler) bin of the grid, delay fastest:
    tf_lasso's support and the order of the atom stack."""
    return tuple((l, signed_doppler(kc, d.n)) for kc in range(d.n) for l in range(d.m))


@lru_cache(maxsize=None)
def _band_index(d: Dims, delay: int) -> tuple[np.ndarray, ...]:
    """Where each tap G[n + delay, n] lands in the two symbol-block bands of G:
    (band, receive block, row in block, column in block), band 0 the
    diagonal block and band 1 the block below it."""
    span = d.m + d.cp_len
    src = np.arange(d.frame_len - delay)
    block, row = np.divmod(src + delay, span)
    index = (block - src // span, block, row, src % span)
    for part in index:
        part.setflags(write=False)
    return index


def _build_atoms(d: Dims, pulse: Pulse, pairs, out: np.ndarray | None = None) -> np.ndarray:
    """Bands of the unit-path atoms at ``pairs``, a read-only (P, 2, N, M, M)
    array: each path's taps written into the two symbol-block bands of G and
    contracted through the dense H_TF's per-block factors."""
    g_bands = np.zeros((len(pairs), 2, d.n, d.m + d.cp_len, d.m + d.cp_len), dtype=complex)
    for p, (delay, doppler) in enumerate(pairs):
        band, block, row, col = _band_index(d, delay)
        g_bands[p, band, block, row, col] = _path_taps(d, pulse, 1.0 + 0.0j, delay, doppler)
    bands = _band_sandwich(g_bands, d, out)
    bands.setflags(write=False)
    return bands


def unit_path_atoms(d: Dims, pulse: Pulse, pairs) -> np.ndarray:
    """The atoms of the (delay, doppler) pairs, in order, as one read-only
    (P, 2, N, M, M) stack from the atom cache.

    Each atom is a unit-gain single path's H_TF as its two symbol-block
    bands: a (2, N, M, M) array whose [0, n] is the diagonal block of symbol
    n and [1, n] the block through which symbol n - 1 leaks into symbol n
    ([1, 0] is zero); a delay below M reaches back less than one CP-extended
    symbol, so every other block is exactly zero. The cache holds one stack
    of the grid's own bins, 0 <= delay < M and -N/2 < doppler <= N/2, in
    ``full_grid_pairs`` order: bin (l, k) sits at slot (k mod N) * M + l,
    and any other pair is rejected. Slots not yet built are built straight
    into the stack, ATOM_BATCH at a time. A run of slots, such as the whole
    grid, is returned as a view of the stack, any other pairs as a gathered
    copy.
    """
    m, n = d.m, d.n
    slots = []
    for delay, doppler in pairs:
        if not 0 <= delay < m:
            raise ValueError(f"delay {delay} must be non-negative and below m = {m}")
        if not -n < 2 * doppler <= n:
            raise ValueError(f"Doppler {doppler} is outside the Doppler grid (-N/2, N/2] with N = {n}")
        slots.append(doppler % n * m + delay)
    if (d, pulse) not in _atoms:
        _atoms[(d, pulse)] = (np.empty((d.grid_size, 2, n, m, m), dtype=complex),
                              np.zeros(d.grid_size, dtype=bool))
    stack, built = _atoms[(d, pulse)]
    wanted = np.zeros_like(built)
    wanted[slots] = True
    todo = np.flatnonzero(wanted & ~built)
    for run in np.split(todo, np.flatnonzero(np.diff(todo) != 1) + 1) if todo.size else ():
        for first in range(run[0], run[-1] + 1, ATOM_BATCH):
            last = min(first + ATOM_BATCH, run[-1] + 1)
            _build_atoms(d, pulse, full_grid_pairs(d)[first:last], out=stack[first:last])
            built[first:last] = True
    _atom_lookups["misses"] += todo.size
    _atom_lookups["hits"] += len(slots) - todo.size
    first = slots[0] if slots else 0
    if slots == list(range(first, first + len(slots))):
        atoms = stack[first:first + len(slots)]
    else:
        atoms = stack[slots]
    atoms.setflags(write=False)
    return atoms


def reconstruct(h: np.ndarray, pairs: tuple[tuple[int, int], ...], pulse: Pulse, d: Dims) -> np.ndarray:
    """Effective TF channel sum_i h_i H_TF(pairs[i]) of path gains h on the
    unit-path atoms, as its two symbol-block bands: a (2, N, M, M) array laid
    out as an atom, from one product of the gains with the stacked atoms."""
    atoms = unit_path_atoms(d, pulse, pairs)
    return (np.asarray(h) @ atoms.reshape(len(atoms), 2 * d.grid_size * d.m)).reshape(atoms.shape[1:])


def effective_tf_channel(ch: ChannelRealization, pulse: Pulse) -> np.ndarray:
    """Effective TF channel H_TF = (I_N kron F_M R_CP) G (I_N kron A_CP F_M^H)
    of a realization as its two symbol-block bands: the sum of its paths'
    gains times their unit-path atoms (see ``reconstruct``). A path off the
    grid's bins (delay M or more, Doppler outside (-N/2, N/2]) is rejected."""
    pairs = tuple((p.delay_int, p.doppler_int) for p in ch.paths)
    return reconstruct(np.array([p.gain for p in ch.paths]), pairs, pulse, ch.dims)


def unit_path_tf_channel(d: Dims, pulse: Pulse, delay: int, doppler: int) -> np.ndarray:
    """The cached atom of a unit-gain single path; see ``unit_path_atoms``."""
    return unit_path_atoms(d, pulse, ((delay, doppler),))[0]


def _atom_cache_info() -> CacheInfo:
    size = sum(int(built.sum()) for _, built in _atoms.values())
    return CacheInfo(_atom_lookups["hits"], _atom_lookups["misses"], None, size)


unit_path_tf_channel.cache_info = _atom_cache_info
