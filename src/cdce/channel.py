"""Doubly selective channel generation and its time and TF matrix forms.

A channel realization is a sum of P discrete paths, each with a complex gain,
an integer delay of ``delay_int`` samples, and an integer Doppler shift of
``doppler_int`` cycles per frame of M*N payload samples. The time-domain
matrix G acts on the CP-extended transmit vector, and each path adds one tap
to it. The effective TF matrix H_TF is the unitary DFT / CP sandwich of G and
is the ground truth that every estimator is scored against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import Dims, dft_matrix, unvec

__all__ = [
    "Pulse",
    "PathParams",
    "ChannelStats",
    "ChannelRealization",
    "sample_channel",
    "pulse_af",
    "time_channel_matrix",
    "apply_channel",
    "effective_tf_channel",
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


def sample_channel(
    stats: ChannelStats,
    dims: Dims,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw a random channel: distinct integer (delay, Doppler) pairs uniform
    over [0, l_max] x [-k_max, k_max], i.i.d. complex Gaussian gains."""
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


def time_channel_matrix(ch: ChannelRealization, pulse: Pulse) -> np.ndarray:
    """Time-domain channel matrix G on the CP-extended frame.

    Each path adds one tap on its delay's sub-diagonal:
    G[n + l_p, n] += gain_p * exp(2j pi k_p phi(n) / (M N)) * conj(A(0, k_p / (M N)))
    with phi the payload-sample clock; the receive index is the row and the
    transmit index is the column. Delays beyond the CP are valid (dictionary
    atoms reach them); ``effective_tf_channel`` then carries the ISI.
    """
    d = ch.dims
    t_len = d.frame_len
    phi = _payload_indices(d)
    g = np.zeros((t_len, t_len), dtype=complex)
    cols = np.arange(t_len)
    for p in ch.paths:
        l = p.delay_int
        nu = p.doppler_int / d.grid_size
        mod = p.gain * np.exp(2j * np.pi * nu * phi)
        src = cols[: t_len - l]
        g[src + l, src] += np.conj(pulse_af(nu, pulse)) * mod[src]
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


_SANDWICH = "ij,ajbk,kl->aibl"


@lru_cache(maxsize=None)
def _sandwich_factors(d: Dims) -> tuple[np.ndarray, np.ndarray, list]:
    """Per-block factors F_M R_CP and A_CP F_M^H of H_TF, and the contraction
    path that ``np.einsum(..., optimize=True)`` would search for on every call."""
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
    path, _ = np.einsum_path(_SANDWICH, c, blocks, b, optimize=True)
    return c, b, path


def effective_tf_channel(g: np.ndarray, d: Dims) -> np.ndarray:
    """Effective TF channel H_TF = (I_N kron F_M R_CP) G (I_N kron A_CP F_M^H).

    Evaluated blockwise; the MN x MN Kronecker factors are never materialized.
    """
    span = d.m + d.cp_len
    if g.shape != (d.frame_len, d.frame_len):
        raise ValueError(
            f"channel matrix must be {d.frame_len} x {d.frame_len}, got {g.shape}"
        )
    c, b, path = _sandwich_factors(d)
    blocks = g.reshape(d.n, span, d.n, span)
    h = np.einsum(_SANDWICH, c, blocks, b, optimize=path)
    return np.ascontiguousarray(h.reshape(d.grid_size, d.grid_size))


@lru_cache(maxsize=None)
def unit_path_tf_channel(d: Dims, pulse: Pulse, delay: int, doppler: int) -> np.ndarray:
    """Cached H_TF of a unit-gain single path at integer (delay, doppler)."""
    ch = ChannelRealization((PathParams(1.0 + 0.0j, delay, doppler),), d)
    g = time_channel_matrix(ch, pulse)
    h = effective_tf_channel(g, d)
    h.setflags(write=False)
    return h
