"""Doubly selective channel generation and its time and TF matrix forms.

A channel realization is a sum of P discrete paths, each with a complex gain,
a delay of ``delay_int + delay_frac`` samples, and a Doppler shift of
``doppler_int + doppler_frac`` cycles per frame of M*N payload samples. The
time-domain matrix G acts on the CP-extended transmit vector; the effective
TF matrix H_TF is the unitary DFT / CP sandwich of G and is the ground truth
that every estimator is scored against.
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
    """One propagation path.

    ``delay_int``/``doppler_int`` are integer grid indices; the ``_frac``
    parts are sub-grid offsets in [-1/2, 1/2].
    """

    gain: complex
    delay_int: int
    doppler_int: int = 0
    delay_frac: float = 0.0
    doppler_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.delay_int < 0:
            raise ValueError(f"delay index must be non-negative, got {self.delay_int}")
        if self.delay_int + self.delay_frac < 0:
            raise ValueError("total delay must be non-negative")
        for frac in (self.delay_frac, self.doppler_frac):
            if not -0.5 <= frac <= 0.5:
                raise ValueError(f"fractional offsets must lie in [-1/2, 1/2], got {frac}")

    @property
    def delay(self) -> float:
        """Total delay in samples."""
        return self.delay_int + self.delay_frac

    @property
    def doppler(self) -> float:
        """Total Doppler in cycles per M*N payload samples."""
        return self.doppler_int + self.doppler_frac


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
        if self.gain_variance is not None and self.gain_variance <= 0:
            raise ValueError(f"gain variance must be positive, got {self.gain_variance}")

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
            if abs(p.doppler) > self.dims.n / 2:
                raise ValueError(
                    f"Doppler {p.doppler} exceeds half the Doppler grid (N/2 = {self.dims.n / 2})"
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
    if stats.k_max > dims.n / 2:
        raise ValueError(f"k_max {stats.k_max} exceeds the Doppler grid (N/2 = {dims.n / 2})")
    flat = rng.choice(n_pairs, size=stats.n_paths, replace=False)
    sigma = math.sqrt(stats.per_path_variance / 2.0)
    gains = sigma * (rng.standard_normal(stats.n_paths) + 1j * rng.standard_normal(stats.n_paths))
    pairs = stats.region_pairs
    paths = tuple(
        PathParams(complex(gain), *pairs[int(idx)]) for idx, gain in zip(flat, gains)
    )
    return ChannelRealization(paths, dims)


def pulse_af(tau: float, nu: float, pulse: Pulse, ts: float = 1.0) -> complex:
    """Pulse ambiguity function A(tau, nu) = integral p(t) p*(t - tau) e^{-2j pi nu (t - tau)} dt.

    ``tau`` is in seconds and ``nu`` in Hz; with the default ``ts = 1`` both
    are in normalized sample units. The rectangular closed form carries the
    signed tau, not |tau|, in its phase; for tau < 0 the overlap window starts
    at t = 0 rather than t = tau, which shifts the phase center.
    """
    if pulse.kind == "ideal":
        return 1.0 + 0.0j if tau == 0 else 0.0 + 0.0j
    at = abs(tau)
    if at >= ts:
        return 0.0 + 0.0j
    overlap = ts - at
    return (
        (overlap / ts)
        * np.sinc(nu * overlap)
        * np.exp(-1j * np.pi * nu * (ts - tau))
    )


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


def time_channel_matrix(
    ch: ChannelRealization,
    pulse: Pulse,
    check_delay_spread: bool = True,
) -> np.ndarray:
    """Time-domain channel matrix G on the CP-extended frame.

    G[m, n] = sum_p gain_p * exp(2j pi doppler_p * phi(n) / (M N)) *
    conj(A(tau_p - (m - n), nu_p)) with phi the payload-sample clock; the
    receive index is the row and the transmit index is the column. With
    ``check_delay_spread`` the total delay of every path must fit inside the
    CP; dictionary atoms beyond the CP disable the check.
    """
    d = ch.dims
    t_len = d.frame_len
    mn = d.grid_size
    phi = _payload_indices(d)
    g = np.zeros((t_len, t_len), dtype=complex)
    cols = np.arange(t_len)
    for p in ch.paths:
        if pulse.kind == "ideal" and p.delay_frac != 0.0:
            raise ValueError("the ideal pulse supports integer delays only")
        if check_delay_spread and p.delay > d.cp_len:
            raise ValueError(
                f"path delay {p.delay} exceeds the CP length {d.cp_len}"
            )
        nu = p.doppler / mn
        mod = p.gain * np.exp(2j * np.pi * nu * phi)
        q_lo = max(math.ceil(p.delay - 1.0), 0)
        q_hi = math.floor(p.delay + 1.0)
        for q in range(q_lo, q_hi + 1):
            a = pulse_af(p.delay - q, nu, pulse)
            if a == 0:
                continue
            src = cols[: t_len - q] if q > 0 else cols
            g[src + q, src] += np.conj(a) * mod[src]
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


def effective_tf_channel(g: np.ndarray, d: Dims) -> np.ndarray:
    """Effective TF channel H_TF = (I_N kron F_M R_CP) G (I_N kron A_CP F_M^H).

    Evaluated blockwise; the MN x MN Kronecker factors are never materialized.
    """
    span = d.m + d.cp_len
    if g.shape != (d.frame_len, d.frame_len):
        raise ValueError(
            f"channel matrix must be {d.frame_len} x {d.frame_len}, got {g.shape}"
        )
    fm = dft_matrix(d.m)
    eye = np.eye(d.m)
    r_cp = np.hstack([np.zeros((d.m, d.cp_len)), eye])
    a_cp = np.vstack([eye[d.m - d.cp_len:], eye]) if d.cp_len else eye
    c = fm @ r_cp
    b = a_cp @ fm.conj().T
    blocks = g.reshape(d.n, span, d.n, span)
    h = np.einsum("ij,ajbk,kl->aibl", c, blocks, b, optimize=True)
    return np.ascontiguousarray(h.reshape(d.grid_size, d.grid_size))


@lru_cache(maxsize=None)
def unit_path_tf_channel(d: Dims, pulse: Pulse, delay: int, doppler: int) -> np.ndarray:
    """Cached H_TF of a unit-gain single path at integer (delay, doppler)."""
    ch = ChannelRealization((PathParams(1.0 + 0.0j, delay, doppler),), d)
    g = time_channel_matrix(ch, pulse, check_delay_spread=False)
    h = effective_tf_channel(g, d)
    h.setflags(write=False)
    return h
