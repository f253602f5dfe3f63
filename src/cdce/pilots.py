"""Pilot sequences, TF frame assembly, and delay-Doppler pilot analysis.

Pilots are laid on a rectangular lattice of the TF grid anchored at
subcarrier 0 and symbol 0 (or on uniformly random positions for the
randomized-pilot baseline) in column-major scan order, and carry one
all-ones, Walsh or Zadoff-Chu sequence. The remaining resource elements are
either zero (``pilot_only`` frames) or unit-energy QPSK data (``with_data``).
Every pilot symbol has modulus sqrt(pilot_power) > 0, so the pilot positions
are the non-zero entries of a frame's pilot-only grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Dims, tf_to_dd, twisted_convolution

__all__ = [
    "FrameSpec",
    "Frame",
    "make_pilot_sequence",
    "assemble_frame",
    "pilot_dd_image",
    "discrete_af",
    "af_summary",
]

_SEQUENCE_KINDS = ("all_ones", "walsh", "zadoff_chu")
_DATA_MODES = ("pilot_only", "with_data")
_PLACEMENTS = ("lattice", "uniform_random")


@dataclass(frozen=True)
class FrameSpec:
    """Frame layout: a lattice with pilots at every ``freq_spacing``-th
    subcarrier and ``time_spacing``-th symbol from (0, 0), or as many pilots
    at uniformly random positions."""

    dims: Dims
    freq_spacing: int = 2
    time_spacing: int = 1
    sequence_kind: str = "all_ones"
    pilot_power: float = 1.0
    data_mode: str = "pilot_only"
    placement: str = "lattice"

    def __post_init__(self) -> None:
        if self.freq_spacing < 1 or self.time_spacing < 1:
            raise ValueError("lattice spacings must be at least 1")
        if self.sequence_kind not in _SEQUENCE_KINDS:
            raise ValueError(f"sequence kind must be one of {_SEQUENCE_KINDS}, got {self.sequence_kind!r}")
        if self.data_mode not in _DATA_MODES:
            raise ValueError(f"mode must be {' or '.join(_DATA_MODES)}, got {self.data_mode!r}")
        if self.placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}, got {self.placement!r}")
        if not (math.isfinite(self.pilot_power) and self.pilot_power > 0):
            raise ValueError(f"pilot power must be finite and positive, got {self.pilot_power}")
        if self.data_mode == "with_data" and self.n_pilots == self.dims.grid_size:
            raise ValueError("pilots fill every resource element, leaving none for the with_data qpsk fill")
        # the sequence is built per frame; an impossible length fails here
        make_pilot_sequence(self.sequence_kind, self.n_pilots)

    @property
    def n_pilots(self) -> int:
        return len(range(0, self.dims.m, self.freq_spacing)) * len(range(0, self.dims.n, self.time_spacing))


@dataclass(frozen=True)
class Frame:
    """Assembled TF frame: the full grid and the pilot-only grid, whose
    non-zero entries are the pilot positions."""

    tf: np.ndarray
    pilot_only_tf: np.ndarray
    dims: Dims


def make_pilot_sequence(kind: str, length: int) -> np.ndarray:
    """Generate a unit-modulus pilot sequence.

    ``walsh`` is row length // 2 of the Sylvester-Hadamard matrix, and
    ``zadoff_chu`` has root 1.
    """
    if length < 1:
        raise ValueError(f"sequence length must be positive, got {length}")
    if kind == "all_ones":
        return np.ones(length, dtype=complex)
    n = np.arange(length)
    if kind == "walsh":
        if length & (length - 1):
            raise ValueError(f"Walsh sequences need a power-of-two length, got {length}")
        # H[row, j] = (-1)^popcount(row & j), and row = length // 2 has one bit
        return np.where(n & (length // 2), -1.0 + 0j, 1.0 + 0j)
    if kind == "zadoff_chu":
        # n (n + 1) on odd lengths, n^2 on even ones
        return np.exp(-1j * np.pi * (n * (n + length % 2)) / length)
    raise ValueError(f"unknown sequence kind {kind!r}")


def _pilot_positions(spec: FrameSpec, rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the pilots, in column-major scan order."""
    d = spec.dims
    if spec.placement == "lattice":
        rows = np.arange(0, d.m, spec.freq_spacing)
        cols = np.arange(0, d.n, spec.time_spacing)
        return np.tile(rows, cols.size), np.repeat(cols, rows.size)
    if rng is None:
        raise ValueError("uniform_random placement needs an rng")
    flat = np.sort(rng.choice(d.grid_size, size=spec.n_pilots, replace=False))
    return flat % d.m, flat // d.m


def assemble_frame(spec: FrameSpec, rng: np.random.Generator | None = None) -> Frame:
    """Build a frame from its spec.

    The with_data QPSK fill and the uniform_random placement consume
    randomness and therefore require ``rng``.
    """
    d = spec.dims
    rows, cols = _pilot_positions(spec, rng)
    seq = make_pilot_sequence(spec.sequence_kind, rows.size)
    pilot_only = np.zeros((d.m, d.n), dtype=complex)
    pilot_only[rows, cols] = math.sqrt(spec.pilot_power) * seq
    if spec.data_mode == "pilot_only":
        return Frame(tf=pilot_only.copy(), pilot_only_tf=pilot_only, dims=d)
    if rng is None:
        raise ValueError("QPSK data fill needs an rng")
    bits = rng.integers(0, 2, size=(d.m, d.n, 2))
    tf = ((2 * bits[..., 0] - 1) + 1j * (2 * bits[..., 1] - 1)) / math.sqrt(2)
    tf[rows, cols] = pilot_only[rows, cols]
    return Frame(tf=tf, pilot_only_tf=pilot_only, dims=d)


def pilot_dd_image(frame: Frame) -> np.ndarray:
    """DD image of the pilot-only part of a frame."""
    return tf_to_dd(frame.pilot_only_tf, frame.dims)


def discrete_af(x_dd: np.ndarray) -> np.ndarray:
    """Discrete ambiguity function of a DD grid: the discrete AF of its
    MN-sample time sequence x = vec(X F_N^H),
    A[l, k] = sum_t conj(x[(t + l) mod MN]) x[t] exp(2j pi k_signed t / (M N)).

    This is the self-correlation case of the twisted convolution, so
    A[0, 0] equals the grid energy and |A| peaks there.
    """
    return twisted_convolution(x_dd, x_dd)


def af_summary(spec: FrameSpec, rng: np.random.Generator | None = None) -> dict:
    """The pilot analysis of a frame's pilot-only grid: ``n_pilots``,
    ``bins_for_90pct`` (the fewest DD bins holding 90 % of its energy),
    ``af_peak`` (|AF| at the origin) and ``af_max_sidelobe``, the largest
    |AF| off the grating lobes, or 0.0 below 1e-9 of the peak, where it is
    rounding noise of an exact zero. A lattice's grating lobes are the bins
    (j M / freq_spacing, i N / time_spacing), along each axis whose spacing
    divides the grid; a random placement has none but the origin.
    """
    x_dd = pilot_dd_image(assemble_frame(spec, rng))
    energy = np.cumsum(np.sort(np.abs(x_dd.ravel()) ** 2)[::-1])
    af = np.abs(discrete_af(x_dd))
    d = spec.dims
    off_lobe = np.ones(af.shape, dtype=bool)
    if spec.placement == "lattice":
        delays = range(0, d.m, d.m // spec.freq_spacing) if d.m % spec.freq_spacing == 0 else [0]
        dopplers = range(0, d.n, d.n // spec.time_spacing) if d.n % spec.time_spacing == 0 else [0]
        off_lobe[np.ix_(delays, dopplers)] = False
    else:
        off_lobe[0, 0] = False
    peak = float(af[0, 0])
    sidelobe = float(af[off_lobe].max(initial=0.0))
    return {
        "n_pilots": spec.n_pilots,
        "bins_for_90pct": int(np.searchsorted(energy, 0.9 * energy[-1]) + 1),
        "af_peak": peak,
        "af_max_sidelobe": sidelobe if sidelobe >= 1e-9 * peak else 0.0,
    }
