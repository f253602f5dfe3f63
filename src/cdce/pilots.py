"""Pilot sequences, TF frame assembly, and delay-Doppler pilot analysis.

Pilots are laid on a rectangular lattice of the TF grid (or on uniformly
random positions for the randomized-pilot baseline) in column-major scan
order. The remaining resource elements are either zero (pilot-only frames)
or unit-energy QPSK data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Dims, tf_to_dd, twisted_convolution

__all__ = [
    "Lattice",
    "FrameSpec",
    "Frame",
    "make_pilot_sequence",
    "assemble_frame",
    "pilot_dd_image",
    "discrete_af",
]

_SEQUENCE_KINDS = ("all_ones", "walsh", "zadoff_chu")
_DATA_MODES = ("none", "qpsk")
_PLACEMENTS = ("lattice", "uniform_random")


@dataclass(frozen=True)
class Lattice:
    """Pilot lattice geometry: spacings and offsets in each grid dimension."""

    freq_spacing: int = 2
    time_spacing: int = 1
    freq_offset: int = 0
    time_offset: int = 0

    def __post_init__(self) -> None:
        if self.freq_spacing < 1 or self.time_spacing < 1:
            raise ValueError("lattice spacings must be at least 1")
        if self.freq_offset < 0 or self.time_offset < 0:
            raise ValueError("lattice offsets must be non-negative")


@dataclass(frozen=True)
class FrameSpec:
    dims: Dims
    lattice: Lattice = field(default_factory=Lattice)
    sequence_kind: str = "all_ones"
    sequence_param: int | None = None
    pilot_power: float = 1.0
    data_mode: str = "none"
    placement: str = "lattice"

    def __post_init__(self) -> None:
        if self.sequence_kind not in _SEQUENCE_KINDS:
            raise ValueError(f"sequence kind must be one of {_SEQUENCE_KINDS}")
        if self.data_mode not in _DATA_MODES:
            raise ValueError(f"data mode must be one of {_DATA_MODES}")
        if self.placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}")
        if not (math.isfinite(self.pilot_power) and self.pilot_power > 0):
            raise ValueError(f"pilot power must be finite and positive, got {self.pilot_power}")
        if self.lattice.freq_offset >= self.dims.m or self.lattice.time_offset >= self.dims.n:
            raise ValueError("lattice offsets leave no pilot positions")
        if self.data_mode == "qpsk" and self.n_pilots == self.dims.grid_size:
            raise ValueError("pilots fill every resource element, leaving none for a qpsk data fill")
        # the sequence is built per frame; an impossible length or parameter fails here
        make_pilot_sequence(self.sequence_kind, self.n_pilots, self.sequence_param)

    @property
    def n_pilots(self) -> int:
        rows = len(range(self.lattice.freq_offset, self.dims.m, self.lattice.freq_spacing))
        cols = len(range(self.lattice.time_offset, self.dims.n, self.lattice.time_spacing))
        return rows * cols


@dataclass(frozen=True)
class Frame:
    """Assembled TF frame: full grid, pilot-only grid, and the pilot mask."""

    tf: np.ndarray
    pilot_only_tf: np.ndarray
    pilot_mask: np.ndarray
    dims: Dims


def make_pilot_sequence(kind: str, length: int, param: int | None = None) -> np.ndarray:
    """Generate a unit-modulus pilot sequence.

    ``param`` selects the Sylvester-Hadamard row for ``walsh`` (default
    length // 2) and the root for ``zadoff_chu`` (default 1, must be coprime
    with the length).
    """
    if length < 1:
        raise ValueError(f"sequence length must be positive, got {length}")
    if kind == "all_ones":
        return np.ones(length, dtype=complex)
    if kind == "walsh":
        if length & (length - 1):
            raise ValueError(f"Walsh sequences need a power-of-two length, got {length}")
        row = length // 2 if param is None else param
        if not 0 <= row < length:
            raise ValueError(f"Walsh row must lie in [0, {length}), got {row}")
        # Sylvester-Hadamard row: H[row, j] = (-1)^popcount(row & j), with the
        # parity folded bit by bit (np.bitwise_count needs numpy 2)
        bits = row & np.arange(length)
        parity = np.zeros(length, dtype=int)
        for shift in range(length.bit_length()):
            parity ^= (bits >> shift) & 1
        return (1 - 2 * parity).astype(complex)
    if kind == "zadoff_chu":
        root = 1 if param is None else param
        if math.gcd(root, length) != 1:
            raise ValueError(f"Zadoff-Chu root {root} must be coprime with the length {length}")
        n = np.arange(length)
        # n (n + 1) on odd lengths, n^2 on even ones
        return np.exp(-1j * np.pi * (root * n * (n + length % 2)) / length)
    raise ValueError(f"unknown sequence kind {kind!r}")


def _pilot_positions(spec: FrameSpec, rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the pilots, in column-major scan order."""
    d = spec.dims
    if spec.placement == "lattice":
        rows = np.arange(spec.lattice.freq_offset, d.m, spec.lattice.freq_spacing)
        cols = np.arange(spec.lattice.time_offset, d.n, spec.lattice.time_spacing)
        return np.tile(rows, cols.size), np.repeat(cols, rows.size)
    if rng is None:
        raise ValueError("uniform_random placement needs an rng")
    flat = np.sort(rng.choice(d.grid_size, size=spec.n_pilots, replace=False))
    return flat % d.m, flat // d.m


def assemble_frame(spec: FrameSpec, rng: np.random.Generator | None = None) -> Frame:
    """Build a frame from its spec.

    QPSK data fill and the uniform_random placement consume randomness and
    therefore require ``rng``.
    """
    d = spec.dims
    rows, cols = _pilot_positions(spec, rng)
    seq = make_pilot_sequence(spec.sequence_kind, rows.size, spec.sequence_param)
    pilot_only = np.zeros((d.m, d.n), dtype=complex)
    mask = np.zeros((d.m, d.n), dtype=bool)
    pilot_only[rows, cols] = math.sqrt(spec.pilot_power) * seq
    mask[rows, cols] = True
    tf = pilot_only.copy()
    if spec.data_mode == "qpsk":
        if rng is None:
            raise ValueError("QPSK data fill needs an rng")
        bits = rng.integers(0, 2, size=(d.m, d.n, 2))
        symbols = ((2 * bits[..., 0] - 1) + 1j * (2 * bits[..., 1] - 1)) / math.sqrt(2)
        tf = np.where(mask, pilot_only, symbols)
    return Frame(tf=tf, pilot_only_tf=pilot_only, pilot_mask=mask, dims=d)


def pilot_dd_image(frame: Frame) -> np.ndarray:
    """DD image of the pilot-only part of a frame."""
    return tf_to_dd(frame.pilot_only_tf, frame.dims)


def discrete_af(x_dd: np.ndarray) -> np.ndarray:
    """Discrete ambiguity function of a DD grid.

    This is the self-correlation case of the twisted convolution, so
    A[0, 0] equals the grid energy and |A| peaks there.
    """
    return twisted_convolution(x_dd, x_dd)
