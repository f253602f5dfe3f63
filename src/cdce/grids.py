"""Transforms between the time-frequency, time, and delay-Doppler signal
domains, and the twisted correlation of two delay-Doppler grids.

All grids are M x N complex matrices. TF grids index subcarriers along rows
and OFDM symbols along columns; DD grids index delay bins along rows and
Doppler bins along columns. Vectorization is column-major everywhere
(subcarrier or delay index fastest), so ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``
holds for every identity used below. DFT matrices are unitary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Dims",
    "dft_matrix",
    "vec",
    "unvec",
    "tf_to_time",
    "time_to_tf",
    "add_cp",
    "remove_cp",
    "tf_to_dd",
    "signed_doppler",
    "doppler_col",
    "twisted_convolution",
]


@dataclass(frozen=True)
class Dims:
    """OFDM grid geometry.

    Attributes:
        m: number of subcarriers per symbol.
        n: number of OFDM symbols per frame.
        cp_len: cyclic prefix length in samples, smaller than ``m``.
    """

    m: int = 8
    n: int = 14
    cp_len: int = 2

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid needs m >= 1 and n >= 1, got {self.m}x{self.n}")
        if not 0 <= self.cp_len < self.m:
            raise ValueError(f"cp_len must lie in [0, m), got {self.cp_len}")

    @property
    def grid_size(self) -> int:
        """Number of resource elements, M*N."""
        return self.m * self.n

    @property
    def frame_len(self) -> int:
        """Sample count of the CP-extended frame, (M + cp_len)*N."""
        return (self.m + self.cp_len) * self.n


@lru_cache(maxsize=None)
def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix F[k, l] = exp(-2j pi k l / n) / sqrt(n)."""
    if n < 1:
        raise ValueError(f"DFT size must be positive, got {n}")
    k = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    f.setflags(write=False)
    return f


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(x: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`vec` for an m x n matrix."""
    return np.asarray(x).reshape(m, n, order="F")


def _check_grid(x: np.ndarray, d: Dims, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (d.m, d.n):
        raise ValueError(f"{name} must have shape {(d.m, d.n)}, got {x.shape}")
    return x.astype(complex, copy=False)


def tf_to_time(x: np.ndarray, d: Dims, with_cp: bool = False) -> np.ndarray:
    """Per-symbol unitary inverse DFT of a TF grid, optionally CP-extended.

    Returns the stacked time-domain vector of length M*N, or (M+cp_len)*N
    when ``with_cp`` is set (each symbol block is prefixed by a copy of its
    last ``cp_len`` samples).
    """
    x = _check_grid(x, d, "TF grid")
    s = dft_matrix(d.m).conj().T @ x
    if with_cp:
        return add_cp(vec(s), d)
    return vec(s)


def add_cp(s: np.ndarray, d: Dims) -> np.ndarray:
    """Prefix each M-sample symbol block with its last cp_len samples."""
    s = np.asarray(s)
    if s.shape != (d.grid_size,):
        raise ValueError(
            f"CP-free signal must have length {d.grid_size}, got {s.shape}"
        )
    blocks = unvec(s, d.m, d.n)
    if d.cp_len == 0:
        return vec(blocks)
    return vec(np.vstack([blocks[d.m - d.cp_len:], blocks]))


def remove_cp(r: np.ndarray, d: Dims) -> np.ndarray:
    """Drop the first cp_len samples of each (M+cp_len)-sample block."""
    r = np.asarray(r)
    if r.shape != (d.frame_len,):
        raise ValueError(
            f"CP-extended signal must have length {d.frame_len}, got {r.shape}"
        )
    blocks = unvec(r, d.m + d.cp_len, d.n)
    return vec(blocks[d.cp_len:])


def time_to_tf(r: np.ndarray, d: Dims) -> np.ndarray:
    """Per-symbol unitary DFT, the exact inverse of CP-free tf_to_time."""
    r = np.asarray(r)
    if d.cp_len > 0 and r.shape == (d.frame_len,):
        raise ValueError("signal still carries a CP, call remove_cp first")
    if r.shape != (d.grid_size,):
        raise ValueError(
            f"CP-free signal must have length {d.grid_size}, got {r.shape}"
        )
    return dft_matrix(d.m) @ unvec(r, d.m, d.n)


def tf_to_dd(x: np.ndarray, d: Dims) -> np.ndarray:
    """Map a TF grid to its DD image, vec form kron(F_N, F_M^H) @ vec(x).

    The DFT matrix is symmetric, so the matrix form is F_M^H @ X @ F_N.
    """
    x = _check_grid(x, d, "TF grid")
    return dft_matrix(d.m).conj().T @ x @ dft_matrix(d.n)


def signed_doppler(col: int, n: int) -> int:
    """Map a Doppler column index in [0, N) to its signed value."""
    return col if col <= n // 2 else col - n


def doppler_col(k: int, n: int) -> int:
    """Column index of a signed Doppler value."""
    return k % n


@lru_cache(maxsize=None)
def _twist_tables(m_dim: int, n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and phase of the twisted correlation operator.

    Row (l, k) and column (m, n) are row-major flat indices of an M x N grid.
    ``index`` holds the flat position of X[(m-l) mod M, (n-k) mod N] and
    ``phase`` the factor alpha(m-l, n-k) exp(2j pi k_signed (m-l) / (M N)).
    """
    l, kc, m, n = np.ix_(np.arange(m_dim), np.arange(n_dim), np.arange(m_dim), np.arange(n_dim))
    a = m - l
    b = n - kc
    k = np.where(kc <= n_dim // 2, kc, kc - n_dim)
    alpha = np.where(a < 0, np.exp(-2j * np.pi * b / n_dim), 1.0)
    phase = alpha * np.exp(2j * np.pi * k * a / (m_dim * n_dim))
    index = (a % m_dim) * n_dim + b % n_dim
    mn = m_dim * n_dim
    index = index.reshape(mn, mn)
    phase = phase.reshape(mn, mn)
    index.setflags(write=False)
    phase.setflags(write=False)
    return index, phase


def twisted_convolution(y_dd: np.ndarray, x_dd: np.ndarray) -> np.ndarray:
    """Twisted cross-correlation V[l, k] of two DD grids.

    V[l, k] = sum_{m,n} conj(Y[m, n]) X[(m-l) mod M, (n-k) mod N]
              alpha(m-l, n-k) exp(2j pi k_signed (m-l) / (M N))
    with alpha(a, b) = exp(-2j pi b / N) when a < 0 and 1 otherwise. The
    phase factor uses the signed Doppler value and the unwrapped delay
    difference; both are required for correlation peaks at negative Doppler
    to add coherently instead of cancelling.

    It is evaluated as one matrix-vector product: X is gathered into the
    MN x MN operator X[index] * phase, which multiplies conj(vec Y). The
    gather index and phase tables depend only on (M, N), are built once per
    shape, cached read-only, and hold (MN)^2 entries each (0.3 MB together at
    8 x 14, 1.6 MB at 16 x 16).
    """
    y_dd = np.asarray(y_dd, dtype=complex)
    x_dd = np.asarray(x_dd, dtype=complex)
    if y_dd.shape != x_dd.shape or y_dd.ndim != 2:
        raise ValueError(f"DD grids must share one 2-D shape, got {y_dd.shape} and {x_dd.shape}")
    index, phase = _twist_tables(*y_dd.shape)
    v = (x_dd.ravel()[index] * phase) @ np.conj(y_dd.ravel())
    return v.reshape(y_dd.shape)
