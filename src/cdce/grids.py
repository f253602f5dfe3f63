"""Transforms between the time-frequency, time, and delay-Doppler signal
domains, and the twisted correlation of two delay-Doppler grids.

All grids are M x N complex matrices. TF grids index subcarriers along rows
and OFDM symbols along columns; DD grids index delay bins along rows and
Doppler bins along columns. Vectorization is column-major everywhere
(subcarrier or delay index fastest), so ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``
holds for every identity used below. DFT matrices are unitary. The twisted
correlation of two DD grids is the discrete cross-ambiguity of their
MN-sample time sequences x = vec(X F_N^H), the CP-free ``tf_to_time`` of the
TF grids they image.
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
    """The read-only (M, MN) shift index (t + l) mod MN and (MN, N) Doppler
    ramps exp(2j pi k_signed t / (M N)) of the cross-ambiguity."""
    mn = m_dim * n_dim
    t = np.arange(mn)
    shift = (np.arange(m_dim)[:, None] + t) % mn
    k = np.array([signed_doppler(kc, n_dim) for kc in range(n_dim)])
    ramps = np.exp(2j * np.pi * np.outer(t, k) / mn)
    shift.setflags(write=False)
    ramps.setflags(write=False)
    return shift, ramps


def twisted_convolution(y_dd: np.ndarray, x_dd: np.ndarray) -> np.ndarray:
    """Twisted cross-correlation V[l, k] of two DD grids,

    V[l, k] = sum_{m,n} conj(Y[m, n]) X[(m-l) mod M, (n-k) mod N]
              alpha(m-l, n-k) exp(2j pi k_signed (m-l) / (M N))
    with alpha(a, b) = exp(-2j pi b / N) when a < 0 and 1 otherwise; the
    signed Doppler and unwrapped delay make negative-Doppler peaks add up.

    It equals exactly the discrete cross-ambiguity of the time sequences
    y = vec(Y F_N^H) and x = vec(X F_N^H),
    V[l, k] = sum_t conj(y[(t + l) mod MN]) x[t] exp(2j pi k_signed t / (M N)):
    one (M x MN) @ (MN x N) product with the shift index and Doppler ramps,
    cached read-only per shape, MN (M + N) entries (32 KB at 8 x 14).
    """
    y_dd = np.asarray(y_dd, dtype=complex)
    x_dd = np.asarray(x_dd, dtype=complex)
    if y_dd.shape != x_dd.shape or y_dd.ndim != 2:
        raise ValueError(f"DD grids must share one 2-D shape, got {y_dd.shape} and {x_dd.shape}")
    shift, ramps = _twist_tables(*y_dd.shape)
    f_nh = dft_matrix(y_dd.shape[1]).conj()
    y = vec(y_dd @ f_nh)
    x = vec(x_dd @ f_nh)
    return (np.conj(y)[shift] * x) @ ramps
