"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: explicit scalar loops,
dense Kronecker products, and plain (non-accelerated) iterative solvers.
None of it imports the implementation being tested beyond basic array
plumbing, except ``dense_atom``: it builds the dense MN x MN atom by its
definition from the package's time-domain builder and
``dense_effective_tf`` (both pinned to the oracles here), to check the
closed-form atom table entrywise; ``fit_covariance_reference``, which
draws its ensemble through the package's ``sample_channel`` one realization
at a time, to check the covariance fit's direct draws bit for bit; and
``received_tf``, the tests' one transmit chain, run through the package's
own grid and channel stages.
"""

import cmath
import math

import numpy as np

from cdce.channel import (
    ChannelRealization,
    ChannelStats,
    PathParams,
    apply_channel,
    sample_channel,
    time_channel_matrix,
)
from cdce.grids import Dims, dft_matrix, remove_cp, tf_to_time, time_to_tf


def unitary_dft(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)


def sfft_kron_oracle(x_tf: np.ndarray) -> np.ndarray:
    """DD image via the vectorized Kronecker identity
    vec(F_M^H X F_N) = (F_N^T kron F_M^H) vec(X)."""
    m, n = x_tf.shape
    fm = unitary_dft(m)
    fn = unitary_dft(n)
    op = np.kron(fn.T, fm.conj().T)
    out = op @ x_tf.ravel(order="F")
    return out.reshape(m, n, order="F")


def twisted_convolution_reference(y_dd: np.ndarray, x_dd: np.ndarray) -> np.ndarray:
    """Quadruple-loop scalar evaluation of the twisted cross-correlation."""
    m_dim, n_dim = y_dd.shape
    v = np.zeros((m_dim, n_dim), dtype=complex)
    for l in range(m_dim):
        for kc in range(n_dim):
            k = kc if kc <= n_dim // 2 else kc - n_dim
            acc = 0.0 + 0.0j
            for m in range(m_dim):
                for n in range(n_dim):
                    a = m - l
                    b = n - kc
                    alpha = cmath.exp(-2j * cmath.pi * b / n_dim) if a < 0 else 1.0
                    phase = cmath.exp(2j * cmath.pi * k * a / (m_dim * n_dim))
                    acc += (
                        y_dd[m, n].conjugate()
                        * x_dd[a % m_dim, b % n_dim]
                        * alpha
                        * phase
                    )
            v[l, kc] = acc
    return v


def cross_ambiguity_reference(y_t: np.ndarray, x_t: np.ndarray, m: int, n: int) -> np.ndarray:
    """Scalar-loop discrete cross-ambiguity of two MN-sample time sequences,
    V[l, kc] = sum_t conj(y[(t + l) mod MN]) x[t] exp(2j pi k t / MN) for
    delays l < m, with k the signed Doppler of column kc."""
    mn = m * n
    v = np.zeros((m, n), dtype=complex)
    for l in range(m):
        for kc in range(n):
            k = kc if kc <= n // 2 else kc - n
            acc = 0.0 + 0.0j
            for t in range(mn):
                acc += y_t[(t + l) % mn].conjugate() * x_t[t] * cmath.exp(2j * cmath.pi * k * t / mn)
            v[l, kc] = acc
    return v


def time_channel_oracle(
    paths: list[tuple[complex, int, int]],
    m: int,
    n: int,
    cp_len: int,
) -> np.ndarray:
    """Time-domain channel matrix on the CP-extended frame, entry by entry:
    G[r, c] = sum_p g_p exp(2j pi k_p phi(c) / MN) [r - c = l_p]
    for paths (g_p, l_p, k_p). phi(c) is the payload sample that CP-extended
    sample c carries; the sample grid's pulse has a Kronecker-delta
    ambiguity function, so a path reaches only the entries at its own lag."""
    span = m + cp_len
    t_len = span * n
    mn = m * n
    phi = []
    for c in range(t_len):
        block, offset = divmod(c, span)
        phi.append(block * m + (offset - cp_len) % m)
    g = np.zeros((t_len, t_len), dtype=complex)
    for r in range(t_len):
        for c in range(t_len):
            acc = 0.0 + 0.0j
            for gain, l, k in paths:
                if r - c == l:
                    acc += gain * cmath.exp(2j * math.pi * k * phi[c] / mn)
            g[r, c] = acc
    return g


def add_cp_matrix(m: int, cp_len: int) -> np.ndarray:
    eye = np.eye(m)
    return np.vstack([eye[m - cp_len:], eye]) if cp_len else eye


def remove_cp_matrix(m: int, cp_len: int) -> np.ndarray:
    return np.hstack([np.zeros((m, cp_len)), np.eye(m)])


def dense_effective_tf_oracle(g: np.ndarray, m: int, n: int, cp_len: int) -> np.ndarray:
    """Effective TF channel via explicit Kronecker-product factors."""
    fm = unitary_dft(m)
    rx = np.kron(np.eye(n), fm @ remove_cp_matrix(m, cp_len))
    tx = np.kron(np.eye(n), add_cp_matrix(m, cp_len) @ fm.conj().T)
    return rx @ g @ tx


def dense_effective_tf(g: np.ndarray, d: Dims) -> np.ndarray:
    """The dense MN x MN H_TF of G by blocks: one einsum of every symbol
    block pair of G with the per-block factors F_M R_CP and A_CP F_M^H."""
    span = d.m + d.cp_len
    fm = dft_matrix(d.m)
    c = fm @ remove_cp_matrix(d.m, d.cp_len)
    b = add_cp_matrix(d.m, d.cp_len) @ fm.conj().T
    h = np.einsum("ij,ajbk,kl->aibl", c, g.reshape(d.n, span, d.n, span), b, optimize=True)
    return np.ascontiguousarray(h.reshape(d.grid_size, d.grid_size))


def bands_to_dense(bands: np.ndarray) -> np.ndarray:
    """The MN x MN matrix whose diagonal symbol blocks are bands[0] and whose
    sub-diagonal blocks are bands[1, 1:], zero elsewhere."""
    _, n, m, _ = bands.shape
    dense = np.zeros((n * m, n * m), dtype=complex)
    for r in range(n):
        dense[r * m:(r + 1) * m, r * m:(r + 1) * m] = bands[0, r]
        if r:
            dense[r * m:(r + 1) * m, (r - 1) * m:r * m] = bands[1, r]
    return dense


def dd_to_tf(x: np.ndarray, d: Dims) -> np.ndarray:
    """TF grid of a DD grid, the exact inverse of ``tf_to_dd``:
    F_M X F_N^H."""
    return unitary_dft(d.m) @ np.asarray(x, dtype=complex) @ unitary_dft(d.n).conj().T


def interpolate_grid_loop(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Single-tap interpolation one line at a time with np.interp: each
    pilot column along frequency, then each row along time across the pilot
    columns, real and imaginary parts separately."""
    m, n = mask.shape
    grid = np.zeros((m, n), dtype=complex)
    pilot_cols = [c for c in range(n) if mask[:, c].any()]
    for c in pilot_cols:
        rows = np.flatnonzero(mask[:, c])
        col = values[rows, c]
        grid[:, c] = np.interp(np.arange(m), rows, col.real) + 1j * np.interp(np.arange(m), rows, col.imag)
    for r in range(m):
        row = grid[r, pilot_cols]
        grid[r, :] = (
            np.interp(np.arange(n), pilot_cols, row.real)
            + 1j * np.interp(np.arange(n), pilot_cols, row.imag)
        )
    return grid


def dense_fs_lmmse_oracle(
    y: np.ndarray,
    x: np.ndarray,
    mean: np.ndarray,
    factor: np.ndarray,
    n0: float,
) -> np.ndarray:
    """Full-size LMMSE with the dense covariance and the dense selection
    matrix X = (x^T kron I), no factorization tricks."""
    mn = x.size
    cov = factor @ factor.conj().T
    x_dense = np.kron(x.reshape(1, -1), np.eye(mn))
    gram = x_dense @ cov @ x_dense.conj().T + n0 * np.eye(mn)
    w = cov @ x_dense.conj().T @ np.linalg.inv(gram)
    return mean + w @ (y - x_dense @ mean)


def ista_reference(
    y: np.ndarray,
    d: np.ndarray,
    lam: float,
    tol: float = 1e-12,
    max_iter: int = 200000,
) -> np.ndarray:
    """Plain proximal gradient (no momentum) for
    0.5 ||y - D h||^2 + lam ||h||_1, run to tight convergence."""
    eps = 1.0 / np.linalg.norm(d, 2) ** 2
    gamma = lam * eps
    h = np.zeros(d.shape[1], dtype=complex)
    for _ in range(max_iter):
        v = h + eps * (d.conj().T @ (y - d @ h))
        mag = np.abs(v)
        h_new = np.where(mag > gamma, (1.0 - gamma / np.maximum(mag, 1e-300)) * v, 0.0)
        delta = np.linalg.norm(h_new - h)
        denom = np.linalg.norm(h)
        h = h_new
        if denom > 0 and delta / denom < tol:
            break
        if denom == 0 and delta == 0:
            break
    return h


def fista_reference(
    y: np.ndarray,
    d: np.ndarray,
    lam: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, bool]:
    """FISTA for 0.5 ||y - D h||^2 + lam ||h||_1 written plainly: the Gram
    and its exact largest eigenvalue formed per call, the complex soft
    threshold inline, np.linalg.norm in the stopping rule (relative change of
    the iterate below ``tol``). Returns the last iterate and whether it
    stopped before ``max_iter``."""
    gram = d.conj().T @ d
    dty = d.conj().T @ y
    eps = 1.0 / float(np.linalg.eigvalsh(gram)[-1])
    gamma = lam * eps
    h = np.zeros(d.shape[1], dtype=complex)
    z = h.copy()
    beta = 1.0
    for _ in range(max_iter):
        v = np.asarray(z + eps * (dty - gram @ z), dtype=complex)
        mag = np.abs(v)
        h_new = np.zeros_like(v)
        above = mag > gamma
        h_new[above] = (1.0 - gamma / mag[above]) * v[above]
        beta_next = (1.0 + math.sqrt(1.0 + 4.0 * beta * beta)) / 2.0
        z = h_new + ((beta - 1.0) / beta_next) * (h_new - h)
        beta = beta_next
        delta = float(np.linalg.norm(h_new - h))
        denom = float(np.linalg.norm(h))
        h = h_new
        change = delta / denom if denom > 0 else (0.0 if delta == 0 else math.inf)
        if change < tol:
            return h, True
    return h, False


def dense_atom(d: Dims, l: int, k: int) -> np.ndarray:
    """The dense MN x MN H_TF of a unit-gain single path at (l, k)."""
    ch = ChannelRealization((PathParams(1.0 + 0.0j, l, k),), d)
    return dense_effective_tf(time_channel_matrix(ch), d)


def received_tf(frame, ch, n0=0.0, rng=None):
    """The received TF grid of ``frame`` through the channel ``ch``, with
    complex noise of variance n0 drawn from rng."""
    g = time_channel_matrix(ch)
    s = tf_to_time(frame.tf, frame.dims, with_cp=True)
    r = apply_channel(s, g, n0, rng)
    return time_to_tf(remove_cp(r, frame.dims), frame.dims)


def dense_reconstruct_oracle(h: np.ndarray, atoms: list[np.ndarray]) -> np.ndarray:
    """sum_i h_i atoms[i] accumulated over the whole matrix, term by term,
    skipping zero gains."""
    out = np.zeros_like(atoms[0], dtype=complex)
    for gain, atom in zip(h, atoms):
        if gain != 0:
            out += gain * atom
    return out


def lasso_certificate_gap(y: np.ndarray, d: np.ndarray, lam: float, h: np.ndarray) -> float:
    """Worst relative violation of the subgradient optimality condition of
    0.5 ||y - D h||^2 + lam ||h||_1 at h: zero entries need |g_i| <= lam,
    nonzero entries need g_i = lam h_i / |h_i|."""
    g = d.conj().T @ (y - d @ h)
    worst = 0.0
    for gi, hi in zip(g, h):
        if hi == 0:
            worst = max(worst, (abs(gi) - lam) / lam)
        else:
            worst = max(worst, abs(gi - lam * hi / abs(hi)) / lam)
    return worst


def fit_covariance_reference(
    stats: ChannelStats, d: Dims, k_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and factor of the region path-gain vector, from k_samples
    realizations of ``sample_channel``: each path's gain is added to its
    bin's entry, then the centred samples are factored by an SVD that keeps
    the directions above a 1e-12 relative cutoff (none when every sample is
    the same channel)."""
    pairs = stats.region_pairs
    index = {pair: i for i, pair in enumerate(pairs)}
    samples = np.zeros((len(pairs), k_samples), dtype=complex)
    for j in range(k_samples):
        for p in sample_channel(stats, d, rng).paths:
            samples[index[(p.delay_int, p.doppler_int)], j] += p.gain
    mean = samples.mean(axis=1)
    centered = (samples - mean[:, None]) / np.sqrt(k_samples)
    u, sv, _ = np.linalg.svd(centered, full_matrices=False)
    scale = np.linalg.norm(samples) / np.sqrt(k_samples)
    if sv.size and sv[0] > max(scale, 1.0) * 1e-12:
        r = int(np.sum(sv > sv[0] * 1e-12))
    else:
        r = 0
    return mean, u[:, :r] * sv[:r]
