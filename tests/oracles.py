"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: explicit scalar loops,
dense Kronecker products, numerical quadrature, and plain (non-accelerated)
iterative solvers. None of it imports the implementation being tested beyond
basic array plumbing.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad


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


def rect_af_quadrature(tau: float, nu: float, ts: float = 1.0) -> complex:
    """Numerical evaluation of the pulse ambiguity integral
    A(tau, nu) = int p(t) p*(t - tau) exp(-2j pi nu (t - tau)) dt
    for the unit-energy rectangular pulse p = 1/sqrt(ts) on [0, ts)."""
    lo = max(0.0, tau)
    hi = ts + min(0.0, tau)
    if hi <= lo:
        return 0.0 + 0.0j

    def integrand_re(t):
        return math.cos(-2.0 * math.pi * nu * (t - tau)) / ts

    def integrand_im(t):
        return math.sin(-2.0 * math.pi * nu * (t - tau)) / ts

    re, _ = quad(integrand_re, lo, hi, limit=200)
    im, _ = quad(integrand_im, lo, hi, limit=200)
    return re + 1j * im


def time_channel_oracle(
    paths: list[tuple[complex, int, int]],
    m: int,
    n: int,
    cp_len: int,
    pulse_kind: str,
) -> np.ndarray:
    """Time-domain channel matrix on the CP-extended frame, entry by entry:
    G[r, c] = sum_p g_p exp(2j pi k_p phi(c) / MN) conj(A(l_p - (r - c), k_p / MN))
    for paths (g_p, l_p, k_p). phi(c) is the payload sample that CP-extended
    sample c carries; A is a Kronecker delta in the lag for the ideal pulse
    and the ambiguity quadrature for the rectangular one."""
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
                tau = l - (r - c)
                nu = k / mn
                if pulse_kind == "ideal":
                    af = 1.0 if tau == 0 else 0.0
                else:
                    af = rect_af_quadrature(tau, nu)
                if af != 0:
                    acc += gain * cmath.exp(2j * math.pi * k * phi[c] / mn) * af.conjugate()
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
