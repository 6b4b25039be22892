"""Test-matrix generators and a one-sided Jacobi SVD oracle.

The first two generators build A = U diag(d) V^T with U, V orthonormal
factors taken from QR of seeded Gaussian matrices, so the singular values
are known by construction and can anchor approximation-error floors.  The
third discretizes a logarithmic single-layer kernel on a closed curve
(deterministic, ill-conditioned), and the fourth is the upper-triangular
construction on which greedy column pivoting famously fails to reveal
rank.  An order `n` that is not a non-negative integer raises ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _as_index
from .householder import form_q, hqr_blk
from .rng import Xoshiro256pp, gaussian_matrix


def _random_orthonormal(rng: Xoshiro256pp, n: int) -> np.ndarray:
    g = gaussian_matrix(rng, n, n)
    return form_q(hqr_blk(g, 64), n)


def _svd_shaped(rng: Xoshiro256pp, d: np.ndarray) -> np.ndarray:
    n = len(d)
    u = _random_orthonormal(rng, n)
    v = _random_orthonormal(rng, n)
    return np.asfortranarray((u * d) @ v.T)


def gen_fast_decay(n: int, rng: Xoshiro256pp, beta: float = 1e-5):
    """Geometric singular-value decay from 1 down to `beta`.

    Returns (A, d) with d_j = beta**(j/(n-1)) for j = 0..n-1.
    """
    n = _as_index(n, "matrix order")
    if n < 2:
        raise ValueError("need n >= 2")
    d = beta ** (np.arange(n) / (n - 1))
    return _svd_shaped(rng, d), d


def gen_s_shape(n: int, rng: Xoshiro256pp):
    """S-shaped profile: values hover near 1, drop fast, flatten at 1e-6.

    The profile is a logistic curve 1 / (1 + exp(40 (j - n/2) / n))
    rescaled onto [1e-6, 1].
    """
    n = _as_index(n, "matrix order")
    if n < 4:
        raise ValueError("need n >= 4")
    j = np.arange(1, n + 1, dtype=np.float64)
    s = 1.0 / (1.0 + np.exp(40.0 * (j - n / 2) / n))
    d = 1e-6 + (s - s[-1]) / (s[0] - s[-1]) * (1.0 - 1e-6)
    d = np.maximum(d, 1e-6)
    return _svd_shaped(rng, d), d


def gen_bie_single_layer(n: int, amplitude: float = 0.2) -> np.ndarray:
    """Single-layer logarithmic kernel on a smooth closed plane curve.

    Nodes sit at n equispaced parameter values of the curve
    r(theta) = (1 - amplitude) + amplitude * cos(3 theta) (the unit circle
    for amplitude = 0); entries are -(1/2pi) log|x_i - x_j| w_j with
    trapezoid arc weights w_j, and the diagonal takes the punctured-rule
    limiting value -(1/2pi) log(w_i / 2pi) w_i.  Deterministic.
    """
    n = _as_index(n, "matrix order")
    if n < 8:
        raise ValueError("need n >= 8")
    theta = 2.0 * math.pi * np.arange(n) / n
    radius = (1.0 - amplitude) + amplitude * np.cos(3.0 * theta)
    dradius = -3.0 * amplitude * np.sin(3.0 * theta)
    x = radius * np.cos(theta)
    y = radius * np.sin(theta)
    speed = np.sqrt(dradius**2 + radius**2)
    w = speed * (2.0 * math.pi / n)
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    np.fill_diagonal(dist, 1.0)  # placeholder, overwritten below
    a = (-1.0 / (2.0 * math.pi)) * np.log(dist) * w[None, :]
    np.fill_diagonal(a, (-1.0 / (2.0 * math.pi)) * np.log(w / (2.0 * math.pi)) * w)
    return np.asfortranarray(a)


def gen_kahan(n: int, zeta: float = 0.99999) -> np.ndarray:
    """Upper-triangular pivoting counterexample diag(zeta^i) * K.

    K is unit upper triangular with constant off-diagonal -phi,
    zeta^2 + phi^2 = 1, so A[i, i] = zeta^i and A[i, j] = -zeta^i * phi
    for j > i.  Every column has unit 2-norm, which is what keeps greedy
    pivoting from ever swapping.
    """
    n = _as_index(n, "matrix order")
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie strictly inside (0, 1)")
    phi = math.sqrt(1.0 - zeta * zeta)
    zpow = zeta ** np.arange(n)
    a = np.triu(np.full((n, n), -phi), 1) * zpow[:, None]
    np.fill_diagonal(a, zpow)
    return np.asfortranarray(a)


def jacobi_svd_values(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 30):
    """Singular values by one-sided Jacobi rotations, descending.

    An independent oracle for tests; the library itself takes singular
    values from LAPACK.  Pairs follow the Brent-Luk round-robin order:
    each step rotates n/2 disjoint column pairs at once (a zero column
    pads odd n), and the n-1 steps of a sweep meet every pair once.
    Sweeps run until every pair's cosine falls below `tol`; raises
    RuntimeError with the residual if `max_sweeps` sweeps do not
    converge.  The values are recomputed from exact column norms.
    """
    w = np.asarray(a, dtype=np.float64)
    if w.shape[0] < w.shape[1]:
        w = w.T
    n = w.shape[1]
    h = (n + 1) // 2
    # row i holds column i; row k of the top half is paired with row k
    # of the bottom half
    cols = np.zeros((2 * h, w.shape[0]))
    cols[:n] = w.T
    spare = np.empty_like(cols)
    off = math.inf
    for _ in range(max_sweeps):
        off = 0.0
        # exact refresh each sweep: the rotation updates below drift on
        # strongly graded columns and can even round negative
        norms2 = np.einsum("ij,ij->i", cols, cols)
        spare_norms2 = np.empty_like(norms2)
        for _ in range(2 * h - 1):
            x, y = cols[:h], cols[h:]
            alpha, beta = norms2[:h], norms2[h:]
            gamma = np.einsum("ij,ij->i", x, y)
            with np.errstate(divide="ignore", invalid="ignore"):
                live = (alpha > 0.0) & (beta > 0.0)
                cosine = np.where(live, np.abs(gamma) / (np.sqrt(alpha) * np.sqrt(beta)), 0.0)
                rotate = cosine > tol
                if rotate.any():
                    off = max(off, float(cosine.max()))
                    zeta = (beta - alpha) / (2.0 * gamma)
                    t = np.where(
                        rotate, np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta)), 0.0
                    )
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = (c * t)[:, None]
                    c = c[:, None]
                    x_new = c * x - s * y
                    y *= c
                    y += s * x
                    x[...] = x_new
                    norms2[:h] = alpha - t * gamma
                    norms2[h:] = beta + t * gamma
            if h > 1:
                # round robin: the first row stays, the others turn one
                # place around the ring top[1:] + reversed(bottom)
                for src, dst in ((cols, spare), (norms2, spare_norms2)):
                    dst[0] = src[0]
                    dst[1] = src[h]
                    dst[2:h] = src[1 : h - 1]
                    dst[h:-1] = src[h + 1 :]
                    dst[-1] = src[h - 1]
                cols, spare = spare, cols
                norms2, spare_norms2 = spare_norms2, norms2
        if off == 0.0:
            exact = np.sqrt(np.einsum("ij,ij->i", cols, cols))  # drop downdating drift
            return np.sort(exact)[::-1][:n].copy()
    raise RuntimeError(
        f"Jacobi sweep limit of {max_sweeps} reached, max column cosine {off:.3e}"
    )
