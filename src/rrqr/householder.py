"""Householder reflectors and unpivoted QR factorizations.

A reflector is parametrized as ``H(u) = I - (1/tau) u u^T`` with
``u = [1; u_tail]`` and ``tau = (u^T u) / 2``, so that ``H(u) x = rho e_0``.
The sign convention is ``rho = -sign(x_0) * ||x||`` (sign(0) = +1), which
keeps the head update cancellation-free; R diagonals therefore come out
with flipped signs relative to the input.

A factorization overwrites its input: R lives on and above the diagonal,
reflector tails below it.  Unpivoted panels are factored by LAPACK dgeqrf,
whose reflectors are mapped onto this convention.  Each finished column
panel gets an upper-triangular block T, the strictly upper part of U^T U
plus diag(tau) (the UT transform of Joffrain et al., 2006), which turns
the reflector product into the block form

    H(u_{b-1}) ... H(u_1) H(u_0) = I - U T^{-T} U^T

and hence Q = I - U T^{-1} U^T.  Blocked trailing updates and Q formation
all run through that identity, in place, as one LAPACK dlarfb call each
(``_kernels.larfb``) with LAPACK's block factor T^{-1}.  dlarfb reads
only the strictly lower part of U, so the packed panel serves as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack, qr

from ._kernels import check_operand, larfb
from .core import FlopCounter, _as_index, _check_block, _scale_into_range, trail_to_permutation


class Reflector(NamedTuple):
    rho: float
    u_tail: np.ndarray
    tau: float


def housev(x) -> Reflector:
    """Reflector taking `x` to rho * e_0.

    A zero input is mapped to the degenerate convention rho = 0,
    u_tail = 0, tau = 1/2 (the reflector negates the head coordinate and
    leaves the tail alone), which keeps factorizations of rank-deficient
    matrices total and every Q orthogonal.  Any `x` whose 2-norm is within
    the double range gets its reflector; a larger one raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("housev needs a 1-D vector of length >= 1")
    amax = float(np.max(np.abs(x)))
    if amax == 0.0:
        return Reflector(0.0, np.zeros(len(x) - 1), 0.5)
    scaled = x / amax
    nrm = amax * float(np.sqrt(scaled @ scaled))
    if nrm == np.inf:
        raise ValueError("housev: the norm of x is beyond the double range")
    sign = -1.0 if x[0] < 0 else 1.0
    rho = -sign * nrm
    # x0 - rho = sign(x0)(|x0| + nrm), no cancellation; past 2^1023 that sum
    # overflows, so there both sides are halved, exactly
    if nrm > 2.0**1022:
        u_tail = (0.5 * x[1:]) / (0.5 * x[0] - 0.5 * rho)
    else:
        u_tail = x[1:] / (x[0] - rho)
    tau = 0.5 * (1.0 + float(u_tail @ u_tail))
    return Reflector(rho, u_tail, tau)


@dataclass
class QRFactors:
    """Packed factorization: R above the diagonal, reflector tails below.

    `t_blocks` holds one T block per column panel, in column order; the
    panel starts, the taus and the reflector count r are read off them.
    `trail` is the pivot swap trail (empty for unpivoted factorizations).
    """

    packed: np.ndarray
    t_blocks: list
    trail: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def panel_starts(self) -> list:
        """First column of each panel: the cumulative T widths."""
        return list(accumulate((t.shape[0] for t in self.t_blocks), initial=0))[:-1]

    @property
    def taus(self) -> np.ndarray:
        """Every reflector's tau: the T diagonals, where `_form_t` writes them."""
        return np.concatenate([np.diagonal(t) for t in self.t_blocks] or [np.empty(0)])

    @property
    def m(self) -> int:
        return self.packed.shape[0]

    @property
    def n(self) -> int:
        return self.packed.shape[1]

    @property
    def r(self) -> int:
        return sum(t.shape[0] for t in self.t_blocks)

    def r_matrix(self) -> np.ndarray:
        return np.triu(self.packed[: self.r, :])

    def permutation(self) -> np.ndarray:
        return trail_to_permutation(self.trail, self.n)


def _unit_lower(panel: np.ndarray, width: int) -> np.ndarray:
    """Dense reflector block U from a packed panel (unit diagonal)."""
    u = np.tril(panel[:, :width], -1)
    u[np.arange(width), np.arange(width)] = 1.0
    return u


def _form_t(panel: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """T block of a factored panel: strictly upper part of U^T U plus diag(taus)."""
    width = len(taus)
    u = _unit_lower(panel, width)
    t = np.triu(u.T @ u, 1)
    t[np.diag_indices(width)] = taus
    return t


def _factors(a: np.ndarray, e: int, t_blocks: list, trail=None) -> QRFactors:
    """Driver epilogue: scale R back by 2^e and pack the factors.

    `e` is the exponent returned by ``core._scale_into_range``; R's rows
    and the unfactored block are scaled back, the reflector tails are not.
    """
    f = QRFactors(a, t_blocks) if trail is None else QRFactors(a, t_blocks, trail)
    if e != 0:
        r = f.r
        for j in range(a.shape[1]):
            top = a[: min(j + 1, r), j]
            np.ldexp(top, e, out=top)
        np.ldexp(a[r:, r:], e, out=a[r:, r:])
    return f


def _lapack_qr(x: np.ndarray, pivoting: bool = False):
    """Factor `x` in place by LAPACK dgeqrf (dgeqp3 with `pivoting`).

    Returns (taus, order): the taus of the `housev` convention, and the
    0-based column order that dgeqp3 chose and `x` now follows (None
    without pivoting).  Both conventions take rho = -sign(x_0) ||x|| and a
    unit head, so tau = 1/tau_lapack.  LAPACK skips a reflector whose tail
    is already zero (tau_lapack = 0, H = I), where `housev` negates the
    head (tau = 1/2); R's row k is then negated from column k on, which is
    exact because later reflectors touch only lower rows.  At a -0.0 head
    LAPACK takes rho = +||x|| where `housev` takes sign(0) = +1; both are
    valid reflectors.
    """
    out = qr(x, mode="raw", pivoting=pivoting, check_finite=False)
    h, tau_lapack = out[0]
    x[...] = h
    taus = np.full(len(tau_lapack), 0.5)
    reflected = tau_lapack != 0.0
    taus[reflected] = 1.0 / tau_lapack[reflected]
    for k in np.flatnonzero(~reflected):
        x[k, k:] *= -1.0
    return taus, (out[2] if pivoting else None)


def hqr_unb_formT(panel: np.ndarray):
    """Unblocked panel factorization by LAPACK; returns (T, taus).

    The panel is overwritten with R and the reflector tails, and T is
    formed from the finished panel.  A panel that BLAS cannot change in
    place raises ValueError before anything is written, as a driver's
    input does (``_kernels.check_operand``).
    """
    check_operand(panel, "panel", written=True)
    h, w = panel.shape
    if w > h:
        raise ValueError(f"panel must have at most as many columns as rows ({h}x{w})")
    taus, _ = _lapack_qr(panel)
    return _form_t(panel, taus), taus


def hqr_unb(a: np.ndarray) -> QRFactors:
    """Unblocked HQR of any shape by LAPACK dgeqrf, in place, with one T block.

    An input outside the safe scale window is factored scaled by a power
    of two (``core._scale_into_range``).
    """
    e = _scale_into_range(a)
    taus, _ = _lapack_qr(a)
    return _factors(a, e, [_form_t(a, taus)])


def _lapack_t(t: np.ndarray) -> np.ndarray:
    """LAPACK's block factor of a T block, T^{-1}: H = I - U T^{-1} U^T."""
    t_inv, info = lapack.dtrtri(t)
    if info != 0:
        raise ValueError(f"T block is singular (dtrtri info={info})")
    return t_inv


def apply_block_qt(
    panel: np.ndarray, t: np.ndarray, b_mat: np.ndarray, fc: FlopCounter | None = None
) -> None:
    """Apply the accumulated block reflector: B := (I - U T^{-1} U^T)^T B.

    `panel` is the packed panel holding U below its diagonal; `b_mat` must
    have as many rows as the panel and is updated in place by one LAPACK
    dlarfb call with T^{-1}, so a `b_mat` that BLAS cannot change in place
    raises ValueError unchanged (``_kernels.check_operand``).
    """
    width = t.shape[0]
    if panel.shape[0] != b_mat.shape[0]:
        raise ValueError("panel and target row counts differ")
    if width > panel.shape[1]:
        raise ValueError("T order exceeds panel width")
    if width == 0 or b_mat.shape[1] == 0:
        return
    larfb("L", "T", panel[:, :width], _lapack_t(t), b_mat, fc)


def hqr_blk(a: np.ndarray, b: int, fc: FlopCounter | None = None) -> QRFactors:
    """Blocked HQR via the accumulated-reflector trailing update.

    An input outside the safe scale window is factored scaled by a power
    of two (``core._scale_into_range``).
    """
    b, _ = _check_block(b)
    e = _scale_into_range(a)
    r = min(a.shape)
    blocks = []
    for j in range(0, r, b):
        bw = min(b, r - j)
        t, _ = hqr_unb_formT(a[j:, j : j + bw])
        apply_block_qt(a[j:, j : j + bw], t, a[j:, j + bw :], fc)
        blocks.append(t)
    return _factors(a, e, blocks)


def form_q(f: QRFactors, k: int, fc: FlopCounter | None = None) -> np.ndarray:
    """First `k` columns of Q = H(u_0) H(u_1) ... H(u_{r-1}).

    Each panel's block reflector multiplies the rows it touches in place,
    last panel first, by one LAPACK dlarfb call with T^{-1}.
    """
    k = _as_index(k, "column count")
    if k > f.m:
        raise ValueError(f"cannot form {k} columns of a {f.m}-row Q")
    q = np.eye(f.m, k, order="F")
    for j, t in zip(reversed(f.panel_starts), reversed(f.t_blocks)):
        bw = t.shape[0]
        if bw:
            larfb("L", "N", f.packed[j:, j : j + bw], _lapack_t(t), q[j:, :], fc)
    return q
