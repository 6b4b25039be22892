"""Column-pivoted QR: weight downdating, sketch pivoting, and the Householder variants.

Pivoting always moves the remaining column of largest 2-norm to the front,
with ties broken toward the smallest index so that every variant makes the
same deterministic choice.  Squared column norms (weights) are maintained
across steps by subtracting the squares of the freshly computed R row,
``nu_j -> nu_j - r_j^2``, instead of being recomputed; a drift safeguard
recomputes a weight exactly once it has decayed below 1e-8 of its reference
value, where cancellation would otherwise corrupt the pivot order, and then
makes the recomputed weight the new reference, as LAPACK's xLAQP2 does.
Squared norms overflow or underflow long before the entries do; like
every driver, ``hqrp_unb`` and ``hqrp_blk`` factor an input outside the
safe scale window scaled by a power of two (``core._scale_into_range``).

Three factorization drivers live here:

* ``mgsp``       -- pivoted QR of a small matrix by LAPACK dgeqp3, in thin
                    (Q, R, trail) form and truncated at numerical rank;
                    randomized block-pivot selection runs it on the sketch,
                    as the paper runs classical pivoted QR there,
* ``hqrp_unb``   -- Householder QR with pivoting, full trailing updates
                    (variant 1),
* ``hqrp_blk``   -- the blocked form, whose panels run the delayed-update
                    variant 3 on their window alone and leave one rank-b
                    update per panel to a matrix-matrix multiply.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from ._kernels import gemm
from .core import (
    EPS,
    FlopCounter,
    _as_index,
    _check_block,
    _prefix_trail,
    _scale_into_range,
    apply_pivot_trail,
    check_finite,
)
from .householder import QRFactors, _factors, _form_t, housev


class WeightVector:
    """Squared column norms with downdating and a recompute safeguard.

    `v_orig` holds each weight's reference value: its initial value, or
    the value it was last recomputed to.
    """

    RECOMPUTE_FRACTION = 1e-8

    def __init__(self, v):
        self.v = np.array(v, dtype=np.float64)
        self.v_orig = self.v.copy()

    def __len__(self):
        return len(self.v)

    def swap(self, i: int, j: int):
        self.v[[i, j]] = self.v[[j, i]]
        self.v_orig[[i, j]] = self.v_orig[[j, i]]

    def downdate(self, start: int, r_row: np.ndarray, recompute=None):
        """v[start:] -= r_row**2, clamped at zero, with drift safeguard.

        `recompute(j)` must return the exact current squared norm of
        column `j` (absolute index); it is called for every column whose
        downdated weight fell below RECOMPUTE_FRACTION of its reference,
        and the result becomes both the weight and its new reference.
        """
        tail = self.v[start:]
        np.subtract(tail, np.square(r_row), out=tail)
        np.maximum(tail, 0.0, out=tail)
        if recompute is not None:
            ref = self.v_orig[start:]
            drifted = np.nonzero(tail < self.RECOMPUTE_FRACTION * ref)[0]
            for j in drifted:
                tail[j] = ref[j] = recompute(start + int(j))


def compute_weights(a: np.ndarray) -> WeightVector:
    """Weight vector of `a`: squared 2-norm of every column."""
    return WeightVector(np.einsum("ij,ij->j", a, a))


def downdate_weights(v: WeightVector, r_row, recompute=None) -> None:
    v.downdate(0, np.asarray(r_row, dtype=np.float64), recompute)


def determine_pivot(v, offset: int) -> int:
    """Index >= offset of the largest weight; ties go to the smallest index."""
    values = v.v if isinstance(v, WeightVector) else np.asarray(v)
    if offset >= len(values):
        raise IndexError(f"pivot offset {offset} out of range")
    return offset + int(np.argmax(values[offset:]))


def mgsp(a: np.ndarray, max_steps: int | None = None, step_hook=None):
    """Column-pivoted QR of `a` by LAPACK dgeqp3, in thin Gram-Schmidt form.

    Returns (Q, R, trail) with A P = Q R, Q orthonormal and the R diagonal
    nonnegative and non-increasing.  Takes at most `max_steps` pivots and
    stops before the first k with r_kk^2 <= m * eps * max_j ||a_j||^2,
    returning the rank-deficient truncation; R's columns follow the order
    of that truncated trail.  `max_steps` must be None or a non-negative
    integer, and NaN or Inf in `a` raises ValueError.  `a` is left
    untouched.  `step_hook` must be None: LAPACK keeps no state between steps.
    """
    if step_hook is not None:
        raise ValueError("mgsp runs in LAPACK and cannot call a step hook")
    check_finite(a)
    m, n = a.shape
    rmax = min(m, n) if max_steps is None else min(m, n, _as_index(max_steps, "max_steps"))
    if rmax == 0:
        return np.zeros((m, 0)), np.zeros((0, n)), np.empty(0, dtype=np.int64)
    qr, jpvt, tau, _, info = lapack.dgeqp3(a)
    if info != 0:
        raise RuntimeError(f"dgeqp3 failed with info={info}")
    # |r_00| is the largest column norm; compared unsquared so that no
    # scale of `a` overflows or underflows the test
    diag = np.abs(np.diagonal(qr)[:rmax])
    small = np.nonzero(diag <= np.sqrt(m * EPS) * diag[0])[0]
    rank = int(small[0]) if len(small) else rmax
    jpvt -= 1
    trail, order = _prefix_trail(jpvt[:rank], n)
    # dgeqp3 orders R's columns by its full pivot sequence, which goes on
    # past the truncation; reorder them to the truncated trail's order
    where = np.argsort(jpvt)  # where[col] = its position in dgeqp3's order
    r = qr[:rank, where[order]]
    r[np.tril_indices(rank, -1)] = 0.0
    q, _, info = lapack.dorgqr(qr[:, :rank], tau[:rank], overwrite_a=1)
    if info != 0:
        raise RuntimeError(f"dorgqr failed with info={info}")
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    r *= signs[:, None]
    q *= signs
    return q, r, trail


def _var1_engine(a: np.ndarray, nsteps: int, weights: WeightVector, step_hook=None):
    """Pivoted unblocked HQR of `a`, `nsteps` steps from the top left.

    Each step pivots by weight, reflects, applies the rank-1 update to the
    trailing columns and downdates the weights by the new R row.  Returns
    (taus, trail).
    """
    n = a.shape[1]
    taus = np.empty(nsteps)
    trail = np.empty(nsteps, dtype=np.int64)
    for k in range(nsteps):
        piv = determine_pivot(weights, k)
        trail[k] = piv
        if piv != k:
            a[:, [k, piv]] = a[:, [piv, k]]
            weights.swap(k, piv)
        rho, u_tail, tau = housev(a[k:, k])
        a[k, k] = rho
        a[k + 1 :, k] = u_tail
        taus[k] = tau
        if k + 1 < n:
            row = a[k, k + 1 :]
            tail = a[k + 1 :, k + 1 :]
            w = (row + u_tail @ tail) / tau
            row -= w
            tail -= np.outer(u_tail, w)
            weights.downdate(k + 1, row, lambda j: float(a[k + 1 :, j] @ a[k + 1 :, j]))
        if step_hook is not None:
            step_hook(k, a, weights)
    return taus, trail


def hqrp_unb(
    a: np.ndarray,
    steps: int | None = None,
    fc: FlopCounter | None = None,
    step_hook=None,
) -> QRFactors:
    """Classical column-pivoted Householder QR, full trailing updates.

    Stops after `steps` steps when given, a non-negative integer.  No step
    is a level-3 kernel, so `fc` counts nothing.  An input outside the
    safe scale window is factored scaled by a power of two (module
    docstring), and `step_hook` sees it scaled.
    """
    if steps is not None:
        steps = _as_index(steps, "steps")
    e = _scale_into_range(a)
    r = min(a.shape) if steps is None else min(steps, *a.shape)
    taus, trail = _var1_engine(a, r, compute_weights(a), step_hook)
    return _factors(a, e, [_form_t(a, taus)], trail)


def hqrp_panel_var3(a: np.ndarray, nsteps: int, weights: WeightVector):
    """Delayed-update pivoted panel (Crout-flavored variant 3) of the window `a`.

    Completes the first `nsteps` rows and columns of `a` while touching the
    rest of it only through the accumulated rows of W (W[k] = row k of
    T^{-T} U^T A-hat): the current column and current row are patched up
    against the stored original data, the reflector is computed, the next
    W row is derived and the finished R row committed.  Pivot swaps move
    only the window's own rows; the caller moves whatever lies outside it.
    The trailing block stays untouched: the caller owes it the single
    rank-`nsteps` update A22 -= U2 @ W[:, nsteps:].

    `weights` holds one weight per column of `a`.  Returns (T, taus,
    trail, W), T formed from the finished panel.
    """
    win = a.shape[1]
    if len(weights) != win:
        raise ValueError("weight vector does not match the window width")
    w_mat = np.zeros((nsteps, win), order="F")
    taus = np.empty(nsteps)
    trail = np.empty(nsteps, dtype=np.int64)
    for k in range(nsteps):
        piv = determine_pivot(weights, k)
        trail[k] = piv
        if piv != k:
            a[:, [k, piv]] = a[:, [piv, k]]
            w_mat[:, [k, piv]] = w_mat[:, [piv, k]]
            weights.swap(k, piv)
        col = a[k:, k]
        if k > 0:
            col -= a[k:, :k] @ w_mat[:k, k]
        rho, u_tail, tau = housev(col)
        a[k, k] = rho
        a[k + 1 :, k] = u_tail
        taus[k] = tau
        row = a[k, k + 1 :]
        if k > 0:
            row -= a[k, :k] @ w_mat[:k, k + 1 :]
        w_row = row + u_tail @ a[k + 1 :, k + 1 :]
        if k > 0:
            w_row -= (u_tail @ a[k + 1 :, :k]) @ w_mat[:k, k + 1 :]
        w_row /= tau
        w_mat[k, k + 1 :] = w_row
        row -= w_row
        weights.downdate(k + 1, row, lambda j: _var3_residual_norm2(a, w_mat, k, j))
    return _form_t(a[:, :nsteps], taus), taus, trail, w_mat


def _var3_residual_norm2(a, w_mat, k, j) -> float:
    """Exact squared norm of window column j below row k, pre-deferred-update."""
    col = a[k + 1 :, j] - a[k + 1 :, : k + 1] @ w_mat[: k + 1, j]
    return float(col @ col)


def hqrp_blk(a: np.ndarray, b: int, fc: FlopCounter | None = None) -> QRFactors:
    """Blocked classical column-pivoted QR (variant-3 panels).

    Produces factors identical (to roundoff) to `hqrp_unb`, including the
    pivot trail under the shared smallest-index tie-break; only the
    rank-b trailing updates run as matrix-matrix multiplies (one in-place
    dgemm per panel, ``_kernels.gemm``), and the R rows
    above each panel's window take its pivots through ``apply_pivot_trail``.
    An input outside the safe scale window is factored scaled by a power
    of two (module docstring).
    """
    b, _ = _check_block(b)
    e = _scale_into_range(a)
    r = min(a.shape)
    weights = compute_weights(a)
    blocks, trail = [], np.empty(r, dtype=np.int64)
    for j in range(0, r, b):
        bw = min(b, r - j)
        t, _, panel_trail, w = hqrp_panel_var3(a[j:, j:], bw, weights)
        apply_pivot_trail(a[:j, j:], panel_trail)
        gemm(a[j + bw :, j : j + bw], w[:, bw:], a[j + bw :, j + bw :], fc)
        weights.v, weights.v_orig = weights.v[bw:], weights.v_orig[bw:]
        blocks.append(t)
        trail[j : j + bw] = panel_trail + j
    return _factors(a, e, blocks, trail)
