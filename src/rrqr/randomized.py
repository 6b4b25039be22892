"""Randomized blocked column-pivoted QR with sample-matrix downdating.

Pivot blocks are chosen on a small sketch Y = G A, where G is Gaussian
with b + p rows (p is the oversampling margin, default 5): the first b
pivots of classical column-pivoted QR of Y (LAPACK dgeqp3, through
``pivoting.mgsp``) pick the columns, and A, Y and the column permutation
take those pivots through one ``core.apply_pivot_trail`` call each.  The
panel is then factored with locally pivoted Householder QR (LAPACK
dgeqp3, its reflectors mapped onto the ``housev`` convention and T formed
from the finished panel), and the trailing matrix gets one
accumulated-reflector update per panel.

Both modes build their sketch with ``build_sketch``; they differ in how
it is refreshed between panels:

* ``basic``    -- build a fresh sketch of the updated trailing block at
                  every panel;
* ``downdate`` -- build one sketch of A, then keep Y current by
                  subtracting the contribution of the finished panel,
                  choosing the next randomizing matrix as G Q (one
                  LAPACK dlarfb on G from the right, in place) so that
                  only thin products are needed:

      Y2_new = Y2 - (G1 - (G1 U11 + G2 U21) T11^{-1} U11^T) R12,

  where the bracket is exactly the panel block of the updated G, which is
  maintained alongside Y.

Both modes produce a valid factorization for every seed; only the pivot
choice is random.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._kernels import check_operand, gemm, larfb
from .core import (
    FlopCounter,
    _as_index,
    _check_block,
    _scale_into_range,
    apply_pivot_trail,
    matmul,
    permutation_to_trail,
)
from .householder import QRFactors, _factors, _form_t, _lapack_qr, _lapack_t, apply_block_qt
from .pivoting import mgsp
from .rng import Xoshiro256pp, gaussian_matrix


@dataclass
class Sketch:
    """Sampling state: effective randomizing matrix G and sample matrix Y.

    G has b + p rows and one column per row of A; Y = G A has one column
    per column of A.  `col_offset` marks the first unfinished column; in
    downdating mode Y(:, col_offset:) always equals G-current times the
    current trailing block, up to roundoff.
    """

    g: np.ndarray
    y: np.ndarray
    col_offset: int = 0


def build_sketch(
    rng: Xoshiro256pp, a: np.ndarray, b: int, p: int = 5, fc: FlopCounter | None = None
) -> Sketch:
    """Draw G ((b+p) x m) and form Y = G A."""
    b, p = _check_block(b, p)
    g = gaussian_matrix(rng, b + p, a.shape[0])
    return Sketch(g, matmul(g, a, fc))


def select_block_pivots(y: np.ndarray, b: int) -> np.ndarray:
    """Swap trail of the first `b` pivots of a working copy of `y`.

    Takes the first b pivots of LAPACK's pivoted QR (dgeqp3) of `y`; `y`
    is not modified.  If the sketch runs out of mass early the trail is
    padded with identity swaps.  `b` must be a non-negative integer, and
    NaN or Inf in `y` raises ValueError (through `mgsp`).
    """
    b = _as_index(b, "pivot count")
    if b > y.shape[1]:
        raise ValueError(f"cannot pick {b} pivots from {y.shape[1]} columns")
    _, _, trail = mgsp(y, max_steps=b)
    if len(trail) < b:
        pad = np.arange(len(trail), b, dtype=np.int64)
        trail = np.concatenate([trail, pad])
    return trail


def downdate_sketch(
    sk: Sketch,
    u_panel: np.ndarray,
    t11: np.ndarray,
    r12: np.ndarray,
    *,
    fc: FlopCounter | None = None,
) -> None:
    """Advance the sketch past a finished panel.

    `u_panel` is the packed panel column block (U11 over U21), `t11` its
    T accumulator and `r12` the freshly committed R rows right of the
    panel.  Replaces G by G Q restricted to the panel's reflectors, in
    place by one LAPACK dlarfb with T^{-1} (``_kernels.larfb``, side R),
    and downdates the trailing part of Y by one in-place dgemm,
    Y2 -= G1 R12 (``_kernels.gemm``).  G, Y and R12 are checked by
    ``_kernels.check_operand`` before G is written, so a bad one raises
    ValueError with the sketch unchanged.  Y's columns must already follow
    A's column order: `hqrrp_blk` moves them with A's through
    ``core.apply_pivot_trail``.
    """
    bw = t11.shape[0]
    if bw == 0:
        return
    j = sk.col_offset
    g, y = sk.g[:, j:], sk.y[:, j + bw :]
    if u_panel.shape[0] != g.shape[1]:
        raise ValueError("panel height does not match the remaining G columns")
    if r12.shape != (bw, sk.y.shape[1] - j - bw):
        raise ValueError("R12 shape does not match the sketch partition")
    check_operand(g, "G", written=True)
    check_operand(y, "Y", written=True)
    check_operand(r12, "R12", written=False)
    larfb("R", "N", u_panel[:, :bw], _lapack_t(t11), g, fc)
    gemm(g[:, :bw], r12, y, fc)
    sk.col_offset = j + bw


def hqrrp_blk(
    a: np.ndarray,
    b: int,
    rng: Xoshiro256pp,
    p: int = 5,
    mode: str = "downdate",
    fc: FlopCounter | None = None,
    loop_hook=None,
) -> QRFactors:
    """Randomized blocked column-pivoted Householder QR, in place.

    Each iteration samples the trailing block, permutes the chosen b
    columns to the front, factors the panel with locally pivoted QR
    (LAPACK dgeqp3, so R diagonals decrease in magnitude within each
    diagonal block), applies the accumulated reflector to the trailing
    matrix, and refreshes the sketch per `mode` ("basic" or "downdate").

    `loop_hook(state)` is called at every loop head with the current
    col_offset, sketch arrays, packed matrix, panels, and permutation;
    it exists so invariants can be checked mid-flight.  An input outside
    the safe scale window is factored scaled by a power of two
    (``core._scale_into_range``), and `loop_hook` sees it scaled.
    """
    if mode not in ("basic", "downdate"):
        raise ValueError(f"unknown mode {mode!r}")
    b, p = _check_block(b, p)
    if not isinstance(rng, Xoshiro256pp):
        raise ValueError(f"rng must be an Xoshiro256pp generator, got {type(rng).__name__}")
    e = _scale_into_range(a)
    r = min(a.shape)
    perm = np.arange(a.shape[1], dtype=np.int64)
    sk = None
    blocks = []
    for j in range(0, r, b):
        bw = min(b, r - j)
        if sk is None or mode == "basic":
            sk = build_sketch(rng, a[j:, j:], b, p, fc)
        y_trail = sk.y[:, sk.col_offset :]
        if loop_hook is not None:
            loop_hook(
                SimpleNamespace(
                    col_offset=j,
                    y=y_trail,
                    g=sk.g,
                    a=a,
                    panels=list(zip(range(0, j, b), blocks)),
                    perm=perm.copy(),
                    mode=mode,
                )
            )
        sel = select_block_pivots(y_trail, bw)
        apply_pivot_trail(a[:, j:], sel)
        apply_pivot_trail(perm[j:], sel)
        apply_pivot_trail(y_trail, sel)
        panel = a[j:, j : j + bw]
        taus, order = _lapack_qr(panel, pivoting=True)
        a[:j, j : j + bw] = a[:j, j + order]
        perm[j : j + bw] = perm[j + order]
        t = _form_t(panel, taus)
        apply_block_qt(panel, t, a[j:, j + bw :], fc)
        if mode == "downdate":
            downdate_sketch(sk, panel, t, a[j : j + bw, j + bw :], fc=fc)
        blocks.append(t)
    # The net permutation mixes sketch swaps with panel gathers, so the trail
    # is its canonical decomposition (full length: displaced columns shuffle
    # the tail region too).
    return _factors(a, e, blocks, permutation_to_trail(perm))
