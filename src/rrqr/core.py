"""Dense-matrix conventions, pivot trails, and the level-3 flop counter.

Matrices are plain ``numpy.float64`` 2-D arrays.  Storage is column-major
(Fortran order) throughout because every algorithm in this package walks
column panels; element ``(i, j)`` of a generated matrix lives at flat
index ``i + j*rows`` of its buffer.  Factorizations mutate their argument
in place, so callers keep a copy when they need the original.
"""

from __future__ import annotations

import operator

import numpy as np
from scipy.linalg import solve_triangular

from ._kernels import check_operand

EPS = float(np.finfo(np.float64).eps)


def as_matrix(a) -> np.ndarray:
    """Copy `a` into a fresh column-major float64 matrix."""
    out = np.array(a, dtype=np.float64, order="F", copy=True)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def check_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains NaN or Inf entries")
    return a


# ---------------------------------------------------------------------------
# Driver prologue
#
# Every driver checks its whole input before it changes the matrix or draws
# from its generator, and raises ValueError the same way for anything it
# cannot factor: a matrix that BLAS cannot change in place (the rule of
# ``_kernels.check_operand``, which every kernel call applies too), or one
# that holds NaN or Inf or a column norm beyond the double range; a count
# or block size that is not a non-negative integer; a generator that is
# not an ``Xoshiro256pp``.  Squared column norms, sketches Y = G A and
# trailing updates overflow or underflow long before the entries do, so
# a matrix whose largest |entry| lies outside 2^-250..2^250 is factored
# scaled by the power of two that brings it into [1/2, 1), which is exact,
# and ``householder._factors`` scales R back.  Reflectors, tau and T do not
# depend on the scale, and inputs inside the window keep their bits.
# ---------------------------------------------------------------------------

_SAFE_EXPONENT = 250


def _as_integer(x, what: str) -> int:
    """`x` as a Python int; ValueError unless it is an integer."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def _as_index(x, what: str) -> int:
    """`x` as a non-negative int; ValueError for anything else."""
    i = _as_integer(x, what)
    if i < 0:
        raise ValueError(f"{what} must be non-negative, got {i}")
    return i


def _check_block(b, p=0) -> tuple[int, int]:
    """Block size b >= 1 and oversampling p >= 0 as Python ints."""
    b, p = _as_index(b, "block size"), _as_index(p, "oversampling")
    if b < 1:
        raise ValueError("block size must be >= 1")
    return b, p


def _scale_into_range(a: np.ndarray) -> int:
    """Check a driver's input and scale it in place by 2^-e; returns e.

    Raises ValueError, with `a` untouched, when BLAS cannot change `a` in
    place (``_kernels.check_operand``), or `a` holds NaN or Inf or a column
    whose 2-norm exceeds the double range.  Returns 0 without touching `a`
    when its largest |entry| is zero or already lies within
    2^-_SAFE_EXPONENT..2^_SAFE_EXPONENT.
    """
    check_operand(a, "input", written=True)
    hi = float(a.max(initial=0.0))
    lo = float(a.min(initial=0.0))
    if not (np.isfinite(hi) and np.isfinite(lo)):  # max and min propagate NaN
        raise ValueError("input matrix contains NaN or Inf entries")
    amax = max(hi, -lo)
    e = int(np.frexp(amax)[1])
    if amax == 0.0 or abs(e) <= _SAFE_EXPONENT:
        return 0
    # a column norm is below sqrt(m) * 2^e; measure it only near the top
    if e + int(np.frexp(np.sqrt(a.shape[0]))[1]) >= 1024:
        cmax = float(np.max(np.linalg.norm(np.ldexp(a, -e), axis=0)))
        if e + int(np.frexp(cmax)[1]) > 1024:
            raise ValueError("input matrix has a column norm beyond the double range")
    np.ldexp(a, -e, out=a)
    return e


def _norm_in_range(nrm):
    """Whether a root of a sum of squares lies in (2^-500, 2^500), elementwise.

    The squares overflow above about 1e154 and underflow below about
    1e-154, so only a norm well inside the double range is kept.
    """
    return (2.0**-500 < nrm) & (nrm < 2.0**500)


def frobenius_norm(a) -> float:
    """||a||_F at any finite scale.

    ``np.linalg.norm`` sums squared entries; its result is kept where
    ``_norm_in_range`` holds.  Otherwise `a` is first divided by the power
    of two at its largest |entry| and the norm scaled back, both exact.
    """
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(a))
    if _norm_in_range(nrm):
        return nrm
    amax = float(np.max(np.abs(a), initial=0.0))
    if not 0.0 < amax < np.inf:
        return amax  # zero, Inf or NaN: the norm is that too
    e = int(np.frexp(amax)[1])
    with np.errstate(over="ignore"):  # inf only beyond the double range
        return float(np.ldexp(np.linalg.norm(np.ldexp(a, -e)), e))


# ---------------------------------------------------------------------------
# Pivot trails
#
# A trail is an int64 vector of swap targets: entry i records that column i
# was exchanged with column trail[i] >= i at step i.  Applying the swaps in
# ascending order to the original matrix reproduces the column order the
# factorization worked with; the decomposition of a permutation into such a
# swap sequence is unique.
# ---------------------------------------------------------------------------


def apply_pivot_trail(a: np.ndarray, trail, inverse: bool = False) -> np.ndarray:
    """Apply (or undo) a swap trail along the last axis of `a`, in place.

    The whole trail is checked before anything moves, so a bad entry
    leaves `a` untouched; then the entries the trail moves are gathered
    in one assignment.  Matrix columns and 1-D index vectors both work.
    """
    p = trail_to_permutation(trail, a.shape[-1])
    moved = np.flatnonzero(p != np.arange(len(p)))
    if inverse:
        a[..., p[moved]] = a[..., moved]
    else:
        a[..., moved] = a[..., p[moved]]
    return a


def _index_vector(x, what: str) -> np.ndarray:
    """`x` as a 1-D int64 vector; ValueError unless its entries are integers."""
    v = np.asarray(x)
    if v.ndim != 1 or (v.size and v.dtype.kind not in "iu"):
        raise ValueError(f"{what} must be a 1-D vector of integers, got {x!r}")
    return v.astype(np.int64, copy=False)


def trail_to_permutation(trail, n: int) -> np.ndarray:
    """Permutation vector p with A[:, p] = forward-applied A."""
    p = np.arange(n, dtype=np.int64)
    for i, j in enumerate(_index_vector(trail, "trail")):
        if j < i or j >= n:
            raise IndexError(f"trail[{i}] = {j} out of range [{i}, {n})")
        p[i], p[j] = p[j], p[i]
    return p


def permutation_to_trail(perm) -> np.ndarray:
    """Unique ascending swap trail that reproduces `perm` from identity.

    ValueError unless `perm` is a permutation of range(len(perm)).
    """
    perm = _index_vector(perm, "permutation")
    n = len(perm)
    if n and not (perm.min() >= 0 and perm.max() < n and np.bincount(perm, minlength=n).all()):
        raise ValueError(f"not a permutation of range({n})")
    return _prefix_trail(perm, n)[0]


def _prefix_trail(perm, n: int):
    """Trail of the first k entries `perm` of a permutation of n columns.

    Returns (trail, order): the k-entry trail, and the permutation of all
    n columns that it reproduces, ``trail_to_permutation(trail, n)``.
    """
    perm = np.asarray(perm, dtype=np.int64)
    cur = np.arange(n, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)  # pos[col] = current index of col
    trail = np.empty(len(perm), dtype=np.int64)
    for i in range(len(perm)):
        j = int(pos[perm[i]])
        trail[i] = j
        ci, cj = cur[i], cur[j]
        cur[i], cur[j] = cj, ci
        pos[ci], pos[cj] = j, i
    return trail, cur


# ---------------------------------------------------------------------------
# Flop accounting
# ---------------------------------------------------------------------------


class FlopCounter:
    """Accumulates the flops spent in level-3 kernels.

    Only matrix-matrix products (2*m*n*k per m x k times k x n product,
    counting every multiply and every add) and triangular solves with a
    matrix right-hand side (b*b per column for a b x b system) are
    instrumented; level-1/level-2 work inside unblocked loops and scalar
    bookkeeping are not.  This isolates exactly the part of the
    computation that blocked algorithms cast as high-performance kernels,
    which is what the benchmark harness compares against the standardized
    (4/3)n^3 budget.  The in-place kernels of ``_kernels`` count the
    products and solves they stand for.
    """

    def __init__(self):
        self.count = 0

    def add(self, flops: int):
        self.count += int(flops)


def matmul(a: np.ndarray, b: np.ndarray, fc: FlopCounter | None = None) -> np.ndarray:
    """a @ b, counted as a level-3 product when `fc` is given.

    The product is returned in column-major order: ``build_sketch`` makes
    Y with it, and ``downdate_sketch`` downdates Y in place by BLAS dgemm,
    which rejects a row-major Y (``_kernels.check_operand``).
    """
    if fc is not None:
        fc.add(2 * a.shape[0] * a.shape[1] * b.shape[1])
    return (b.T @ a.T).T


def solve_upper(
    t: np.ndarray,
    b: np.ndarray,
    transpose: bool = False,
    fc: FlopCounter | None = None,
) -> np.ndarray:
    """Solve T X = B (or T^T X = B) for upper-triangular T, counted."""
    if fc is not None:
        ncols = b.shape[1] if b.ndim == 2 else 1
        fc.add(t.shape[0] * t.shape[0] * ncols)
    return solve_triangular(
        t, b, trans="T" if transpose else "N", lower=False, check_finite=False
    )
