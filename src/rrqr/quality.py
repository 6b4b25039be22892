"""Truncation-error evaluation for partial pivoted factorizations.

The error of keeping the first k columns of A P = Q R is the norm of the
trailing block of R:

    e_k = ||A P - Q(:, :k) R(:k, :)|| = ||R(k:, k:)||,

so the whole error curve is read off the packed factor directly.  When
the singular values of A are known, the Eckart-Young bounds
sigma_{k+1} (spectral) and sqrt(sum_{j>k} sigma_j^2) (Frobenius) are
attached as per-k floors.

R is upper triangular, so its block R(k:, k:) holds the whole of rows
k, k+1, ... of R, and e_k^2 (Frobenius) is the tail sum of R's squared
row norms from row k on.  One pass over R gives those row norms, and one
reverse cumulative sum gives every e_k, for any ranks in any order; the
Frobenius floors are the same tail sums of sigma_j^2.  A tail norm is
kept where it lies inside ``core._norm_in_range``'s window, as
``core.frobenius_norm`` keeps its own; any other one is taken by
``frobenius_norm`` itself, which scales its block by a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import svdvals

from .core import _as_index, _norm_in_range, _scale_into_range, frobenius_norm
from .householder import QRFactors, form_q


@dataclass
class QualityReport:
    ks: np.ndarray
    e_frob: np.ndarray
    e_spec: np.ndarray | None
    r_diag: np.ndarray
    sv_bound_frob: np.ndarray | None
    sv_bound_spec: np.ndarray | None


def spectral_norm_est(b_mat: np.ndarray) -> float:
    """Largest singular value of `b_mat`, from LAPACK at any finite scale.

    Works on a float64 copy checked and scaled by the drivers' prologue
    (``core._scale_into_range``), so NaN or Inf or a column norm beyond
    the double range raises ValueError, and the result is `_spectral_norm`
    of the copy scaled back by the same power of two, which is exact.
    """
    b = np.array(b_mat, dtype=np.float64, order="F")
    e = _scale_into_range(b)
    with np.errstate(over="ignore"):  # inf only beyond the double range
        return float(np.ldexp(_spectral_norm(b), e))


def _spectral_norm(b_mat: np.ndarray) -> float:
    """Spectral norm for error reporting: the top singular value from LAPACK.

    Iterative estimators stall a few 1e-5 short of the true value when
    the top of the spectrum is clustered tighter than they can resolve,
    which is enough to dip under the singular-value floors.
    """
    if min(b_mat.shape) == 0:
        return 0.0
    return float(svdvals(b_mat, check_finite=False)[0])


def _ranks(ks) -> np.ndarray:
    """Truncation ranks as int64; ValueError unless each is an integer >= 0."""
    return np.array([_as_index(k, "truncation rank") for k in ks], dtype=np.int64)


def _tail_norms(squares: np.ndarray, ks: np.ndarray, exact) -> np.ndarray:
    """sqrt(sum(squares[k:])) for each k in `ks`, all from one reverse cumulative sum.

    A result is kept where ``core._norm_in_range`` holds, as
    ``frobenius_norm`` keeps its own; `exact(k)` gives the others.  Every
    k must lie in [0, len(squares)].
    """
    tails = np.zeros(len(squares) + 1)
    with np.errstate(over="ignore"):  # an overflowed tail is taken exactly
        tails[:-1] = np.cumsum(squares[::-1])[::-1]
    out = np.sqrt(tails[ks])
    for i in np.flatnonzero(~_norm_in_range(out)):
        out[i] = exact(ks[i])
    return out


def eckart_young_bounds(sigmas: np.ndarray, ks) -> tuple[np.ndarray, np.ndarray]:
    """(Frobenius, spectral) lower bounds for each truncation rank in `ks`.

    The Frobenius floor of rank k is the norm of sigmas[k:], a tail sum of
    squares under the same range rule as the errors it bounds, and the
    spectral floor is sigmas[k]; both are 0 past the end.  A rank that is
    negative or not an integer raises ValueError.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    ks = _ranks(ks)
    with np.errstate(over="ignore"):
        squares = np.square(sigmas)
    bound_frob = _tail_norms(
        squares, np.minimum(ks, len(sigmas)), lambda k: frobenius_norm(sigmas[k:])
    )
    bound_spec = np.array([sigmas[k] if k < len(sigmas) else 0.0 for k in ks])
    return bound_frob, bound_spec


def truncation_errors(
    a_orig: np.ndarray,
    f: QRFactors,
    ks,
    with_spectral: bool = False,
    sigmas=None,
) -> QualityReport:
    """Per-k truncation errors of a packed factorization of `a_orig`.

    e_frob comes from tail sums of R's squared row norms (see the module
    docstring); e_spec (optional) is the largest singular value of each
    trailing block of R, from LAPACK (`svdvals`).  `sigmas`, when given,
    supplies the per-k Eckart-Young floors.  Every number is read off
    `f`; `a_orig` itself is not read.
    """
    ks = _ranks(ks)
    r_full = f.r_matrix()
    r = f.r
    if np.any(ks > r):
        raise ValueError(f"truncation ranks must lie in [0, {r}]")
    with np.errstate(over="ignore"):
        row_squares = np.einsum("ij,ij->i", r_full, r_full)
    e_frob = _tail_norms(row_squares, ks, lambda k: frobenius_norm(r_full[k:, k:]))
    e_spec = (
        np.array([_spectral_norm(r_full[k:, k:]) for k in ks])
        if with_spectral
        else None
    )
    bound_frob = bound_spec = None
    if sigmas is not None:
        bound_frob, bound_spec = eckart_young_bounds(sigmas, ks)
    return QualityReport(
        ks=ks,
        e_frob=e_frob,
        e_spec=e_spec,
        r_diag=np.abs(np.diagonal(f.packed)[:r]),
        sv_bound_frob=bound_frob,
        sv_bound_spec=bound_spec,
    )


def factorization_errors(a_orig: np.ndarray, f: QRFactors) -> tuple[float, float]:
    """(relative reconstruction error, orthogonality error), one Q formation.

    Reconstruction is ||Q R - A P||_F / ||A||_F; orthogonality is
    ||Q^T Q - I||_F for the thin Q.  Both norms of the ratio are taken
    after dividing by the power of two at A's largest |entry|, which is
    exact and keeps ||A||_F finite up to the top of the double range.
    """
    q = form_q(f, f.r)
    resid = q @ f.r_matrix() - a_orig[:, f.permutation()]
    e = int(np.frexp(np.max(np.abs(a_orig), initial=0.0))[1])
    denom = frobenius_norm(np.ldexp(a_orig, -e))
    np.ldexp(resid, -e, out=resid)
    recon = frobenius_norm(resid) / denom if denom > 0 else frobenius_norm(resid)
    orth = frobenius_norm(q.T @ q - np.eye(f.r))
    return recon, orth


def reconstruction_error(a_orig: np.ndarray, f: QRFactors) -> float:
    """Relative error ||Q R - A P||_F / ||A||_F of a packed factorization."""
    return factorization_errors(a_orig, f)[0]


def orthogonality_error(f: QRFactors) -> float:
    """||Q^T Q - I||_F for the thin Q of a packed factorization."""
    q = form_q(f, f.r)
    return frobenius_norm(q.T @ q - np.eye(f.r))
