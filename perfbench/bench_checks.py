"""Correctness checks for the benchmark's outputs.

Every check compares an output of `rrqr` with a computation made apart
from it (numpy, scipy's LAPACK, the scalar RNG in `bench_rng`) or with a
property the method must have.  None compares with stored output.  A
failed check raises `CheckFailed` with the measured value and its limit.

Roundoff limits are multiples of ``n * eps * ||A||_F`` with n the larger
dimension of A, as the backward-error bound of Householder QR has it;
``SLACK`` leaves room above the bound's unit constant, which the outputs
here undercut by three orders of magnitude or more.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

import bench_rng

EPS = float(np.finfo(np.float64).eps)
SLACK = 4.0
# Relative slack of an Eckart-Young floor, as the package's own tests use.
FLOOR_REL = 1e-8
# Relative agreement required of the spectral e_0 with sigma_1.
SPECTRAL_REL = 1e-8
# Relative excess allowed when a diagonal entry follows a larger one: the
# downdated weights that choose pivots carry relative error up to about
# 1e-8 (the recompute threshold) near the end of a column's life.
ORDER_REL = 1e-6
# Box-Muller values may differ from the reference in the last few bits,
# from how sqrt, log, cos and sin are rounded; the words may not.
NORMAL_ULPS = 64


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def _fail(what: str, value, limit) -> None:
    raise CheckFailed(f"{what}: {float(value)!r} exceeds limit {float(limit)!r}")


def roundoff(a: np.ndarray) -> float:
    """SLACK * n * eps * ||A||_F, the absolute roundoff level of a QR of `a`."""
    return SLACK * max(a.shape) * EPS * float(np.linalg.norm(a))


def trail_permutation(trail, n: int) -> np.ndarray:
    """Column order made by applying a swap trail to 0..n-1.

    Fails unless every entry is a valid swap target (trail[i] in [i, n)),
    which is what makes the result a permutation of the columns.
    """
    trail = np.asarray(trail)
    if trail.ndim != 1 or len(trail) > n:
        raise CheckFailed(f"trail of shape {trail.shape} for {n} columns")
    perm = list(range(n))
    for i, j in enumerate(trail.tolist()):
        if not i <= j < n:
            raise CheckFailed(f"trail[{i}] = {j} outside [{i}, {n})")
        perm[i], perm[j] = perm[j], perm[i]
    perm = np.array(perm, dtype=np.int64)
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise CheckFailed("trail does not permute the columns")
    return perm


def check_gram(a: np.ndarray, r: np.ndarray, perm: np.ndarray, gram=None) -> float:
    """R^T R = (A P)^T (A P) entrywise within SLACK * n * eps * ||A||_F^2.

    `gram` may carry A^T A, computed once per input.  Returns the largest
    entry of the difference.
    """
    if gram is None:
        gram = a.T @ a
    if r.shape[1] != a.shape[1]:
        raise CheckFailed(f"R has {r.shape[1]} columns, A has {a.shape[1]}")
    err = float(np.max(np.abs(r.T @ r - gram[np.ix_(perm, perm)]), initial=0.0))
    limit = roundoff(a) * float(np.linalg.norm(a))
    if not err <= limit:
        _fail("max |R^T R - (AP)^T (AP)|", err, limit)
    return err


def check_r_matches_lapack(a: np.ndarray, r: np.ndarray, perm: np.ndarray) -> float:
    """|R| equals |R| of LAPACK's QR of A[:, perm] within the roundoff level.

    QR of a matrix of full column rank is unique up to the signs of R's
    rows; on rank-deficient input the rows past the rank are at roundoff
    in both factors, so the entrywise bound holds there too.
    """
    ref = scipy.linalg.qr(a[:, perm], mode="r", check_finite=False)[0]
    ref = ref[: r.shape[0]]
    if ref.shape != r.shape:
        raise CheckFailed(f"R has shape {r.shape}, LAPACK's {ref.shape}")
    err = float(np.max(np.abs(np.abs(r) - np.abs(ref)), initial=0.0))
    limit = roundoff(a)
    if not err <= limit:
        _fail("max ||R| - |R_lapack||", err, limit)
    return err


def check_pivots_match(perm: np.ndarray, ref_perm: np.ndarray, k: int) -> None:
    """The first `k` pivots equal those of the reference (LAPACK dgeqp3)."""
    if not np.array_equal(perm[:k], ref_perm[:k]):
        i = int(np.nonzero(perm[:k] != ref_perm[:k])[0][0])
        raise CheckFailed(
            f"pivot {i} is column {int(perm[i])}, dgeqp3 chose {int(ref_perm[i])}"
        )


def check_trailing_block(a: np.ndarray, r: np.ndarray, rank: int) -> float:
    """||R(rank:, rank:)||_F is at roundoff for an input of exact rank `rank`."""
    err = float(np.linalg.norm(r[rank:, rank:]))
    limit = roundoff(a)
    if not err <= limit:
        _fail(f"||R({rank}:, {rank}:)||_F", err, limit)
    return err


def check_diag_order(a: np.ndarray, r: np.ndarray, block: int) -> None:
    """|r_ii| does not increase within each diagonal block of width `block`.

    Pairs whose second entry lies at or below the roundoff level are
    skipped: pivoting cannot order values that are all noise.
    """
    d = np.abs(np.diag(r))
    floor = roundoff(a)
    for start in range(0, len(d), block):
        blk = d[start : start + block]
        bad = np.nonzero((blk[1:] > floor) & (blk[1:] > blk[:-1] * (1 + ORDER_REL)))[0]
        if len(bad):
            i = start + int(bad[0])
            _fail(f"|r[{i + 1},{i + 1}]| after |r[{i},{i}]|", d[i + 1], d[i])


def eckart_young_floors(sv: np.ndarray, ks) -> tuple[np.ndarray, np.ndarray]:
    """(Frobenius, spectral) lower bounds on the rank-k error, from sv."""
    sv = np.asarray(sv, dtype=np.float64)
    tails = np.sqrt(np.append(np.cumsum((sv**2)[::-1])[::-1], 0.0))
    padded = np.append(sv, 0.0)
    idx = np.minimum(np.asarray(ks), len(sv))
    return tails[idx], padded[idx]


def check_curve(a: np.ndarray, report, ks, sv: np.ndarray, spectral: bool) -> None:
    """Truncation-error curve of a factorization of `a` against its SVD.

    `sv` holds the singular values of `a` from scipy.  Checks that e_0
    (Frobenius) equals ||A||_F, that the curve does not increase, that
    every e_k is at or above its Eckart-Young floor, and that the floors
    the program reports match these ones.  With `spectral`, also checks
    the spectral column against its floors and its e_0 against sigma_1.
    """
    ks = np.asarray(ks)
    if not np.array_equal(report.ks, ks):
        raise CheckFailed(f"curve ranks {report.ks.tolist()} != {ks.tolist()}")
    tol = roundoff(a)
    nrm = float(np.linalg.norm(a))
    e = np.asarray(report.e_frob)
    if ks[0] == 0 and not abs(e[0] - nrm) <= tol:
        _fail("|e_0 - ||A||_F|", abs(e[0] - nrm), tol)
    rise = float(np.max(np.diff(e), initial=0.0))
    if not rise <= tol:
        _fail("rise of the Frobenius curve", rise, tol)
    frob, spec = eckart_young_floors(sv, ks)
    short = float(np.max(frob * (1 - FLOOR_REL) - tol - e))
    if not short <= 0.0:
        _fail("Frobenius e_k below its floor by", short, 0.0)
    if report.sv_bound_frob is not None:
        for name, got, want in (
            ("Frobenius", report.sv_bound_frob, frob),
            ("spectral", report.sv_bound_spec, spec),
        ):
            err = float(np.max(np.abs(got - want) - FLOOR_REL * want))
            if not err <= tol:
                _fail(f"{name} floor error", err, tol)
    if spectral:
        es = np.asarray(report.e_spec)
        short = float(np.max(spec * (1 - FLOOR_REL) - tol - es))
        if not short <= 0.0:
            _fail("spectral e_k below its floor by", short, 0.0)
        if ks[0] == 0:
            err = abs(es[0] - sv[0])
            if not err <= SPECTRAL_REL * sv[0]:
                _fail("|spectral e_0 - sigma_1|", err, SPECTRAL_REL * sv[0])


def check_rng_stream(seed: int, draws) -> None:
    """`draws`, the (kind, n, output) of successive calls to one generator
    started at `seed`, follow the reference xoshiro256++ stream: ``raw(n)``
    takes the next n words, ``normals(n)`` maps the next 2 * ceil(n / 2)
    words by Box-Muller."""
    used = [n if kind == "raw" else 2 * ((n + 1) // 2) for kind, n, _ in draws]
    ref = bench_rng.xoshiro_words(seed, sum(used))
    at = 0
    for (kind, n, out), width in zip(draws, used):
        words = ref[at : at + width]
        what = f"seed {seed}, {kind}({n}) at word {at}"
        if kind == "raw":
            if out.shape != words.shape:
                raise CheckFailed(f"{what}: {out.shape} words, not {words.shape}")
            if not np.array_equal(out, words):
                i = int(np.nonzero(out != words)[0][0])
                raise CheckFailed(f"{what}: word {i} differs from the reference")
        else:
            want = bench_rng.box_muller(words, n)
            if out.shape != want.shape:
                raise CheckFailed(f"{what}: {out.shape} normals, not {want.shape}")
            err = np.abs(out - want) / np.maximum(np.abs(want), 1.0)
            if not np.all(err <= NORMAL_ULPS * EPS):
                i = int(np.argmax(err))
                _fail(f"{what}: relative error of normal {i}", float(err[i]), NORMAL_ULPS * EPS)
        at += width
