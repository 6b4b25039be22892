"""Generators, the Jacobi singular-value oracle, and truncation errors."""

import math

import numpy as np
import pytest

from rrqr import (
    Xoshiro256pp,
    form_q,
    frobenius_norm,
    gen_bie_single_layer,
    gen_fast_decay,
    gen_kahan,
    gen_s_shape,
    jacobi_svd_values,
    spectral_norm_est,
)

from conftest import gauss


def test_fast_decay_endpoints():
    _, d = gen_fast_decay(64, Xoshiro256pp(1))
    assert d[0] == 1.0
    assert d[-1] == pytest.approx(1e-5, rel=1e-12)


def test_fast_decay_two_by_two():
    _, d = gen_fast_decay(2, Xoshiro256pp(2))
    assert d.tolist() == [1.0, 1e-5]


def test_fast_decay_spectral_norm_is_one():
    a, _ = gen_fast_decay(48, Xoshiro256pp(3))
    assert spectral_norm_est(a) == pytest.approx(1.0, rel=1e-6)


def test_fast_decay_singular_values_match_jacobi():
    a, d = gen_fast_decay(64, Xoshiro256pp(4))
    sv = jacobi_svd_values(a)
    assert np.max(np.abs(sv - d) / d) <= 1e-10


def test_fast_decay_rejects_tiny_n():
    with pytest.raises(ValueError):
        gen_fast_decay(1, Xoshiro256pp(0))


def test_s_shape_profile():
    _, d = gen_s_shape(100, Xoshiro256pp(5))
    assert np.all(d[:-1] >= d[1:])
    assert 0.9 <= d[0] <= 1.1
    assert d[-1] == pytest.approx(1e-6, rel=1e-9)
    assert np.sum(d > 0.5) >= 10
    assert np.sum(d < 2e-6) >= 10


def test_s_shape_matrix_matches_profile():
    a, d = gen_s_shape(64, Xoshiro256pp(6))
    sv = jacobi_svd_values(a)
    assert np.allclose(sv, d, rtol=1e-8, atol=1e-12)


def test_bie_circle_is_symmetric():
    a = gen_bie_single_layer(64, amplitude=0.0)
    assert frobenius_norm(a - a.T) <= 1e-12 * frobenius_norm(a)


def test_bie_conditioning_grows_with_n():
    def cond(n):
        sv = jacobi_svd_values(gen_bie_single_layer(n))
        return sv[0] / sv[-1]

    assert cond(128) > cond(32)


def test_bie_deterministic():
    assert np.array_equal(gen_bie_single_layer(32), gen_bie_single_layer(32))


def test_bie_rejects_tiny_n():
    with pytest.raises(ValueError):
        gen_bie_single_layer(4)


def test_kahan_hand_values():
    a = gen_kahan(2, zeta=0.6)
    assert a[0, 0] == 1.0
    assert a[0, 1] == pytest.approx(-0.8, rel=1e-15)
    assert a[1, 1] == pytest.approx(0.6, rel=1e-15)
    assert a[1, 0] == 0.0


def test_kahan_structure():
    a = gen_kahan(16, zeta=0.9)
    d = np.diag(a)
    assert np.allclose(d, 0.9 ** np.arange(16))
    assert np.all(d[:-1] > d[1:])
    assert np.array_equal(a, np.triu(a))
    # every column has unit norm by construction
    assert np.allclose(np.einsum("ij,ij->j", a, a), 1.0, atol=1e-13)


def test_kahan_default_parameter():
    a = gen_kahan(8)
    assert a[1, 1] == pytest.approx(0.99999)


def test_kahan_validates_zeta():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            gen_kahan(4, zeta=bad)


GENERATORS = {
    "fast-decay": lambda n: gen_fast_decay(n, Xoshiro256pp(1)),
    "s-shape": lambda n: gen_s_shape(n, Xoshiro256pp(1)),
    "bie": gen_bie_single_layer,
    "kahan": gen_kahan,
}


@pytest.mark.parametrize("n", [2.5, -2, "8"])
@pytest.mark.parametrize("name", GENERATORS)
def test_generators_reject_an_order_that_is_not_a_non_negative_integer(name, n):
    with pytest.raises(ValueError, match="matrix order"):
        GENERATORS[name](n)


@pytest.mark.parametrize("name", GENERATORS)
def test_generators_take_a_numpy_integer_order(name):
    want, got = GENERATORS[name](9), GENERATORS[name](np.int64(9))
    if not isinstance(want, tuple):
        want, got = (want,), (got,)
    for w, g in zip(want, got, strict=True):
        assert np.array_equal(w, g)


def test_jacobi_diagonal():
    sv = jacobi_svd_values(np.diag([3.0, 1.0, 2.0]))
    assert sv.tolist() == [3.0, 2.0, 1.0]


def test_jacobi_orthogonal_input():
    from rrqr import hqr_blk

    q = form_q(hqr_blk(gauss(7, 20, 20), 8), 20)
    sv = jacobi_svd_values(q)
    assert np.allclose(sv, 1.0, atol=1e-12)


def test_jacobi_wide_matrix():
    a = gauss(8, 5, 9)
    sv_wide = jacobi_svd_values(a)
    sv_tall = jacobi_svd_values(np.asfortranarray(a.T))
    assert np.allclose(sv_wide, sv_tall, rtol=1e-12)


def test_jacobi_nonconvergence_reports():
    with pytest.raises(RuntimeError, match="cosine"):
        jacobi_svd_values(gauss(9, 30, 30), max_sweeps=1)


def test_jacobi_handles_strongly_graded_columns():
    # column norms of the pivoting counterexample span ten orders of
    # magnitude; the sweep must not be tripped by norm-update drift, and
    # the products of singular values must match the determinant
    n = 128
    zeta = 0.1 ** (1.0 / n)
    sv = jacobi_svd_values(gen_kahan(n, zeta=zeta))
    assert np.all(sv > 0)
    assert np.all(np.diff(sv) <= 0)
    log_det = n * (n - 1) / 2 * np.log(zeta)
    assert abs(np.sum(np.log(sv)) - log_det) <= 1e-5


def _cyclic_jacobi_oracle(a, tol=1e-14, max_sweeps=30):
    """One pair at a time in cyclic row order: the scalar loop that
    `jacobi_svd_values` vectorizes, kept as its reference."""
    w = np.array(a, dtype=np.float64, order="F")
    if w.shape[0] < w.shape[1]:
        w = np.asfortranarray(w.T)
    n = w.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        norms2 = np.einsum("ij,ij->j", w, w)
        for i in range(n - 1):
            for j in range(i + 1, n):
                alpha, beta = norms2[i], norms2[j]
                if alpha <= 0.0 or beta <= 0.0:
                    continue
                gamma = float(w[:, i] @ w[:, j])
                cosine = abs(gamma) / math.sqrt(alpha * beta)
                if cosine <= tol:
                    continue
                off = max(off, cosine)
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                wi = w[:, i].copy()
                w[:, i] = c * wi - s * w[:, j]
                w[:, j] = s * wi + c * w[:, j]
                norms2[i] = alpha - t * gamma
                norms2[j] = beta + t * gamma
        if off == 0.0:
            return np.sort(np.sqrt(np.einsum("ij,ij->j", w, w)))[::-1]
    raise RuntimeError("cyclic Jacobi did not converge")


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (30, 17), (17, 30), (40, 40)])
def test_jacobi_round_robin_matches_cyclic_oracle(shape):
    # rotation order differs, so agreement is to roundoff, not bitwise;
    # a Gaussian input keeps every singular value well conditioned
    a = gauss(sum(shape), *shape)
    sv = jacobi_svd_values(a)
    assert sv.shape == (min(shape),)
    assert sv == pytest.approx(_cyclic_jacobi_oracle(a), rel=1e-12, abs=0.0)

