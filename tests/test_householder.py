"""Reflector and unpivoted-QR tests.

Expected values marked as derived were produced by the explicit oracles
in conftest (dense H(u) products), never by the code paths under test.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rrqr import (
    EPS,
    FlopCounter,
    QRFactors,
    apply_block_qt,
    form_q,
    frobenius_norm,
    hqr_blk,
    hqr_unb,
    hqr_unb_formT,
    housev,
    orthogonality_error,
    reconstruction_error,
)
from rrqr.householder import _unit_lower

from conftest import gauss, reflector_dense, reflector_product


def _apply_reflector(ref, x):
    u = np.concatenate([[1.0], ref.u_tail])
    return reflector_dense(u, ref.tau) @ x


def test_housev_3_4():
    ref = housev(np.array([3.0, 4.0]))
    assert ref.rho == pytest.approx(-5.0, rel=1e-15)
    assert ref.u_tail == pytest.approx([0.5], rel=1e-15)
    assert ref.tau == pytest.approx(0.625, rel=1e-15)
    assert _apply_reflector(ref, [3.0, 4.0]) == pytest.approx([-5.0, 0.0], abs=1e-14)


def test_housev_scalar():
    # single-entry case: rho = -alpha; tau = (1 + 0)/2 keeps H = -1 a reflection
    ref = housev(np.array([2.5]))
    assert ref.rho == -2.5
    assert ref.u_tail.size == 0
    assert ref.tau == 0.5
    assert _apply_reflector(ref, [2.5]) == pytest.approx([-2.5])


def test_housev_tail_only_vector():
    c = 3.7e-3
    x = np.array([0.0, 0.0, 0.0, c])
    ref = housev(x)
    assert abs(ref.rho) == pytest.approx(c, rel=1e-15)
    out = _apply_reflector(ref, x)
    assert abs(out[0]) == pytest.approx(c, rel=1e-14)
    assert np.linalg.norm(out[1:]) <= 8 * EPS * c


def test_housev_zero_vector_degenerate():
    ref = housev(np.zeros(4))
    assert ref.rho == 0.0
    assert np.all(ref.u_tail == 0.0)
    assert ref.tau == 0.5
    h = reflector_dense(np.concatenate([[1.0], ref.u_tail]), ref.tau)
    assert np.allclose(h @ h.T, np.eye(4), atol=1e-15)  # still orthogonal


def test_housev_rejects_empty():
    with pytest.raises(ValueError):
        housev(np.array([]))


@settings(max_examples=80, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 12),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ).filter(lambda x: np.any(x != 0))
)
@example(np.full(12, 2.2e-313))
def test_housev_properties(x):
    ref = housev(x)
    amax = np.max(np.abs(x))
    nrm = amax * np.linalg.norm(x / amax)  # scaled: plain norm underflows below 1e-154
    # results of subnormal inputs round in absolute steps of one subnormal,
    # which a relative bound below that step cannot express
    bound = max(8 * EPS * nrm, 8 * np.finfo(float).smallest_subnormal)
    assert abs(abs(ref.rho) - nrm) <= bound
    assert abs(ref.tau - 0.5 * (1 + ref.u_tail @ ref.u_tail)) <= 4 * EPS * ref.tau
    out = _apply_reflector(ref, x)
    assert abs(out[0] - ref.rho) <= bound
    assert np.linalg.norm(out[1:]) <= bound


@pytest.mark.parametrize("x", [[1e308, 1.0], [1e308, 1e308], [-1e308, 1e308]])
def test_housev_at_the_top_of_the_double_range(x):
    # ||x|| is finite but |x_0| + ||x|| is not; H is linear, so it is
    # applied to x / s, where its product cannot overflow
    x = np.array(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = housev(x)
    s = np.max(np.abs(x))
    nrm = s * np.linalg.norm(x / s)
    assert abs(ref.rho) == pytest.approx(nrm, rel=4 * EPS)
    out = _apply_reflector(ref, x / s)
    assert out[0] == pytest.approx(ref.rho / s, rel=8 * EPS)
    assert np.linalg.norm(out[1:]) <= 8 * EPS * nrm / s


def test_housev_rejects_a_norm_beyond_the_double_range():
    with pytest.raises(ValueError, match="double range"):
        housev(np.array([1.5e308, 1.5e308]))


@pytest.mark.parametrize(
    "factor",
    [hqr_unb, lambda a: hqr_blk(a, 2), lambda a: hqr_blk(a, 4)],
    ids=["unb", "blk-2", "blk-4"],
)
def test_hqr_on_upper_triangular_flips_diagonal_signs(factor):
    # every column arrives with a zero tail: housev still reflects it
    # (tau = 1/2), and trailing panels see that through apply_block_qt
    a = np.triu(np.abs(gauss(1, 6, 6))) + 2 * np.eye(6)
    a0 = a.copy(order="F")
    f = factor(a.copy(order="F"))
    assert np.diag(f.r_matrix()) == pytest.approx(-np.diag(a0), rel=1e-14)
    assert reconstruction_error(a0, f) <= 1e-13


def test_hqr_1x1():
    f = hqr_unb(np.array([[2.0]], order="F"))
    assert f.packed[0, 0] == -2.0
    assert f.taus[0] == 0.5
    assert np.array_equal(f.t_blocks[0], [[0.5]])


@pytest.mark.parametrize("b", [1, 2, 3, 8])
def test_ut_transform_identity(b):
    # I - U T^{-T} U^T == H(u_{b-1}) ... H(u_0), reflectors formed explicitly
    panel = gauss(20 + b, 12, b)
    t, taus = hqr_unb_formT(panel)
    u = _unit_lower(panel, b)
    block = np.eye(12) - u @ np.linalg.solve(t.T, u.T)
    explicit = reflector_product(panel, taus, b, 12)
    assert frobenius_norm(block - explicit) <= 1e-13 * b
    # and the transpose ordering: I - U T^{-1} U^T == H(u_0) ... H(u_{b-1})
    assert frobenius_norm((np.eye(12) - u @ np.linalg.solve(t, u.T)) - explicit.T) <= 1e-13 * b


def test_t_block_structure():
    panel = gauss(3, 10, 4)
    t, taus = hqr_unb_formT(panel)
    u = _unit_lower(panel, 4)
    expected = np.triu(u.T @ u, 1) + np.diag(taus)
    assert np.allclose(t, expected, atol=1e-14)
    assert np.array_equal(np.tril(t, -1), np.zeros((4, 4)))


def test_hqr_unb_formT_rejects_wide_panel():
    with pytest.raises(ValueError):
        hqr_unb_formT(gauss(0, 3, 5))


@pytest.mark.parametrize("kind", ["int64", "float32", "1-D"])
def test_hqr_unb_formT_rejects_a_panel_the_drivers_reject(kind):
    # LAPACK's float64 factors would be cast back into the panel
    panel = {
        "int64": np.ones((3, 2), dtype=np.int64),
        "float32": gauss(0, 3, 2).astype(np.float32),
        "1-D": gauss(0, 3, 2)[:, 0].copy(),
    }[kind]
    before = panel.copy()
    with pytest.raises(ValueError, match="2-D float64 array"):
        hqr_unb_formT(panel)
    assert np.array_equal(panel, before)


def test_apply_block_qt_single_reflector():
    panel = np.array([[3.0], [4.0]], order="F")
    t, _ = hqr_unb_formT(panel)
    b = np.array([[3.0], [4.0]], order="F")
    apply_block_qt(panel, t, b)
    assert b[:, 0] == pytest.approx([-5.0, 0.0], abs=1e-14)


def test_apply_block_qt_empty_panel():
    b = gauss(4, 5, 3)
    orig = b.copy()
    apply_block_qt(np.empty((5, 0), order="F"), np.empty((0, 0)), b)
    assert np.array_equal(b, orig)


def test_apply_block_qt_matches_explicit_product():
    panel = gauss(7, 9, 4)
    t, taus = hqr_unb_formT(panel)
    explicit = reflector_product(panel, taus, 4, 9)
    b = gauss(8, 9, 6)
    expected = explicit @ b
    apply_block_qt(panel, t, b)
    assert frobenius_norm(b - expected) <= 1e-13 * frobenius_norm(expected)


def test_apply_block_qt_dimension_mismatch():
    panel = gauss(9, 6, 2)
    t, _ = hqr_unb_formT(panel)
    with pytest.raises(ValueError):
        apply_block_qt(panel, t, gauss(10, 5, 3))


def test_blocked_single_panel_is_bitwise_unblocked():
    a = gauss(11, 64, 64)
    fu = hqr_unb(a.copy(order="F"))
    fb = hqr_blk(a.copy(order="F"), 64)
    assert np.array_equal(fu.packed, fb.packed)
    assert np.array_equal(fu.taus, fb.taus)


@pytest.mark.parametrize("m,n,b", [(200, 120, 32), (64, 64, 8), (100, 70, 32)])
def test_blocked_matches_unblocked(m, n, b):
    a = gauss(m + n + b, m, n)
    fu = hqr_unb(a.copy(order="F"))
    fb = hqr_blk(a.copy(order="F"), b)
    scale = frobenius_norm(a)
    assert frobenius_norm(fu.packed - fb.packed) <= 1e-12 * scale
    assert np.allclose(fu.taus, fb.taus, rtol=1e-12)
    assert reconstruction_error(a, fb) <= 1e-12


def test_ragged_tail_panels():
    a = gauss(13, 90, 70)  # panels 32, 32, 6
    f = hqr_blk(a.copy(order="F"), 32)
    assert [t.shape[0] for t in f.t_blocks] == [32, 32, 6]
    assert reconstruction_error(a, f) <= 1e-12


def test_wide_matrix_factorizations():
    a = gauss(14, 50, 80)
    fu = hqr_unb(a.copy(order="F"))
    fb = hqr_blk(a.copy(order="F"), 16)
    assert frobenius_norm(fu.packed - fb.packed) <= 1e-12 * frobenius_norm(a)
    assert reconstruction_error(a, fb) <= 1e-12
    assert orthogonality_error(fb) <= 50 * 80 * EPS


def test_form_q_zero_columns():
    f = hqr_blk(gauss(15, 6, 4), 2)
    q = form_q(f, 0)
    assert q.shape == (6, 0)


def test_form_q_no_reflectors_gives_identity_columns():
    f = QRFactors(np.zeros((5, 0), order="F"), [])
    assert np.array_equal(form_q(f, 3), np.eye(5, 3))


def test_form_q_orthogonality_and_reconstruction():
    a = gauss(16, 50, 30)
    f = hqr_blk(a.copy(order="F"), 8)
    q = form_q(f, 30)
    assert frobenius_norm(q.T @ q - np.eye(30)) <= 1e-12
    assert frobenius_norm(q @ f.r_matrix() - a) <= 1e-12 * frobenius_norm(a)


def test_form_q_rejects_too_many_columns():
    f = hqr_blk(gauss(17, 6, 4), 2)
    with pytest.raises(ValueError):
        form_q(f, 7)
    # and column counts that are negative or not integers
    for k in (-1, 2.5, "3"):
        with pytest.raises(ValueError, match="column count"):
            form_q(f, k)


@pytest.mark.parametrize("m,n", [(64, 64), (200, 120), (120, 200)])
def test_reconstruction_and_orthogonality_bounds(m, n):
    a = gauss(m * 3 + n, m, n)
    f = hqr_blk(a.copy(order="F"), 32)
    bound = 50 * max(m, n) * EPS
    assert reconstruction_error(a, f) <= bound
    assert orthogonality_error(f) <= bound


def _dense_q(panel, t):
    """The panel's Q = I - U T^{-1} U^T, formed densely."""
    u = _unit_lower(panel, t.shape[0])
    return np.eye(panel.shape[0]) - u @ np.linalg.solve(t, u.T)


def test_apply_block_qt_matches_the_dense_formula():
    panel = gauss(31, 40, 9)
    t, _ = hqr_unb_formT(panel[:, :6])  # T narrower than the panel: only 6 columns are U
    b = gauss(32, 40, 13)
    want = _dense_q(panel, t).T @ b
    fc = FlopCounter()
    apply_block_qt(panel, t, b, fc)
    assert frobenius_norm(b - want) <= 1e-13 * frobenius_norm(want)
    # two products and the triangular solve they stand for
    assert fc.count == 4 * 40 * 6 * 13 + 6 * 6 * 13


def test_apply_block_qt_rejects_a_transposed_target():
    # G^T of a column-major G is row-major: B := Q^T B runs as side L only,
    # and downdate_sketch takes G Q by side R on G itself
    panel = gauss(33, 40, 8)
    t, _ = hqr_unb_formT(panel)
    g = gauss(34, 13, 40)
    before = g.copy()
    fc = FlopCounter()
    with pytest.raises(ValueError, match="column-major"):
        apply_block_qt(panel, t, g.T, fc)
    assert np.array_equal(g, before)
    assert fc.count == 0


def test_apply_block_qt_zero_target_columns():
    panel = gauss(35, 12, 3)
    t, _ = hqr_unb_formT(panel)
    fc = FlopCounter()
    for b in (np.empty((12, 0), order="F"), np.empty((0, 12), order="F").T):
        apply_block_qt(panel, t, b, fc)
    assert fc.count == 0


def test_apply_block_qt_rejects_a_c_ordered_t():
    panel = gauss(38, 12, 3)
    t, _ = hqr_unb_formT(panel)
    b = gauss(39, 12, 5)
    before = b.copy()
    fc = FlopCounter()
    with pytest.raises(ValueError, match="^T must be a column-major"):
        apply_block_qt(panel, np.ascontiguousarray(t), b, fc)
    assert np.array_equal(b, before)
    assert fc.count == 0


def test_apply_block_qt_rejects_a_target_blas_cannot_address():
    panel = gauss(36, 12, 3)
    t, _ = hqr_unb_formT(panel)
    b = gauss(37, 24, 5)[::2]  # a row stride of 2: neither B nor B^T is column-major
    before = b.copy()
    with pytest.raises(ValueError, match="column-major"):
        apply_block_qt(panel, t, b)
    assert np.array_equal(b, before)


@pytest.mark.parametrize("k", [0, 1, 7, 45])
def test_form_q_matches_the_dense_panel_product(k):
    f = hqr_blk(gauss(38, 45, 30), 8)
    q = np.eye(45)
    for j, t in zip(f.panel_starts, f.t_blocks):
        step = np.eye(45)
        step[j:, j:] = _dense_q(f.packed[j:, j : j + t.shape[0]], t)
        q = q @ step
    fc = FlopCounter()
    got = form_q(f, k, fc)
    assert got.shape == (45, k)
    assert frobenius_norm(got - q[:, :k]) <= 1e-13 * max(1.0, frobenius_norm(q[:, :k]))
    assert fc.count == sum(4 * (45 - j) * t.shape[0] * k + t.shape[0] ** 2 * k
                           for j, t in zip(f.panel_starts, f.t_blocks))
