"""Degenerate shapes and ranks through every factorization driver."""

import inspect

import numpy as np
import pytest

from rrqr import (
    FlopCounter,
    QRFactors,
    QualityReport,
    Sketch,
    Xoshiro256pp,
    build_sketch,
    compute_weights,
    downdate_sketch,
    factorization_errors,
    frobenius_norm,
    gaussian_matrix,
    gen_fast_decay,
    hqr_blk,
    hqr_unb,
    hqr_unb_formT,
    hqrp_blk,
    hqrp_panel_var3,
    hqrp_unb,
    hqrrp_blk,
    mgsp,
    spectral_norm_est,
    trail_to_permutation,
    truncation_errors,
)
from rrqr._kernels import check_operand

DRIVERS = [
    ("hqr", lambda x: hqr_unb(x)),
    ("hqr-blk", lambda x: hqr_blk(x, 2)),
    ("hqrp", lambda x: hqrp_blk(x, 2)),
    ("hqrp-unb", lambda x: hqrp_unb(x)),
    ("hqrrp", lambda x: hqrrp_blk(x, 2, Xoshiro256pp(1), p=1)),
    ("hqrrp-basic", lambda x: hqrrp_blk(x, 2, Xoshiro256pp(1), p=0, mode="basic")),
]


@pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (7, 3)])
@pytest.mark.parametrize("name,run", DRIVERS)
def test_tiny_shapes_stay_valid(m, n, name, run):
    a = gaussian_matrix(Xoshiro256pp(m * 10 + n), m, n)
    recon, orth = factorization_errors(a, run(a.copy(order="F")))
    assert recon < 1e-13 and orth < 1e-13


# every driver configuration, with its block, oversampling and step
# parameters open to override
GEN_DRIVERS = [
    ("hqr", lambda x, gen: hqr_unb(x)),
    ("hqr-blk", lambda x, gen, b=2: hqr_blk(x, b)),
    ("hqrp", lambda x, gen, b=2: hqrp_blk(x, b)),
    ("hqrp-unb", lambda x, gen, steps=None: hqrp_unb(x, steps=steps)),
    ("hqrrp", lambda x, gen, b=2, p=1: hqrrp_blk(x, b, gen, p=p)),
    ("hqrrp-basic", lambda x, gen, b=2, p=0: hqrrp_blk(x, b, gen, p=p, mode="basic")),
]
# not a driver, but it checks and scales its input with the same prologue
SPECTRAL = ("spectral-norm-est", lambda x, gen: spectral_norm_est(x))


@pytest.mark.parametrize("shape", [(7, 5), (5, 7), (6, 6), (1, 1), (0, 4), (4, 0)])
@pytest.mark.parametrize("name,run", GEN_DRIVERS)
def test_taus_and_panel_starts_are_read_off_the_t_blocks(name, run, shape):
    a = np.zeros(shape, order="F")
    if min(shape):
        a = gaussian_matrix(Xoshiro256pp(3), *shape)
    f = run(a, Xoshiro256pp(1))
    starts, j = [], 0
    for t in f.t_blocks:
        starts.append(j)
        j += t.shape[0]
    assert f.r == len(f.taus) == j == min(shape)
    assert f.panel_starts == starts
    diagonals = [np.diagonal(t) for t in f.t_blocks]
    assert np.array_equal(f.taus, np.concatenate(diagonals) if diagonals else np.empty(0))
    with pytest.raises(AttributeError):
        f.taus = f.taus


@pytest.mark.parametrize("shape", [(7, 5), (5, 7), (0, 4), (4, 0)])
@pytest.mark.parametrize("name,run", GEN_DRIVERS)
def test_every_t_block_is_a_kernel_operand(name, run, shape):
    # larfb takes each T as stored, by the rule every kernel operand meets
    a = np.zeros(shape, order="F")
    if min(shape):
        a = gaussian_matrix(Xoshiro256pp(4), *shape)
    for t in run(a, Xoshiro256pp(1)).t_blocks:
        check_operand(t, "T", written=False)


# old call forms, each passing an argument that no longer exists; every one
# must fail when called rather than bind that argument to another parameter
RETIRED_CALLS = [
    ("hqr_unb_formT-t", lambda a: hqr_unb_formT(a, np.zeros((6, 6)))),
    (
        "hqrp_panel_var3-t",
        lambda a: hqrp_panel_var3(
            a, 0, 0, 6, 2, np.zeros((2, 2)), np.zeros((2, 6), order="F"), compute_weights(a)
        ),
    ),
    (
        "hqrp_panel_var3-t-fc",
        lambda a: hqrp_panel_var3(
            a,
            0,
            0,
            6,
            2,
            np.zeros((2, 2)),
            np.zeros((2, 6), order="F"),
            compute_weights(a),
            FlopCounter(),
        ),
    ),
    (
        "hqrp_panel_var3-fc",
        lambda a: hqrp_panel_var3(
            a, 0, 0, 6, 2, np.zeros((2, 6), order="F"), compute_weights(a), fc=FlopCounter()
        ),
    ),
    (
        "hqrp_panel_var3-w_mat",
        lambda a: hqrp_panel_var3(a, 0, 0, 6, 2, np.zeros((2, 6), order="F"), compute_weights(a)),
    ),
    (
        "downdate_sketch-iter_swaps",
        lambda a: downdate_sketch(
            build_sketch(Xoshiro256pp(1), a, 2, 1), a[:, :2], np.eye(2), a[:2, 2:], []
        ),
    ),
    (
        "downdate_sketch-iter_swaps-fc",
        lambda a: downdate_sketch(
            build_sketch(Xoshiro256pp(1), a, 2, 1), a[:, :2], np.eye(2), a[:2, 2:], (), None
        ),
    ),
    ("QRFactors-starts-taus", lambda a: QRFactors(a, [], [], np.empty(0))),
    (
        "QRFactors-starts-taus-trail",
        lambda a: QRFactors(a, [0], [np.eye(1)], np.ones(1), np.zeros(1, dtype=np.int64)),
    ),
    ("Sketch-b-p", lambda a: Sketch(np.ones((3, 8)), np.ones((3, 6)), 2, 1)),
    ("spectral_norm_est-b-iters", lambda a: spectral_norm_est(a, 100)),
    *[
        (f"spectral_norm_est-{key}=", lambda a, key=key: spectral_norm_est(a, **{key: 1}))
        for key in ("iters", "tol", "seed", "block")
    ],
    (
        "truncation_errors-algo_label-seed",
        lambda a: truncation_errors(a, hqr_unb(a.copy(order="F")), [0], False, None, "hqr", 3),
    ),
    *[
        (
            f"truncation_errors-{key}=",
            lambda a, key=key: truncation_errors(a, hqr_unb(a.copy(order="F")), [0], **{key: 1}),
        )
        for key in ("algo_label", "seed")
    ],
    ("hqr_unb-fc", lambda a: hqr_unb(a, FlopCounter())),
    ("hqr_unb-fc=", lambda a: hqr_unb(a, fc=FlopCounter())),
    ("hqrp_unb-steps-fc", lambda a: hqrp_unb(a, 3, FlopCounter())),
    ("hqrp_unb-steps-fc-step_hook", lambda a: hqrp_unb(a, 3, None, lambda *x: None)),
    ("hqrp_unb-fc=", lambda a: hqrp_unb(a, fc=FlopCounter())),
    (
        "QualityReport-algo_label-seed",
        lambda a: QualityReport(np.zeros(1), np.zeros(1), None, np.zeros(6), None, None, "hqr", 3),
    ),
]


@pytest.mark.parametrize("call", [c for _, c in RETIRED_CALLS], ids=[i for i, _ in RETIRED_CALLS])
def test_retired_call_forms_raise_type_error(call):
    a = gaussian_matrix(Xoshiro256pp(3), 8, 6)
    before = a.copy()
    with pytest.raises(TypeError):
        call(a)
    assert np.array_equal(a, before)


def _gaussian_40():
    """40 x 40 Gaussian whose largest column norm is 0.98 * 2^3."""
    return np.asfortranarray(np.random.default_rng(1).standard_normal((40, 40)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name,run", GEN_DRIVERS + [SPECTRAL])
def test_non_finite_input_rejected_before_any_draw(name, run, bad):
    a = gaussian_matrix(Xoshiro256pp(3), 5, 4)
    a[2, 1] = bad
    before = a.copy()
    gen = Xoshiro256pp(1)
    with pytest.raises(ValueError, match="NaN or Inf"):
        run(a, gen)
    assert np.array_equal(a, before, equal_nan=True)
    assert np.array_equal(gen.raw(4), Xoshiro256pp(1).raw(4))


@pytest.mark.parametrize("name,run", GEN_DRIVERS + [SPECTRAL])
def test_column_norm_overflow_rejected_before_any_draw(name, run):
    # every entry is finite, but the largest column norm is 0.98 * 2^1025
    a = np.ldexp(_gaussian_40(), 1022)
    before = a.copy()
    gen = Xoshiro256pp(1)
    with pytest.raises(ValueError, match="column norm"):
        run(a, gen)
    assert np.array_equal(a, before)
    assert np.array_equal(gen.raw(4), Xoshiro256pp(1).raw(4))


@pytest.mark.parametrize(
    "kind", ["int64", "float32", "1-D", "3-D", "read-only", "row-major", "reversed rows"]
)
@pytest.mark.parametrize("name,run", GEN_DRIVERS)
def test_non_float64_matrix_rejected_before_any_draw(name, run, kind):
    # a driver factors in place, so it must not convert a copy and factor
    # that, nor factor a float32 matrix in single precision, nor start on a
    # matrix it cannot write, nor on one that the in-place BLAS calls of
    # the blocked drivers cannot address as column-major
    a = np.ldexp(gaussian_matrix(Xoshiro256pp(3), 5, 4), 4)
    a = {
        "int64": a.astype(np.int64),
        "float32": a.astype(np.float32),
        "1-D": a[:, 0].copy(),
        "3-D": a[None].copy(),
        "read-only": a,
        "row-major": np.ascontiguousarray(a),
        "reversed rows": a[::-1],
    }[kind]
    a.flags.writeable = kind != "read-only"
    before = a.copy()
    gen = Xoshiro256pp(1)
    with pytest.raises(ValueError, match="2-D float64 array"):
        run(a, gen)
    assert np.array_equal(a, before)
    assert np.array_equal(gen.raw(4), Xoshiro256pp(1).raw(4))


BAD_PARAMETERS = [
    ("b", 0),
    ("b", 2.0),
    ("b", "4"),
    ("p", -1),
    ("p", 1.5),
    ("steps", -1),
    ("steps", 2.5),
]


@pytest.mark.parametrize(
    "run,kw",
    [
        pytest.param(run, {key: value}, id=f"{name}-{key}={value!r}")
        for name, run in GEN_DRIVERS
        for key, value in BAD_PARAMETERS
        if key in inspect.signature(run).parameters
    ]
    + [
        pytest.param(
            lambda x, gen, mode=mode: hqrrp_blk(x, 2, None, mode=mode), {}, id=f"{mode}-rng=None"
        )
        for mode in ("downdate", "basic")
    ],
)
def test_bad_parameter_rejected_before_any_draw(run, kw):
    # outside the safe scale window, so a check after the prologue would
    # leave the matrix scaled
    a = np.ldexp(_gaussian_40(), -1000)
    before = a.copy()
    gen = Xoshiro256pp(1)
    with pytest.raises(ValueError, match="block size|oversampling|steps|generator"):
        run(a, gen, **kw)
    assert np.array_equal(a, before)
    assert np.array_equal(gen.raw(4), Xoshiro256pp(1).raw(4))


@pytest.mark.parametrize("name,run", DRIVERS)
def test_column_block_view_factors_in_place(name, run):
    # every other column of a Fortran array: column-major with a longer stride
    a = gaussian_matrix(Xoshiro256pp(5), 9, 12)
    view = a[:, ::2]
    dense = view.copy(order="F")
    f, g = run(view), run(dense)
    assert f.packed is view
    assert frobenius_norm(a[:, ::2] - g.packed) <= 1e-13 * frobenius_norm(g.packed)
    assert np.array_equal(f.trail, g.trail)


def test_spectral_norm_est_accepts_a_read_only_matrix():
    # it works on a copy, so the drivers' writeable check must not reach it
    a = _gaussian_40()
    a.flags.writeable = False
    assert spectral_norm_est(a) == spectral_norm_est(a.copy(order="K"))


@pytest.mark.parametrize("name,run", DRIVERS)
def test_zero_matrix_factors_exactly(name, run):
    z = np.zeros((6, 4), order="F")
    f = run(z.copy(order="F"))
    recon, orth = factorization_errors(z, f)
    assert recon == 0.0 and orth < 1e-14
    assert np.array_equal(f.r_matrix(), np.zeros((4, 4)))


def test_mgsp_single_entry():
    q, r, trail = mgsp(np.array([[3.0]]))
    assert q[0, 0] == 1.0 and r[0, 0] == 3.0 and trail.tolist() == [0]


def test_rank_one_annihilates_at_one():
    u = gaussian_matrix(Xoshiro256pp(3), 6, 1)
    v = gaussian_matrix(Xoshiro256pp(4), 4, 1)
    a = np.asfortranarray(u @ v.T)
    f = hqrrp_blk(a.copy(order="F"), 2, Xoshiro256pp(5), p=2)
    rep = truncation_errors(a, f, [1, 4])
    assert rep.e_frob[0] <= 1e-14 * np.linalg.norm(a)
    assert rep.e_frob[1] == 0.0


def test_single_row_pivoting_orders_by_magnitude():
    a = np.array([[2.0, -7.0, 5.0]], order="F")
    f = hqrp_unb(a.copy(order="F"))
    assert trail_to_permutation(f.trail, 3)[0] == 1  # largest-magnitude entry first
    assert abs(f.r_matrix()[0, 0]) == pytest.approx(7.0)


@pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
def test_power_of_two_scaling_scales_r_exactly(k):
    # scaling by s = 2^k is exact, so pivots and |r_kk| / s must not move
    # anywhere in the double range; the next test holds every driver to
    # exactly s * R
    a, _ = gen_fast_decay(128, Xoshiro256pp(17))
    s = 2.0**k
    runs = [
        ("hqr-blk", lambda x: hqr_blk(x, 16)),
        ("hqrrp", lambda x: hqrrp_blk(x, 16, Xoshiro256pp(5), p=5)),
        ("hqrrp-basic", lambda x: hqrrp_blk(x, 16, Xoshiro256pp(5), p=5, mode="basic")),
    ]
    for name, run in runs:
        ref = run(a.copy(order="F"))
        f = run(np.asfortranarray(a * s))
        assert np.array_equal(f.trail, ref.trail), name
        d_ref = np.abs(np.diag(ref.r_matrix()))
        d = np.abs(np.diag(f.r_matrix())) / s
        err = np.max(np.abs(d - d_ref) / d_ref)
        assert err <= 1e-14, (name, err)


@pytest.mark.parametrize("k", [-1000, -500, 500, 1000, 1021])
def test_power_of_two_scaling_of_classical_pivoting_is_exact(k):
    # squared-norm weights, sketches and trailing updates would overflow or
    # underflow at these scales; every driver rescales the input by a power
    # of two, so the trail, the reflectors and tau are the unscaled ones and
    # R is exactly 2^k R.  At k = 1021 the Gaussian's largest column norm is
    # 0.98 * 2^1024, just inside the double range.
    runs = [
        ("hqr", hqr_unb),
        ("hqr-blk", lambda x: hqr_blk(x, 16)),
        ("hqrp-blk", lambda x: hqrp_blk(x, 16)),
        ("hqrp-unb", hqrp_unb),
        ("hqrrp", lambda x: hqrrp_blk(x, 16, Xoshiro256pp(5), p=5)),
        ("hqrrp-basic", lambda x: hqrrp_blk(x, 16, Xoshiro256pp(5), p=5, mode="basic")),
    ]
    for a in (gen_fast_decay(128, Xoshiro256pp(17))[0], _gaussian_40()):
        for name, run in runs:
            ref = run(a.copy(order="F"))
            f = run(np.asfortranarray(np.ldexp(a, k)))
            assert np.array_equal(f.trail, ref.trail), name
            assert np.array_equal(f.r_matrix(), np.ldexp(ref.r_matrix(), k)), name
            assert np.array_equal(np.tril(f.packed, -1), np.tril(ref.packed, -1)), name
            assert np.array_equal(f.taus, ref.taus), name
