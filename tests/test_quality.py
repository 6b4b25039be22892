"""Truncation-error evaluation and Eckart-Young floors."""

import numpy as np
import pytest
from scipy.linalg import svdvals

import rrqr.cli
import rrqr.quality
import rrqr.testmats
from rrqr import (
    QRFactors,
    Xoshiro256pp,
    EPS,
    eckart_young_bounds,
    factorization_errors,
    form_q,
    frobenius_norm,
    gen_fast_decay,
    gen_kahan,
    gen_s_shape,
    hqr_blk,
    hqr_unb,
    hqrp_blk,
    hqrp_unb,
    hqrrp_blk,
    jacobi_svd_values,
    spectral_norm_est,
    trail_to_permutation,
    truncation_errors,
)

from conftest import gauss


def test_error_at_full_rank_is_zero():
    a = gauss(1, 20, 20)
    rep = truncation_errors(a, hqrp_blk(a.copy(order="F"), 8), [20])
    assert rep.e_frob[0] == 0.0


def test_error_at_zero_is_full_norm():
    a = gauss(2, 25, 20)
    rep = truncation_errors(a, hqrp_blk(a.copy(order="F"), 8), [0])
    assert rep.e_frob[0] == pytest.approx(frobenius_norm(a), rel=1e-12)


def test_rank_annihilation():
    a = gauss(3, 30, 6) @ gauss(4, 6, 24)  # rank 6 exactly
    rep = truncation_errors(a, hqrp_blk(a.copy(order="F"), 8), [6])
    assert rep.e_frob[0] <= 1e-10 * frobenius_norm(a)


def test_e_frob_non_increasing():
    a = gauss(5, 40, 40)
    rep = truncation_errors(a, hqrp_blk(a.copy(order="F"), 8), list(range(0, 41, 4)))
    assert np.all(np.diff(rep.e_frob) <= 1e-14)


def test_ks_validated():
    a = gauss(6, 10, 10)
    f = hqrp_blk(a.copy(order="F"), 4)
    with pytest.raises(ValueError):
        truncation_errors(a, f, [11])
    with pytest.raises(ValueError):
        truncation_errors(a, f, [-1])
    # a fractional rank is not rounded down
    with pytest.raises(ValueError, match="integer"):
        truncation_errors(a, f, [1.7, 2.2])


def test_packed_trailing_norm_equals_explicit_residual():
    # both sides of the truncation-error identity, explicit form as oracle
    a = gauss(7, 60, 48)
    f = hqrp_blk(a.copy(order="F"), 16)
    perm = trail_to_permutation(f.trail, 48)
    q = form_q(f, f.r)
    r = f.r_matrix()
    rep = truncation_errors(a, f, [0, 8, 16, 32, 47])
    for idx, k in enumerate([0, 8, 16, 32, 47]):
        explicit = frobenius_norm(a[:, perm] - q[:, :k] @ r[:k, :])
        assert abs(rep.e_frob[idx] - explicit) <= 1e-9 * frobenius_norm(a)


def test_spectral_errors_close_to_jacobi():
    a = gauss(8, 32, 32)
    f = hqrp_blk(a.copy(order="F"), 8)
    rep = truncation_errors(a, f, [0, 8, 16], with_spectral=True)
    r = f.r_matrix()
    for idx, k in enumerate([0, 8, 16]):
        exact = jacobi_svd_values(r[k:, k:])[0]
        assert rep.e_spec[idx] == pytest.approx(exact, rel=1e-12)


def test_quality_runs_without_the_jacobi_oracle(tmp_path, monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the Jacobi oracle was called")

    for module in (rrqr, rrqr.testmats, rrqr.quality, rrqr.cli):
        monkeypatch.setattr(module, "jacobi_svd_values", no_oracle, raising=False)
    a = gauss(13, 24, 24)
    rep = truncation_errors(a, hqrp_blk(a.copy(order="F"), 8), [0, 8, 16], with_spectral=True)
    assert rep.e_spec[0] == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    prefix = str(tmp_path / "q")
    argv = ["quality", "--kind", "bie", "--n", "16", "--algo", "hqrp", "--spectral", "-o", prefix]
    assert rrqr.cli.main(argv) == 0


def test_spectral_norm_est_matches_jacobi():
    a = gauss(9, 40, 25)
    assert spectral_norm_est(a) == pytest.approx(jacobi_svd_values(a)[0], rel=1e-6)


def test_spectral_norm_est_degenerate():
    assert spectral_norm_est(np.zeros((4, 3))) == 0.0
    assert spectral_norm_est(np.zeros((0, 3))) == 0.0


def test_spectral_norm_est_is_lapacks_top_singular_value():
    a = gauss(9, 40, 25)
    assert spectral_norm_est(a) == svdvals(a)[0]


@pytest.mark.parametrize("k", [-1000, 0, 1000])
def test_spectral_norm_est_is_exact_at_every_scale(k):
    assert spectral_norm_est(np.diag([3.0, 2.0, 1.0]) * 2.0**k) == 3.0 * 2.0**k


@pytest.mark.parametrize("k,s", [(-700, 1e-200), (700, 1e200)])
def test_spectral_norm_est_scales_with_the_input(k, s):
    # squared entries overflow or underflow at these scales; the norm must not
    a = gauss(9, 40, 25)
    b = np.ldexp(a, k)
    want = np.ldexp(spectral_norm_est(a), k)
    assert spectral_norm_est(b) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert np.array_equal(b, np.ldexp(a, k))  # the caller's matrix is untouched
    est = spectral_norm_est(np.diag([3.0, 2.0, 1.0]) * s)
    assert est == pytest.approx(3.0 * s, rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectral_norm_est_is_inf_only_beyond_the_double_range():
    # column norms 1e308 fit, sigma_1 = 2e308 does not: inf, as frobenius_norm
    # gives, and without an overflow warning
    assert spectral_norm_est(np.full((4, 4), 0.5e308)) == np.inf
    assert spectral_norm_est(np.full((2, 2), 0.5e308)) == pytest.approx(1e308, rel=1e-15)


def test_spectral_norm_est_of_a_row_major_matrix():
    a = gauss(9, 40, 25)
    assert spectral_norm_est(np.ascontiguousarray(a)) == spectral_norm_est(a)


def test_eckart_young_bound_values():
    sig = np.array([4.0, 2.0, 1.0])
    bf, bs = eckart_young_bounds(sig, [0, 1, 2, 3])
    assert bs.tolist() == [4.0, 2.0, 1.0, 0.0]
    assert bf == pytest.approx([np.sqrt(21.0), np.sqrt(5.0), 1.0, 0.0])


def test_eckart_young_rejects_negative_ranks():
    with pytest.raises(ValueError):
        eckart_young_bounds([3.0, 2.0, 1.0], [-1])
    with pytest.raises(ValueError):
        eckart_young_bounds([3.0, 2.0, 1.0], np.array([0, 2, -3]))
    with pytest.raises(ValueError, match="integer"):
        eckart_young_bounds([3.0, 2.0, 1.0], [1.7, 2.2])


@pytest.mark.parametrize("gen", [gen_fast_decay, gen_s_shape])
def test_eckart_young_floors_constructed_spectra(gen):
    a, sig = gen(96, Xoshiro256pp(10))
    ks = list(range(0, 97, 16))
    for factor in (
        lambda x: hqrp_blk(x, 16),
        lambda x: hqrrp_blk(x, 16, Xoshiro256pp(11), p=5),
        lambda x: hqr_blk(x, 16),
    ):
        f = factor(a.copy(order="F"))
        rep = truncation_errors(a, f, ks, with_spectral=True, sigmas=sig)
        assert np.all(rep.e_frob >= rep.sv_bound_frob * (1 - 1e-8))
        assert np.all(rep.e_spec >= rep.sv_bound_spec * (1 - 1e-8))


def test_report_carries_rdiag():
    a = gauss(12, 16, 16)
    f = hqrp_blk(a.copy(order="F"), 4)
    rep = truncation_errors(a, f, [0, 4])
    assert len(rep.r_diag) == 16
    assert np.all(rep.r_diag >= 0)
    # a partial factorization has r_kk only for its r steps
    a = gauss(12, 20, 12)
    f = hqrp_unb(a.copy(order="F"), steps=5)
    rep = truncation_errors(a, f, [0])
    assert np.array_equal(rep.r_diag, np.abs(np.diag(f.r_matrix())))
    assert len(rep.r_diag) == 5


SCALED_FACTORIZATIONS = {
    "hqr_blk": lambda x: hqr_blk(x, 16),
    "basic": lambda x: hqrrp_blk(x, 16, Xoshiro256pp(3), p=5, mode="basic"),
    "downdate": lambda x: hqrrp_blk(x, 16, Xoshiro256pp(3), p=5, mode="downdate"),
}


@pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
def test_norms_and_errors_scale_with_the_input(k):
    # squared entries overflow or underflow at these scales; the norms must not
    s = 2.0**k
    a, sig = gen_fast_decay(128, Xoshiro256pp(11))
    ks = list(range(0, 129, 16))
    assert frobenius_norm(s * a) == pytest.approx(s * frobenius_norm(a), rel=1e-14, abs=0.0)
    bf, _ = eckart_young_bounds(s * sig, ks)
    assert np.all(np.isfinite(bf))
    assert bf == pytest.approx(s * eckart_young_bounds(sig, ks)[0], rel=1e-14, abs=0.0)
    for name, factor in SCALED_FACTORIZATIONS.items():
        e_frob = truncation_errors(a, factor(a.copy(order="F")), ks).e_frob
        f = factor((s * a).copy(order="F"))
        e_scaled = truncation_errors(s * a, f, ks).e_frob
        assert e_scaled == pytest.approx(s * e_frob, rel=1e-14, abs=0.0), name
        recon, orth = factorization_errors(s * a, f)
        assert recon <= 50 * 128 * EPS and orth <= 50 * 128 * EPS, name


def test_relative_error_near_overflow_is_positive():
    # ||A||_F overflows at this scale, so the ratio must not read 0
    a = np.ldexp(np.random.default_rng(1).standard_normal((40, 40)), 1020)
    runs = {"hqr": hqr_unb, "hqrp": lambda x: hqrp_blk(x, 16), **SCALED_FACTORIZATIONS}
    for name, factor in runs.items():
        recon, _ = factorization_errors(a, factor(a.copy(order="F")))
        assert 0.0 < recon <= 50 * 40 * EPS, name


def test_floors_near_overflow_are_finite():
    # the tail sums of squares overflow at this scale; the floors must not
    a = np.random.default_rng(1).standard_normal((40, 40))
    sig = np.ldexp(svdvals(a), 1020)
    ks = [24, 32]
    bf, bs = eckart_young_bounds(sig, ks)
    ref_f, ref_s = eckart_young_bounds(np.ldexp(sig, -1020), ks)
    assert np.all(np.isfinite(bf))
    assert bf == pytest.approx(np.ldexp(ref_f, 1020), rel=1e-14, abs=0.0)
    assert np.array_equal(bs, np.ldexp(ref_s, 1020))


# e_k and the Frobenius floors are tail sums of squares (R's row norms,
# sigma_j^2), kept where they lie well inside the double range; each must
# agree with the scale-safe norm of its own block.

TAIL_DRIVERS = {
    "hqr_blk": lambda x: hqr_blk(x, 8),
    "hqrp_blk": lambda x: hqrp_blk(x, 8),
    "hqrrp": lambda x: hqrrp_blk(x, 8, Xoshiro256pp(5), p=3),
}
TAIL_INPUTS = {
    "tall": lambda: gauss(21, 70, 40),
    "wide": lambda: gauss(22, 40, 70),
    "fast-decay": lambda: gen_fast_decay(48, Xoshiro256pp(23))[0],
    "kahan": lambda: np.asfortranarray(gen_kahan(48)),
}


def _block_norms(f, ks):
    r = f.r_matrix()
    return np.array([frobenius_norm(r[k:, k:]) for k in ks])


@pytest.mark.parametrize("kind", TAIL_INPUTS)
@pytest.mark.parametrize("driver", TAIL_DRIVERS)
def test_tail_sums_match_the_block_norms_at_every_rank(driver, kind):
    a = TAIL_INPUTS[kind]()
    f = TAIL_DRIVERS[driver](a.copy(order="F"))
    ks = list(range(f.r + 1))
    e = truncation_errors(a, f, ks).e_frob
    assert e == pytest.approx(_block_norms(f, ks), rel=1e-14, abs=0.0)
    assert e[-1] == 0.0


def test_exactly_zero_tails_give_exactly_zero():
    # rank 5: hqrp moves the three zero columns last, and the reflectors
    # leave them exactly zero
    a = np.asfortranarray(np.hstack([gauss(24, 30, 5), np.zeros((30, 3))]))
    f = hqrp_blk(a.copy(order="F"), 4)
    e = truncation_errors(a, f, range(9)).e_frob
    assert e[:5] == pytest.approx(_block_norms(f, range(5)), rel=1e-14, abs=0.0)
    assert e[5:].tolist() == [0.0] * 4


def test_tail_sums_of_a_partial_factorization():
    a = gauss(25, 30, 20)
    f = hqrp_unb(a.copy(order="F"), steps=7)
    assert f.r == 7
    e = truncation_errors(a, f, range(8)).e_frob
    assert e == pytest.approx(_block_norms(f, range(8)), rel=1e-14, abs=0.0)


def test_a_curve_takes_both_paths_when_rows_span_the_double_range(monkeypatch):
    # R's rows run from 2^600 down to 2^-600: the first and last tail sums of
    # squares overflow or underflow, so those ranks take frobenius_norm;
    # the middle ones stay on the tail sums
    n = 48
    scales = np.ldexp(1.0, np.linspace(600, -600, n).astype(int))
    r = np.triu(gauss(26, n, n)) * scales[:, None]
    f = QRFactors(np.asfortranarray(r), [np.zeros((n, n))])
    ks = list(range(n + 1))
    exact = []
    block_norm = rrqr.quality.frobenius_norm

    def counted(x):
        exact.append(x.shape[0])
        return block_norm(x)

    monkeypatch.setattr(rrqr.quality, "frobenius_norm", counted)
    e = truncation_errors(r, f, ks).e_frob
    want = _block_norms(f, ks)
    assert np.all(np.isfinite(e)) and np.all(e[:-1] > 0)
    assert e == pytest.approx(want, rel=1e-14, abs=0.0)
    taken = [n - rows for rows in exact]
    assert 0 in taken and n - 1 in taken  # both ends are taken exactly
    assert 0 < len(taken) < n // 2  # and the middle off the tail sums


def test_unsorted_and_repeated_ranks():
    a = gauss(27, 30, 24)
    f = hqrp_blk(a.copy(order="F"), 8)
    ks = [24, 3, 17, 3, 0, 24, 9]
    rep = truncation_errors(a, f, ks)
    assert rep.ks.tolist() == ks
    assert rep.e_frob == pytest.approx(_block_norms(f, ks), rel=1e-14, abs=0.0)
    assert rep.e_frob[0] == rep.e_frob[5] == 0.0
    assert rep.e_frob[1] == rep.e_frob[3]


@pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
def test_tail_sums_of_an_empty_factor(shape):
    a = np.zeros(shape, order="F")
    f = hqr_blk(a.copy(order="F"), 4)
    rep = truncation_errors(a, f, [0], sigmas=np.empty(0))
    assert rep.e_frob.tolist() == [0.0]
    assert rep.sv_bound_frob.tolist() == [0.0]
    assert rep.r_diag.shape == (0,)


@pytest.mark.parametrize("top", [0, 600, -600])
def test_floors_match_the_norms_of_the_sigma_tails(top):
    # at top = +-600 the sums of squares overflow or underflow at one end
    sig = np.ldexp(svdvals(gauss(28, 40, 40)), top)
    sig[-10:] = np.ldexp(sig[-10:], -2 * top)
    ks = [0, 40, 5, 41, 31, 5, 39, 100]
    bf, _ = eckart_young_bounds(sig, ks)
    want = [frobenius_norm(sig[k:]) for k in ks]
    assert bf == pytest.approx(want, rel=1e-14, abs=0.0)
    assert bf[1] == bf[3] == bf[7] == 0.0


def test_in_range_curves_make_no_per_rank_norm_call(monkeypatch):
    def no_block_norms(x):
        raise AssertionError("a per-rank frobenius_norm call")

    a, sig = gen_fast_decay(64, Xoshiro256pp(29))
    f = hqrp_blk(a.copy(order="F"), 16)
    ks = list(range(0, 64, 4))
    want = truncation_errors(a, f, ks, sigmas=sig)
    monkeypatch.setattr(rrqr.quality, "frobenius_norm", no_block_norms)
    rep = truncation_errors(a, f, ks, sigmas=sig)
    assert np.array_equal(rep.e_frob, want.e_frob)
    assert np.array_equal(rep.sv_bound_frob, want.sv_bound_frob)

