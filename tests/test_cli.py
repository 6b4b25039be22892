"""End-to-end checks of the command-line harness and its file contracts."""

import csv
import warnings

import numpy as np
import pytest
import scipy.linalg

import rrqr.cli as cli
from rrqr import frobenius_norm, gaussian_matrix, hqr_blk
from rrqr.mio import read_matrix_market, write_matrix_market

from conftest import gauss


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_fast_decay(tmp_path):
    prefix = str(tmp_path / "m1")
    assert run(["gen", "--kind", "fast-decay", "--n", "64", "--seed", "7", "-o", prefix]) == 0
    a = read_matrix_market(prefix + ".mtx")
    assert a.shape == (64, 64)
    rows = read_csv(prefix + ".sv.csv")
    assert rows[0] == ["j", "sigma"]
    assert float(rows[1][1]) == 1.0
    assert float(rows[-1][1]) == pytest.approx(1e-5, rel=1e-12)


def test_gen_kahan(tmp_path):
    prefix = str(tmp_path / "k")
    assert run(["gen", "--kind", "kahan", "--n", "16", "--zeta", "0.9", "-o", prefix]) == 0
    a = read_matrix_market(prefix + ".mtx")
    assert np.array_equal(a, np.triu(a))
    assert np.allclose(np.diag(a), 0.9 ** np.arange(16))
    assert not (tmp_path / "k.sv.csv").exists()  # no sigmas by construction


def test_missing_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--kind", "fast-decay", "-o", "x"])
    assert exc.value.code == 2


def test_unknown_kind_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--kind", "hilbert", "--n", "8", "-o", "x"])
    assert exc.value.code == 2


def test_unreadable_input_is_runtime_error(tmp_path, capsys):
    rc = run(["factor", "--algo", "hqr", "--in", str(tmp_path / "nope.mtx"), "-o", str(tmp_path / "f")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_factor_identity(tmp_path, capsys):
    src = tmp_path / "eye.mtx"
    write_matrix_market(src, np.eye(8))
    prefix = str(tmp_path / "f")
    assert run(["factor", "--algo", "hqr", "--in", str(src), "-o", prefix]) == 0
    line = capsys.readouterr().out.strip()
    fields = line.split(",")
    assert fields[0] == "hqr"
    assert float(fields[6]) <= 1e-14  # recon_relerr
    r = read_matrix_market(prefix + ".R.mtx")
    assert np.allclose(np.abs(r), np.eye(8), atol=1e-15)  # sign convention flips
    piv = read_csv(prefix + ".piv.csv")
    assert piv[0] == ["step", "swap_index"]
    assert len(piv) == 1  # unpivoted: empty trail


def test_factor_pivoted_writes_trail(tmp_path, capsys):
    src = tmp_path / "a.mtx"
    write_matrix_market(src, gauss(1, 12, 10))
    prefix = str(tmp_path / "f")
    assert run(["factor", "--algo", "hqrp", "--in", str(src), "-o", prefix]) == 0
    piv = read_csv(prefix + ".piv.csv")
    assert len(piv) == 11
    steps = [int(r[0]) for r in piv[1:]]
    swaps = [int(r[1]) for r in piv[1:]]
    assert steps == list(range(10))
    assert all(s >= i for i, s in enumerate(swaps))
    capsys.readouterr()


def test_factor_hqrrp_deterministic(tmp_path, capsys):
    src = tmp_path / "a.mtx"
    write_matrix_market(src, gauss(2, 30, 30))
    out = []
    for tag in ("f1", "f2"):
        prefix = str(tmp_path / tag)
        assert run(
            ["factor", "--algo", "hqrrp", "--in", str(src), "--b", "8", "--seed", "5", "-o", prefix]
        ) == 0
        out.append(read_csv(prefix + ".piv.csv"))
    assert out[0] == out[1]
    capsys.readouterr()


def test_factor_form_q(tmp_path, capsys):
    src = tmp_path / "a.mtx"
    write_matrix_market(src, gauss(3, 10, 6))
    prefix = str(tmp_path / "f")
    assert run(
        ["factor", "--algo", "hqr-blk", "--in", str(src), "--b", "4", "--form-q", "6", "-o", prefix]
    ) == 0
    q = read_matrix_market(prefix + ".Q.mtx")
    assert q.shape == (10, 6)
    assert frobenius_norm(q.T @ q - np.eye(6)) <= 1e-12
    capsys.readouterr()


def test_quality_csv_contract(tmp_path):
    prefix = str(tmp_path / "q")
    assert run(
        [
            "quality", "--kind", "fast-decay", "--n", "48", "--b", "16",
            "--algo", "hqrp", "--algo", "hqrrp", "--algo", "hqrrp-basic",
            "--seed", "3", "--spectral", "-o", prefix,
        ]
    ) == 0
    rows = read_csv(prefix + ".quality.csv")
    assert rows[0] == ["algo", "k", "e_frob", "e_spec", "bound_frob", "bound_spec"]
    by_algo = {}
    for algo, k, ef, es, bf, bs in rows[1:]:
        by_algo.setdefault(algo, []).append((int(k), float(ef), float(es), float(bf), float(bs)))
    assert set(by_algo) == {"hqrp", "hqrrp", "hqrrp-basic"}
    for algo, entries in by_algo.items():
        ks = [e[0] for e in entries]
        assert ks == [0, 16, 32, 48]
        # k = 0 rows carry the full norm; every error respects its floor
        assert entries[0][1] == pytest.approx(entries[0][3], rel=1e-8)
        for _, ef, es, bf, bs in entries:
            assert ef >= bf * (1 - 1e-8)
            assert es >= bs * (1 - 1e-8)
    rd = read_csv(prefix + ".rdiag.csv")
    assert rd[0] == ["algo", "i", "abs_rii"]
    assert len(rd) == 1 + 3 * 48


def test_quality_rank_deficient_input_file(tmp_path):
    src = tmp_path / "lowrank.mtx"
    a = gauss(4, 32, 6) @ gauss(5, 6, 32)
    write_matrix_market(src, a)
    prefix = str(tmp_path / "q")
    assert run(["quality", "--in", str(src), "--b", "6", "--algo", "hqrp", "-o", prefix]) == 0
    rows = read_csv(prefix + ".quality.csv")
    at_rank = [r for r in rows[1:] if int(r[1]) == 6]
    assert float(at_rank[0][2]) <= 1e-10 * frobenius_norm(a)


def test_quality_requires_kind_or_input():
    with pytest.raises(SystemExit) as exc:
        run(["quality", "--algo", "hqrp", "-o", "x"])
    assert exc.value.code == 2


def test_quality_spectral_floors_of_input_file_from_svdvals(tmp_path):
    # a matrix read from a file has no known spectrum: both bound columns
    # must be the Eckart-Young floors of its LAPACK singular values
    src = tmp_path / "g.mtx"
    a = gauss(11, 20, 16)
    write_matrix_market(src, a)
    prefix = str(tmp_path / "q")
    assert run(
        ["quality", "--in", str(src), "--b", "4", "--algo", "hqrp", "--spectral", "-o", prefix]
    ) == 0
    sv = scipy.linalg.svdvals(read_matrix_market(src))
    rows = read_csv(prefix + ".quality.csv")[1:]
    assert [int(r[1]) for r in rows] == [0, 4, 8, 12, 16]
    for r in rows:
        k = int(r[1])
        tail = sv[k:]
        assert float(r[4]) == pytest.approx(np.sqrt(np.sum(tail**2)), rel=1e-12, abs=0.0)
        assert float(r[5]) == pytest.approx(tail[0] if k < len(sv) else 0.0, rel=1e-12, abs=0.0)


def test_quality_spectral_floors_near_overflow(tmp_path, capsys):
    # sum(sigma_j^2) overflows here; the floors must stay quiet, and finite
    # from k = 24 on, where the true ones are (below that, both are > 2^1024)
    src = tmp_path / "big.mtx"
    write_matrix_market(src, np.ldexp(np.random.default_rng(1).standard_normal((40, 40)), 1020))
    prefix = str(tmp_path / "q")
    argv = ["quality", "--algo", "hqrp", "--algo", "hqrrp", "--in", str(src), "--spectral"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--b", "8", "-o", prefix]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    rows = read_csv(prefix + ".quality.csv")[1:]
    assert len(rows) == 2 * 6
    for algo, k, ef, es, bf, bs in rows:
        if int(k) >= 24:
            assert np.isfinite(float(bf)) and float(ef) >= float(bf) * (1 - 1e-8), (algo, k)


def test_bench_csv(tmp_path):
    prefix = str(tmp_path / "bench")
    assert run(
        ["bench", "--algo", "hqr-blk", "--algo", "hqrp", "--n", "96", "--b", "16", "-o", prefix]
    ) == 0
    rows = read_csv(prefix + ".bench.csv")
    assert rows[0] == ["algo", "n", "b", "p", "seconds", "std_gflops", "counted_flops"]
    assert len(rows) == 3
    flops = {r[0]: int(r[6]) for r in rows[1:]}
    # blocked unpivoted casts everything level-3; classical pivoting only half
    assert flops["hqrp"] <= 0.6 * flops["hqr-blk"]
    assert flops["hqr-blk"] >= 0.9 * (4 / 3) * 96**3


def test_bench_counted_flops_deterministic(tmp_path):
    counts = []
    for tag in ("b1", "b2"):
        prefix = str(tmp_path / tag)
        assert run(["bench", "--algo", "hqrrp", "--n", "64", "--b", "16", "-o", prefix]) == 0
        counts.append([r[6] for r in read_csv(prefix + ".bench.csv")[1:]])
    assert counts[0] == counts[1]


def test_invalid_block_size_is_usage_error(tmp_path):
    src = tmp_path / "a.mtx"
    write_matrix_market(src, gauss(6, 8, 8))
    with pytest.raises(SystemExit) as exc:
        run(["factor", "--algo", "hqrp", "--in", str(src), "--b", "0", "-o", str(tmp_path / "f")])
    assert exc.value.code == 2


def test_factor_pivoted_diag_ordering_via_files(tmp_path, capsys):
    prefix = str(tmp_path / "m1")
    assert run(["gen", "--kind", "fast-decay", "--n", "48", "--seed", "2", "-o", prefix]) == 0
    out = str(tmp_path / "f")
    assert run(["factor", "--algo", "hqrp", "--in", prefix + ".mtx", "--b", "16", "-o", out]) == 0
    r = read_matrix_market(out + ".R.mtx")
    d = np.abs(np.diag(r))
    assert np.all(d[:-1] >= d[1:] * (1 - 1e-12))
    capsys.readouterr()


def test_gen_zero_rows_is_runtime_error(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    assert run(["gen", "--kind", "gaussian", "--n", "4", "--m", "0", "-o", prefix]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "g.mtx").exists()


def test_bench_times_no_copy_of_its_input(tmp_path, monkeypatch):
    # bench factors the matrix it generated in place, so its clock times
    # the factorization alone
    made, factored = [], []

    def generate(*args):
        made.append(gaussian_matrix(*args))
        return made[-1]

    def factor(a, b, fc):
        factored.append(a)
        return hqr_blk(a, b, fc)

    monkeypatch.setattr(cli, "gaussian_matrix", generate)
    monkeypatch.setattr(cli, "hqr_blk", factor)
    assert run(["bench", "--algo", "hqr-blk", "--n", "32", "--b", "8", "-o", str(tmp_path / "b")]) == 0
    assert len(factored) == 1 and factored[0] is made[0]
