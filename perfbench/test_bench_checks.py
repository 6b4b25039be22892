"""The benchmark's correctness checks pass on true outputs and fail on
deliberately wrong ones: a swapped pivot, a perturbed R entry, a changed
RNG word.  Inputs are small, so the file runs in a few seconds."""

import dataclasses
import threading

import numpy as np
import pytest
import scipy.linalg

import bench_checks as checks
import bench_rng
import bench_runner
from bench_runner import Runner
from bench_trace import Tracer
from bench_workloads import Input, Workload
from rrqr import (
    Xoshiro256pp,
    apply_block_qt,
    gen_fast_decay,
    hqr_blk,
    hqrp_blk,
    hqrrp_blk,
    householder,
    randomized,
    truncation_errors,
)

FAIL = pytest.raises(checks.CheckFailed)


def gaussian(m, n, seed=0):
    return np.asfortranarray(np.random.default_rng(seed).standard_normal((m, n)))


def low_rank(m, n, rank, seed=0):
    gen = np.random.default_rng(seed)
    return np.asfortranarray(gen.standard_normal((m, rank)) @ gen.standard_normal((rank, n)))


@pytest.fixture(scope="module")
def classical():
    a = gaussian(40, 30)
    r = hqrp_blk(a.copy(order="F"), 8)
    return a, r.r_matrix(), checks.trail_permutation(r.trail, 30)


@pytest.mark.parametrize("shape", [(40, 30), (30, 40)])
@pytest.mark.parametrize("algo", ["hqr_blk", "hqrp_blk", "basic", "downdate"])
def test_true_outputs_pass(shape, algo):
    a = gaussian(*shape)
    c = a.copy(order="F")
    if algo == "hqr_blk":
        f = hqr_blk(c, 8)
    elif algo == "hqrp_blk":
        f = hqrp_blk(c, 8)
    else:
        f = hqrrp_blk(c, 8, Xoshiro256pp(3), p=5, mode=algo)
    r = f.r_matrix()
    perm = checks.trail_permutation(f.trail, a.shape[1])
    checks.check_gram(a, r, perm)
    checks.check_r_matches_lapack(a, r, perm)
    if algo != "hqr_blk":
        checks.check_diag_order(a, r, min(a.shape) if algo == "hqrp_blk" else 8)
    if algo == "hqrp_blk":
        ref = scipy.linalg.qr(a, mode="r", pivoting=True)[1]
        checks.check_pivots_match(perm, ref, min(a.shape))


@pytest.mark.parametrize("trail", [[0, 0, 1], [1, 0, 2], [0, 1, 3], [0, 1, 2, 3]])
def test_invalid_trail_fails(trail):
    with FAIL:
        checks.trail_permutation(trail, 3)


def test_swapped_pivot_fails(classical):
    a, r, perm = classical
    bad = perm.copy()
    bad[[2, 5]] = bad[[5, 2]]
    ref = scipy.linalg.qr(a, mode="r", pivoting=True)[1]
    checks.check_pivots_match(perm, ref, 30)
    with FAIL:
        checks.check_pivots_match(bad, ref, 30)
    with FAIL:
        checks.check_gram(a, r, bad)
    with FAIL:
        checks.check_r_matches_lapack(a, r, bad)


def test_perturbed_r_entry_fails(classical):
    a, r, perm = classical
    bad = r.copy()
    bad[3, 10] += 1e-9 * np.linalg.norm(a)
    with FAIL:
        checks.check_gram(a, bad, perm)
    with FAIL:
        checks.check_r_matches_lapack(a, bad, perm)


def test_diagonal_order_fails_only_within_a_block(classical):
    a, r, _ = classical
    bad = r.copy()
    bad[5, 5] = 2 * bad[4, 4]
    with FAIL:
        checks.check_diag_order(a, bad, 30)
    checks.check_diag_order(a, bad, 5)  # 4 and 5 lie in different blocks


def test_trailing_block_of_low_rank_input():
    a = low_rank(40, 30, 5)
    r = hqrp_blk(a.copy(order="F"), 8).r_matrix()
    checks.check_trailing_block(a, r, 5)
    checks.check_diag_order(a, r, 30)  # the roundoff tail is not ordered
    bad = r.copy()
    bad[6, 6] += 1e-9 * np.linalg.norm(a)
    with FAIL:
        checks.check_trailing_block(a, bad, 5)


@pytest.fixture(scope="module")
def curve():
    a, d = gen_fast_decay(32, Xoshiro256pp(1))
    f = hqrp_blk(a.copy(order="F"), 8)
    ks = [0, 8, 16, 24, 32]
    report = truncation_errors(a, f, ks, with_spectral=True, sigmas=d)
    return a, report, ks, scipy.linalg.svdvals(a)


def test_true_curve_passes(curve):
    checks.check_curve(*curve, spectral=True)


@pytest.mark.parametrize(
    "field, index, factor",
    [
        ("e_frob", 0, 1 + 1e-9),  # e_0 no longer ||A||_F
        ("e_frob", 2, 1e-3),  # below the Frobenius floor
        ("e_frob", 3, 100.0),  # the curve rises
        ("e_spec", 0, 1 + 1e-6),  # e_0 no longer sigma_1
        ("e_spec", 2, 1e-3),  # below the spectral floor
        ("sv_bound_frob", 1, 1.01),  # a wrong floor
    ],
)
def test_wrong_curve_fails(curve, field, index, factor):
    a, report, ks, sv = curve
    values = getattr(report, field).copy()
    values[index] *= factor
    with FAIL:
        checks.check_curve(a, dataclasses.replace(report, **{field: values}), ks, sv, True)


@pytest.mark.parametrize("seed", [0, 123, 2**64 - 1])
def test_reference_rng_matches_package(seed):
    words = Xoshiro256pp(seed).raw(300)
    assert np.array_equal(words, bench_rng.xoshiro_words(seed, 300))
    checks.check_rng_stream(seed, bench_runner.rng_draws(Xoshiro256pp(seed)))


def test_changed_rng_word_fails():
    for call, index in ((2, 5), (4, 17)):  # raw(17), raw(4096)
        draws = bench_runner.rng_draws(Xoshiro256pp(5))
        draws[call][2][index] ^= np.uint64(1)
        with FAIL:
            checks.check_rng_stream(5, draws)
    draws = bench_runner.rng_draws(Xoshiro256pp(5))
    draws[1][2][3] += 1e-12
    with FAIL:
        checks.check_rng_stream(5, draws)


class Restarting:
    """A generator that does not carry its state from one call to the next."""

    def __init__(self, seed):
        self.seed = seed

    def raw(self, n):
        return Xoshiro256pp(self.seed).raw(n)

    def normals(self, n):
        return Xoshiro256pp(self.seed).normals(n)


class OddNormalsTakeNWords(Xoshiro256pp):
    """normals(n) that takes n words for odd n, not n + 1."""

    def normals(self, n):
        if n % 2 == 0:
            return super().normals(n)
        out = super().normals(n - 1)
        u1, u2 = self.uniforms(1)[0], 0.5  # the last variate from one word
        return np.append(out, np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))


@pytest.mark.parametrize("make", [Restarting, OddNormalsTakeNWords])
def test_generator_that_loses_its_place_fails(make):
    draws = bench_runner.rng_draws(make(5))
    if make is Restarting:
        checks.check_rng_stream(5, draws[:1])  # only the later calls show it
    with FAIL:
        checks.check_rng_stream(5, draws)


def tiny_workload():
    return Workload(
        "tiny",
        [
            Input("gaussian", gaussian(48, 40), 8, 5, 11, gaussian=True),
            Input("rank5", low_rank(48, 48, 5), 8, 5, 12, rank=5),
        ],
    )


def test_runner_checks_every_output(monkeypatch):
    runner = Runner(tiny_workload())
    runner.prepare_checks()
    rnd = runner.round()
    assert runner.errors == [] and runner.failed == 0
    assert runner.attempted == 2 * 4 + 2 * 2
    assert all(len(v) == 1 for v in rnd.algos.values())
    assert len(rnd.curves) == 1 and rnd.curves[0] > 0
    factor = bench_runner.factor

    def swapped(algo, a, inp, gen=None, fc=None):
        f = factor(algo, a, inp, gen, fc)
        if algo == "hqrp_blk":  # a swapped pivot
            f.trail[0] = 0 if f.trail[0] != 0 else 1
        return f

    monkeypatch.setattr(bench_runner, "factor", swapped)
    runner.round()
    assert any("hqrp_blk" in e for e in runner.errors)


def test_thread_left_running_fails_the_run():
    runner = Runner(tiny_workload())
    runner.prepare_checks()
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        runner.round()
    finally:
        stop.set()
        worker.join()
    assert any("threads run in the process" in e for e in runner.errors)


def test_tracer_counts_repeat_and_originals_return():
    runner = Runner(tiny_workload())
    runner.prepare_checks()
    tracer = Tracer()
    for phase in ("a", "b"):
        with tracer.installed(phase):
            assert randomized.apply_block_qt is not apply_block_qt
            runner.round(count_flops=True)
    assert randomized.apply_block_qt is apply_block_qt
    assert householder.hqr_blk is hqr_blk
    a, b = tracer.phases["a"], tracer.phases["b"]
    counts = {k: v for k, v in a.items() if not k.endswith(".s")}
    assert counts == {k: v for k, v in b.items() if not k.endswith(".s")}
    assert a["randomized.padded_pivots"] > 0  # the rank-5 sketch runs dry
    assert a["householder.apply_block_qt.calls"] > 0 and a["rng.raw.words"] > 0
    assert runner.errors == []
    names = {span[2] for span in tracer.spans}
    assert {"randomized.hqrrp_blk", "core.level3", "quality.truncation_errors"} <= names


def test_benchmark_json_names_what_run_prints():
    import json
    from pathlib import Path

    import run
    from bench_workloads import ALGORITHMS, WORKLOADS

    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.LAYER_METRICS
    end_to_end = {f"{algo}_s" for algo in ALGORITHMS} | {"curves_s", "setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
