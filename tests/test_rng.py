"""The seeded generator is part of the external contract: the raw word
stream and the derived normals are frozen here as regression values."""

import numpy as np
import pytest

from rrqr import Xoshiro256pp, gaussian_matrix, hqrrp_blk
from rrqr import rng as rng_module
from rrqr.rng import _fill_py


def test_same_seed_same_matrix():
    a = gaussian_matrix(Xoshiro256pp(7), 20, 13)
    b = gaussian_matrix(Xoshiro256pp(7), 20, 13)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = gaussian_matrix(Xoshiro256pp(1), 10, 10)
    b = gaussian_matrix(Xoshiro256pp(2), 10, 10)
    assert not np.array_equal(a, b)


def test_raw_stream_frozen():
    # regression: first four words at seed 123, recorded once
    assert Xoshiro256pp(123).raw(4).tolist() == [
        11913805753561946234,
        15461216248872658478,
        12282760936599160959,
        9672836294187510779,
    ]


def test_gaussian_statistics_and_regression():
    g = gaussian_matrix(Xoshiro256pp(42), 1000, 1000)
    mean, var = g.mean(), g.var()
    assert -0.01 <= mean <= 0.01
    assert 0.99 <= var <= 1.01
    # recorded once at seed 42
    assert mean == pytest.approx(3.95475947105493753e-04, abs=1e-15)
    assert var == pytest.approx(1.00137520435716509e00, abs=1e-12)


def test_column_major_addressing():
    g = gaussian_matrix(Xoshiro256pp(5), 7, 4)
    assert g.flags.f_contiguous
    flat = g.ravel(order="F")
    for i in range(7):
        for j in range(4):
            assert g[i, j] == flat[i + j * 7]


def test_uniforms_in_half_open_unit_interval():
    u = Xoshiro256pp(9).uniforms(10000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


def test_normals_are_finite():
    z = Xoshiro256pp(3).normals(100001)
    assert np.isfinite(z).all()
    assert len(z) == 100001


def test_gaussian_matrix_validates_shape():
    with pytest.raises(ValueError):
        gaussian_matrix(Xoshiro256pp(0), 0, 3)


# The lane generator must reproduce the scalar recurrence `_fill_py`, the
# reference, word for word and leave the generator in the same state.

LANE = rng_module._LANE_MAX
CROSSOVER = rng_module._LANE_MIN
LANE_SIZES = [
    1,
    CROSSOVER - 1,
    CROSSOVER,
    CROSSOVER + 1,
    # the crossover of earlier versions, kept as a mid-size lane case
    1023,
    1024,
    1025,
    LANE - 1,
    LANE,
    LANE + 1,
    3 * LANE + 1,
    34500,
    rng_module._CHUNK + 1,
    250001,
]


def _scalar_raw(self, n):
    out = np.empty(n, dtype=np.uint64)
    _fill_py(self._state, out)
    return out


class ScalarXoshiro(Xoshiro256pp):
    """The same generator with every word made by the scalar reference."""

    raw = _scalar_raw


@pytest.mark.parametrize("n", [0] + LANE_SIZES)
def test_raw_matches_scalar_fill(n):
    for seed in (123, 2**64 - 1):
        gen, ref = Xoshiro256pp(seed), ScalarXoshiro(seed)
        assert np.array_equal(gen.raw(n), ref.raw(n)), (seed, n)
        assert np.array_equal(gen._state, ref._state), (seed, n)


@pytest.mark.parametrize("n", LANE_SIZES)
def test_lanes_match_scalar_fill(n):
    # the lane path itself, also below the size at which raw takes it
    state = Xoshiro256pp(7)._state
    words, end = np.empty(n, dtype=np.uint64), state.copy()
    ref, ref_end = np.empty(n, dtype=np.uint64), state.copy()
    rng_module._fill_lanes(end, words)
    _fill_py(ref_end, ref)
    assert np.array_equal(words, ref)
    assert np.array_equal(end, ref_end)


def test_mixed_call_chain_matches_scalar_fill():
    # hqrrp basic mode's draws at n = 1000, b = 64, p = 5, with short and
    # odd requests in between, all from one generator
    gen, ref = Xoshiro256pp(11), ScalarXoshiro(11)
    sizes = [69 * (1000 - 64 * k) for k in range(16)]
    for i, n in enumerate(sizes):
        assert np.array_equal(gen.normals(n), ref.normals(n)), n
        short = 2 * i + 1
        assert np.array_equal(gen.raw(short), ref.raw(short)), short
        assert np.array_equal(gen.normals(short), ref.normals(short)), short
        assert np.array_equal(gen.uniforms(n + 1), ref.uniforms(n + 1)), n
    assert np.array_equal(gen._state, ref._state)


@pytest.mark.parametrize("mode", ["basic", "downdate"])
def test_hqrrp_unchanged_by_lane_generator(mode, monkeypatch):
    a = gaussian_matrix(Xoshiro256pp(4), 300, 500)
    f = hqrrp_blk(a.copy(order="F"), 64, Xoshiro256pp(5), p=5, mode=mode)
    monkeypatch.setattr(Xoshiro256pp, "raw", _scalar_raw)
    ref = hqrrp_blk(a.copy(order="F"), 64, Xoshiro256pp(5), p=5, mode=mode)
    assert np.array_equal(f.packed, ref.packed)
    assert np.array_equal(f.trail, ref.trail)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 4096])
def test_normals_draw_in_one_raw_call(n, monkeypatch):
    calls = []
    raw = Xoshiro256pp.raw

    def counted(self, k):
        calls.append(k)
        return raw(self, k)

    monkeypatch.setattr(Xoshiro256pp, "raw", counted)
    Xoshiro256pp(1).normals(n)
    assert calls == [2 * ((n + 1) // 2)]


@pytest.mark.parametrize("method", ["raw", "uniforms", "normals"])
@pytest.mark.parametrize("n", [-1, 2.7, 3.0, "4", None])
def test_bad_counts_rejected(method, n):
    gen = Xoshiro256pp(1)
    with pytest.raises(ValueError):
        getattr(gen, method)(n)
    assert np.array_equal(gen.raw(4), Xoshiro256pp(1).raw(4))  # nothing drawn


@pytest.mark.parametrize("method", ["raw", "uniforms", "normals"])
def test_numpy_integer_counts_accepted(method):
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        out = getattr(Xoshiro256pp(1), method)(n)
        assert np.array_equal(out, getattr(Xoshiro256pp(1), method)(3))


@pytest.mark.parametrize("seed", [1.5, 3.0, "3", None, [3]])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        Xoshiro256pp(seed)


def test_integer_seeds_keep_their_streams():
    # regression: first four words at seed -1, recorded once; a seed is
    # taken modulo 2^64
    assert Xoshiro256pp(-1).raw(4).tolist() == [
        6254647548650071986,
        16610832622747802512,
        16422857234328439435,
        5048281510058307187,
    ]
    assert np.array_equal(Xoshiro256pp(2**64 - 1).raw(4), Xoshiro256pp(-1).raw(4))
    for seed in (np.int64(123), np.uint32(123)):
        assert np.array_equal(Xoshiro256pp(seed).raw(4), Xoshiro256pp(123).raw(4))
