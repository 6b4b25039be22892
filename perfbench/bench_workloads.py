"""The benchmark's workloads, and the calls it makes into `rrqr`.

Every call into the package goes through a module attribute looked up at
call time (`householder.hqr_blk`, not a name bound at import), so that
the tracer's wrappers see it.  Gaussian inputs come from numpy's own
generator, seeded by the workload seed, so that `rrqr.rng` serves only
the drivers' own draws; structured inputs come from `rrqr.testmats`.
See README.md for why each workload is there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rrqr import householder, pivoting, quality, randomized, rng, testmats

ALGORITHMS = ("hqr_blk", "hqrp_blk", "hqrrp", "hqrrp_basic")
# The factors whose truncation-error curves each round computes.
CURVE_ALGORITHMS = ("hqrp_blk", "hqrrp")


@dataclass
class Input:
    label: str
    a: np.ndarray  # never factored in place: every call gets a fresh copy
    b: int
    p: int
    rng_seed: int  # seed of the stream the randomized driver draws from
    sigmas: np.ndarray | None = None  # known by construction: the curves' floors
    rank: int | None = None  # exact rank, when known by construction
    gaussian: bool = False  # classical pivots must then equal dgeqp3's


@dataclass
class Workload:
    name: str
    inputs: list
    passes: int = 1  # factorization passes per round
    curve_passes: int = 1  # passes over the curves per round
    spectral: bool = False  # curves with spectral errors and floors
    generator_seeds: frozenset = frozenset()  # seeds the input generators drew from

    def seeds(self) -> list[int]:
        """Every seed this workload hands to `Xoshiro256pp`."""
        return sorted({inp.rng_seed for inp in self.inputs} | self.generator_seeds)


def _rng_seed(seed: int, i: int) -> int:
    return 1000 * seed + i + 1


def _gaussian(gen: np.random.Generator, m: int, n: int) -> np.ndarray:
    return np.asfortranarray(gen.standard_normal((m, n)))


LARGE_N = 1000


def large_gaussian(seed: int) -> Workload:
    n = LARGE_N
    a = _gaussian(np.random.default_rng(seed), n, n)
    return Workload(
        "large-gaussian",
        [Input(f"gaussian-{n}x{n}", a, 64, 5, _rng_seed(seed, 0), gaussian=True)],
        curve_passes=10,
    )


LOW_RANK_N = 500
LOW_RANK = 50


def low_rank(seed: int) -> Workload:
    n = LOW_RANK_N
    gen = np.random.default_rng(seed)
    product = np.asfortranarray(
        gen.standard_normal((n, LOW_RANK)) @ gen.standard_normal((LOW_RANK, n))
    )
    gen_seed = _rng_seed(seed, 100)
    decay, sigmas = testmats.gen_fast_decay(n, rng.Xoshiro256pp(gen_seed))
    inputs = [
        Input(f"rank{LOW_RANK}-{n}", product, 64, 5, _rng_seed(seed, 0), rank=LOW_RANK),
        Input(f"fast-decay-{n}", decay, 64, 5, _rng_seed(seed, 1), sigmas=sigmas),
        Input(f"kahan-{n}", testmats.gen_kahan(n), 64, 5, _rng_seed(seed, 2)),
    ]
    return Workload("low-rank", inputs, curve_passes=10, generator_seeds=frozenset({gen_seed}))


CURVES_N = 64


def error_curves(seed: int) -> Workload:
    n = CURVES_N
    seeds = (_rng_seed(seed, 100), _rng_seed(seed, 101))
    decay, d1 = testmats.gen_fast_decay(n, rng.Xoshiro256pp(seeds[0]))
    s_shape, d2 = testmats.gen_s_shape(n, rng.Xoshiro256pp(seeds[1]))
    inputs = [
        Input(f"fast-decay-{n}", decay, 16, 5, _rng_seed(seed, 0), sigmas=d1),
        Input(f"s-shape-{n}", s_shape, 16, 5, _rng_seed(seed, 1), sigmas=d2),
        # no sigmas: the curves take them from the Jacobi oracle, as
        # `rrqr quality --in` does for a matrix read from a file
        Input(f"bie-{n}", testmats.gen_bie_single_layer(n), 16, 5, _rng_seed(seed, 2)),
    ]
    return Workload("error-curves", inputs, passes=8, spectral=True,
                    generator_seeds=frozenset(seeds))


WORKLOADS = {
    "large-gaussian": large_gaussian,
    "low-rank": low_rank,
    "error-curves": error_curves,
}


def factor(algo: str, a: np.ndarray, inp: Input, gen=None, fc=None):
    """Factor `a` in place with one of ALGORITHMS; `gen` feeds hqrrp."""
    if algo == "hqr_blk":
        return householder.hqr_blk(a, inp.b, fc)
    if algo == "hqrp_blk":
        return pivoting.hqrp_blk(a, inp.b, fc)
    mode = "basic" if algo == "hqrrp_basic" else "downdate"
    return randomized.hqrrp_blk(a, inp.b, gen, p=inp.p, mode=mode, fc=fc)


def curve_ranks(inp: Input) -> list[int]:
    return list(range(0, min(inp.a.shape) + 1, inp.b))


def curve_sigmas(inp: Input, spectral: bool):
    """The singular values the curves' floors come from, as the CLI gets them."""
    if not spectral or inp.sigmas is not None:
        return inp.sigmas
    return testmats.jacobi_svd_values(inp.a)


def curve(inp: Input, f, sigmas, spectral: bool):
    return quality.truncation_errors(
        inp.a, f, curve_ranks(inp), with_spectral=spectral, sigmas=sigmas
    )
