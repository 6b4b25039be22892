"""A scalar reference for the frozen random stream of `rrqr.rng`.

The words come from the reference definitions of SplitMix64 (seeding) and
xoshiro256++ (Blackman & Vigna), written out here one word at a time so
that they share no code with the package.  The normals are the
Box-Muller map that `rrqr.rng` documents: each word becomes the uniform
``((w >> 11) + 1) * 2**-53``; a request for n normals takes
h = ceil(n / 2) uniforms u1 and then h uniforms u2, and pair i yields
``r*cos(2*pi*u2[i]), r*sin(2*pi*u2[i])`` with ``r = sqrt(-2*ln(u1[i]))``,
interleaved in that order.

A faster generator must keep this stream; `bench_checks.check_rng_stream`
fails otherwise.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) & _MASK) | (x >> (64 - k))


def splitmix64(seed: int, count: int) -> list[int]:
    """The first `count` outputs of SplitMix64 started at `seed`."""
    x = seed & _MASK
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def xoshiro_words(seed: int, count: int) -> np.ndarray:
    """The first `count` xoshiro256++ words for a SplitMix64-seeded state."""
    s = splitmix64(seed, 4)
    if not any(s):
        s[0] = 1  # the all-zero state is the one state xoshiro cannot leave
    out = np.empty(count, dtype=np.uint64)
    for i in range(count):
        out[i] = (_rotl((s[0] + s[3]) & _MASK, 23) + s[0]) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
    return out


def box_muller(words: np.ndarray, n: int) -> np.ndarray:
    """The `n` normals the documented map makes from the leading words."""
    half = (n + 1) // 2
    out = np.empty(2 * half)
    for i in range(half):
        u1 = ((int(words[i]) >> 11) + 1) * 2.0**-53
        u2 = ((int(words[half + i]) >> 11) + 1) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        out[2 * i] = r * math.cos(2.0 * math.pi * u2)
        out[2 * i + 1] = r * math.sin(2.0 * math.pi * u2)
    return out[:n]
