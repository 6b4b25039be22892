"""Seeded pseudo-random numbers with a pinned, portable bit stream.

The raw generator is xoshiro256++ seeded through SplitMix64; normal
variates come from the Box-Muller transform applied to pairs of 53-bit
uniforms.  The exact stream is part of the public contract: a given seed
produces bitwise-identical output on every platform, independent of the
numpy version, so seeded results can be frozen into regression tests.

Stream layout, per call:

* ``raw(n)`` consumes ``n`` generator steps.
* ``uniforms(n)`` maps each 64-bit word to ``((w >> 11) + 1) * 2**-53``,
  a value in ``(0, 1]``.
* ``normals(n)`` consumes ``2 * ceil(n / 2)`` words as two uniform
  blocks, not as consecutive pairs: with ``h = ceil(n / 2)``, ``u1[i]``
  comes from word ``i`` and ``u2[i]`` from word ``h + i`` of the call.
  Pair ``i`` yields ``r*cos(2*pi*u2[i]), r*sin(2*pi*u2[i])`` with
  ``r = sqrt(-2*ln(u1[i]))``, interleaved in that order as outputs
  ``2i`` and ``2i + 1``; for odd ``n`` the last sine is dropped.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(seed, count):
    """Expand a 64-bit seed into `count` well-mixed words."""
    x = seed & _MASK
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def _fill_py(state, out):
    s0 = int(state[0])
    s1 = int(state[1])
    s2 = int(state[2])
    s3 = int(state[3])
    for i in range(out.shape[0]):
        x = (s0 + s3) & _MASK
        out[i] = (((x << 23) & _MASK | (x >> 41)) + s0) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) & _MASK) | (s3 >> 19)
    state[0] = s0
    state[1] = s1
    state[2] = s2
    state[3] = s3


class Xoshiro256pp:
    """xoshiro256++ stream with Box-Muller normal variates.

    The state transition and output scrambler follow the reference
    definition exactly; see the module docstring for how uniforms and
    normals are derived from the word stream.
    """

    def __init__(self, seed: int):
        words = _splitmix64(int(seed), 4)
        if all(w == 0 for w in words):
            words[0] = 1  # all-zero state is the one invalid xoshiro state
        self._state = np.array(words, dtype=np.uint64)

    def raw(self, n: int) -> np.ndarray:
        """Next `n` raw 64-bit words."""
        out = np.empty(int(n), dtype=np.uint64)
        _fill_py(self._state, out)
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """Next `n` doubles, uniform on (0, 1]."""
        w = self.raw(n)
        return ((w >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """Next `n` standard normal variates."""
        n = int(n)
        if n == 0:
            return np.empty(0)
        half = (n + 1) // 2
        u1 = self.uniforms(half)
        u2 = self.uniforms(half)
        r = np.sqrt(-2.0 * np.log(u1))
        ang = (2.0 * math.pi) * u2
        out = np.empty(2 * half)
        out[0::2] = r * np.cos(ang)
        out[1::2] = r * np.sin(ang)
        return out[:n]


def gaussian_matrix(rng: Xoshiro256pp, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normals, filled column-major."""
    if rows < 1 or cols < 1:
        raise ValueError("gaussian_matrix needs rows, cols >= 1")
    return rng.normals(rows * cols).reshape((rows, cols), order="F")
