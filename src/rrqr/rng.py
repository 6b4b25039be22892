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
* ``normals(n)`` consumes ``2 * ceil(n / 2)`` words in one ``raw`` call
  and uses them as two uniform blocks, not as consecutive pairs: with
  ``h = ceil(n / 2)``, ``u1[i]`` comes from word ``i`` and ``u2[i]`` from
  word ``h + i`` of the call.  Pair ``i`` yields
  ``r*cos(2*pi*u2[i]), r*sin(2*pi*u2[i])`` with ``r = sqrt(-2*ln(u1[i]))``,
  interleaved in that order as outputs ``2i`` and ``2i + 1``; for odd
  ``n`` the last sine is dropped.

How the words are made does not change the stream.  A request of fewer
than ``_LANE_MIN`` words runs the reference recurrence one word at a time
(``_fill_py``).  A longer one is split into K lanes of L consecutive
words, L a power of two, which numpy steps together with uint64 array
operations; the lanes' words are read out lane by lane, which is stream
order, and the generator keeps the last lane's state at the last word
requested.  Lane k must start where the stream is after k*L steps.  The
xoshiro256 transition is linear over GF(2) (Blackman & Vigna, ACM TOMS
2021), so advancing a state by 2^e steps is a product with a 256x256 bit
matrix (jump-ahead, Haramoto et al., INFORMS J. Comput. 2008).  Starting
from one state, each doubling advances every start state found so far by
their number times L, so K start states take log2(K) products.  The
matrices are built by repeated squaring and cached as tables of the XORs
of each group of four rows, 32 KB per power of two, so a product is one
table lookup per four bits of the state.  Requests longer than
``_CHUNK`` words run in several such passes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import _as_index, _as_integer

_MASK = (1 << 64) - 1

# Shortest request the lane generator fills.  Measured on one core of a
# 2-vCPU x86-64 host, best of 600 draws with the jump tables built: at
# 256 words it and the scalar loop both take 0.15 ms, at 320 words
# 0.18 ms against 0.19 ms, at 1024 words 0.27 ms against 0.62 ms, and at
# 65536 words 2.6 ms against 43 ms.
_LANE_MIN = 320
# Most words one lane pass fills.  Its arrays, 24 bytes a word, then stay
# near 1.5 MB whatever the request.
_CHUNK = 1 << 16
# Longest lane; lanes of 128 words balance the per-step numpy calls,
# shared by all lanes, against the jump-ahead products, paid per lane.
_LANE_MAX = 128


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


def _step_lanes(s1, s2, h0, h3, t):
    """Advance every lane ``len(h0) - 1`` steps.

    Column k of `h0` and `h3` holds lane k's words s0 and s3, row i as
    they are before step i; row 0 is the input.  `s1` and `s2` hold the
    lanes' other two words and are advanced in place; `t` is scratch.
    """
    for i in range(h0.shape[0] - 1):
        s3 = h3[i + 1]
        np.left_shift(s1, 17, out=t)
        s2 ^= h0[i]
        np.bitwise_xor(h3[i], s1, out=s3)
        s1 ^= s2
        np.bitwise_xor(h0[i], s3, out=h0[i + 1])
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t


@functools.cache
def _jump(e):
    """XOR table of the bit matrix of 2^e steps (read-only, shared).

    Row i of the matrix is the state that the state with only bit i set
    reaches after 2^e steps, where bit i is bit i % 8 of byte i // 8 of
    the state's four words in memory.  Entry [g, j] of the table is the
    XOR of the rows 4g + i for the bits i set in j, so entry [g, 1 << i]
    is row 4g + i itself.
    """
    if e == 0:
        eye = np.eye(256, dtype=np.uint8)
        basis = np.packbits(eye, axis=1, bitorder="little").view(np.uint64).T.copy()
        h0 = np.stack([basis[0], basis[0]])
        h3 = np.stack([basis[3], basis[3]])
        _step_lanes(basis[1], basis[2], h0, h3, np.empty(256, dtype=np.uint64))
        m = np.stack([h0[1], basis[1], basis[2], h3[1]], axis=1)
    else:
        m = _advance(_jump(e - 1)[:, [1, 2, 4, 8]].reshape(256, 4), e - 1)
    rows = m.reshape(64, 4, 4)
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    for i in range(4):
        np.bitwise_xor(table[:, : 1 << i], rows[:, i, None], out=table[:, 1 << i : 2 << i])
    table.flags.writeable = False
    return table


_NIBBLES = np.arange(64)


def _advance(states, e):
    """(K, 4) states, each advanced 2^e steps.

    The product with the bit matrix over GF(2) is an XOR of its rows,
    taken four bits at a time from the table of `_jump(e)`.
    """
    octets = states.view(np.uint8)
    nibbles = np.empty((len(states), 64), dtype=np.uint8)
    np.bitwise_and(octets, 15, out=nibbles[:, 0::2])
    np.right_shift(octets, 4, out=nibbles[:, 1::2])
    return np.bitwise_xor.reduce(_jump(e)[_NIBBLES, nibbles], axis=1)


def _fill_lanes(state, out):
    """Fill `out` with the next words of `state` by stepping lanes together."""
    n = out.shape[0]
    lane = min(_LANE_MAX, 1 << ((n // 4).bit_length() // 2))
    k = -(-n // lane)
    starts = state.reshape(1, 4)
    e = lane.bit_length() - 1
    while len(starts) < k:
        more = _advance(starts[: k - len(starts)], e)
        starts = np.concatenate([starts, more])
        e += 1
    h0 = np.empty((lane + 1, k), dtype=np.uint64)
    h3 = np.empty((lane + 1, k), dtype=np.uint64)
    h0[0] = starts[:, 0]
    h3[0] = starts[:, 3]
    s1 = starts[:, 1].copy()
    s2 = starts[:, 2].copy()
    t = np.empty(k, dtype=np.uint64)
    last = n - (k - 1) * lane  # words taken from the last lane
    _step_lanes(s1, s2, h0[: last + 1], h3[: last + 1], t)
    state[:] = h0[last, -1], s1[-1], s2[-1], h3[last, -1]
    if last < lane:
        _step_lanes(s1[:-1], s2[:-1], h0[last:, :-1], h3[last:, :-1], t[:-1])
    # word = rotl(s0 + s3, 23) + s0, computed in place of s3
    w = h3[:lane]
    w += h0[:lane]
    high = w << 23
    w >>= 41
    w |= high
    w += h0[:lane]
    out[: (k - 1) * lane].reshape(k - 1, lane)[...] = w[:, :-1].T
    out[(k - 1) * lane :] = w[:last, -1]


def _uniforms(w):
    """Words `w` mapped to doubles in (0, 1].

    `w` is overwritten, so a long draw holds only its words and one
    array of doubles at a time.
    """
    w >>= np.uint64(11)
    w += np.uint64(1)
    u = w.astype(np.float64)
    u *= 2.0**-53
    return u


class Xoshiro256pp:
    """xoshiro256++ stream with Box-Muller normal variates.

    The state transition and output scrambler follow the reference
    definition exactly; see the module docstring for how uniforms and
    normals are derived from the word stream.  A seed is any integer, mod 2^64.
    """

    def __init__(self, seed: int):
        words = _splitmix64(_as_integer(seed, "seed"), 4)
        if all(w == 0 for w in words):
            words[0] = 1  # all-zero state is the one invalid xoshiro state
        self._state = np.array(words, dtype=np.uint64)

    def raw(self, n: int) -> np.ndarray:
        """Next `n` raw 64-bit words."""
        out = np.empty(_as_index(n, "count"), dtype=np.uint64)
        for c in range(0, len(out), _CHUNK):
            part = out[c : c + _CHUNK]
            fill = _fill_py if len(part) < _LANE_MIN else _fill_lanes
            fill(self._state, part)
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """Next `n` doubles, uniform on (0, 1]."""
        return _uniforms(self.raw(n))

    def normals(self, n: int) -> np.ndarray:
        """Next `n` standard normal variates."""
        n = _as_index(n, "count")
        half = (n + 1) // 2
        u = _uniforms(self.raw(2 * half))
        r = np.sqrt(-2.0 * np.log(u[:half]))
        ang = (2.0 * math.pi) * u[half:]
        out = np.empty(2 * half)
        out[0::2] = r * np.cos(ang)
        out[1::2] = r * np.sin(ang)
        return out[:n]


def gaussian_matrix(rng: Xoshiro256pp, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix of i.i.d. standard normals, filled column-major."""
    if rows < 1 or cols < 1:
        raise ValueError("gaussian_matrix needs rows, cols >= 1")
    return rng.normals(rows * cols).reshape((rows, cols), order="F")
