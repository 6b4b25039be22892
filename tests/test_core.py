import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrqr import (
    FlopCounter,
    apply_pivot_trail,
    frobenius_norm,
    permutation_to_trail,
    trail_to_permutation,
)
from rrqr.core import _prefix_trail, matmul, solve_upper

from conftest import gauss


def test_frobenius_identity():
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_frobenius_zero():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_frobenius_345_column():
    assert frobenius_norm(np.array([[3.0, 0.0], [4.0, 0.0]])) == pytest.approx(5.0)


@pytest.mark.parametrize(
    "x,want",
    [
        ([2.0**1023], 2.0**1023),
        ([1.5 * 2.0**1023, 2.0**1022], np.ldexp(np.sqrt(10.0), 1022)),
        ([1.5 * 2.0**1023, 1.5 * 2.0**1023], np.inf),  # beyond the double range
    ],
    ids=["max-power", "two-entries", "overflow"],
)
def test_frobenius_at_the_top_of_the_double_range(x, want):
    # the scale-back must not form 2^1024 on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nrm = frobenius_norm(np.array(x))
    assert nrm == pytest.approx(want, rel=1e-15, abs=0.0)


def test_identity_trail_is_noop():
    a = gauss(0, 4, 2)
    b = a.copy()
    apply_pivot_trail(b, [0, 1])
    assert np.array_equal(a, b)


def test_single_swap():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], order="F")
    apply_pivot_trail(a, [1])
    assert np.array_equal(a, [[2.0, 1.0], [4.0, 3.0]])


def test_forward_then_inverse_is_bitwise_identity():
    a = gauss(3, 6, 5)
    orig = a.copy()
    trail = np.array([4, 2, 3, 4, 4])
    apply_pivot_trail(a, trail)
    apply_pivot_trail(a, trail, inverse=True)
    assert np.array_equal(a, orig)


def test_forward_matches_permutation_vector():
    a = gauss(4, 3, 7)
    trail = np.array([5, 3, 2, 6, 5])
    perm = trail_to_permutation(trail, 7)
    b = a.copy()
    apply_pivot_trail(b, trail)
    assert np.array_equal(b, a[:, perm])


def test_trail_preserves_column_multiset():
    a = gauss(5, 4, 6)
    b = a.copy()
    apply_pivot_trail(b, [3, 1, 5, 4])
    assert sorted(map(tuple, a.T)) == sorted(map(tuple, b.T))


def test_out_of_range_trail_errors():
    a = gauss(6, 3, 3)
    with pytest.raises(IndexError):
        apply_pivot_trail(a, [3])
    with pytest.raises(IndexError):
        apply_pivot_trail(a, [0, 0])  # swap target below the step index


def test_bad_trail_leaves_matrix_untouched():
    # the whole trail is checked before any column moves
    a = gauss(6, 3, 3)
    b = a.copy()
    with pytest.raises(IndexError, match=r"trail\[1\] = 0 out of range \[1, 3\)"):
        apply_pivot_trail(b, [2, 0])
    assert np.array_equal(a, b)


def test_trail_applies_to_index_vector():
    trail = np.array([5, 3, 2, 6, 5])
    v = np.arange(7)
    apply_pivot_trail(v, trail)
    assert np.array_equal(v, trail_to_permutation(trail, 7))
    apply_pivot_trail(v, trail, inverse=True)
    assert np.array_equal(v, np.arange(7))


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(8))))
def test_permutation_trail_roundtrip(perm):
    trail = permutation_to_trail(perm)
    assert np.all(trail >= np.arange(8))
    assert np.array_equal(trail_to_permutation(trail, 8), perm)
    for k in range(9):  # a prefix of the permutation gives a prefix of the trail
        prefix, order = _prefix_trail(perm[:k], 8)
        assert np.array_equal(prefix, trail[:k])
        assert np.array_equal(order, trail_to_permutation(prefix, 8))


def test_flop_counter_matmul():
    fc = FlopCounter()
    matmul(np.ones((3, 4)), np.ones((4, 5)), fc)
    assert fc.count == 2 * 3 * 4 * 5


def test_flop_counter_solve():
    fc = FlopCounter()
    t = np.triu(np.ones((4, 4))) + 3 * np.eye(4)
    solve_upper(t, np.ones((4, 6)), fc=fc)
    assert fc.count == 4 * 4 * 6


def test_flop_counts_deterministic():
    from rrqr import hqrp_blk

    counts = []
    for _ in range(2):
        fc = FlopCounter()
        hqrp_blk(gauss(9, 40, 30), 8, fc)
        counts.append(fc.count)
    assert counts[0] == counts[1]


def test_solve_upper_solves():
    t = np.triu(gauss(11, 5, 5)) + 5 * np.eye(5)
    b = gauss(12, 5, 3)
    x = solve_upper(t, b)
    assert np.allclose(t @ x, b, atol=1e-12)
    xt = solve_upper(t, b, transpose=True)
    assert np.allclose(t.T @ xt, b, atol=1e-12)


@pytest.mark.parametrize(
    "perm", [[0, 0, 2], [0.5, 1], [0.0, 1.0], [1, 2], [-1, 0], [[0, 1]], [True, False]]
)
def test_permutation_to_trail_rejects_non_permutations(perm):
    with pytest.raises(ValueError, match="permutation"):
        permutation_to_trail(perm)


def test_permutation_to_trail_accepts_any_integer_type():
    assert len(permutation_to_trail([])) == 0
    perm = np.array([2, 0, 3, 1], dtype=np.uint8)
    assert np.array_equal(permutation_to_trail(perm), permutation_to_trail([2, 0, 3, 1]))


@pytest.mark.parametrize("trail", [[1.7], [1.0], ["1"], [[1]]])
def test_non_integer_trail_rejected(trail):
    a = gauss(7, 3, 4)
    b = a.copy()
    with pytest.raises(ValueError, match="trail"):
        trail_to_permutation(trail, 4)
    with pytest.raises(ValueError, match="trail"):
        apply_pivot_trail(b, trail)
    assert np.array_equal(a, b)


def test_empty_trail_accepted():
    a = gauss(8, 3, 4)
    b = a.copy()
    for empty in ([], np.empty(0), np.empty(0, dtype=np.int64)):
        assert np.array_equal(trail_to_permutation(empty, 4), np.arange(4))
        apply_pivot_trail(b, empty)
    assert np.array_equal(a, b)
