"""Self-tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench`` from the repository root.  The
directory is outside the repository's ``testpaths``, so the tier-1 suite
does not collect these (nor anything else under ``perfbench/``).
"""

import math

import numpy as np
import pytest

from arith import self_time, tail_percentile, union_length
from checks import coo_core, orthonormality_error


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))           # 100 samples
    assert tail_percentile(samples) == (90, 90.0, 100)


def test_tail_percentile_falls_back_when_p90_lacks_samples():
    samples = list(range(1, 51))            # 50: p90 leaves only 5 beyond
    p, value, n = tail_percentile(samples)
    assert (p, value, n) == (80, 40.0, 50)
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_none_below_eleven_samples():
    assert tail_percentile(list(range(10))) is None
    p, _, n = tail_percentile(list(range(11)))
    assert n == 11 and sum(s > _ for s in range(11)) == 10 and p <= 9


@pytest.mark.parametrize("n", [11, 37, 120, 240, 1000])
def test_tail_percentile_is_highest_such_percentile(n):
    samples = np.random.default_rng(n).random(n)
    p, value, _ = tail_percentile(samples)
    assert np.sum(samples > value) >= 10
    if p < 90:
        nxt = sorted(samples)[math.ceil((p + 1) * n / 100) - 1]
        assert np.sum(samples > nxt) < 10


def test_self_time_counts_overlapping_children_once():
    # Two children overlap on [2, 4]; their union is [1, 6] = 5 s.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 6.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(0.0, 10.0, [(-5.0, 2.0), (9.0, 12.0)]) == pytest.approx(7.0)


def test_union_of_disjoint_and_nested_intervals():
    assert union_length([(0, 1), (2, 3), (2.5, 2.7), (5, 5)]) == pytest.approx(2.0)
    assert union_length([]) == 0.0


def test_coo_core_matches_dense_contraction():
    rng = np.random.default_rng(0)
    shape, ranks = (5, 4, 3, 6), (2, 3, 2, 2)
    dense = rng.random(shape) * (rng.random(shape) < 0.4)
    factors = [np.linalg.qr(rng.random((s, r)))[0] for s, r in zip(shape, ranks)]
    indices = np.argwhere(dense)
    expect = np.einsum("ijkl,ia,jb,kc,ld->abcd", dense, *factors)
    got = coo_core(indices, dense[tuple(indices.T)], factors)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-14)


def test_orthonormality_allows_only_undetermined_zero_columns():
    q = np.linalg.qr(np.random.default_rng(1).random((8, 8)))[0]
    padded = q.copy()
    padded[:, 7] = 0.0
    assert orthonormality_error(q, nonempty_rows=7) < 1e-12
    assert orthonormality_error(padded, nonempty_rows=7) < 1e-12
    assert orthonormality_error(padded, nonempty_rows=8) == pytest.approx(1.0)
    skewed = q.copy()
    skewed[:, 0] *= 1.1
    assert orthonormality_error(skewed, nonempty_rows=8) > 0.2
