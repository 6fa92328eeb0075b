"""Unit tests for the symbolic TTMc structures and the numeric TTMc kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    SparseTensor,
    SymbolicTTMc,
    dense_ttm_chain,
    group_fibers,
    symbolic_ttmc,
    ttmc_contributions,
    ttmc_flops,
    ttmc_matricized,
    unfold,
)
from repro.core.symbolic import keyed_lex_order
from repro.core.ttmc import default_block_size, gather_ranges


class TestSymbolic:
    def test_rows_are_sorted_unique(self, small_tensor_3d):
        for mode in range(3):
            sym = symbolic_ttmc(small_tensor_3d, mode)
            assert np.all(np.diff(sym.rows) > 0)
            assert set(sym.rows) == set(small_tensor_3d.nonempty_rows(mode))

    def test_perm_covers_all_nonzeros(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 0)
        assert sorted(sym.perm.tolist()) == list(range(small_tensor_3d.nnz))

    def test_update_lists_group_by_row(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 1)
        for r, row in enumerate(sym.rows):
            positions = sym.perm[sym.rowptr[r]: sym.rowptr[r + 1]]
            assert np.all(small_tensor_3d.indices[positions, 1] == row)

    def test_update_list_lookup(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 0)
        row = int(sym.rows[0])
        ul = sym.update_list(row)
        assert np.all(small_tensor_3d.indices[ul, 0] == row)

    def test_update_list_missing_row_empty(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 0)
        all_rows = set(range(small_tensor_3d.shape[0]))
        missing = sorted(all_rows - set(sym.rows.tolist()))
        if missing:
            assert sym.update_list(missing[0]).size == 0

    def test_row_sizes_sum_to_nnz(self, small_tensor_3d):
        sym = symbolic_ttmc(small_tensor_3d, 2)
        assert sym.row_sizes().sum() == small_tensor_3d.nnz

    def test_empty_tensor(self):
        t = SparseTensor.empty((5, 5))
        sym = symbolic_ttmc(t, 0)
        assert sym.num_rows == 0 and sym.nnz == 0

    def test_all_modes_container(self, small_tensor_4d):
        sym = SymbolicTTMc(small_tensor_4d)
        assert sym.modes() == [0, 1, 2, 3]
        assert 2 in sym
        with pytest.raises(ValueError):
            sym[7]

    def test_subset_of_modes(self, small_tensor_3d):
        sym = SymbolicTTMc(small_tensor_3d, modes=[1])
        assert 1 in sym and 0 not in sym
        with pytest.raises(KeyError):
            sym[0]


class TestNumericTTMc:
    def test_matches_dense_oracle_3d(self, small_tensor_3d, factors_3d):
        dense = small_tensor_3d.to_dense()
        for mode in range(3):
            expected = unfold(
                dense_ttm_chain(dense, factors_3d, skip=mode, transpose=True), mode
            )
            actual = ttmc_matricized(small_tensor_3d, factors_3d, mode)
            assert np.allclose(actual, expected)

    def test_matches_dense_oracle_4d(self, small_tensor_4d, factors_4d):
        dense = small_tensor_4d.to_dense()
        for mode in range(4):
            expected = unfold(
                dense_ttm_chain(dense, factors_4d, skip=mode, transpose=True), mode
            )
            actual = ttmc_matricized(small_tensor_4d, factors_4d, mode)
            assert np.allclose(actual, expected)

    def test_reusing_symbolic_gives_same_result(self, small_tensor_3d, factors_3d):
        sym = symbolic_ttmc(small_tensor_3d, 1)
        a = ttmc_matricized(small_tensor_3d, factors_3d, 1, symbolic=sym)
        b = ttmc_matricized(small_tensor_3d, factors_3d, 1)
        assert np.allclose(a, b)

    def test_small_block_size_same_result(self, small_tensor_3d, factors_3d):
        a = ttmc_matricized(small_tensor_3d, factors_3d, 0)
        b = ttmc_matricized(small_tensor_3d, factors_3d, 0, block_nnz=7)
        assert np.allclose(a, b)

    def test_row_subset(self, small_tensor_3d, factors_3d):
        full = ttmc_matricized(small_tensor_3d, factors_3d, 0)
        rows = small_tensor_3d.nonempty_rows(0)[::2]
        partial = ttmc_matricized(small_tensor_3d, factors_3d, 0, rows=rows)
        assert np.allclose(partial[rows], full[rows])
        others = np.setdiff1d(np.arange(small_tensor_3d.shape[0]), rows)
        assert np.allclose(partial[others], 0.0)

    def test_out_buffer_reuse(self, small_tensor_3d, factors_3d):
        width = factors_3d[1].shape[1] * factors_3d[2].shape[1]
        out = np.ones((small_tensor_3d.shape[0], width))
        result = ttmc_matricized(small_tensor_3d, factors_3d, 0, out=out)
        assert result is out
        assert np.allclose(out, ttmc_matricized(small_tensor_3d, factors_3d, 0))

    def test_out_wrong_shape_raises(self, small_tensor_3d, factors_3d):
        with pytest.raises(ValueError):
            ttmc_matricized(
                small_tensor_3d, factors_3d, 0, out=np.zeros((2, 2))
            )

    def test_empty_tensor_gives_zeros(self, factors_3d):
        t = SparseTensor.empty((20, 15, 12))
        out = ttmc_matricized(t, factors_3d, 0)
        assert out.shape == (20, 12)
        assert np.allclose(out, 0.0)

    def test_missing_factor_raises(self, small_tensor_3d, factors_3d):
        bad = [factors_3d[0], None, factors_3d[2]]
        with pytest.raises(ValueError):
            ttmc_matricized(small_tensor_3d, bad, 0)

    def test_factor_for_target_mode_ignored(self, small_tensor_3d, factors_3d):
        with_none = [None, factors_3d[1], factors_3d[2]]
        assert np.allclose(
            ttmc_matricized(small_tensor_3d, with_none, 0),
            ttmc_matricized(small_tensor_3d, factors_3d, 0),
        )

    def test_wrong_factor_rows_raises(self, small_tensor_3d, factors_3d):
        bad = list(factors_3d)
        bad[1] = bad[1][:-1]
        with pytest.raises(ValueError):
            ttmc_matricized(small_tensor_3d, bad, 0)

    def test_mismatched_symbolic_raises(self, small_tensor_3d, factors_3d):
        sym = symbolic_ttmc(small_tensor_3d, 0)
        with pytest.raises(ValueError):
            ttmc_matricized(small_tensor_3d, factors_3d, 1, symbolic=sym)

    def test_contributions_sum_to_rows(self, small_tensor_3d, factors_3d):
        mode = 0
        contributions = ttmc_contributions(
            small_tensor_3d, factors_3d, mode,
            np.arange(small_tensor_3d.nnz),
        )
        full = ttmc_matricized(small_tensor_3d, factors_3d, mode)
        manual = np.zeros_like(full)
        np.add.at(manual, small_tensor_3d.indices[:, mode], contributions)
        assert np.allclose(manual, full)


class TestHelpers:
    def test_gather_ranges(self):
        src = np.arange(20)
        starts = np.array([2, 10, 15])
        counts = np.array([3, 0, 2])
        assert np.array_equal(gather_ranges(src, starts, counts), [2, 3, 4, 15, 16])

    def test_gather_ranges_empty(self):
        out = gather_ranges(np.arange(5), np.array([], dtype=int), np.array([], dtype=int))
        assert out.size == 0

    def test_default_block_size_bounds(self):
        assert default_block_size(1) >= 1024
        assert default_block_size(10**9) >= 1024  # never collapses to zero
        assert default_block_size(100) <= 65536

    def test_ttmc_flops_positive_and_monotonic(self):
        a = ttmc_flops(1000, (10, 10, 10), 0)
        b = ttmc_flops(2000, (10, 10, 10), 0)
        assert 0 < a < b
        assert b == 2 * a


def _lexsort_grouping(cols):
    """The multi-key lexsort grouping the keyed sort must reproduce."""
    m, k = cols.shape
    perm = np.lexsort(tuple(cols[:, c] for c in range(k - 1, -1, -1)))
    sorted_cols = cols[perm]
    boundary = np.ones(m, dtype=bool)
    boundary[1:] = np.any(sorted_cols[1:] != sorted_cols[:-1], axis=1)
    starts = np.flatnonzero(boundary)
    return sorted_cols[boundary], perm, np.append(starts, m)


#: Per-column value bounds: spans below and above 2**16, and spans whose
#: mixed-radix product overflows int64 once two such columns meet.
_BOUNDS = [1, 3, 40, 300, 1 << 17, 1 << 40, 1 << 62]


@st.composite
def _index_columns(draw):
    k = draw(st.integers(1, 4))
    m = draw(st.integers(0, 120))
    bounds = draw(st.lists(st.sampled_from(_BOUNDS), min_size=k, max_size=k))
    cols = [
        draw(hnp.arrays(np.int64, m, elements=st.integers(0, b - 1)))
        for b in bounds
    ]
    return np.column_stack(cols) if m else np.empty((0, k), np.int64)


class TestKeyedSort:
    """group_fibers / symbolic_ttmc equal the lexsort reference exactly."""

    @settings(max_examples=80, deadline=None)
    @given(_index_columns())
    def test_group_fibers_matches_lexsort(self, cols):
        got = group_fibers(cols)
        indices, perm, segptr = _lexsort_grouping(cols)
        assert np.array_equal(got.perm, perm)
        assert np.array_equal(got.segptr, segptr)
        assert np.array_equal(got.indices, indices)
        assert got.indices.dtype == got.perm.dtype == np.int64

    @settings(max_examples=40, deadline=None)
    @given(_index_columns())
    def test_symbolic_ttmc_matches_stable_argsort(self, cols):
        shape = tuple(int(c.max()) + 1 if c.size else 1 for c in cols.T)
        tensor = SparseTensor(cols, np.ones(cols.shape[0]), shape)
        for mode in range(cols.shape[1]):
            sym = symbolic_ttmc(tensor, mode)
            indices, perm, rowptr = _lexsort_grouping(cols[:, [mode]])
            assert np.array_equal(sym.perm, perm)
            assert np.array_equal(sym.rowptr, rowptr)
            assert np.array_equal(sym.rows, indices[:, 0])

    def test_narrow_key_and_overflow_fallback(self):
        rng = np.random.default_rng(0)
        narrow = rng.integers(0, 200, size=(500, 2))
        perm, key = keyed_lex_order(narrow)
        assert key.dtype == np.uint16  # 200 * 200 keys: a radix sort
        wide = rng.integers(0, 1 << 62, size=(500, 2))
        perm, key = keyed_lex_order(wide)
        assert key is None  # 2**124 keys overflow int64: lexsort fallback
        assert np.array_equal(perm, _lexsort_grouping(wide)[1])

    def test_empty_and_single_column(self):
        empty = group_fibers(np.empty((0, 3), dtype=np.int64))
        assert empty.num_groups == 0 and np.array_equal(empty.segptr, [0])
        single = group_fibers(np.array([[3], [1], [3], [0]]))
        assert np.array_equal(single.indices[:, 0], [0, 1, 3])
        assert np.array_equal(single.perm, [3, 1, 0, 2])
        assert np.array_equal(single.segptr, [0, 1, 2, 4])
