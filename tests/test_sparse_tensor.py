"""Unit tests for the SparseTensor container."""

import numpy as np
import pytest

from repro.core import SparseTensor


def make_tensor():
    indices = np.array([[0, 1, 2], [1, 0, 0], [0, 1, 2], [2, 2, 1]])
    values = np.array([1.0, 2.0, 3.0, -1.0])
    return SparseTensor(indices, values, (3, 3, 3))


class TestConstruction:
    def test_basic_properties(self):
        t = make_tensor()
        assert t.shape == (3, 3, 3)
        assert t.order == 3
        assert t.nnz == 4
        assert t.size == 27
        assert 0 < t.density < 1

    def test_sum_duplicates(self):
        indices = np.array([[0, 1, 2], [1, 0, 0], [0, 1, 2], [2, 2, 1]])
        values = np.array([1.0, 2.0, 3.0, -1.0])
        t = SparseTensor(indices, values, (3, 3, 3), sum_duplicates=True)
        assert t.nnz == 3
        dense = t.to_dense()
        assert dense[0, 1, 2] == 4.0

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[3, 0]]), np.array([1.0]), (3, 3))

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[-1, 0]]), np.array([1.0]), (3, 3))

    def test_value_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[0, 0]]), np.array([1.0, 2.0]), (3, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_at_the_boundary(self, bad):
        indices = np.array([[0, 0, 0], [1, 2, 0], [2, 1, 1]])
        values = np.array([1.0, bad, bad])
        with pytest.raises(
            ValueError, match=r"2 non-finite value\(s\).*coordinate \(1, 2, 0\)"
        ):
            SparseTensor(indices, values, (10, 10, 10))

    def test_non_finite_never_reaches_decompose(self):
        from repro import decompose

        indices = np.array([[0, 0, 0], [1, 2, 3], [4, 5, 6]])
        values = np.array([1.0, np.nan, 2.0])
        # Rejected at construction, not as "SVD did not converge" after a
        # full TTMc.
        with pytest.raises(ValueError, match="non-finite"):
            decompose(SparseTensor(indices, values, (10, 10, 10)), 3)

    def test_read_tns_rejects_nan(self, tmp_path):
        from repro.data import read_tns

        path = tmp_path / "bad.tns"
        path.write_text("1 1 1 1.5\n2 3 1 nan\n3 3 3 -inf\n")
        with pytest.raises(
            ValueError, match=r"2 non-finite value\(s\).*coordinate \(1, 2, 0\)"
        ):
            read_tns(path)

    def test_column_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[0, 0]]), np.array([1.0]), (3, 3, 3))

    def test_empty_tensor(self):
        t = SparseTensor.empty((4, 5))
        assert t.nnz == 0
        assert t.norm() == 0.0
        assert np.allclose(t.to_dense(), 0.0)

    def test_from_dense_roundtrip(self, rng):
        dense = rng.standard_normal((4, 5, 3))
        dense[np.abs(dense) < 0.7] = 0.0
        t = SparseTensor.from_dense(dense)
        assert np.allclose(t.to_dense(), dense)

    def test_from_dense_tolerance(self):
        dense = np.array([[0.1, 2.0], [0.0, -0.05]])
        t = SparseTensor.from_dense(dense, tol=0.2)
        assert t.nnz == 1

    def test_copy_is_independent(self):
        t = make_tensor()
        c = t.copy()
        c.values[0] = 99.0
        assert t.values[0] != 99.0


class TestOperations:
    def test_norm_matches_dense(self):
        t = make_tensor().deduplicate()
        assert np.isclose(t.norm(), np.linalg.norm(t.to_dense()))

    def test_scale(self):
        t = make_tensor()
        assert np.allclose(t.scale(2.0).values, 2.0 * t.values)

    def test_drop_zeros(self):
        t = SparseTensor(np.array([[0, 0], [1, 1]]), np.array([0.0, 2.0]), (2, 2))
        assert t.drop_zeros().nnz == 1

    def test_permute_modes(self):
        t = make_tensor().deduplicate()
        p = t.permute_modes([2, 0, 1])
        assert p.shape == (3, 3, 3)
        assert np.allclose(p.to_dense(), np.transpose(t.to_dense(), (2, 0, 1)))

    def test_permute_invalid(self):
        with pytest.raises(ValueError):
            make_tensor().permute_modes([0, 1])

    def test_mode_slice(self):
        t = make_tensor().deduplicate()
        s = t.mode_slice(0, 0)
        assert s.shape == (3, 3)
        assert np.allclose(s.to_dense(), t.to_dense()[0])

    def test_mode_slice_out_of_range(self):
        with pytest.raises(ValueError):
            make_tensor().mode_slice(0, 5)

    def test_select_nonzeros(self):
        t = make_tensor()
        sub = t.select_nonzeros(np.array([0, 2]))
        assert sub.nnz == 2
        assert sub.shape == t.shape

    def test_mode_counts(self):
        t = make_tensor()
        counts = t.mode_counts(0)
        assert counts.sum() == t.nnz
        assert counts.shape == (3,)

    def test_nonempty_rows(self):
        t = make_tensor()
        assert set(t.nonempty_rows(0)) == {0, 1, 2}

    def test_linear_indices_unique_after_dedup(self):
        t = make_tensor().deduplicate()
        keys = t.linear_indices()
        assert len(np.unique(keys)) == t.nnz


class TestMatricize:
    def test_matricization_matches_dense(self, small_tensor_3d):
        from repro.core import unfold

        dense = small_tensor_3d.to_dense()
        for mode in range(3):
            sparse_mat = small_tensor_3d.matricize(mode).toarray()
            assert np.allclose(sparse_mat, unfold(dense, mode))

    def test_matricization_4d(self, small_tensor_4d):
        from repro.core import unfold

        dense = small_tensor_4d.to_dense()
        for mode in range(4):
            assert np.allclose(
                small_tensor_4d.matricize(mode).toarray(), unfold(dense, mode)
            )

    def test_matricize_shape(self, small_tensor_3d):
        mat = small_tensor_3d.matricize(1)
        expected_cols = small_tensor_3d.shape[0] * small_tensor_3d.shape[2]
        assert mat.shape == (small_tensor_3d.shape[1], expected_cols)


class TestAllclose:
    def test_identical(self):
        t = make_tensor()
        assert t.allclose(t.copy())

    def test_different_values(self):
        t = make_tensor().deduplicate()
        other = t.copy()
        other.values[0] += 1.0
        assert not t.allclose(other)

    def test_different_shape(self):
        t = make_tensor()
        other = SparseTensor(t.indices, t.values, (3, 3, 4))
        assert not t.allclose(other)

    def test_extra_explicit_zero_ok(self):
        t = SparseTensor(np.array([[0, 0]]), np.array([1.0]), (2, 2))
        other = SparseTensor(
            np.array([[0, 0], [1, 1]]), np.array([1.0, 0.0]), (2, 2)
        )
        assert t.allclose(other)
