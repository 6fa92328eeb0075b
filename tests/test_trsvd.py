"""Unit tests for the matrix-free truncated SVD solvers."""

import numpy as np
import pytest

from repro.core import (
    CountingOperator,
    DenseOperator,
    LinearOperator,
    gram_svd,
    lanczos_svd,
    randomized_svd,
    truncated_svd,
)


def spectrum_matrix(rng, m=120, n=40, decay=0.5):
    """Matrix with a controlled, well-separated spectrum."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = decay ** np.arange(n) * 10.0
    return (u * s) @ v.T


class TestDenseOperator:
    def test_matvec_rmatvec(self, rng):
        a = rng.standard_normal((8, 5))
        op = DenseOperator(a)
        x = rng.standard_normal(5)
        y = rng.standard_normal(8)
        assert np.allclose(op.matvec(x), a @ x)
        assert np.allclose(op.rmatvec(y), a.T @ y)

    def test_matmat(self, rng):
        a = rng.standard_normal((8, 5))
        block = rng.standard_normal((5, 3))
        assert np.allclose(DenseOperator(a).matmat(block), a @ block)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            DenseOperator(np.ones(3))

    def test_counting_operator(self, rng):
        op = CountingOperator(DenseOperator(rng.standard_normal((6, 4))))
        op.matvec(np.ones(4))
        op.rmatvec(np.ones(6))
        op.matmat(np.ones((4, 2)))
        assert op.matvec_count == 3
        assert op.rmatvec_count == 1

    def test_generic_matmat_fallback(self, rng):
        class MyOp(LinearOperator):
            def __init__(self, a):
                self.a = a
                self.shape = a.shape

            def matvec(self, x):
                return self.a @ x

            def rmatvec(self, y):
                return self.a.T @ y

        a = rng.standard_normal((7, 4))
        op = MyOp(a)
        assert np.allclose(op.matmat(np.eye(4)), a)
        assert np.allclose(op.rmatmat(np.eye(7)), a.T)


class TestLanczos:
    def test_singular_values_match_dense(self, rng):
        a = spectrum_matrix(rng)
        result = lanczos_svd(a, 5)
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(result.singular_values, s[:5], rtol=1e-6)

    def test_left_subspace_matches(self, rng):
        a = spectrum_matrix(rng)
        result = lanczos_svd(a, 4)
        u, _, _ = np.linalg.svd(a, full_matrices=False)
        ours = result.left @ result.left.T
        reference = u[:, :4] @ u[:, :4].T
        assert np.allclose(ours, reference, atol=1e-6)

    def test_left_vectors_orthonormal(self, rng):
        result = lanczos_svd(spectrum_matrix(rng), 6)
        gram = result.left.T @ result.left
        assert np.allclose(gram, np.eye(6), atol=1e-8)

    def test_right_vectors_returned(self, rng):
        a = spectrum_matrix(rng)
        result = lanczos_svd(a, 3)
        assert result.right is not None
        # A v ≈ σ u for each triplet.
        for i in range(3):
            assert np.allclose(
                a @ result.right[:, i],
                result.singular_values[i] * result.left[:, i],
                atol=1e-6,
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_result_does_not_jump_at_the_tolerance(self, seed):
        """The solver restarts once more after first meeting ``tol``.

        Stopping at that restart let it decide the result: tolerances 25%
        apart (or a round-off change to the operand, such as another TTMc
        association) returned subspaces 0.1–0.6 ``tol`` apart on this
        spectrum.  With the extra restart the jump is ~1e-4 ``tol``.
        """
        gen = np.random.default_rng(seed)
        u, _ = np.linalg.qr(gen.standard_normal((300, 80)))
        v, _ = np.linalg.qr(gen.standard_normal((80, 80)))
        a = (u * 0.95 ** np.arange(80)) @ v.T
        for tol in np.logspace(-11, -5, 61):
            lo, hi = (lanczos_svd(a, 8, tol=t).left for t in (tol, 1.25 * tol))
            assert np.abs(lo @ lo.T - hi @ hi.T).max() <= 1e-2 * tol

    def test_small_operand_is_exact_in_one_pass(self, rng):
        # At most twice the default subspace columns: the right vectors span
        # every column, so one pass is exact and no restart runs.
        a = spectrum_matrix(rng, m=40, n=16)
        result = lanczos_svd(a, 4)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        assert result.iterations == 1 and result.matvecs == 16
        assert np.allclose(result.singular_values, s[:4], rtol=1e-13)
        projector = u[:, :4] @ u[:, :4].T
        assert np.abs(result.left @ result.left.T - projector).max() < 1e-13

    def test_counts_operator_applications(self, rng):
        op = CountingOperator(DenseOperator(spectrum_matrix(rng)))
        result = lanczos_svd(op, 3)
        assert result.matvecs == op.matvec_count > 0
        assert result.rmatvecs == op.rmatvec_count > 0

    def test_rank_larger_than_dims_clipped(self, rng):
        a = rng.standard_normal((10, 4))
        result = lanczos_svd(a, 9)
        assert result.rank == 4

    def test_rank_equal_to_min_dim(self, rng):
        a = rng.standard_normal((12, 5))
        result = lanczos_svd(a, 5)
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(np.sort(result.singular_values)[::-1], s, rtol=1e-6)

    def test_invalid_rank(self, rng):
        with pytest.raises(ValueError):
            lanczos_svd(rng.standard_normal((5, 5)), 0)

    def test_deterministic_given_seed(self, rng):
        a = spectrum_matrix(rng)
        r1 = lanczos_svd(a, 4, seed=3)
        r2 = lanczos_svd(a, 4, seed=3)
        assert np.allclose(r1.left, r2.left)

    def test_rank_one_matrix(self, rng):
        u = rng.standard_normal(30)
        v = rng.standard_normal(8)
        a = np.outer(u, v)
        result = lanczos_svd(a, 2)
        assert np.isclose(result.singular_values[0],
                          np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-8)
        assert result.singular_values[1] < 1e-6

    def test_zero_matrix(self):
        result = lanczos_svd(np.zeros((10, 6)), 2)
        assert np.allclose(result.singular_values, 0.0)


class TestRandomized:
    def test_singular_values_close(self, rng):
        a = spectrum_matrix(rng)
        result = randomized_svd(a, 5, power_iterations=3)
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(result.singular_values, s[:5], rtol=1e-4)

    def test_orthonormal_output(self, rng):
        result = randomized_svd(spectrum_matrix(rng), 4)
        assert np.allclose(result.left.T @ result.left, np.eye(4), atol=1e-8)

    def test_invalid_rank(self, rng):
        with pytest.raises(ValueError):
            randomized_svd(rng.standard_normal((5, 5)), -1)


class TestDispatcher:
    def test_dense_method(self, rng):
        a = spectrum_matrix(rng)
        result = truncated_svd(a, 3, method="dense")
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(result.singular_values, s[:3])

    def test_gram_method(self, rng):
        a = spectrum_matrix(rng)
        result = truncated_svd(a, 3, method="gram")
        u, _, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(result.left @ result.left.T, u[:, :3] @ u[:, :3].T,
                           atol=1e-6)

    def test_methods_agree_on_subspace(self, rng):
        a = spectrum_matrix(rng)
        subspaces = []
        for method in ("lanczos", "randomized", "dense", "gram"):
            res = truncated_svd(a, 3, method=method)
            subspaces.append(res.left @ res.left.T)
        for other in subspaces[1:]:
            assert np.allclose(subspaces[0], other, atol=1e-5)

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError):
            truncated_svd(rng.standard_normal((4, 4)), 2, method="magic")

    def test_dense_method_requires_matrix(self, rng):
        class Op(LinearOperator):
            shape = (4, 4)

        with pytest.raises(TypeError):
            truncated_svd(Op(), 2, method="dense")


class TestGramSVD:
    """The Gram path: eigh of the short side's Gram matrix + one recovery GEMM.

    ``I_n ≥ W`` eigendecomposes ``YᵀY`` and recovers ``U = Y V Σ⁻¹``;
    ``I_n < W`` eigendecomposes ``Y Yᵀ`` and recovers ``V = Yᵀ U Σ⁻¹``.
    """

    @pytest.mark.parametrize(
        "shape", [(30, 64), (63, 64), (64, 64), (65, 64), (200, 64)]
    )
    def test_lanczos_parity_on_both_sides(self, rng, shape):
        m, n = shape
        a = spectrum_matrix(rng, m=max(m, n), n=min(m, n))
        if m < n:
            a = a.T
        gram = gram_svd(a, 4)
        ref = lanczos_svd(a, 4, tol=1e-12, seed=0)
        assert gram.left.shape == (m, 4) and gram.right.shape == (n, 4)
        assert np.allclose(
            gram.singular_values, ref.singular_values, rtol=1e-10, atol=0
        )
        for ours, theirs in ((gram.left, ref.left), (gram.right, ref.right)):
            assert np.abs(ours @ ours.T - theirs @ theirs.T).max() < 1e-10
            assert np.allclose(ours.T @ ours, np.eye(4), atol=1e-12)
        # The triplets pair up: U Σ Vᵀ is the same rank-4 truncation.
        assert np.allclose(
            (gram.left * gram.singular_values) @ gram.right.T,
            (ref.left * ref.singular_values) @ ref.right.T,
            atol=1e-10,
        )

    def test_wide_operand_without_right_vectors(self, rng):
        a = spectrum_matrix(rng, m=64, n=20).T
        res = gram_svd(a, 3, compute_right=False)
        assert res.right is None
        u, _, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(
            res.left @ res.left.T, u[:, :3] @ u[:, :3].T, atol=1e-10
        )

    def test_wide_rank_deficient_recovers_orthonormal_right(self, rng):
        # Rank 2 at I_n < W: the squashed right directions are completed
        # to an orthonormal basis, as the left ones are on tall operands.
        a = np.outer(rng.standard_normal(6), rng.standard_normal(60))
        a += np.outer(rng.standard_normal(6), rng.standard_normal(60))
        res = gram_svd(a, 4)
        assert np.allclose(res.left.T @ res.left, np.eye(4), atol=1e-8)
        assert np.allclose(res.right.T @ res.right, np.eye(4), atol=1e-8)
        assert res.singular_values[2] < 1e-6 * res.singular_values[0]

    def test_matches_dense_svd_on_tall_matrix(self, rng):
        a = spectrum_matrix(rng, m=500, n=12)
        result = gram_svd(a, 4)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(result.singular_values, s[:4], rtol=1e-8)
        assert np.allclose(
            result.left @ result.left.T, u[:, :4] @ u[:, :4].T, atol=1e-7
        )
        # Left vectors are orthonormal and the right factor is returned.
        assert np.allclose(result.left.T @ result.left, np.eye(4), atol=1e-10)
        assert result.right.shape == (12, 4)

    def test_reconstruction(self, rng):
        a = spectrum_matrix(rng, m=200, n=8)
        res = gram_svd(a, 8)
        approx = (res.left * res.singular_values) @ res.right.T
        assert np.allclose(approx, a, atol=1e-7)

    def test_rank_deficient_stays_orthonormal(self, rng):
        # Rank-2 matrix, rank-4 request: the squashed directions must be
        # completed to an orthonormal basis instead of returning garbage.
        a = np.outer(rng.standard_normal(60), rng.standard_normal(6))
        a += np.outer(rng.standard_normal(60), rng.standard_normal(6))
        res = gram_svd(a, 4)
        assert np.allclose(res.left.T @ res.left, np.eye(4), atol=1e-8)
        assert res.singular_values[2] < 1e-6 * res.singular_values[0]

    def test_float32_operand_keeps_cheap_gemm(self, rng):
        a = spectrum_matrix(rng, m=300, n=10).astype(np.float32)
        res = gram_svd(a, 3)
        u, s, _ = np.linalg.svd(np.asarray(a, dtype=np.float64),
                                full_matrices=False)
        assert np.allclose(res.singular_values, s[:3], rtol=1e-3)
        assert np.allclose(
            res.left @ res.left.T, u[:, :3] @ u[:, :3].T, atol=1e-3
        )

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            gram_svd(rng.standard_normal((5, 3)), 0)
        with pytest.raises(ValueError):
            gram_svd(np.ones(4), 2)

    def test_hooi_gram_option_close_to_lanczos(self, rng):
        from repro.core import HOOIOptions, SparseTensor, hooi

        idx = rng.integers(0, 25, size=(800, 3))
        tensor = SparseTensor(idx, rng.standard_normal(800), (25, 25, 25),
                              sum_duplicates=True)
        lanczos = hooi(tensor, 4, HOOIOptions(
            max_iterations=3, init="hosvd", seed=0, trsvd_method="lanczos"))
        gram = hooi(tensor, 4, HOOIOptions(
            max_iterations=3, init="hosvd", seed=0, trsvd_method="gram"))
        assert abs(lanczos.fit - gram.fit) < 1e-6

    def test_distributed_rejects_gram(self, rng):
        from repro.core import HOOIOptions, SparseTensor
        from repro.distributed import distributed_hooi
        from repro.partition import make_partition

        idx = rng.integers(0, 10, size=(100, 3))
        tensor = SparseTensor(idx, rng.standard_normal(100), (10, 10, 10),
                              sum_duplicates=True)
        partition = make_partition(tensor, 2, "coarse-bl")
        with pytest.raises(ValueError, match="lanczos"):
            distributed_hooi(tensor, 3, partition,
                             HOOIOptions(max_iterations=1, trsvd_method="gram"))
