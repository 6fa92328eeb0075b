"""Compressed Sparse Fiber storage and its fiber-vectorized TTMc kernels."""

import numpy as np
import pytest

from repro.core import HOOIOptions, SparseTensor, hooi, ttmc_matricized
from repro.core.symbolic import symbolic_ttmc
from repro.data import power_law_sparse_tensor
from repro.engine import (
    COOPlan,
    CSFPlan,
    HOOIEngine,
    WorkspacePool,
    resolve_ttmc_backend,
)
from repro.parallel.parallel_for import ParallelConfig, parallel_for
from repro.sparse import (
    CSFTensor,
    CSFTensorSet,
    csf_slab_chunk,
    csf_ttmc_compact,
    csf_ttmc_matricized,
    default_mode_order,
    memory_report,
    rooted_mode_order,
)
from repro.util.linalg import random_orthonormal


def make_factors(shape, rank=3, seed=0):
    return [
        random_orthonormal(size, min(rank, size), seed=seed + 7 * n)
        for n, size in enumerate(shape)
    ]


class TestModeOrders:
    def test_default_is_shortest_first(self):
        assert default_mode_order((50, 10, 30)) == (1, 2, 0)

    def test_default_breaks_ties_by_mode(self):
        assert default_mode_order((20, 20, 10)) == (2, 0, 1)

    def test_rooted_puts_root_first_rest_shortest(self):
        assert rooted_mode_order((50, 10, 30), 0) == (0, 1, 2)
        assert rooted_mode_order((50, 10, 30), 2) == (2, 1, 0)

    def test_rooted_rejects_bad_mode(self):
        with pytest.raises(Exception):
            rooted_mode_order((5, 5), 2)

    def test_bad_mode_order_rejected(self, small_tensor_3d):
        with pytest.raises(ValueError, match="permutation"):
            CSFTensor(small_tensor_3d, mode_order=(0, 1, 1))


class TestConstruction:
    def test_level_sizes_shrink_towards_root(self, small_tensor_3d):
        csf = CSFTensor(small_tensor_3d)
        sizes = [csf.num_fibers(level) for level in range(csf.order)]
        assert sizes[-1] == small_tensor_3d.nnz
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_root_fids_sorted_unique(self, small_tensor_3d):
        csf = CSFTensor(small_tensor_3d)
        roots = csf.fids[0]
        assert (np.diff(roots) > 0).all()

    def test_fptr_partitions_every_level(self, small_tensor_4d):
        csf = CSFTensor(small_tensor_4d)
        for level in range(csf.order - 1):
            fptr = csf.fptr[level]
            assert fptr[0] == 0
            assert fptr[-1] == csf.num_fibers(level + 1)
            assert (np.diff(fptr) >= 1).all()  # no empty fibers

    def test_node_spans_sum_to_nnz(self, small_tensor_4d):
        csf = CSFTensor(small_tensor_4d)
        for level in range(csf.order):
            assert csf.node_spans(level).sum() == small_tensor_4d.nnz

    def test_target_rows_match_symbolic(self, small_tensor_3d):
        for mode in range(3):
            shared = CSFTensor(small_tensor_3d)
            rooted = CSFTensor(
                small_tensor_3d,
                mode_order=rooted_mode_order(small_tensor_3d.shape, mode),
            )
            expected = symbolic_ttmc(small_tensor_3d, mode).rows
            np.testing.assert_array_equal(shared.target_rows(mode), expected)
            np.testing.assert_array_equal(rooted.target_rows(mode), expected)

    def test_empty_tensor(self):
        csf = CSFTensor(SparseTensor.empty((4, 5, 6)))
        assert csf.nnz == 0
        assert all(csf.num_fibers(level) == 0 for level in range(3))
        assert csf.to_coo().nnz == 0

    def test_preserves_dtype(self, small_tensor_3d):
        csf = CSFTensor(small_tensor_3d.astype("float32"))
        assert csf.dtype == np.float32


class TestRoundTrip:
    def test_roundtrip_all_orders(self, small_tensor_3d, small_tensor_4d):
        for tensor in (small_tensor_3d, small_tensor_4d):
            for mode in range(tensor.order):
                order = rooted_mode_order(tensor.shape, mode)
                back = CSFTensor(tensor, mode_order=order).to_coo()
                assert back.shape == tensor.shape
                assert back.allclose(tensor, rtol=0, atol=0)

    def test_roundtrip_keeps_duplicates(self):
        indices = np.array([[1, 2], [1, 2], [0, 1]])
        values = np.array([1.0, 2.0, 3.0])
        tensor = SparseTensor(indices, values, (3, 4))
        csf = CSFTensor(tensor)
        assert csf.nnz == 3  # duplicates preserved structurally
        assert csf.to_coo().allclose(tensor)  # allclose deduplicates both

    def test_roundtrip_matrix(self):
        tensor = SparseTensor(
            np.array([[0, 3], [2, 1], [2, 3]]), np.array([1.0, -2.0, 0.5]), (3, 4)
        )
        back = CSFTensor(tensor, mode_order=(1, 0)).to_coo()
        np.testing.assert_allclose(back.to_dense(), tensor.to_dense())


class TestMemoryBytes:
    def test_coo_memory_bytes_exact(self):
        tensor = SparseTensor(
            np.array([[0, 1, 2], [1, 1, 0]]), np.array([1.0, 2.0]), (2, 3, 4)
        )
        assert tensor.memory_bytes() == 2 * 3 * 8 + 2 * 8

    def test_csf_memory_bytes_exact(self):
        # Two nonzeros sharing the root fiber: 1 + 2 + 2 fids, 2 + 3 fptr
        # entries, 2 values.
        tensor = SparseTensor(
            np.array([[0, 1, 2], [0, 1, 3]]), np.array([1.0, 2.0]), (2, 3, 4)
        )
        csf = CSFTensor(tensor, mode_order=(0, 1, 2))
        assert [len(f) for f in csf.fids] == [1, 1, 2]
        assert csf.memory_bytes() == (1 + 1 + 2) * 8 + (2 + 2) * 8 + 2 * 8

    def test_shared_tree_compresses_power_law(self):
        tensor = power_law_sparse_tensor((60, 50, 40), 8000, exponents=0.9, seed=2)
        report = memory_report(tensor, CSFTensorSet.shared_tree(tensor))
        assert report["coo_bytes"] == tensor.memory_bytes()
        assert report["ratio"] < 1.0  # merged prefixes beat flat COO

    def test_per_mode_set_counts_all_trees(self, small_tensor_3d):
        per_mode = CSFTensorSet.per_mode(small_tensor_3d)
        assert per_mode.memory_bytes() == sum(
            per_mode.tree_for(m).memory_bytes() for m in range(3)
        )

    def test_shared_set_counts_tree_once(self, small_tensor_3d):
        shared = CSFTensorSet.shared_tree(small_tensor_3d)
        assert shared.memory_bytes() == shared.tree_for(0).memory_bytes()
        assert len(shared.trees) == 1


class TestTTMcParity:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_shared_tree_matches_coo(self, small_tensor_3d, mode):
        factors = make_factors(small_tensor_3d.shape)
        csf = CSFTensor(small_tensor_3d)
        expected = ttmc_matricized(small_tensor_3d, factors, mode)
        result = csf_ttmc_matricized(csf, factors, mode)
        assert result.shape == expected.shape
        np.testing.assert_allclose(result, expected, atol=1e-10)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_rooted_tree_matches_coo_4d(self, small_tensor_4d, mode):
        factors = make_factors(small_tensor_4d.shape)
        csf = CSFTensor(
            small_tensor_4d,
            mode_order=rooted_mode_order(small_tensor_4d.shape, mode),
        )
        expected = ttmc_matricized(small_tensor_4d, factors, mode)
        np.testing.assert_allclose(
            csf_ttmc_matricized(csf, factors, mode), expected, atol=1e-10
        )

    def test_distinct_ranks_column_order(self, small_tensor_4d):
        """Unequal ranks catch any column-permutation mistake."""
        rng = np.random.default_rng(5)
        factors = [
            rng.standard_normal((size, rank))
            for size, rank in zip(small_tensor_4d.shape, (2, 3, 4, 5))
        ]
        csf = CSFTensor(small_tensor_4d)
        for mode in range(4):
            expected = ttmc_matricized(small_tensor_4d, factors, mode)
            np.testing.assert_allclose(
                csf_ttmc_matricized(csf, factors, mode), expected, atol=1e-10
            )

    def test_threaded_slabs_match(self, small_tensor_4d):
        factors = make_factors(small_tensor_4d.shape)
        config = ParallelConfig(num_threads=3, schedule="static")
        for mode in range(4):
            csf = CSFTensor(
                small_tensor_4d,
                mode_order=rooted_mode_order(small_tensor_4d.shape, mode),
            )
            expected = ttmc_matricized(small_tensor_4d, factors, mode)
            # The CSF plan's chunk body on a thread team: root-fiber slabs
            # written lock-free into their rows of a full Y_(n) ...
            full = np.zeros_like(expected)
            parallel_for(
                lambda start, stop: csf_slab_chunk(
                    csf, factors, full, start, stop
                ),
                csf.num_fibers(0),
                config,
            )
            np.testing.assert_allclose(full, expected, atol=1e-10)
            # ... or into a compact (J_n, ∏R_t) block.
            compact = np.empty((csf.num_fibers(0), expected.shape[1]))
            parallel_for(
                lambda start, stop: csf_slab_chunk(
                    csf, factors, compact, start, stop, compact=True
                ),
                csf.num_fibers(0),
                config,
            )
            np.testing.assert_allclose(
                compact, expected[csf.fids[0]], atol=1e-10
            )

    def test_float32_stays_float32(self, small_tensor_3d):
        tensor = small_tensor_3d.astype("float32")
        factors = [np.asarray(f, dtype=np.float32) for f in make_factors(tensor.shape)]
        result = csf_ttmc_matricized(CSFTensor(tensor), factors, 0)
        expected = ttmc_matricized(tensor, factors, 0)
        assert result.dtype == np.float32
        np.testing.assert_allclose(result, expected, atol=1e-3)

    def test_mixed_dtype_promotes(self, small_tensor_3d):
        tensor = small_tensor_3d.astype("float32")
        factors = make_factors(tensor.shape)  # float64
        assert csf_ttmc_matricized(CSFTensor(tensor), factors, 1).dtype == np.float64

    def test_out_and_zero_policies(self, small_tensor_3d):
        factors = make_factors(small_tensor_3d.shape)
        csf = CSFTensor(small_tensor_3d)
        expected = ttmc_matricized(small_tensor_3d, factors, 0)
        out = np.full_like(expected, 7.0)
        result = csf_ttmc_matricized(csf, factors, 0, out=out, zero="full")
        assert result is out
        np.testing.assert_allclose(out, expected, atol=1e-10)
        # zero="none" leaves untouched rows alone
        out2 = np.zeros_like(expected)
        csf_ttmc_matricized(csf, factors, 0, out=out2, zero="none")
        np.testing.assert_allclose(out2, expected, atol=1e-10)
        with pytest.raises(ValueError, match="zero"):
            csf_ttmc_matricized(csf, factors, 0, out=out, zero="sometimes")
        with pytest.raises(ValueError, match="shape"):
            csf_ttmc_matricized(csf, factors, 0, out=out[:, :-1])

    def test_compact_form(self, small_tensor_3d):
        factors = make_factors(small_tensor_3d.shape)
        csf = CSFTensor(small_tensor_3d)
        rows, block = csf_ttmc_compact(csf, factors, 1)
        expected = ttmc_matricized(small_tensor_3d, factors, 1)
        np.testing.assert_array_equal(rows, symbolic_ttmc(small_tensor_3d, 1).rows)
        np.testing.assert_allclose(block, expected[rows], atol=1e-10)

    def test_empty_tensor_ttmc(self):
        tensor = SparseTensor.empty((4, 5, 6))
        factors = make_factors(tensor.shape, rank=2)
        result = csf_ttmc_matricized(CSFTensor(tensor), factors, 0)
        assert result.shape == (4, 2 * 2)
        assert not result.any()

    def test_workspace_steady_state(self, small_tensor_3d):
        factors = make_factors(small_tensor_3d.shape)
        csf = CSFTensor(small_tensor_3d)
        pool = WorkspacePool()
        csf_ttmc_matricized(csf, factors, 0, workspace=pool)
        allocations = pool.allocations
        csf_ttmc_matricized(csf, factors, 0, workspace=pool)
        assert pool.allocations == allocations

    def test_workspace_reused_across_tree_rebuilds(self, small_tensor_3d):
        """A shared pool must not grow when trees are rebuilt per run.

        The engine rebuilds its CSFTensorSet in every ``prepare``, so the
        scratch tags are keyed by mode order (not tree identity): a fresh
        tree with the same ordering must hit the pooled buffers of the
        previous run.
        """
        factors = make_factors(small_tensor_3d.shape)
        pool = WorkspacePool()
        csf_ttmc_matricized(CSFTensor(small_tensor_3d), factors, 0, workspace=pool)
        allocations = pool.allocations
        buffers = pool.num_buffers
        csf_ttmc_matricized(CSFTensor(small_tensor_3d), factors, 0, workspace=pool)
        assert pool.allocations == allocations
        assert pool.num_buffers == buffers

    def test_engine_reruns_share_workspace(self, small_tensor_3d):
        """Back-to-back hooi runs on one pool: zero second-run allocations."""
        pool = WorkspacePool()
        opts = HOOIOptions(max_iterations=2, seed=0, tensor_format="csf")
        hooi(small_tensor_3d, (3, 3, 2), opts, workspace=pool)
        allocations = pool.allocations
        hooi(small_tensor_3d, (3, 3, 2), opts, workspace=pool)
        assert pool.allocations == allocations


class TestCSFBackends:
    RANKS = (3, 3, 2)

    def run(self, tensor, backend, **options):
        opts = HOOIOptions(max_iterations=3, seed=0, **options)
        return HOOIEngine(tensor, self.RANKS, opts, backend=backend).run()

    def test_sequential_backend_parity(self, small_tensor_3d):
        reference = hooi(
            small_tensor_3d, self.RANKS, HOOIOptions(max_iterations=3, seed=0)
        )
        for trees in ("per-mode", "shared"):
            result = self.run(small_tensor_3d, CSFPlan(trees=trees))
            np.testing.assert_allclose(
                result.fit_history, reference.fit_history, atol=1e-10
            )
            for ours, ref in zip(
                result.decomposition.factors, reference.decomposition.factors
            ):
                np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_threaded_backend_parity(self, small_tensor_3d):
        reference = hooi(
            small_tensor_3d, self.RANKS, HOOIOptions(max_iterations=3, seed=0)
        )
        backend = CSFPlan(ParallelConfig(num_threads=2))
        result = self.run(small_tensor_3d, backend)
        np.testing.assert_allclose(
            result.fit_history, reference.fit_history, atol=1e-10
        )

    def test_bad_tree_policy_rejected(self):
        with pytest.raises(ValueError, match="tree policy"):
            CSFPlan(trees="forest")

    @pytest.mark.parametrize("threads", [None, 2])
    def test_compute_ttmc_rows_subset(self, small_tensor_3d, threads):
        backend = CSFPlan(threads and ParallelConfig(num_threads=threads))
        opts = HOOIOptions(max_iterations=1, seed=0)
        eng = HOOIEngine(small_tensor_3d, self.RANKS, opts, backend=backend)
        eng.run()
        rows = symbolic_ttmc(eng.tensor, 0).rows[::2]
        block = backend.compute_ttmc_rows(eng, 0, rows)
        full = ttmc_matricized(eng.tensor, eng.factors, 0)
        np.testing.assert_allclose(block, full[rows], atol=1e-10)

    def test_compute_ttmc_rows_missing_rows_zero(self, small_tensor_3d):
        backend = CSFPlan()
        opts = HOOIOptions(max_iterations=1, seed=0)
        eng = HOOIEngine(small_tensor_3d, self.RANKS, opts, backend=backend)
        eng.run()
        empty_rows = np.setdiff1d(
            np.arange(small_tensor_3d.shape[0]),
            symbolic_ttmc(eng.tensor, 0).rows,
        )
        if empty_rows.size:
            block = backend.compute_ttmc_rows(eng, 0, empty_rows[:2])
            assert not block.any()


class TestResolver:
    def test_csf_format_resolves_csf_backends(self):
        per_mode = dict(tensor_format="csf", ttmc_strategy="per-mode")
        inline = resolve_ttmc_backend(HOOIOptions(**per_mode))
        assert (type(inline), inline.executor) == (CSFPlan, None)
        threaded = resolve_ttmc_backend(
            HOOIOptions(**per_mode, execution="thread", num_workers=2)
        )
        assert (type(threaded), threaded.executor) == (
            CSFPlan, ParallelConfig(num_threads=2)
        )
        assert threaded.trees == "per-mode"

    def test_coo_format_unchanged(self):
        backend = resolve_ttmc_backend(HOOIOptions(ttmc_strategy="per-mode"))
        assert (type(backend), backend.executor) == (COOPlan, None)

    def test_split_executors_need_per_mode_trees(self):
        # Root-fiber slabs partition the output rows only over trees rooted
        # at their target mode; a shared tree is inline-only.
        assert CSFPlan(ParallelConfig(num_threads=2)).trees == "per-mode"
        with pytest.raises(ValueError, match="per-mode"):
            CSFPlan(ParallelConfig(num_threads=2), trees="shared")
        assert CSFPlan(ParallelConfig(num_threads=1), trees="shared").executor is None
